import numpy as np
import pytest

import orbitlab as ol
from orbitlab import _linalg, experiments, kempfness
from orbitlab.errors import InvalidArgumentError
from orbitlab.experiments import ExperimentConfig, get_scenario
from orbitlab.kempfness import CLOSED, INCONCLUSIVE, NON_CLOSED, FlowConfig


@pytest.fixture(scope="module")
def cartan6(sl6=None):
    return ol.cartan_decomposition_for(ol.special_linear(6, "complex"))


class TestMomentVector:
    def test_zero_vector_has_zero_moment(self, alt6, cartan6):
        zero = np.zeros((6, 6), dtype=complex)
        assert np.allclose(ol.moment_vector(alt6, cartan6.p_basis, zero), 0.0)

    def test_base_form_is_minimal(self, alt6, cartan6, v0):
        coeff = ol.moment_vector(alt6, cartan6.p_basis, v0)
        assert np.max(np.abs(coeff)) <= 1e-10

    def test_directional_derivative_oracle(self, alt6, cartan6):
        # <X . v, v> equals the derivative of |exp(tX) . v|^2 / 2 at t = 0;
        # v is normalized so the quotient's O(t) truncation term stays small
        rng = np.random.default_rng(0)
        t = 1e-6
        for trial in range(20):
            idx = rng.integers(cartan6.p_basis.dim)
            x = cartan6.p_basis.matrices[idx]
            v = ol.random_vector(alt6, rng)
            v = v / ol.reps.norm(alt6, v)
            plus = ol.act(alt6, ol.matrix_exp(t * x), v)
            fd = (ol.inner_product(alt6, plus, plus)
                  - ol.inner_product(alt6, v, v)) / (2 * t)
            exact = ol.inner_product(alt6, ol.differential_act(alt6, x, v), v)
            assert abs(fd - exact) <= 1e-5 * max(abs(exact), 1.0)

    def test_non_orthonormal_basis_rejected(self, alt6, sl6, v0):
        algebra = ol.lie_algebra_basis(sl6)
        with pytest.raises(InvalidArgumentError):
            ol.moment_vector(alt6, algebra, v0)

    def test_non_hermitian_basis_rejected(self, alt6, cartan6, v0):
        # the skew-Hermitian half of the split is orthonormal, but the
        # flow's step exponential reads only one triangle of sum c_i X_i
        k_basis = cartan6.k_basis
        assert k_basis.gram_residual <= kempfness.GRAM_TOL
        with pytest.raises(InvalidArgumentError, match="Hermitian"):
            ol.moment_vector(alt6, k_basis, v0)
        with pytest.raises(InvalidArgumentError, match="Hermitian"):
            ol.is_minimal(alt6, k_basis, v0)


def _closed_form_cases():
    cases = []
    for field in ("real", "complex"):
        sl2 = ol.special_linear(2, field)
        sl3 = ol.special_linear(3, field)
        sl4 = ol.special_linear(4, field)
        prod = ol.product(sl2, sl3)
        cases += [
            (ol.defining(sl3), sl3),
            (ol.sym2(sl3), sl3),
            (ol.alt_bilinear(sl4), sl4),
            (ol.external_tensor(prod), prod),
            (ol.direct_sum(ol.sym2(sl2), ol.defining(sl2),
                           ol.alt_bilinear(sl2)), sl2),
        ]
    # a proper subgroup: the block SL(2) inside SL(4)
    block = ol.block_embedding(ol.special_linear(2, "complex"), 4, 0)
    cases.append((ol.alt_bilinear(ol.special_linear(4, "complex")), block))
    return cases


@pytest.mark.parametrize(
    "rep,group", _closed_form_cases(),
    ids=lambda x: (f"{x.kind}-{x.group.field}"
                   if isinstance(x, ol.Representation) else x.family))
def test_closed_form_moment_matches_differential_loop(rep, group):
    # reference: one differential and one inner product per basis element
    p_basis = ol.cartan_decomposition_for(group).p_basis
    rng = np.random.default_rng(7)
    for _ in range(5):
        v = ol.random_vector(rep, rng)
        if rep.kind == "direct_sum":
            v = list(v)
        loop = np.array([ol.inner_product(rep, ol.differential_act(rep, x, v), v)
                         for x in p_basis.matrices])
        closed = ol.moment_vector(rep, p_basis, v)
        assert closed.shape == loop.shape == (p_basis.dim,)
        assert np.linalg.norm(closed - loop) <= 1e-12 * np.linalg.norm(loop)


@pytest.mark.parametrize("entry", [ol.norm_flow, ol.closedness_verdict],
                         ids=["norm_flow", "closedness_verdict"])
def test_flow_entry_rejects_malformed_vectors(entry, alt6, sl6):
    with pytest.raises(InvalidArgumentError):
        entry(alt6, sl6, np.ones((5, 5), dtype=complex))
    sl2 = ol.special_linear(2, "complex")
    pair = ol.direct_sum(ol.sym2(sl2), ol.sym2(sl2))
    m = np.array([[1.0, 0.5], [0.5, -2.0]], dtype=complex)
    for wrong in ((m,), (m, m, m)):
        with pytest.raises(InvalidArgumentError):
            entry(pair, sl2, wrong)


@pytest.mark.parametrize("entry", [ol.norm_flow, ol.closedness_verdict],
                         ids=["norm_flow", "closedness_verdict"])
def test_flow_entry_rejects_a_vector_whose_norm_overflows(entry):
    # finite entries, but |v|^2 = 2e616 is not a float
    sl2 = ol.special_linear(2, "complex")
    with pytest.raises(InvalidArgumentError, match="overflows"):
        entry(ol.defining(sl2), sl2, np.array([1e308, 1e308], dtype=complex))


class TestIsMinimal:
    def test_base_form_minimal(self, alt6, cartan6, v0):
        assert ol.is_minimal(alt6, cartan6.p_basis, v0)

    def test_unipotent_translate_not_minimal(self, alt6, cartan6, x_translate):
        assert not ol.is_minimal(alt6, cartan6.p_basis, x_translate)

    def test_compact_group_vacuously_minimal(self):
        so3 = ol.special_orthogonal(3, "real")
        rep = ol.defining(so3)
        cartan = ol.cartan_decomposition_for(so3)
        assert cartan.p_basis.dim == 0
        v = np.array([1.0, 2.0, 3.0])
        assert ol.is_minimal(rep, cartan.p_basis, v)

    def test_zero_vector_minimal(self, alt6, cartan6):
        assert ol.is_minimal(alt6, cartan6.p_basis, np.zeros((6, 6), complex))


class TestNormFlow:
    def test_starts_at_minimal_terminates_immediately(self, alt6, sl6, v0):
        trace = ol.norm_flow(alt6, sl6, v0)
        assert trace.converged
        assert trace.iterations_used == 0
        assert np.allclose(trace.limit_point, v0)

    def test_ambient_flow_reaches_minimal_vector(self, alt6, sl6, x_translate):
        trace = ol.norm_flow(alt6, sl6, x_translate)
        assert trace.converged
        assert trace.moment_norms[-1] <= 1e-8
        # the minimum of the norm over the ambient orbit is |v0| = sqrt(6)
        assert trace.norms[-1] == pytest.approx(np.sqrt(6.0), rel=1e-6)
        algebra = ol.lie_algebra_basis(sl6)
        assert ol.orbit_dimension(alt6, algebra, trace.limit_point) == 14

    def test_block_flow_descends_to_smaller_orbit(self, alt6, sl2_block,
                                                  x_translate, v0):
        trace = ol.norm_flow(alt6, sl2_block, x_translate)
        assert trace.converged
        assert np.all(np.diff(trace.norms) <= 0)
        # the limit is the base form itself, outside the block orbit
        assert np.linalg.norm(trace.limit_point - v0) <= 1e-3

    def test_norms_monotone_on_random_starts(self, alt6, sl6, v0):
        for seed in range(5):
            g = ol.random_group_element(sl6, seed, 0.5)
            x = ol.act(alt6, g, v0)
            trace = ol.norm_flow(alt6, sl6, x)
            assert np.all(np.diff(trace.norms) <= 0)

    def test_budget_exhaustion_flagged_not_raised(self, alt6, sl6, x_translate):
        config = FlowConfig(max_iterations=2)
        trace = ol.norm_flow(alt6, sl6, x_translate, config)
        assert not trace.converged
        assert trace.reason == "budget"


@pytest.mark.parametrize("reason", ["moment", "budget", "collapse"])
def test_trace_stop_state_is_its_reason(reason, alt6, sl6, x_translate):
    # converged, collapsed and the step count are read off the stored
    # reason and norms; the JSON keeps every key
    rep, group, v = alt6, sl6, x_translate
    config = FlowConfig(max_iterations=2 if reason == "budget" else 20000)
    if reason == "collapse":
        group = ol.special_linear(2, "complex")
        rep = ol.sym2(group)
        v = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    payload = ol.norm_flow(rep, group, v, config).to_json(rep)
    assert set(payload) == {"norms", "moment_norms", "iterations_used",
                            "converged", "collapsed", "reason",
                            "limit_point"}
    assert payload["reason"] == reason
    assert payload["converged"] == (reason != "budget")
    assert payload["collapsed"] == (reason == "collapse")
    assert payload["iterations_used"] == len(payload["norms"]) - 1


class TestClosednessVerdict:
    def test_zero_vector_closed(self, alt6, sl6):
        verdict = ol.closedness_verdict(alt6, sl6, np.zeros((6, 6), complex))
        assert verdict.status == CLOSED
        assert verdict.start_orbit_dim == 0

    def test_ambient_orbit_closed(self, alt6, sl6, x_translate):
        verdict = ol.closedness_verdict(alt6, sl6, x_translate)
        assert verdict.status == CLOSED
        assert verdict.start_orbit_dim == 14
        assert verdict.limit_orbit_dim == 14

    def test_block_orbit_not_closed(self, alt6, sl2_block, x_translate):
        verdict = ol.closedness_verdict(alt6, sl2_block, x_translate)
        assert verdict.status == NON_CLOSED
        assert verdict.start_orbit_dim == 2
        assert verdict.limit_orbit_dim < 2

    def test_nilpotent_vector_collapses_to_zero(self):
        sl2 = ol.special_linear(2, "complex")
        rep = ol.sym2(sl2)
        nilpotent = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)  # det 0
        verdict = ol.closedness_verdict(rep, sl2, nilpotent)
        assert verdict.status == NON_CLOSED
        assert verdict.limit_orbit_dim == 0
        assert verdict.limit_norm == 0.0
        assert verdict.trace.collapsed

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_dense_rank_one_start_collapses_in_both_fields(self, field):
        # regression: rounding noise must not park the flow on a nearby
        # det != 0 orbit and fake a closed verdict
        sl2 = ol.special_linear(2, field)
        rep = ol.sym2(sl2)
        m = np.ones((2, 2), dtype=sl2.dtype)
        verdict = ol.closedness_verdict(rep, sl2, m)
        assert verdict.status == NON_CLOSED
        assert verdict.trace.collapsed

    def test_generic_sym2_point_closed(self):
        sl2 = ol.special_linear(2, "complex")
        rep = ol.sym2(sl2)
        m = np.array([[1.0, 0.5], [0.5, -2.0]], dtype=complex)
        verdict = ol.closedness_verdict(rep, sl2, m)
        assert verdict.status == CLOSED

    def test_budget_exhaustion_gives_inconclusive(self, alt6, sl6, x_translate):
        config = FlowConfig(max_iterations=2)
        verdict = ol.closedness_verdict(alt6, sl6, x_translate, config)
        assert verdict.status == INCONCLUSIVE

    @pytest.mark.parametrize("factor", [2.0, -1.0, 1e-3])
    def test_scale_invariance(self, alt6, sl6, sl2_block, x_translate, factor):
        for group, expected in ((sl6, CLOSED), (sl2_block, NON_CLOSED)):
            scaled = ol.reps.scale(alt6, factor, x_translate)
            verdict = ol.closedness_verdict(alt6, group, scaled)
            assert verdict.status == expected

    def test_invariant_under_compact_translation(self, alt6, sl2_block,
                                                 x_translate):
        # u in the compact part of the subgroup moves the point inside the
        # orbit without changing norms; the verdict must not move either.
        cartan = ol.cartan_decomposition_for(sl2_block)
        base = ol.closedness_verdict(alt6, sl2_block, x_translate)
        rng = np.random.default_rng(3)
        for _ in range(3):
            coeff = rng.standard_normal(cartan.k_basis.dim)
            u = ol.matrix_exp(np.einsum("i,ijk->jk", coeff.astype(complex),
                                        cartan.k_basis.matrices))
            moved = ol.act(alt6, u, x_translate)
            verdict = ol.closedness_verdict(alt6, sl2_block, moved)
            assert verdict.status == base.status
            assert verdict.start_orbit_dim == base.start_orbit_dim

    def test_invariant_under_unitary_group_conjugation(self, alt6, sl6,
                                                       sl2_block, x_translate):
        # conjugating the subgroup by an ambient unitary and translating the
        # point accordingly preserves norms, hence the verdict
        cartan_g = ol.cartan_decomposition_for(sl6)
        rng = np.random.default_rng(4)
        coeff = 0.3 * rng.standard_normal(cartan_g.k_basis.dim)
        u = ol.matrix_exp(np.einsum("i,ijk->jk", coeff.astype(complex),
                                    cartan_g.k_basis.matrices))
        h_basis = ol.lie_algebra_basis(sl2_block)
        conjugated = ol.adjoint_conjugate(h_basis, u)
        moved = ol.act(alt6, u, x_translate)
        verdict = ol.closedness_verdict(alt6, conjugated, moved)
        base = ol.closedness_verdict(alt6, sl2_block, x_translate)
        assert verdict.status == base.status == NON_CLOSED
        assert verdict.start_orbit_dim == base.start_orbit_dim

    def test_basis_group_derives_its_split_once(self, monkeypatch, alt6, sl6,
                                                sl2_block, x_translate):
        # a theta-stable basis passed as the group keeps its Cartan split,
        # so a second verdict on the same basis reads it back
        cartan_g = ol.cartan_decomposition_for(sl6)
        rng = np.random.default_rng(5)
        coeff = 0.3 * rng.standard_normal(cartan_g.k_basis.dim)
        u = ol.matrix_exp(np.einsum("i,ijk->jk", coeff.astype(complex),
                                    cartan_g.k_basis.matrices))
        conjugated = ol.adjoint_conjugate(ol.lie_algebra_basis(sl2_block), u)
        moved = ol.act(alt6, u, x_translate)
        split = []
        original = ol.groups.cartan_decompose

        def counting(basis):
            split.append(basis)
            return original(basis)

        monkeypatch.setattr(ol.groups, "cartan_decompose", counting)
        first = ol.closedness_verdict(alt6, conjugated, moved)
        second = ol.closedness_verdict(alt6, conjugated, moved)
        assert len(split) == 1 and split[0] is conjugated
        assert first.status == NON_CLOSED
        assert first.to_json(alt6) == second.to_json(alt6)

    def test_theorem1_run_builds_each_orbit_operator_once(self, monkeypatch):
        # fresh scenario and basis caches, so every operator of the run is
        # built inside it: the Newton steps read the subgroup's p-basis,
        # and every rank decision (start, stabilizer, limit) its
        # orthonormal basis; the subgroup's own basis gets no operator
        monkeypatch.setattr(ol.groups, "_BASIS_CACHE", {})
        monkeypatch.setattr(experiments, "_SCENARIO_CACHE", {})
        built = []
        original = ol.reps._build_orbit_operator

        def counting(rep, algebra):
            built.append((rep, algebra))
            return original(rep, algebra)

        monkeypatch.setattr(ol.reps, "_build_orbit_operator", counting)
        report = experiments.run_experiment(ExperimentConfig(
            kind="theorem1", scenario="example1", trials=100, seed=0))
        assert report.passed
        sc = get_scenario("example1")
        algebra = ol.lie_algebra_basis(sc.subgroup)
        expected = [(sc.representation, basis) for basis in (
            algebra.cartan.p_basis, algebra.orthonormal)]
        assert len(built) == 2
        assert all(any(r is rep and a is basis for r, a in built)
                   for rep, basis in expected)
        assert not any(a is algebra for _, a in built)
        assert not algebra.orbit_operators

    def test_closed_implies_stabilizer_not_nonreductive(self, alt6, sl6,
                                                        x_translate):
        verdict = ol.closedness_verdict(alt6, sl6, x_translate)
        assert verdict.status == CLOSED
        algebra = ol.lie_algebra_basis(sl6)
        stab = ol.stabilizer_subalgebra(alt6, algebra, x_translate)
        report = ol.reductivity_verdict(stab)
        assert report.verdict != "not_reductive"


class TestFlowConfig:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            FlowConfig(moment_tolerance=0.0)
        with pytest.raises(InvalidArgumentError):
            FlowConfig(moment_tolerance=float("nan"))
        with pytest.raises(InvalidArgumentError):
            FlowConfig(max_iterations=0)

    @pytest.mark.parametrize("max_iterations", [2.5, "50", None])
    def test_non_integer_budget_rejected(self, max_iterations):
        with pytest.raises(InvalidArgumentError):
            FlowConfig(max_iterations=max_iterations)

    def test_boolean_budget_rejected(self):
        with pytest.raises(InvalidArgumentError):
            FlowConfig(max_iterations=True)

    def test_boolean_moment_tolerance_rejected(self):
        with pytest.raises(InvalidArgumentError):
            FlowConfig(moment_tolerance=True)

    def test_json_round_trip(self):
        config = FlowConfig(moment_tolerance=1e-9, max_iterations=50)
        back = FlowConfig.from_json(config.to_json())
        assert back == config

    def test_json_with_dropped_step_fields_still_loads(self):
        # older reports carry three line-search fields the config dropped
        data = {"initial_step": 0.1, "moment_tolerance": 1e-9,
                "max_iterations": 50, "step_shrink": 0.5, "min_step": 1e-14}
        assert FlowConfig.from_json(data) == FlowConfig(1e-9, 50)

    def test_verdict_serialization(self, alt6, sl2_block, x_translate):
        import json
        verdict = ol.closedness_verdict(alt6, sl2_block, x_translate)
        payload = verdict.to_json(alt6)
        text = json.dumps(payload)
        assert json.loads(text)["status"] == "non_closed"


def _relative_hessian_eigenvalues(rep, group, w):
    """Eigenvalues of H = 2 Re(D* D) over the p-basis, divided by |w|^2."""
    p_basis = ol.cartan_decomposition_for(group).p_basis
    d = ol.reps._differential_matrix(rep, p_basis, w)
    hess = 2.0 * np.real(d.conj().T @ d)
    return np.linalg.eigvalsh(hess) / ol.inner_product(rep, w, w)


class TestNewtonStep:
    def test_vanishing_hessian_near_the_smaller_orbit(self, alt6, sl2_block,
                                                      x_translate):
        # the whole Hessian dies as the iterate nears v0, which the block
        # SL(2) fixes; the regularization scales with it
        assert np.min(_relative_hessian_eigenvalues(
            alt6, sl2_block, x_translate)) > 0.1
        verdict = ol.closedness_verdict(alt6, sl2_block, x_translate)
        limit = verdict.trace.limit_point
        assert np.max(_relative_hessian_eigenvalues(
            alt6, sl2_block, limit)) < 1e-6
        assert verdict.status == NON_CLOSED
        assert verdict.limit_orbit_dim == 0
        assert verdict.trace.reason == "moment"
        assert verdict.trace.iterations_used <= 20
        assert np.all(np.diff(verdict.trace.norms) <= 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_singular_hessian_on_a_product_group(self, seed):
        # SL(2) x SL(2) on 2x2 matrices: the stabilizer of a minimal
        # vector meets p in three dimensions, so H is singular there
        scenario = get_scenario("normal-factor")
        rep, group = scenario.representation, scenario.group
        g = ol.random_group_element(group, seed, 1.5)
        w = ol.act(rep, g, scenario.base_point)
        verdict = ol.closedness_verdict(rep, group, w)
        eigs = _relative_hessian_eigenvalues(rep, group,
                                             verdict.trace.limit_point)
        assert np.sum(eigs < 1e-12 * eigs.max()) == 3
        assert verdict.status == CLOSED
        assert verdict.start_orbit_dim == verdict.limit_orbit_dim == 3
        assert verdict.trace.reason == "moment"
        assert verdict.trace.iterations_used <= 20
        # the minimal vectors of det = 1 have norm sqrt(2)
        assert verdict.limit_norm == pytest.approx(np.sqrt(2.0), rel=1e-6)

    def test_rank_one_matrix_collapses_under_the_product_group(self):
        scenario = get_scenario("normal-factor")
        m = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        verdict = ol.closedness_verdict(scenario.representation,
                                        scenario.group, m)
        assert verdict.status == NON_CLOSED
        assert verdict.trace.collapsed


def _trial_verdict(kind, scenario_name, seed, index):
    """The closedness verdict of one experiment trial, drawn as the
    experiment harness draws it."""
    scenario = get_scenario(scenario_name)
    config = ExperimentConfig(kind=kind, scenario=scenario_name, seed=seed)
    x = experiments._start_vector(scenario, config,
                                  experiments.trial_seed(seed, index))
    return ol.closedness_verdict(scenario.representation, scenario.subgroup,
                                 x, config.flow)


# Trials on which a first-order flow needed 5995 and 9623 iterations.
@pytest.mark.parametrize("kind,scenario,seed,index", [
    ("theorem1", "example1", 1, 35),
    ("cor5-direct-sum", "sym2-sum", 1, 92),
])
def test_heavy_tail_trial_converges_in_few_steps(kind, scenario, seed, index):
    verdict = _trial_verdict(kind, scenario, seed, index)
    assert verdict.trace.reason == "moment"
    assert verdict.trace.iterations_used <= 20
    assert verdict.status == CLOSED


def test_trial_that_exhausted_a_first_order_budget_is_decided():
    # a first-order flow spent all 20000 iterations here (inconclusive)
    verdict = _trial_verdict("cor2-normal", "normal-factor", 3, 54)
    assert verdict.trace.reason == "moment"
    assert verdict.status == CLOSED


@pytest.fixture(scope="module")
def seed0_flows():
    """(rep, group, verdict) of every seed-0 trial of four flow experiments."""
    out = []
    for kind, name in (("theorem1", "example1"), ("theorem1", "sl4-block"),
                       ("cor2-normal", "normal-factor"),
                       ("cor5-direct-sum", "sym2-sum")):
        scenario = get_scenario(name)
        for index in range(100):
            verdict = _trial_verdict(kind, name, 0, index)
            out.append((scenario.representation, scenario.subgroup, verdict))
    return out


def test_exit_residual_within_moment_tolerance(seed0_flows):
    # the limit-side rank floor is calibrated to a residual at or below
    # the tolerance, recomputed at the limit point the verdict returns
    tol = FlowConfig().moment_tolerance
    converged = [(rep, group, v) for rep, group, v in seed0_flows
                 if v.trace.converged and not v.trace.collapsed]
    assert len(converged) == len(seed0_flows)
    for rep, group, verdict in converged:
        assert verdict.trace.moment_norms[-1] <= tol
        p_basis = ol.cartan_decomposition_for(group).p_basis
        residual = ol.relative_moment_norm(rep, p_basis,
                                           verdict.trace.limit_point)
        assert residual <= tol * (1 + 1e-9)


def test_limit_rank_margin_stays_two_decades(seed0_flows):
    # decades between the limit-side cutoff and the nearest singular
    # value; the ambiguity band is one decade wide
    margins = []
    for rep, group, verdict in seed0_flows:
        limit = verdict.trace.limit_point
        onb = ol.groups.orthonormal_basis_for(group)
        s = np.linalg.svd(ol.reps._differential_matrix(rep, onb, limit),
                          compute_uv=False)
        floor = (kempfness.LIMIT_RANK_FLOOR
                 * np.sqrt(max(verdict.trace.moment_norms[-1], 1e-15))
                 * ol.reps.norm(rep, limit))
        cutoff = max(_linalg.RANK_RTOL * s.max(), floor)
        # an exact 0.0 is infinitely far from the cutoff
        margins.append(np.min(np.abs(np.log10(s[s > 0.0] / cutoff))))
    assert min(margins) >= 2.0

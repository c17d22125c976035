import numpy as np
import pytest

import orbitlab as ol
from orbitlab.errors import InvalidArgumentError
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
            FlowConfig(initial_step=0.0)
        with pytest.raises(InvalidArgumentError):
            FlowConfig(step_shrink=1.0)
        with pytest.raises(InvalidArgumentError):
            FlowConfig(max_iterations=0)

    def test_json_round_trip(self):
        config = FlowConfig(initial_step=0.2, moment_tolerance=1e-9)
        back = FlowConfig.from_json(config.to_json())
        assert back == config

    def test_verdict_serialization(self, alt6, sl2_block, x_translate):
        import json
        verdict = ol.closedness_verdict(alt6, sl2_block, x_translate)
        payload = verdict.to_json(alt6)
        text = json.dumps(payload)
        assert json.loads(text)["status"] == "non_closed"
        slim = verdict.to_json(include_trace_arrays=False)
        assert "norms" not in slim["trace"]

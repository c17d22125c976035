import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import orbitlab as ol
from orbitlab import _linalg, experiments
from orbitlab.errors import InvalidArgumentError
from orbitlab.subalgebra import (AMBIGUOUS, INCONCLUSIVE, MIXED, NILPOTENT,
                                 NOT_REDUCTIVE, REDUCTIVE, SEMISIMPLE,
                                 element_type, reductivity_verdict,
                                 structure_report)

from helpers import (adjoint_conjugate, bracket, span_projection_residual,
                     subspace_distance)


def span(matrices, field="complex", size=None):
    arr = np.array(matrices, dtype=complex if field == "complex" else float)
    n = size or arr.shape[-1]
    return ol.LieAlgebraBasis(arr, field, n)


def embedded_e12(n=6):
    e = np.zeros((n, n), dtype=complex)
    e[0, 1] = 1.0
    return e


class TestStructureReport:
    def test_zero_algebra(self):
        empty = ol.LieAlgebraBasis(np.zeros((0, 3, 3), dtype=complex),
                                   "complex", 3)
        data = structure_report(empty)
        assert data.derived.dim == 0
        assert data.center.dim == 0

    def test_sl2_is_its_own_derived_algebra(self):
        basis = ol.lie_algebra_basis(ol.special_linear(2, "complex"))
        data = structure_report(basis)
        assert data.derived.dim == 3
        assert data.center.dim == 0
        assert np.linalg.matrix_rank(data.killing_on_derived) == 3

    def test_sl2_killing_matches_trace_form_oracle(self):
        # on sl(n) the Killing form is 2n tr(XY); compare Gram ranks and
        # signature on the same orthonormal basis
        basis = ol.lie_algebra_basis(ol.special_linear(2, "complex"))
        data = structure_report(basis)
        coords = np.linalg.lstsq(
            basis.matrices.reshape(3, -1).T,
            data.derived.matrices.reshape(3, -1).T, rcond=None)[0]
        mats = np.einsum("ik,ijl->kjl", coords, basis.matrices)
        oracle = 4.0 * np.einsum("aij,bji->ab", mats, mats)
        assert np.allclose(oracle, data.killing_on_derived, atol=1e-8)

    def test_single_nilpotent_line(self):
        data = structure_report(span([embedded_e12()]))
        assert data.derived.dim == 0
        assert data.center.dim == 1

    def test_bracket_closure_violation_rejected(self):
        e12 = np.zeros((2, 2), dtype=complex)
        e21 = np.zeros((2, 2), dtype=complex)
        e12[0, 1] = 1.0
        e21[1, 0] = 1.0
        with pytest.raises(InvalidArgumentError):
            structure_report(span([e12, e21]))


def loop_structure(basis):
    """Reference structure from per-pair bracket loops.

    Returns the derived span, the center, the closure residual and a
    function giving the Killing Gram matrix of any stack of algebra
    elements, with ad D computed column by column as the coordinates of
    [D, X_j].
    """
    mats = basis.matrices
    k, n = basis.dim, basis.ambient_size
    pairs = [bracket(mats[i], mats[j])
             for i in range(k) for j in range(i + 1, k)]
    upper = np.array(pairs).reshape(len(pairs), n, n)
    derived = _linalg.orthonormal_span(upper, real_span=basis.field == "real")
    residual = span_projection_residual(upper, mats)
    columns = [np.concatenate([bracket(mats[i], mats[j]).ravel()
                               for j in range(k)]) for i in range(k)]
    kernel = _linalg.null_space(np.array(columns).reshape(k, k * n * n).T)
    center = np.einsum("ik,ijl->kjl", kernel, mats)
    flat_basis = mats.reshape(k, n * n).T

    def ad(d):
        return np.array([np.linalg.lstsq(flat_basis, bracket(d, x).ravel(),
                                         rcond=None)[0] for x in mats]).T

    def killing(elements):
        ads = [ad(d) for d in elements]
        gram = [[np.trace(a @ b) for b in ads] for a in ads]
        return np.array(gram).reshape(len(ads), len(ads))

    return derived, center, residual, killing


def sl2_plus_scalars():
    sl2 = ol.lie_algebra_basis(ol.special_linear(2, "complex")).matrices
    return ol.LieAlgebraBasis(np.concatenate([sl2, np.eye(2)[None] + 0j]),
                              "complex", 2)


def borel_of_sl2():
    return span([np.diag([1.0, -1.0]), [[0.0, 1.0], [0.0, 0.0]]])


def block_stabilizer_at_x():
    """The example1 SL(2)-block stabilizer at the unipotent translate x."""
    scenario = experiments.get_scenario("example1")
    x = ol.act(scenario.representation, scenario.fixed_element,
               scenario.base_point)
    return ol.stabilizer_subalgebra(
        scenario.representation,
        ol.lie_algebra_basis(scenario.counterexample_subgroup), x)


def seed0_cor3_intersection():
    """The stabilizer intersection of trial 0 of a seed-0 cor3 run."""
    scenario = experiments.get_scenario("sl4-block")
    g = ol.random_group_element(scenario.group, experiments.trial_seed(0, 0),
                                0.5)
    x = ol.act(scenario.representation, g, scenario.base_point)
    return ol.stabilizer_subalgebra(scenario.representation,
                                    ol.lie_algebra_basis(scenario.subgroup), x)


REFERENCE_ALGEBRAS = {
    "sl2-complex": lambda: ol.lie_algebra_basis(ol.special_linear(2, "complex")),
    "sl2-real": lambda: ol.lie_algebra_basis(ol.special_linear(2, "real")),
    "torus3": lambda: ol.lie_algebra_basis(ol.torus(3, "complex")),
    "sl2-plus-scalars": sl2_plus_scalars,
    "borel-sl2": borel_of_sl2,
    "example1-block-stabilizer": block_stabilizer_at_x,
    "cor3-seed0-intersection": seed0_cor3_intersection,
}

# (dim, derived dim, center dim) of each reference algebra
REFERENCE_DIMS = {
    "sl2-complex": (3, 3, 0),
    "sl2-real": (3, 3, 0),
    "torus3": (3, 0, 3),
    "sl2-plus-scalars": (4, 3, 1),
    "borel-sl2": (2, 1, 0),
    "example1-block-stabilizer": (1, 0, 1),
    "cor3-seed0-intersection": (3, 3, 0),
}


@pytest.mark.parametrize("name", REFERENCE_ALGEBRAS)
def test_structure_report_matches_pairwise_bracket_loops(name):
    basis = REFERENCE_ALGEBRAS[name]()
    data = structure_report(basis)
    derived, center, residual, killing = loop_structure(basis)
    real_span = basis.field == "real"

    assert (basis.dim, data.derived.dim, data.center.dim) == REFERENCE_DIMS[name]
    assert subspace_distance(data.derived.matrices, derived,
                                     real_span) <= 1e-12
    assert subspace_distance(data.center.matrices, center,
                                     real_span) <= 1e-12
    reference = killing(data.derived.matrices)
    assert data.killing_on_derived.shape == reference.shape
    assert (np.linalg.norm(data.killing_on_derived - reference)
            <= 1e-12 * max(np.linalg.norm(reference), 1.0))
    assert abs(ol.bracket_closure_residual(basis) - residual) <= 1e-12


def _structure_numbers(basis):
    report = reductivity_verdict(basis)
    return (report.derived_dim, report.center_dim,
            report.killing_rank_on_derived, report.verdict)


@pytest.mark.parametrize("name", REFERENCE_ALGEBRAS)
@settings(derandomize=True, max_examples=4, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_structure_numbers_do_not_depend_on_the_basis(name, seed):
    # the coordinate method reads only the span: another basis of it, or
    # its conjugate by a group element, has the same structure
    basis = REFERENCE_ALGEBRAS[name]()
    expected = _structure_numbers(basis)
    rng = np.random.default_rng(seed)
    k = basis.dim
    mix = rng.standard_normal((k, k))
    if basis.field == "complex":
        mix = mix + 1j * rng.standard_normal((k, k))
    assume(np.linalg.cond(mix) < 1e3)
    mixed = ol.LieAlgebraBasis(np.einsum("ij,jab->iab", mix, basis.matrices),
                               basis.field, basis.ambient_size)
    assert _structure_numbers(mixed) == expected
    g = ol.random_group_element(
        ol.special_linear(basis.ambient_size, basis.field), seed, 0.5)
    assert _structure_numbers(adjoint_conjugate(basis, g)) == expected


def sl2_beside_a_slow_algebra(eps):
    """sl(2) on the upper-left 2x2 block beside span{A, B} on the lower
    one, with A = diag(1, 1 - eps), B = E_34 and [A, B] = eps B: the
    brackets of the second block are about eps times those of sl(2)."""
    mats = np.zeros((5, 4, 4), dtype=complex)
    mats[:3, :2, :2] = ol.lie_algebra_basis(
        ol.special_linear(2, "complex")).matrices
    mats[3, 2, 2], mats[3, 3, 3] = 1.0, 1.0 - eps
    mats[4, 2, 3] = 1.0
    return ol.LieAlgebraBasis(mats, "complex", 4)


# eps -> (derived dim, center dim, structure flag, verdict).  The small
# singular values of the derived and center decisions are 0.35 to 0.5
# times eps / 1e-9 times the cutoff: at 3e-9 they land just above the
# cutoff, at 5e-10 just below it, both inside the ambiguity band.
SLOW_ALGEBRA_CASES = {
    1e-7: (4, 0, False, NOT_REDUCTIVE),
    3e-9: (4, 0, True, INCONCLUSIVE),
    5e-10: (3, 2, True, INCONCLUSIVE),
    1e-11: (3, 2, False, NOT_REDUCTIVE),
}


@pytest.mark.parametrize("eps", SLOW_ALGEBRA_CASES)
def test_structure_flag_reaches_the_verdict(eps):
    basis = sl2_beside_a_slow_algebra(eps)
    derived, center, flagged, verdict = SLOW_ALGEBRA_CASES[eps]
    data = structure_report(basis)
    assert (data.derived.dim, data.center.dim, data.ambiguous) == (
        derived, center, flagged)
    report = reductivity_verdict(basis)
    assert (report.derived_dim, report.center_dim, report.verdict) == (
        derived, center, verdict)
    # a witness is attached only to a definite failure
    assert bool(report.witnesses) == (verdict == NOT_REDUCTIVE)


def free_two_step_nilpotent(generators):
    """The free two-step nilpotent algebra on g generators e_i, with
    central brackets f_ij = [e_i, e_j]: one Heisenberg block (e_i -> E_01,
    e_j -> E_12, f_ij -> E_02) per pair i < j.  Its derived algebra and
    its center are both the span of the f_ij, so d + z = g (g - 1) is
    k = g + g (g - 1) / 2 at g = 3 and exceeds it at g = 4."""
    pairs = [(i, j) for i in range(generators) for j in range(i + 1, generators)]
    n = 3 * len(pairs)
    mats = np.zeros((generators + len(pairs), n, n))
    for block, (i, j) in enumerate(pairs):
        o = 3 * block
        mats[i, o, o + 1] = mats[j, o + 1, o + 2] = 1.0
        mats[generators + block, o, o + 2] = 1.0
    return ol.LieAlgebraBasis(mats, "real", n)


@pytest.mark.parametrize("basis", [
    sl2_beside_a_slow_algebra(1e-7), free_two_step_nilpotent(3),
    free_two_step_nilpotent(4)], ids=["slow-1e-7", "free-3", "free-4"])
def test_failed_decomposition_witness_shows_the_failure(basis):
    data = structure_report(basis)
    report = reductivity_verdict(basis)
    assert report.verdict == NOT_REDUCTIVE and not report.decomposition_ok
    (witness,) = [m for kind, m in report.witnesses
                  if kind == "failed_decomposition"]
    q = _linalg.stack_flat(data.basis.matrices)
    coords = witness.ravel() @ q.conj().T
    assert np.linalg.norm(coords) == pytest.approx(1.0)
    assert np.linalg.norm(witness.ravel() - coords @ q) <= 1e-12
    derived, center = data.derived_coords, data.center_coords
    k = data.basis.dim
    if derived.shape[0] + center.shape[0] <= k:
        # a unit element orthogonal to the derived algebra and the center
        assert np.linalg.norm(derived.conj() @ coords) <= 1e-12
        assert np.linalg.norm(center.conj() @ coords) <= 1e-12
    else:
        # the two spans meet, and the witness lies in both
        for rows in (derived, center):
            assert np.linalg.norm(coords - (coords @ rows.conj().T) @ rows) <= 1e-12


def symplectic_stabilizer_at_v0():
    """The 21-dimensional stabilizer of diag(J, J, J) in sl(6)."""
    scenario = experiments.get_scenario("example1")
    return ol.stabilizer_subalgebra(scenario.representation,
                                    ol.lie_algebra_basis(scenario.group),
                                    scenario.base_point)


def real_rotation_stabilizer():
    """so(2): the stabilizer of the identity in real sym2 under sl(2, R)."""
    sl2 = ol.special_linear(2, "real")
    return ol.stabilizer_subalgebra(ol.sym2(sl2), ol.lie_algebra_basis(sl2),
                                    np.eye(2))


STABILIZERS = {
    "example1-block-at-x": block_stabilizer_at_x,
    "sl4-block-seed0-trial0": seed0_cor3_intersection,
    "symplectic-at-v0": symplectic_stabilizer_at_v0,
    "real-rotations": real_rotation_stabilizer,
}


@pytest.mark.parametrize("name", STABILIZERS)
def test_stabilizer_is_born_orthonormal(name, monkeypatch):
    # the kernel of the orbit map between orthonormal bases is an
    # orthonormal basis, recorded as the stabilizer's own orthonormal
    # basis, so the reductivity analysis orthonormalizes nothing
    stab = STABILIZERS[name]()
    assert stab.dim > 0
    assert stab.orthonormal is stab
    rows = stab.real_rows
    assert np.linalg.norm(rows @ rows.T - np.eye(stab.dim)) <= 1e-12
    calls = []
    original = _linalg.orthonormal_span

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(_linalg, "orthonormal_span", counting)
    reductivity_verdict(stab)
    assert not calls


class TestElementType:
    def test_diagonal_semisimple(self):
        assert element_type(np.diag([1.0, -1.0])) == SEMISIMPLE

    def test_strict_upper_triangular_nilpotent(self):
        assert element_type(np.array([[0.0, 1.0], [0.0, 0.0]])) == NILPOTENT

    def test_zero_counts_as_nilpotent(self):
        assert element_type(np.zeros((3, 3))) == NILPOTENT

    def test_distinct_diagonal_semisimple_despite_triangle(self):
        # eigen-oracle: distinct eigenvalues force diagonalizability
        x = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert sorted(np.linalg.eigvals(x).real) == [0.0, 1.0]
        assert element_type(x) == SEMISIMPLE

    def test_jordan_block_mixed(self):
        assert element_type(np.array([[1.0, 1.0], [0.0, 1.0]])) == MIXED

    def test_near_degenerate_clusters_ambiguous(self):
        x = np.diag([0.0, 5e-6, 1.0])  # the 0 and 5e-6 clusters sit too close
        assert element_type(x) == AMBIGUOUS

    def test_scale_invariance(self):
        x = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert element_type(1e6 * x) == NILPOTENT
        assert element_type(1e-6 * np.diag([1.0, -1.0])) == SEMISIMPLE

    # Band edges of the geometric-multiplicity decision of a Jordan block:
    # the singular value s of x^ - I against the cutoff 10x the merge
    # radius (1e-5), ambiguous within a factor 10 of it on either side.
    @pytest.mark.parametrize("s,kind", [
        (1e-3, MIXED), (3e-5, AMBIGUOUS), (1e-5, AMBIGUOUS),
        (1e-7, SEMISIMPLE)])
    def test_jordan_block_band_edges(self, s, kind):
        assert element_type(np.array([[1.0, s], [0.0, 1.0]])) == kind

    # Band edges of the nilpotency decision: |x^^2| = t against the
    # cutoff RANK_RTOL; t = 1e-9 sits on it, t = 1e-11 below the band.
    @pytest.mark.parametrize("t,kind", [(1e-9, AMBIGUOUS), (1e-11, NILPOTENT)])
    def test_nilpotency_band_edges(self, t, kind):
        assert element_type(np.array([[0.0, 1.0], [t, 0.0]])) == kind


class TestReductivityVerdict:
    def test_zero_algebra_reductive(self):
        empty = ol.LieAlgebraBasis(np.zeros((0, 4, 4), dtype=complex),
                                   "complex", 4)
        assert reductivity_verdict(empty).verdict == REDUCTIVE

    @pytest.mark.parametrize("rtol", [20.0, float("nan")])
    def test_zero_algebra_refuses_a_cutoff_sl2_refuses(self, rtol):
        # the zero algebra decides no rank, but a cutoff that decides
        # nothing is refused whatever the dimension, with one message
        empty = ol.LieAlgebraBasis(np.zeros((0, 2, 2), dtype=complex),
                                   "complex", 2)
        sl2 = ol.lie_algebra_basis(ol.special_linear(2, "complex"))
        messages = []
        for basis in (empty, sl2):
            with pytest.raises(InvalidArgumentError) as info:
                reductivity_verdict(basis, rtol=rtol)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_nilpotent_line_not_reductive(self):
        report = reductivity_verdict(span([embedded_e12()]))
        assert report.verdict == NOT_REDUCTIVE
        kinds = [k for k, _ in report.witnesses]
        assert "non_semisimple_center_element" in kinds

    def test_ambiguous_center_element_is_inconclusive(self):
        # the real line of a Jordan block whose nilpotent part sits in the
        # band of the multiplicity decision: no verdict, no witness
        report = reductivity_verdict(
            span([[[1.0, 1e-5], [0.0, 1.0]]], field="real"))
        assert report.verdict == INCONCLUSIVE
        assert report.center_all_semisimple is None
        assert report.witnesses == []

    def test_torus_line_reductive(self):
        report = reductivity_verdict(span([np.diag([1.0, -1.0, 0.0]) + 0j]))
        assert report.verdict == REDUCTIVE
        assert report.center_dim == 1

    def test_sl2_reductive(self):
        basis = ol.lie_algebra_basis(ol.special_linear(2, "complex"))
        report = reductivity_verdict(basis)
        assert report.verdict == REDUCTIVE
        assert report.derived_dim == 3
        assert report.killing_rank_on_derived == 3

    def test_symplectic_stabilizer_reductive(self, v0):
        basis = ol.lie_algebra_basis(ol.symplectic(form=v0))
        report = reductivity_verdict(basis)
        assert report.verdict == REDUCTIVE
        assert report.dim == 21
        assert report.killing_rank_on_derived == report.derived_dim == 21

    def test_borel_of_sl2_not_reductive(self):
        d = np.diag([1.0, -1.0]).astype(complex)
        e = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        report = reductivity_verdict(span([d, e]))
        assert report.verdict == NOT_REDUCTIVE
        assert not report.decomposition_ok

    def test_generic_block_intersection_is_a_rank_one_symplectic_reduction(
            self, alt6, sl6, sl4_block, v0):
        # dim-3 stabilizer intersections of the 4x4 block with a conjugated
        # symplectic algebra carry an sl2-like structure: semisimple
        h = ol.lie_algebra_basis(sl4_block)
        for seed in (0, 1):
            g = ol.random_group_element(sl6, seed, 0.5)
            x = ol.act(alt6, g, v0)
            stab = ol.stabilizer_subalgebra(alt6, h, x)
            assert stab.dim == 3
            report = reductivity_verdict(stab)
            assert report.verdict == REDUCTIVE
            assert report.derived_dim == 3
            assert report.center_dim == 0

    def test_special_translate_block4_stabilizer_is_reductive(
            self, alt6, sl4_block, x_translate):
        # at the special unipotent translate the 4x4-block stabilizer is the
        # full 10-dimensional symplectic algebra of the upper-left form
        h = ol.lie_algebra_basis(sl4_block)
        stab = ol.stabilizer_subalgebra(alt6, h, x_translate)
        assert stab.dim == 10
        report = reductivity_verdict(stab)
        assert report.verdict == REDUCTIVE
        assert report.killing_rank_on_derived == 10

    @pytest.mark.parametrize("seed", range(5))
    def test_single_line_matches_element_type(self, seed):
        rng = np.random.default_rng(seed)
        # random diagonalizable: distinct eigenvalues
        eigs = np.diag(rng.standard_normal(3) + np.array([0.0, 3.0, -3.0]))
        p = rng.standard_normal((3, 3))
        semisimple = np.linalg.solve(p, eigs @ p).astype(complex)
        report = reductivity_verdict(span([semisimple], size=3))
        assert report.verdict == REDUCTIVE
        # random strictly upper triangular: nilpotent
        strict = np.triu(rng.standard_normal((3, 3)), 1).astype(complex)
        if np.linalg.norm(strict) > 1e-6:
            report = reductivity_verdict(span([strict], size=3))
            assert report.verdict == NOT_REDUCTIVE

    @pytest.mark.parametrize("seed", range(3))
    def test_conjugation_invariance(self, seed, v0):
        spec = ol.special_linear(3, "complex")
        basis = ol.lie_algebra_basis(spec)
        g = ol.random_group_element(spec, seed, 0.4)
        base = reductivity_verdict(basis).verdict
        conj = reductivity_verdict(adjoint_conjugate(basis, g)).verdict
        assert conj in (base, "inconclusive")

    def test_report_serialization(self):
        import json
        report = reductivity_verdict(span([embedded_e12()]))
        payload = report.to_json()
        text = json.dumps(payload, sort_keys=True)
        assert json.loads(text)["verdict"] == "not_reductive"

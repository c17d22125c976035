import gc
import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitlab as ol
from orbitlab.errors import InvalidArgumentError

from helpers import (adjoint_conjugate, flatten, orbit_dimension,
                     subspace_distance)


def random_point(rep, seed, spread=1.0):
    return ol.random_vector(rep, np.random.default_rng(seed), spread)


def all_reps():
    """One case per layout, nesting included."""
    sl2c = ol.special_linear(2, "complex")
    sl2r = ol.special_linear(2, "real")
    sl3c = ol.special_linear(3, "complex")
    prod = ol.product(sl2c, sl2c)
    return [
        ol.defining(sl3c),
        ol.sym2(sl2c),
        ol.sym2(sl2r),
        ol.alt_bilinear(ol.special_linear(4, "complex")),
        ol.external_tensor(prod),
        ol.external_tensor(ol.product(sl2r, ol.special_linear(3, "real"))),
        ol.direct_sum(ol.sym2(sl2c), ol.sym2(sl2c)),
        ol.direct_sum(ol.direct_sum(ol.sym2(sl3c), ol.defining(sl3c)),
                      ol.alt_bilinear(sl3c)),
    ]


def rep_id(rep):
    nested = any(c.kind == "direct_sum" for c in rep.components)
    return f"{'nested_' if nested else ''}{rep.kind}-{rep.group.field}"


def every_kind(field):
    """Each kind once over the given field, rectangular tensor included."""
    sl2 = ol.special_linear(2, field)
    sl3 = ol.special_linear(3, field)
    return [
        ol.defining(sl3),
        ol.sym2(sl3),
        ol.alt_bilinear(ol.special_linear(4, field)),
        ol.external_tensor(ol.product(sl2, sl3)),
        ol.direct_sum(ol.sym2(sl2), ol.defining(sl2), ol.alt_bilinear(sl2)),
    ]


@pytest.mark.parametrize("rep", every_kind("real") + every_kind("complex"),
                         ids=rep_id)
def test_dim_is_the_rank_of_random_draws(rep):
    rng = np.random.default_rng(30)
    draws = [flatten(rep, ol.random_vector(rep, rng))
             for _ in range(rep.dim + 3)]
    assert np.linalg.matrix_rank(np.array(draws)) == rep.dim


@pytest.mark.parametrize("rep, group", (
    [(r, r.group) for r in all_reps()]
    + [(ol.alt_bilinear(ol.special_linear(4, "complex")),
        ol.block_embedding(ol.special_linear(2, "complex"), 4, 0))]),
    ids=lambda x: rep_id(x) if isinstance(x, ol.Representation) else x.family)
def test_differential_matrix_matches_elementwise_loop(rep, group):
    algebra = ol.lie_algebra_basis(group)
    v = random_point(rep, 31)
    reference = np.array([
        ol.reps._coordinates(rep, flatten(rep, ol.differential_act(rep, x, v)))
        for x in algebra.matrices]).T
    batched = ol.reps._differential_matrix(rep, algebra, flatten(rep, v))
    assert batched.shape == reference.shape
    assert np.linalg.norm(batched - reference) <= 1e-14 * np.linalg.norm(reference)


@pytest.mark.parametrize("rep", all_reps(), ids=rep_id)
class TestIsometricCoordinates:
    """The coordinate map is an isometry onto rep.dim coordinates, so D is
    the orbit map between orthonormal bases."""

    @settings(derandomize=True, max_examples=5, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_coordinates_preserve_the_inner_product(self, rep, seed):
        rng = np.random.default_rng(seed)
        v = ol.random_vector(rep, rng)
        w = ol.random_vector(rep, rng)
        cv = ol.reps._coordinates(rep, flatten(rep, v))
        cw = ol.reps._coordinates(rep, flatten(rep, w))
        assert cv.shape == (rep.dim,)
        for a, b, ca, cb in ((v, w, cv, cw), (v, v, cv, cv)):
            exact = ol.inner_product(rep, a, b)
            assert abs(np.vdot(cb, ca).real - exact) <= 1e-13 * (
                ol.reps.norm(rep, a) * ol.reps.norm(rep, b))

    @settings(derandomize=True, max_examples=5, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_gram_of_the_orbit_map_is_the_gram_of_the_images(self, rep, seed):
        algebra = ol.lie_algebra_basis(rep.group)
        v = ol.random_vector(rep, np.random.default_rng(seed))
        images = np.array([flatten(rep, ol.differential_act(rep, x, v))
                           for x in algebra.matrices])
        gram = images.conj() @ images.T
        d = ol.reps._differential_matrix(rep, algebra, flatten(rep, v))
        assert d.shape == (rep.dim, algebra.dim)
        assert np.linalg.norm(d.conj().T @ d - gram) <= 1e-13 * np.linalg.norm(
            gram)


@pytest.mark.parametrize("rep", all_reps(), ids=rep_id)
class TestActionAxioms:
    def test_identity_acts_trivially(self, rep):
        v = random_point(rep, 0)
        eye = np.eye(rep.group.size, dtype=rep.group.dtype)
        out = ol.act(rep, eye, v)
        assert np.allclose(flatten(rep, out), flatten(rep, v))

    def test_action_is_multiplicative(self, rep):
        g = ol.random_group_element(rep.group, 1, 0.5)
        h = ol.random_group_element(rep.group, 2, 0.5)
        v = random_point(rep, 3)
        lhs = flatten(rep, ol.act(rep, g, ol.act(rep, h, v)))
        rhs = flatten(rep, ol.act(rep, g @ h, v))
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(np.linalg.norm(rhs), 1.0)

    def test_differential_matches_finite_difference(self, rep):
        basis = ol.lie_algebra_basis(rep.group)
        rng = np.random.default_rng(4)
        coeff = rng.standard_normal(basis.dim)
        x = np.einsum("i,ijk->jk", coeff.astype(basis.matrices.dtype),
                      basis.matrices)
        x /= np.linalg.norm(x)  # truncation error of the one-sided quotient is O(t |X|^2)
        v = random_point(rep, 5)
        t = 1e-6
        moved = ol.act(rep, scipy.linalg.expm(t * x), v)
        fd = (flatten(rep, moved) - flatten(rep, v)) / t
        exact = flatten(rep, ol.differential_act(rep, x, v))
        assert np.linalg.norm(fd - exact) <= 1e-6 * max(np.linalg.norm(exact), 1.0)

    def test_diagonal_element_scales_each_entry_by_its_weight(self, rep):
        # exp(diag(d)) . v scales entry m of v by exp(weight m): the
        # eigen-coefficient form the norm flow's line search reads
        d = np.random.default_rng(7).standard_normal(rep.group.size)
        v = random_point(rep, 8)
        g = np.diag(np.exp(d)).astype(rep.group.dtype)
        flat = flatten(rep, v)
        expected = np.exp(rep.weight_map @ d) * flat
        assert np.allclose(flatten(rep, ol.act(rep, g, v)), expected)
        back = ol.reps._unflat(rep, flat)
        assert np.array_equal(flatten(rep, back), flat)

    def test_blocks_partition_the_rows_the_action_reads(self, rep):
        rows = np.concatenate([np.arange(rep.group.size)[block]
                               for block in rep.blocks])
        assert np.array_equal(rows, np.arange(rep.group.size))
        tensors = rep.kind == "external_tensor" or any(
            c.kind == "external_tensor" for c in rep.components)
        assert len(rep.blocks) == (2 if tensors else 1)

    def test_zero_algebra_element_acts_as_zero(self, rep):
        v = random_point(rep, 6)
        zero = np.zeros((rep.group.size, rep.group.size), dtype=rep.group.dtype)
        image = flatten(rep, ol.differential_act(rep, zero, v))
        assert np.allclose(image, 0.0)


def test_direct_sum_reads_the_finest_blocks():
    prod = ol.product(ol.special_linear(2, "complex"),
                      ol.special_linear(3, "complex"))
    tensor = ol.external_tensor(prod)
    rep = ol.direct_sum(ol.defining(prod), tensor)
    assert rep.blocks == tensor.blocks == (slice(0, 2), slice(2, 5))
    d = np.arange(5.0)
    v = random_point(rep, 9)
    g = np.diag(np.exp(d)).astype(complex)
    expected = np.exp(rep.weight_map @ d) * flatten(rep, v)
    assert np.allclose(flatten(rep, ol.act(rep, g, v)), expected)


class TestRuns:
    """A direct sum is read in runs of consecutive components of one
    layout; every core matches the componentwise result."""

    @pytest.fixture
    def rep(self):
        sl3 = ol.special_linear(3, "complex")
        return ol.direct_sum(ol.sym2(sl3), ol.sym2(sl3), ol.defining(sl3),
                             ol.direct_sum(ol.sym2(sl3), ol.alt_bilinear(sl3)))

    @staticmethod
    def leaves(rep):
        if rep.kind != "direct_sum":
            return [rep]
        return [leaf for c in rep.components for leaf in TestRuns.leaves(c)]

    def test_consecutive_components_of_one_layout_share_a_run(self, rep):
        assert [(layout.kind, stack) for layout, _, stack in rep.runs] == [
            ("sym2", (2, 3, 3)), ("defining", (1, 3, 1)), ("sym2", (1, 3, 3)),
            ("alt_bilinear", (1, 3, 3))]
        assert [span.stop for _, span, _ in rep.runs] == [18, 21, 30, 39]
        assert rep.entries == 39
        assert rep.dim == 6 + 6 + 3 + 6 + 3

    def test_json_round_trip_keeps_the_nested_sum(self, rep):
        back = ol.Representation.from_json(rep.to_json())

        def runs(r):
            return [(layout.to_json(), span, stack)
                    for layout, span, stack in r.runs]

        assert runs(back) == runs(rep)
        assert back.entries == rep.entries
        assert json.dumps(back.to_json()) == json.dumps(rep.to_json())

    def test_cores_match_the_componentwise_results(self, rep):
        leaves = self.leaves(rep)
        rng = np.random.default_rng(40)
        parts = [ol.random_vector(leaf, rng) for leaf in leaves]
        x = np.concatenate([p.reshape(-1) for p in parts])
        g = ol.random_group_element(rep.group, 41, 0.5)
        m = ol.lie_algebra_basis(rep.group).matrices[2]
        d = rng.standard_normal(3)
        for core, each in (
                (lambda: ol.reps._act(rep, g, x),
                 lambda leaf, p: ol.act(leaf, g, p).reshape(-1)),
                (lambda: ol.reps._differential_act(rep, m, x),
                 lambda leaf, p: ol.differential_act(leaf, m, p).reshape(-1)),
                (lambda: ol.reps._coordinates(rep, x),
                 lambda leaf, p: ol.reps._coordinates(leaf, p.reshape(-1))),
                (lambda: rep.weight_map @ d,
                 lambda leaf, p: leaf.weight_map @ d)):
            expected = np.concatenate([each(leaf, p)
                                       for leaf, p in zip(leaves, parts)])
            np.testing.assert_array_equal(core(), expected)

    def test_random_vector_draws_the_components_in_order(self, rep):
        rng = np.random.default_rng(42)
        expected = [ol.random_vector(leaf, rng) for leaf in self.leaves(rep)]
        drawn = ol.random_vector(rep, np.random.default_rng(42))
        np.testing.assert_array_equal(
            flatten(rep, drawn),
            np.concatenate([e.reshape(-1) for e in expected]))

    def test_point_checks_each_component_at_its_own_scale(self):
        sl2 = ol.special_linear(2, "complex")
        rep = ol.direct_sum(ol.sym2(sl2), ol.sym2(sl2))
        large = 1e6 * np.eye(2, dtype=complex)
        skewed = np.array([[1.0, 1e-9], [-1e-9, 1.0]], dtype=complex)
        # the violation is 1.4e-9, far below SYMMETRY_TOL times the whole
        # vector's norm of 1.4e6, but above it times the component's
        with pytest.raises(InvalidArgumentError, match="sym2 symmetry"):
            ol.reps.point(rep, (large, skewed))
        ol.reps.point(rep, (large, np.eye(2, dtype=complex)))


class TestExample1Action:
    def test_unipotent_translate_matches_hand_computation(self, alt6, unipotent_g, v0):
        x = ol.act(alt6, unipotent_g, v0)
        expected = v0.copy()
        expected[0, 3] += 1.0  # row 1 picks up row 3 of the base form
        expected[3, 0] -= 1.0
        assert np.allclose(x, expected)
        assert not np.allclose(x, v0)
        assert np.allclose(x, -x.T)

    def test_direct_sum_acts_componentwise(self):
        sl2 = ol.special_linear(2, "complex")
        rep = ol.direct_sum(ol.sym2(sl2), ol.sym2(sl2))
        g = ol.random_group_element(sl2, 7, 0.5)
        v = random_point(rep, 8)
        out = ol.act(rep, g, v)
        for part, vin in zip(out, v):
            assert np.allclose(part, ol.act(ol.sym2(sl2), g, vin))


class TestInnerProduct:
    def test_base_form_squared_norm_counts_entries(self, alt6, v0):
        # six entries of modulus one
        assert ol.inner_product(alt6, v0, v0) == pytest.approx(6.0)

    def test_symmetric_and_real(self, alt6):
        v = random_point(alt6, 9)
        w = random_point(alt6, 10)
        a = ol.inner_product(alt6, v, w)
        b = ol.inner_product(alt6, w, v)
        assert isinstance(a, float)
        assert a == pytest.approx(b)

    def test_skew_part_acts_skewly_symmetric_part_symmetrically(self, sl6, alt6):
        cartan = ol.cartan_decomposition_for(sl6)
        rng = np.random.default_rng(11)
        v = random_point(alt6, 12)
        w = random_point(alt6, 13)
        for m in cartan.k_basis.matrices[rng.choice(35, 6, replace=False)]:
            lhs = ol.inner_product(alt6, ol.differential_act(alt6, m, v), w)
            rhs = ol.inner_product(alt6, v, ol.differential_act(alt6, m, w))
            assert abs(lhs + rhs) <= 1e-9 * max(abs(lhs), 1.0)
        for m in cartan.p_basis.matrices[rng.choice(35, 6, replace=False)]:
            lhs = ol.inner_product(alt6, ol.differential_act(alt6, m, v), w)
            rhs = ol.inner_product(alt6, v, ol.differential_act(alt6, m, w))
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)


class TestOrbitDimension:
    def test_zero_vector_has_zero_dimensional_orbit(self, alt6, sl6):
        algebra = ol.lie_algebra_basis(sl6)
        zero = np.zeros((6, 6), dtype=complex)
        assert orbit_dimension(alt6, algebra, zero) == 0

    def test_base_orbit_dimension_against_rank_oracle(self, alt6, sl6, v0):
        algebra = ol.lie_algebra_basis(sl6)
        images = np.array([(m @ v0 + v0 @ m.T).ravel() for m in algebra.matrices])
        oracle_rank = np.linalg.matrix_rank(images)
        assert orbit_dimension(alt6, algebra, v0) == oracle_rank == 14
        assert 35 - oracle_rank == 21  # rank + nullity

    def test_invariance_under_group_translation(self, alt6, sl6, v0):
        algebra = ol.lie_algebra_basis(sl6)
        base = orbit_dimension(alt6, algebra, v0)
        for seed in range(5):
            g = ol.random_group_element(sl6, seed, 0.5)
            moved = ol.act(alt6, g, v0)
            assert orbit_dimension(alt6, algebra, moved) == base

    def test_fresh_representations_are_not_kept_alive(self, sl6, v0):
        # orbit operators are keyed weakly on their representation, so the
        # process-wide group basis does not grow over fresh ones
        algebra = ol.lie_algebra_basis(sl6)
        operators = algebra.orthonormal.orbit_operators
        before = len(operators)
        for _ in range(20):
            assert orbit_dimension(ol.alt_bilinear(sl6), algebra, v0) == 14
        gc.collect()
        assert len(operators) <= before

    def test_direct_sum_dimension_bounded_by_component_sum(self):
        sl2 = ol.special_linear(2, "complex")
        rep = ol.direct_sum(ol.sym2(sl2), ol.sym2(sl2))
        algebra = ol.lie_algebra_basis(sl2)
        v = random_point(rep, 14)
        total = orbit_dimension(rep, algebra, v)
        parts = sum(orbit_dimension(ol.sym2(sl2), algebra, vc) for vc in v)
        assert total <= parts

    def test_coordinates_are_read_once_per_decision(self, monkeypatch, alt6,
                                                    sl6, x_translate):
        # D and the noise floor are read off one coordinate array, and the
        # decision is bitwise the one made from two reads
        algebra = ol.lie_algebra_basis(sl6)
        onb = algebra.orthonormal
        flat = flatten(alt6, x_translate)
        expected = ol._linalg.matrix_rank(
            ol.reps._differential_matrix(alt6, onb, flat), 1e-9,
            floor=ol.reps.ORBIT_NOISE * ol._linalg.vector_norm(
                ol.reps._coordinates(alt6, flat)))
        calls = []
        original = ol.reps._coordinates

        def counting(rep, x):
            calls.append(x)
            return original(rep, x)

        monkeypatch.setattr(ol.reps, "_coordinates", counting)
        decision = ol.orbit_dimension_info(alt6, algebra, x_translate)
        assert len(calls) == 1
        assert (decision.rank, decision.ambiguous) == (expected.rank,
                                                       expected.ambiguous)
        for name in ("kernel", "row_space", "singular_values"):
            assert np.array_equal(getattr(decision, name),
                                  getattr(expected, name))


class TestStabilizer:
    def test_base_stabilizer_is_the_symplectic_algebra(self, alt6, sl6, v0):
        algebra = ol.lie_algebra_basis(sl6)
        stab = ol.stabilizer_subalgebra(alt6, algebra, v0)
        assert stab.dim == 21
        residuals = [np.linalg.norm(m @ v0 + v0 @ m.T) for m in stab.matrices]
        assert max(residuals) <= 1e-10
        assert ol.bracket_closure_residual(stab) <= 1e-10

    def test_block_stabilizer_at_special_translate(self, alt6, sl2_block,
                                                   x_translate):
        h = ol.lie_algebra_basis(sl2_block)
        stab = ol.stabilizer_subalgebra(alt6, h, x_translate)
        assert stab.dim == 1
        e12 = np.zeros((6, 6), dtype=complex)
        e12[0, 1] = 1.0
        assert subspace_distance(stab.matrices, e12[None]) <= 1e-10

    @pytest.mark.parametrize("seed", range(100))
    def test_block_stabilizer_generically_trivial(self, alt6, sl6, sl2_block,
                                                  v0, seed):
        h = ol.lie_algebra_basis(sl2_block)
        g = ol.random_group_element(sl6, seed, 0.5)
        x = ol.act(alt6, g, v0)
        assert ol.stabilizer_subalgebra(alt6, h, x).dim == 0

    def test_dimension_formula(self, alt6, sl6, v0):
        algebra = ol.lie_algebra_basis(sl6)
        for seed in range(3):
            g = ol.random_group_element(sl6, seed, 0.5)
            x = ol.act(alt6, g, v0)
            orbit = orbit_dimension(alt6, algebra, x)
            stab = ol.stabilizer_subalgebra(alt6, algebra, x).dim
            assert orbit + stab == algebra.dim

    def test_dependent_basis_dimensions_add_up_to_its_span(self):
        # sl(2, C) plus a repeated E12, built directly: dim counts four
        # matrices, the span and the orbit map see three
        sl2 = ol.lie_algebra_basis(ol.special_linear(2, "complex"))
        e12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        algebra = ol.LieAlgebraBasis(np.concatenate([sl2.matrices, e12[None]]),
                                     "complex", 2)
        rep = ol.sym2(ol.special_linear(2, "complex"))
        identity = np.eye(2, dtype=complex)
        decision = ol.orbit_dimension_info(rep, algebra, identity)
        stab = ol.stabilizer_subalgebra(rep, algebra, identity)
        assert (algebra.dim, algebra.orthonormal.dim) == (4, 3)
        assert (decision.rank, stab.dim) == (2, 1)
        assert decision.rank + stab.dim == algebra.orthonormal.dim

    def test_stabilizer_conjugation_covariance(self, alt6, sl6, v0):
        algebra = ol.lie_algebra_basis(sl6)
        g = ol.random_group_element(sl6, 21, 0.4)
        stab_v = ol.stabilizer_subalgebra(alt6, algebra, v0)
        moved = ol.act(alt6, g, v0)
        stab_moved = ol.stabilizer_subalgebra(alt6, algebra, moved)
        conjugated = adjoint_conjugate(stab_v, g)
        assert stab_moved.dim == conjugated.dim
        assert subspace_distance(stab_moved.matrices, conjugated.matrices) <= 1e-8


class TestEquivariance:
    def test_differential_equivariance(self, alt6, sl6, v0):
        algebra = ol.lie_algebra_basis(sl6)
        rng = np.random.default_rng(15)
        g = ol.random_group_element(sl6, 16, 0.4)
        g_inv = np.linalg.inv(g)
        for idx in rng.choice(algebra.dim, 8, replace=False):
            x = algebra.matrices[idx]
            lhs = ol.differential_act(alt6, g @ x @ g_inv, ol.act(alt6, g, v0))
            rhs = ol.act(alt6, g, ol.differential_act(alt6, x, v0))
            scale = max(np.linalg.norm(rhs), 1.0)
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * scale


class TestValidation:
    def test_shape_mismatch_rejected(self, alt6):
        with pytest.raises(InvalidArgumentError):
            ol.act(alt6, np.eye(5, dtype=complex), np.zeros((6, 6), dtype=complex))
        with pytest.raises(InvalidArgumentError):
            ol.act(alt6, np.eye(6, dtype=complex), np.zeros((5, 5), dtype=complex))

    def test_algebra_of_another_size_rejected(self, alt6, v0):
        sl4 = ol.lie_algebra_basis(ol.special_linear(4, "complex"))
        with pytest.raises(InvalidArgumentError):
            orbit_dimension(alt6, sl4, v0)
        with pytest.raises(InvalidArgumentError):
            ol.stabilizer_subalgebra(alt6, sl4, v0)

    def test_algebra_over_the_other_field_rejected(self, alt6, v0):
        real_torus = ol.lie_algebra_basis(ol.torus(6, "real"))
        with pytest.raises(InvalidArgumentError, match="complex field"):
            orbit_dimension(alt6, real_torus, v0)
        with pytest.raises(InvalidArgumentError, match="complex field"):
            ol.stabilizer_subalgebra(alt6, real_torus, v0)

    def test_complex_vector_json_needs_re_im_pairs(self):
        rep = ol.defining(ol.special_linear(3, "complex"))
        with pytest.raises(InvalidArgumentError, match=r"\[re, im\] pairs"):
            ol.reps.vector_from_json(rep, [1.0, 0.0, 0.0])

    def test_symmetry_class_enforced(self):
        rep = ol.sym2(ol.special_linear(2, "complex"))
        bad = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        with pytest.raises(InvalidArgumentError):
            ol.reps.point(rep, bad)

    def test_non_finite_entries_rejected(self):
        rep = ol.sym2(ol.special_linear(2, "complex"))
        bad = np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(InvalidArgumentError):
            ol.reps.point(rep, bad)

    def test_group_element_is_read_as_one_array(self):
        # a nested-list matrix is an element; a ragged list or a tuple of
        # factor matrices is not one
        sl2, sl3 = ol.special_linear(2, "real"), ol.special_linear(3, "real")
        rep = ol.external_tensor(ol.product(sl2, sl3))
        g = ol.random_group_element(rep.group, 3, 0.5)
        v = random_point(rep, 21)
        np.testing.assert_array_equal(ol.act(rep, g.tolist(), v),
                                      ol.act(rep, g, v))
        for bad in ([[1.0, 0.0], [0.0]], (g[:2, :2], g[2:, 2:]),
                    (np.eye(2), np.eye(2))):
            with pytest.raises(InvalidArgumentError):
                ol.act(rep, bad, v)
            with pytest.raises(InvalidArgumentError):
                ol.differential_act(rep, bad, v)

    @pytest.mark.parametrize("spread", [float("nan"), float("inf"), 0.0, -1.0])
    def test_random_vector_rejects_a_bad_spread(self, spread):
        rep = ol.sym2(ol.special_linear(2, "complex"))
        with pytest.raises(InvalidArgumentError, match="spread"):
            ol.random_vector(rep, np.random.default_rng(0), spread)

    @pytest.mark.parametrize("rep", all_reps(), ids=rep_id)
    def test_vector_json_round_trip(self, rep):
        v = random_point(rep, 17)
        data = ol.reps.vector_to_json(rep, v)
        back = ol.reps.vector_from_json(rep, data)
        assert np.allclose(flatten(rep, back), flatten(rep, v))

    def test_vector_json_of_a_real_array_over_the_complex_field(self):
        # real arrays are valid vectors of a complex representation; their
        # JSON must still carry [re, im] pairs to be read back
        sl2 = ol.special_linear(2, "complex")
        rep = ol.direct_sum(ol.sym2(sl2), ol.defining(sl2))
        v = (np.array([[1.0, 0.3], [0.3, 2.0]]), np.array([1.0, -2.0]))
        back = ol.reps.vector_from_json(rep, ol.reps.vector_to_json(rep, v))
        np.testing.assert_array_equal(flatten(rep, back), flatten(rep, v))

    @pytest.mark.parametrize("rep", all_reps(), ids=rep_id)
    def test_point_accepts_its_own_random_vector(self, rep):
        v = random_point(rep, 18)
        np.testing.assert_array_equal(flatten(rep, ol.reps.point(rep, v)),
                                      flatten(rep, v))

    @pytest.mark.parametrize("rep", all_reps(), ids=rep_id)
    def test_zero_vector_has_the_random_vector_shape(self, rep):
        zero = ol.reps.zero_vector(rep)
        assert _shapes(zero) == _shapes(random_point(rep, 19))
        assert not np.any(flatten(rep, zero))

    @pytest.mark.parametrize("rep", all_reps(), ids=rep_id)
    def test_act_rejects_a_wrong_shape_vector(self, rep):
        eye = np.eye(rep.group.size, dtype=rep.group.dtype)
        with pytest.raises(InvalidArgumentError):
            ol.act(rep, eye, _one_column_short(random_point(rep, 20)))


def _shapes(v):
    if isinstance(v, tuple):
        return tuple(_shapes(part) for part in v)
    return v.shape


def _one_column_short(v):
    """v with the last array of a (nested) direct-sum vector truncated."""
    if isinstance(v, tuple):
        return v[:-1] + (_one_column_short(v[-1]),)
    return v[..., :-1]

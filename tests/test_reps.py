import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitlab as ol
from orbitlab.errors import InvalidArgumentError


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
    draws = [ol.reps.flatten(rep, ol.random_vector(rep, rng))
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
        ol.reps._coordinates(rep, ol.differential_act(rep, x, v))
        for x in algebra.matrices]).T
    batched = ol.reps._differential_matrix(rep, algebra, v)
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
        cv = ol.reps._coordinates(rep, v)
        cw = ol.reps._coordinates(rep, w)
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
        images = np.array([ol.reps.flatten(rep, ol.differential_act(rep, x, v))
                           for x in algebra.matrices])
        gram = images.conj() @ images.T
        d = ol.reps._differential_matrix(rep, algebra, v)
        assert d.shape == (rep.dim, algebra.dim)
        assert np.linalg.norm(d.conj().T @ d - gram) <= 1e-13 * np.linalg.norm(
            gram)


@pytest.mark.parametrize("rep", all_reps(), ids=rep_id)
class TestActionAxioms:
    def test_identity_acts_trivially(self, rep):
        v = random_point(rep, 0)
        eye = np.eye(rep.group.size, dtype=rep.group.dtype)
        out = ol.act(rep, eye, v)
        assert np.allclose(ol.reps.flatten(rep, out), ol.reps.flatten(rep, v))

    def test_action_is_multiplicative(self, rep):
        g = ol.random_group_element(rep.group, 1, 0.5)
        h = ol.random_group_element(rep.group, 2, 0.5)
        v = random_point(rep, 3)
        lhs = ol.reps.flatten(rep, ol.act(rep, g, ol.act(rep, h, v)))
        rhs = ol.reps.flatten(rep, ol.act(rep, g @ h, v))
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
        moved = ol.act(rep, ol.matrix_exp(t * x), v)
        fd = (ol.reps.flatten(rep, moved) - ol.reps.flatten(rep, v)) / t
        exact = ol.reps.flatten(rep, ol.differential_act(rep, x, v))
        assert np.linalg.norm(fd - exact) <= 1e-6 * max(np.linalg.norm(exact), 1.0)

    def test_zero_algebra_element_acts_as_zero(self, rep):
        v = random_point(rep, 6)
        zero = np.zeros((rep.group.size, rep.group.size), dtype=rep.group.dtype)
        image = ol.reps.flatten(rep, ol.differential_act(rep, zero, v))
        assert np.allclose(image, 0.0)


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
        assert ol.orbit_dimension(alt6, algebra, zero) == 0

    def test_base_orbit_dimension_against_rank_oracle(self, alt6, sl6, v0):
        algebra = ol.lie_algebra_basis(sl6)
        images = np.array([(m @ v0 + v0 @ m.T).ravel() for m in algebra.matrices])
        oracle_rank = np.linalg.matrix_rank(images)
        assert ol.orbit_dimension(alt6, algebra, v0) == oracle_rank == 14
        assert 35 - oracle_rank == 21  # rank + nullity

    def test_invariance_under_group_translation(self, alt6, sl6, v0):
        algebra = ol.lie_algebra_basis(sl6)
        base = ol.orbit_dimension(alt6, algebra, v0)
        for seed in range(5):
            g = ol.random_group_element(sl6, seed, 0.5)
            moved = ol.act(alt6, g, v0)
            assert ol.orbit_dimension(alt6, algebra, moved) == base

    def test_direct_sum_dimension_bounded_by_component_sum(self):
        sl2 = ol.special_linear(2, "complex")
        rep = ol.direct_sum(ol.sym2(sl2), ol.sym2(sl2))
        algebra = ol.lie_algebra_basis(sl2)
        v = random_point(rep, 14)
        total = ol.orbit_dimension(rep, algebra, v)
        parts = sum(ol.orbit_dimension(ol.sym2(sl2), algebra, vc) for vc in v)
        assert total <= parts


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
        from orbitlab._linalg import subspace_distance
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
            orbit = ol.orbit_dimension(alt6, algebra, x)
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
        from orbitlab._linalg import subspace_distance
        algebra = ol.lie_algebra_basis(sl6)
        g = ol.random_group_element(sl6, 21, 0.4)
        stab_v = ol.stabilizer_subalgebra(alt6, algebra, v0)
        moved = ol.act(alt6, g, v0)
        stab_moved = ol.stabilizer_subalgebra(alt6, algebra, moved)
        conjugated = ol.adjoint_conjugate(stab_v, g)
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
            ol.orbit_dimension(alt6, sl4, v0)
        with pytest.raises(InvalidArgumentError):
            ol.stabilizer_subalgebra(alt6, sl4, v0)

    def test_algebra_over_the_other_field_rejected(self, alt6, v0):
        real_torus = ol.lie_algebra_basis(ol.torus(6, "real"))
        with pytest.raises(InvalidArgumentError, match="complex field"):
            ol.orbit_dimension(alt6, real_torus, v0)
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

    @pytest.mark.parametrize("rep", all_reps(), ids=rep_id)
    def test_vector_json_round_trip(self, rep):
        v = random_point(rep, 17)
        data = ol.reps.vector_to_json(rep, v)
        back = ol.reps.vector_from_json(rep, data)
        assert np.allclose(ol.reps.flatten(rep, back), ol.reps.flatten(rep, v))

    @pytest.mark.parametrize("rep", all_reps(), ids=rep_id)
    def test_point_accepts_its_own_random_vector(self, rep):
        v = random_point(rep, 18)
        np.testing.assert_array_equal(ol.reps.flatten(rep, ol.reps.point(rep, v)),
                                      ol.reps.flatten(rep, v))

    @pytest.mark.parametrize("rep", all_reps(), ids=rep_id)
    def test_zero_vector_has_the_random_vector_shape(self, rep):
        zero = ol.reps.zero_vector(rep)
        assert _shapes(zero) == _shapes(random_point(rep, 19))
        assert not np.any(ol.reps.flatten(rep, zero))

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

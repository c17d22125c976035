import json

import numpy as np
import pytest
import scipy.linalg

import orbitlab as ol
from orbitlab import _linalg
from orbitlab.errors import (ConfigurationError, InvalidArgumentError,
                             NotThetaStableError)


def oracle_symplectic_nullity(form):
    """Rank-nullity on the full matrix space: dim {X : X v + v X^t = 0}."""
    n = form.shape[0]
    cols = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            cols.append((e @ form + form @ e.T).ravel())
    rank = np.linalg.matrix_rank(np.array(cols).T)
    return n * n - rank


@pytest.mark.parametrize("n,expected", [(2, 3), (3, 8), (6, 35)])
def test_sl_dimension(n, expected):
    basis = ol.lie_algebra_basis(ol.special_linear(n, "complex"))
    assert basis.dim == expected


@pytest.mark.parametrize("n,expected", [(3, 3), (4, 6)])
def test_so_dimension(n, expected):
    basis = ol.lie_algebra_basis(ol.special_orthogonal(n, "real"))
    assert basis.dim == expected


def test_symplectic_dimension_matches_nullity_oracle(v0):
    basis = ol.lie_algebra_basis(ol.symplectic(form=v0))
    assert basis.dim == oracle_symplectic_nullity(v0)
    assert basis.dim == 21


def test_torus_and_embeddings_dimensions():
    assert ol.lie_algebra_basis(ol.torus(4, "complex")).dim == 4
    inner = ol.special_linear(2, "complex")
    assert ol.lie_algebra_basis(ol.block_embedding(inner, 6, 2)).dim == 3
    assert ol.lie_algebra_basis(ol.diagonal_embedding(inner, 3)).dim == 3
    prod = ol.product(inner, ol.special_linear(3, "complex"))
    assert ol.lie_algebra_basis(prod).dim == 3 + 8


@pytest.mark.parametrize("spec", [
    ol.special_linear(2, "real"),
    ol.special_linear(6, "complex"),
    ol.special_orthogonal(4, "real"),
    ol.symplectic(size=6),
    ol.torus(3, "complex"),
    ol.product(ol.special_linear(2, "complex"), ol.special_linear(2, "complex")),
    ol.block_embedding(ol.special_linear(2, "complex"), 6, 0),
    ol.diagonal_embedding(ol.special_linear(2, "real"), 2),
])
def test_bases_bracket_closed_and_independent(spec):
    basis = ol.lie_algebra_basis(spec)
    assert ol.bracket_closure_residual(basis) <= 1e-10
    flat = basis.matrices.reshape(basis.dim, -1)
    assert np.linalg.matrix_rank(flat) == basis.dim


def test_spec_validation_errors(v0):
    with pytest.raises(ConfigurationError):
        ol.GroupSpec("special_linear", 2, "rational")
    with pytest.raises(ConfigurationError):
        ol.block_embedding(ol.special_linear(4, "complex"), 5, 2)
    with pytest.raises(ConfigurationError):
        ol.product(ol.special_linear(2, "real"), ol.special_linear(2, "complex"))
    with pytest.raises(ConfigurationError):
        ol.symplectic(form=np.eye(4))  # symmetric, not antisymmetric
    degenerate = np.zeros((4, 4))
    degenerate[0, 1], degenerate[1, 0] = 1.0, -1.0
    with pytest.raises(ConfigurationError):
        ol.symplectic(form=degenerate)


def test_groupspec_json_round_trip(v0):
    specs = [
        ol.special_linear(6, "complex"),
        ol.symplectic(form=v0),
        ol.symplectic(size=4, field="real"),
        ol.product(ol.special_linear(2, "complex"), ol.special_linear(2, "complex")),
        ol.block_embedding(ol.special_linear(2, "real"), 6, 1),
        ol.diagonal_embedding(ol.torus(2, "complex"), 2),
    ]
    for spec in specs:
        back = ol.GroupSpec.from_json(spec.to_json())
        assert back.cache_key() == spec.cache_key()
        assert ol.lie_algebra_basis(back).dim == ol.lie_algebra_basis(spec).dim
        if spec.form is not None:
            assert back.form.dtype == spec.form.dtype


@pytest.mark.parametrize("spec", [ol.special_linear(2, "complex"),
                                  ol.symplectic(size=4, field="real"),
                                  ol.torus(3, "complex")],
                         ids=lambda spec: f"{spec.family}-{spec.field}")
def test_lie_algebra_basis_json_round_trip(spec):
    basis = ol.lie_algebra_basis(spec)
    back = ol.LieAlgebraBasis.from_json(basis.to_json())
    assert (back.field, back.ambient_size) == (basis.field, basis.ambient_size)
    assert back.matrices.dtype == basis.matrices.dtype
    assert np.array_equal(back.matrices, basis.matrices)


@pytest.mark.parametrize("matrices", [
    [[[1.0, 0.0], [0.0, -1.0]]],                      # one 2x2 matrix, size 3
    [np.eye(3).tolist(), [[1.0, 0.0], [0.0, -1.0]]],  # one of two is 2x2
    [[1.0, 0.0, 0.0]],                                # a vector, not a matrix
], ids=["all-wrong", "one-wrong", "vector"])
def test_lie_algebra_basis_json_rejects_wrong_matrix_shape(matrices):
    with pytest.raises(InvalidArgumentError):
        ol.LieAlgebraBasis.from_json(
            {"field": "real", "size": 3, "matrices": matrices})


class TestCartan:
    def test_sl2_real_split(self):
        cartan = ol.cartan_decompose(ol.lie_algebra_basis(ol.special_linear(2, "real")))
        assert cartan.k_basis.dim == 1
        assert cartan.p_basis.dim == 2

    def test_sl6_complex_split_counts(self, sl6):
        # realified sl(6, C) has dimension 70 = 35 skew-Hermitian + 35 Hermitian
        cartan = ol.cartan_decompose(ol.lie_algebra_basis(sl6))
        assert cartan.k_basis.dim == 35
        assert cartan.p_basis.dim == 35

    def test_parts_have_the_right_symmetry(self, sl6):
        cartan = ol.cartan_decomposition_for(sl6)
        for m in cartan.k_basis.matrices:
            assert np.linalg.norm(m + m.conj().T) <= 1e-12 * max(np.linalg.norm(m), 1)
        for m in cartan.p_basis.matrices:
            assert np.linalg.norm(m - m.conj().T) <= 1e-12 * max(np.linalg.norm(m), 1)

    def test_reassembly_spans_the_realified_algebra(self, sl6):
        from orbitlab._linalg import subspace_distance
        basis = ol.lie_algebra_basis(sl6)
        cartan = ol.cartan_decompose(basis)
        together = np.concatenate([cartan.k_basis.matrices, cartan.p_basis.matrices])
        realified = np.concatenate([basis.matrices, 1j * basis.matrices])
        assert subspace_distance(together, realified, real_span=True) <= 1e-10

    def test_non_theta_stable_span_rejected(self):
        e12 = np.zeros((6, 6), dtype=complex)
        e12[0, 1] = 1.0
        basis = ol.LieAlgebraBasis(np.array([e12]), "complex", 6)
        with pytest.raises(NotThetaStableError):
            ol.cartan_decompose(basis)

    def test_unitary_conjugate_of_block_sl2_splits_three_and_three(self, sl2_block):
        rng = np.random.default_rng(7)
        u, _ = np.linalg.qr(rng.standard_normal((6, 6))
                            + 1j * rng.standard_normal((6, 6)))
        basis = ol.adjoint_conjugate(ol.lie_algebra_basis(sl2_block), u)
        cartan = ol.cartan_decompose(basis)
        assert (cartan.k_basis.dim, cartan.p_basis.dim) == (3, 3)

    def test_unipotent_conjugate_of_block_sl2_is_not_theta_stable(
            self, sl2_block, unipotent_g):
        # I + E_02 moves the block sl(2) off its adjoint: the split counts
        # more than the algebra's six real dimensions
        basis = ol.adjoint_conjugate(ol.lie_algebra_basis(sl2_block),
                                     unipotent_g)
        with pytest.raises(NotThetaStableError,
                           match="conjugate the group into a theta-stable "
                                 "position first"):
            ol.cartan_decompose(basis)

    def test_diagonal_conjugate_of_block_sl2_stays_theta_stable(self, sl2_block):
        # diag(2, 1/2, 1, ...) maps the block sl(2) onto itself
        g = np.diag([2.0, 0.5, 1.0, 1.0, 1.0, 1.0]).astype(complex)
        basis = ol.adjoint_conjugate(ol.lie_algebra_basis(sl2_block), g)
        cartan = ol.cartan_decompose(basis)
        assert (cartan.k_basis.dim, cartan.p_basis.dim) == (3, 3)

    def test_dependent_basis_is_split_as_the_algebra_it_spans(self):
        e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        h = np.diag([1.0, -1.0])
        sl2 = ol.LieAlgebraBasis(np.array([e12, e12, e12.T, h]), "real", 2)
        cartan = ol.cartan_decompose(sl2)
        assert (cartan.k_basis.dim, cartan.p_basis.dim) == (1, 2)
        # span{E12} is one-dimensional: its parts (E12 -+ E21)/2 count two
        line = ol.LieAlgebraBasis(np.array([e12, e12]), "real", 2)
        with pytest.raises(NotThetaStableError):
            ol.cartan_decompose(line)


class TestRandomElements:
    def test_sl2_real_unimodular(self):
        spec = ol.special_linear(2, "real")
        for seed in range(5):
            g = ol.random_group_element(spec, seed, 0.7)
            assert abs(np.linalg.det(g) - 1.0) <= 1e-10

    def test_sl6_unimodular_and_seed_sensitivity(self, sl6):
        g0 = ol.random_group_element(sl6, 0, 0.5)
        g1 = ol.random_group_element(sl6, 1, 0.5)
        assert abs(np.linalg.det(g0) - 1.0) <= 1e-8
        assert np.linalg.norm(g0 - g1, 2) > 1e-6

    def test_symplectic_defining_equation(self, v0):
        spec = ol.symplectic(form=v0)
        for seed in range(5):
            g = ol.random_group_element(spec, seed, 0.8)
            assert np.linalg.norm(g @ v0 @ g.T - v0) <= 1e-8
            assert np.linalg.norm(g.T @ v0 @ g - v0) <= 1e-8

    def test_bitwise_reproducible(self, sl6):
        a = ol.random_group_element(sl6, 123, 0.5)
        b = ol.random_group_element(sl6, 123, 0.5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("spec", [
        ol.special_linear(6, "complex"), ol.special_linear(3, "real"),
        ol.block_embedding(ol.special_linear(2, "complex"), 6, 0)],
        ids=["sl6-complex", "sl3-real", "sl2-block"])
    def test_bitwise_scipy_expm_of_the_algebra_element(self, spec):
        # sampled inputs are scipy's general expm of the Gaussian algebra
        # element, not the flow's Hermitian exponential, so they never drift
        basis = ol.lie_algebra_basis(spec)
        for seed in range(3):
            coeff = ol.groups.random_algebra_coefficients(
                basis.dim, seed, 0.5, spec.field == "complex")
            x = np.einsum("i,ijk->jk", coeff, basis.matrices)
            assert np.array_equal(ol.random_group_element(spec, seed, 0.5),
                                  scipy.linalg.expm(x))

    def test_small_spread_limit_is_the_identity(self, sl6):
        g = ol.random_group_element(sl6, 0, 1e-12)
        assert np.linalg.norm(g - np.eye(6)) <= 1e-10
        assert np.array_equal(ol.matrix_exp(np.zeros((6, 6))), np.eye(6))

    def test_nonpositive_spread_rejected(self, sl6):
        with pytest.raises(InvalidArgumentError):
            ol.random_group_element(sl6, 0, 0.0)

    @pytest.mark.parametrize("spread", [float("nan"), float("inf")])
    def test_non_finite_spread_rejected(self, sl6, spread):
        with pytest.raises(InvalidArgumentError):
            ol.random_group_element(sl6, 0, spread)


class TestOrthonormalBasis:
    @pytest.mark.parametrize("spec", [
        ol.block_embedding(ol.special_linear(2, "complex"), 6, 0),
        ol.special_linear(3, "real"),
        ol.product(ol.special_linear(2, "complex"),
                   ol.special_linear(2, "complex")),
    ], ids=["sl2-block", "sl3-real", "product"])
    def test_spans_the_algebra_orthonormally(self, spec):
        from orbitlab._linalg import span_rows, subspace_distance
        algebra = ol.lie_algebra_basis(spec)
        onb = ol.groups.orthonormal_basis_for(spec)
        assert onb.dim == algebra.dim
        assert (onb.field, onb.ambient_size) == (algebra.field,
                                                 algebra.ambient_size)
        real_span = spec.field != "complex"
        assert subspace_distance(onb.matrices, algebra.matrices,
                                 real_span=real_span) <= 1e-12
        flat = span_rows(onb.matrices, real_span)
        gram = flat @ flat.conj().T
        assert np.allclose(gram, np.eye(onb.dim), atol=1e-12)

    def test_cached_per_group(self, sl2_block):
        onb = ol.groups.orthonormal_basis_for(sl2_block)
        same = ol.block_embedding(ol.special_linear(2, "complex"), 6, 0)
        assert ol.groups.orthonormal_basis_for(same) is onb
        # an orthonormal basis is its own orthonormalization: no second SVD
        assert onb.orthonormal is onb
        bare = ol.groups.orthonormalize(ol.lie_algebra_basis(sl2_block))
        assert bare is not onb
        assert np.array_equal(bare.matrices, onb.matrices)


class TestAdjointConjugate:
    def test_identity_preserves_span(self, sl2_block):
        from orbitlab._linalg import subspace_distance
        basis = ol.lie_algebra_basis(sl2_block)
        conj = ol.adjoint_conjugate(basis, np.eye(6, dtype=complex))
        assert subspace_distance(conj.matrices, basis.matrices) <= 1e-12

    def test_dimension_preserved(self, sl6):
        basis = ol.lie_algebra_basis(ol.special_linear(2, "complex"))
        g = ol.random_group_element(ol.special_linear(2, "complex"), 3, 0.5)
        conj = ol.adjoint_conjugate(basis, g)
        flat = conj.matrices.reshape(conj.dim, -1)
        assert np.linalg.matrix_rank(flat) == basis.dim

    def test_killing_rank_invariant(self):
        from orbitlab.subalgebra import structure_report
        spec = ol.special_linear(3, "complex")
        basis = ol.lie_algebra_basis(spec)
        g = ol.random_group_element(spec, 11, 0.4)
        conj = ol.adjoint_conjugate(basis, g)
        rank = np.linalg.matrix_rank(structure_report(basis).killing_on_derived)
        rank_conj = np.linalg.matrix_rank(structure_report(conj).killing_on_derived)
        assert rank == rank_conj == 8

    def test_singular_conjugator_rejected(self, sl6):
        basis = ol.lie_algebra_basis(sl6)
        with pytest.raises(InvalidArgumentError):
            ol.adjoint_conjugate(basis, np.zeros((6, 6), dtype=complex))


@pytest.mark.parametrize("value", [2.5, True, "2"], ids=repr)
@pytest.mark.parametrize("name", ["size", "offset", "copies"])
def test_groupspec_sizes_offsets_and_copies_must_be_integers(name, value):
    sl2 = ol.special_linear(2, "complex")
    kwargs = {"size": dict(family="special_linear", size=value),
              "offset": dict(family="block_embedding", size=4, inner=sl2,
                             offset=value),
              "copies": dict(family="diagonal_embedding", size=4, inner=sl2,
                             copies=value)}[name]
    with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
        ol.GroupSpec(field="complex", **kwargs)


def test_lie_algebra_basis_rejects_an_unknown_field():
    with pytest.raises(ConfigurationError):
        ol.LieAlgebraBasis(np.zeros((1, 2, 2)), "quaternion", 2)


@pytest.mark.parametrize("field,matrices", [
    ("real", [np.eye(2).tolist(), np.eye(2).tolist()]),
    ("real", [[[0.0, 0.0], [0.0, 0.0]]]),
    # E11 and i E11 are independent over the reals, not over the complex field
    ("complex", [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                 [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]),
], ids=["identity-twice", "zero", "complex-multiple"])
def test_lie_algebra_basis_json_rejects_dependent_matrices(field, matrices):
    with pytest.raises(InvalidArgumentError, match="linearly dependent"):
        ol.LieAlgebraBasis.from_json(
            {"field": field, "size": 2, "matrices": matrices})


def test_lie_algebra_basis_json_rejects_a_near_dependence():
    # the second matrix differs from the first by 3e-9 diag(0, 1, -1): its
    # singular value sits inside the ambiguity band of the rank cutoff
    matrices = [np.diag([1.0, -1.0, 0.0]).tolist(),
                np.diag([1.0, -1.0 + 3e-9, -3e-9]).tolist()]
    assert _linalg.matrix_rank(_linalg.stack_flat(np.array(matrices))).ambiguous
    with pytest.raises(InvalidArgumentError, match="nearly linearly dependent"):
        ol.LieAlgebraBasis.from_json(
            {"field": "real", "size": 3, "matrices": matrices})


@pytest.mark.parametrize("size", [2.0, True, "2", 0])
def test_lie_algebra_basis_json_needs_a_positive_integer_size(size):
    with pytest.raises(InvalidArgumentError, match="positive integer"):
        ol.LieAlgebraBasis.from_json(
            {"field": "real", "size": size, "matrices": [np.eye(2).tolist()]})


@pytest.mark.parametrize("field", ["real", "complex"])
def test_bracket_closure_residual_on_a_dependent_basis(field):
    # [E12, E21] = H lies entirely outside the span of {E12, E12, E21}
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    dtype = complex if field == "complex" else float
    basis = ol.LieAlgebraBasis(np.array([e12, e12, e12.T], dtype=dtype), field, 2)
    assert ol.bracket_closure_residual(basis) == pytest.approx(1.0, abs=1e-12)


def test_cache_key_is_computed_once_per_spec(monkeypatch):
    # every lie_algebra_basis lookup reads the key, so it is computed once
    spec = ol.block_embedding(ol.special_linear(2, "complex"), 6, 0)
    dumped = []

    class CountingJson:
        @staticmethod
        def dumps(data, **kwargs):
            dumped.append(data)
            return json.dumps(data, **kwargs)

    monkeypatch.setattr(ol.groups, "json", CountingJson)
    keys = {spec.cache_key() for _ in range(3)}
    ol.lie_algebra_basis(spec)
    ol.lie_algebra_basis(spec)
    assert len(dumped) == 1
    assert keys == {json.dumps(spec.to_json(), sort_keys=True)}

import json

import numpy as np
import pytest
import scipy.linalg

import orbitlab as ol
from orbitlab import _linalg
from orbitlab.errors import (ConfigurationError, InvalidArgumentError,
                             NotThetaStableError)

from helpers import (adjoint_conjugate, coordinates, orbit_dimension,
                     subspace_distance)


def symplectic_equation(form):
    """The matrix of X -> X v + v X^t on the full matrix space."""
    n = form.shape[0]
    cols = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=form.dtype)
            e[i, j] = 1.0
            cols.append((e @ form + form @ e.T).ravel())
    return np.array(cols).T


def oracle_symplectic_nullity(form):
    """Rank-nullity on the full matrix space: dim {X : X v + v X^t = 0}."""
    n = form.shape[0]
    return n * n - np.linalg.matrix_rank(symplectic_equation(form))


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


def test_symplectic_span_does_not_depend_on_the_form_scale(v0):
    # invertibility is a rank decision, so a small form is no less
    # invertible (its determinant at scale 1e-3 is 1e-18)
    base = ol.lie_algebra_basis(ol.symplectic(form=v0))
    for scale in (1e-3, 1e-7):
        basis = ol.lie_algebra_basis(ol.symplectic(form=scale * v0))
        assert basis.dim == 21
        assert subspace_distance(basis.matrices, base.matrices) <= 1e-12


def test_symplectic_draw_does_not_depend_on_the_form_scale(v0):
    # the basis is orthonormal at every scale of the form, so a draw at
    # spread 0.5 neither blows up at a small form nor favours directions
    base = ol.random_group_element(ol.symplectic(form=v0), 3, 0.5)
    for scale in (1e-7, 1e-3, 3.0):
        form = scale * v0
        spec = ol.symplectic(form=form)
        flat = ol.lie_algebra_basis(spec).matrices.reshape(21, -1)
        assert np.allclose(flat.conj() @ flat.T, np.eye(21), atol=1e-12)
        g = ol.random_group_element(spec, 3, 0.5)
        assert np.all(np.isfinite(g))
        assert np.allclose(g @ form @ g.T, form, rtol=0, atol=1e-12 * scale)
        assert np.allclose(g, base, rtol=0, atol=1e-12)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_symplectic_basis_spans_the_null_space_of_its_equation(n, field):
    # the closed form S v^-1 against the null space of X v + v X^t, on the
    # standard form, a scaled one and a generic congruent one
    std = ol.standard_symplectic_form(n, field)
    g = np.eye(n) + 0.3 * np.random.default_rng(n).standard_normal((n, n))
    for form in (std, 3.0 * std, (g @ std @ g.T).astype(std.dtype)):
        basis = ol.lie_algebra_basis(ol.symplectic(form=form, field=field))
        kernel = scipy.linalg.null_space(symplectic_equation(form))
        assert basis.dim == kernel.shape[1] == n * (n + 1) // 2
        assert subspace_distance(basis.matrices,
                                 kernel.T.reshape(-1, n, n)) <= 1e-12


@pytest.mark.parametrize("form,message", [
    (np.zeros((6, 6)), "invertible"),
    (scipy.linalg.block_diag(*[ol.standard_symplectic_form(2, "real")] * 2,
                             np.zeros((2, 2))), "invertible"),
    (np.full((2, 2), np.nan), "finite"),
])
def test_singular_or_non_finite_symplectic_form_rejected(form, message):
    with pytest.raises(ConfigurationError, match=message):
        ol.symplectic(form=form)


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


@pytest.mark.parametrize("leaf", ["1", True, None, float("nan"),
                                  float("inf")])
def test_json_matrix_entries_must_be_finite_numbers(leaf):
    # a symplectic form, an algebra matrix and a vector read their entries
    # through one reader, which converts no string or bool and refuses
    # the non-finite floats Python's JSON reader accepts
    form = {"family": "symplectic", "size": 2, "field": "real",
            "form": [[0.0, leaf], [-1.0, 0.0]]}
    algebra = {"field": "real", "size": 2,
               "matrices": [[[leaf, 0.0], [0.0, 0.0]]]}
    rep = ol.defining(ol.special_linear(2, "complex"))
    with pytest.raises(InvalidArgumentError):
        ol.GroupSpec.from_json(form)
    with pytest.raises(InvalidArgumentError):
        ol.LieAlgebraBasis.from_json(algebra)
    with pytest.raises(InvalidArgumentError):
        ol.reps.vector_from_json(rep, [[leaf, 0.0], [0.3, 0.0]])


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
        assert back.cache_key == spec.cache_key
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
        basis = adjoint_conjugate(ol.lie_algebra_basis(sl2_block), u)
        cartan = ol.cartan_decompose(basis)
        assert (cartan.k_basis.dim, cartan.p_basis.dim) == (3, 3)

    def test_unipotent_conjugate_of_block_sl2_is_not_theta_stable(
            self, sl2_block, unipotent_g):
        # I + E_02 moves the block sl(2) off its adjoint: the split counts
        # more than the algebra's six real dimensions
        basis = adjoint_conjugate(ol.lie_algebra_basis(sl2_block),
                                     unipotent_g)
        with pytest.raises(NotThetaStableError,
                           match="conjugate the group into a theta-stable "
                                 "position first"):
            ol.cartan_decompose(basis)

    def test_diagonal_conjugate_of_block_sl2_stays_theta_stable(self, sl2_block):
        # diag(2, 1/2, 1, ...) maps the block sl(2) onto itself
        g = np.diag([2.0, 0.5, 1.0, 1.0, 1.0, 1.0]).astype(complex)
        basis = adjoint_conjugate(ol.lie_algebra_basis(sl2_block), g)
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
        ol.block_embedding(ol.special_linear(2, "complex"), 6, 0),
        ol.product(ol.special_linear(2, "complex"),
                   ol.special_linear(2, "complex")),
        ol.special_linear(2, "real"), ol.special_linear(2, "complex")],
        ids=["sl6-complex", "sl3-real", "sl2-block", "normal-factor",
             "sl2-real", "sl2-complex"])
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
        assert np.array_equal(scipy.linalg.expm(np.zeros((6, 6))), np.eye(6))

    def test_nonpositive_spread_rejected(self, sl6):
        with pytest.raises(InvalidArgumentError):
            ol.random_group_element(sl6, 0, 0.0)

    @pytest.mark.parametrize("spread", [float("nan"), float("inf")])
    def test_non_finite_spread_rejected(self, sl6, spread):
        with pytest.raises(InvalidArgumentError):
            ol.random_group_element(sl6, 0, spread)


def _decision_groups():
    """One group of each family, over R and over C."""
    out = []
    for field in ("real", "complex"):
        sl2 = ol.special_linear(2, field)
        out += [ol.special_linear(3, field), ol.special_orthogonal(3, field),
                ol.symplectic(size=4, field=field), ol.torus(3, field),
                ol.product(sl2, ol.special_linear(3, field)),
                ol.block_embedding(sl2, 4, 1),
                ol.diagonal_embedding(sl2, 2)]
    return out


def _decision_id(spec):
    return f"{spec.family}-{spec.size}-{spec.field}"


class TestOrthonormalBasis:
    """``algebra.orthonormal`` is the Cartan basis of a theta-stable
    algebra, and orbit dimensions decided on it are those decided on the
    SVD basis of the algebra."""

    @pytest.mark.parametrize("spec", [
        ol.block_embedding(ol.special_linear(2, "complex"), 6, 0),
        ol.special_linear(3, "real"),
        ol.product(ol.special_linear(2, "complex"),
                   ol.special_linear(2, "complex")),
    ] + _decision_groups(), ids=["sl2-block", "sl3-real", "product"]
        + [_decision_id(spec) for spec in _decision_groups()])
    def test_spans_the_algebra_orthonormally(self, spec):
        from orbitlab._linalg import span_rows
        algebra = ol.lie_algebra_basis(spec)
        onb = ol.lie_algebra_basis(spec).orthonormal
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
        onb = ol.lie_algebra_basis(sl2_block).orthonormal
        same = ol.block_embedding(ol.special_linear(2, "complex"), 6, 0)
        assert ol.lie_algebra_basis(same).orthonormal is onb
        # an orthonormal basis is its own orthonormalization: no second SVD
        assert onb.orthonormal is onb
        # a complex theta-stable algebra decides on its p-basis itself
        assert onb is ol.lie_algebra_basis(sl2_block).cartan.p_basis

    @pytest.mark.parametrize("spec", _decision_groups(), ids=_decision_id)
    def test_is_the_cartan_basis(self, spec):
        algebra = ol.lie_algebra_basis(spec)
        onb = algebra.orthonormal
        cartan = algebra.cartan
        assert onb is cartan.basis
        if spec.field == "complex":
            assert onb is cartan.p_basis
        else:
            assert np.array_equal(onb.matrices, np.concatenate(
                [cartan.k_basis.matrices, cartan.p_basis.matrices]))
        # the Cartan basis spans the algebra, and its split is the same
        assert onb.orthonormal is onb
        assert onb.cartan is cartan

    @pytest.mark.parametrize("spec", _decision_groups(), ids=_decision_id)
    def test_decides_as_the_svd_basis(self, spec):
        algebra = ol.lie_algebra_basis(spec)
        svd_basis = ol.groups.orthonormalize(algebra)
        real_span = spec.field == "real"
        rng = np.random.default_rng(11)
        points = [(rep, ol.random_vector(rep, rng))
                  for rep in (ol.defining(spec), ol.sym2(spec))
                  for _ in range(3)]
        for rep, v in points:
            decision = ol.orbit_dimension_info(rep, algebra, v)
            svd = _linalg.matrix_rank(
                ol.reps._differential_matrix(rep, svd_basis,
                                             coordinates(rep, v)))
            assert ((decision.rank, decision.ambiguous)
                    == (svd.rank, svd.ambiguous))
            stab = ol.stabilizer_subalgebra(rep, algebra, v)
            svd_stab = ol.groups.from_orthonormal_coordinates(svd_basis,
                                                              svd.kernel.T)
            assert subspace_distance(stab.matrices, svd_stab.matrices,
                                     real_span=real_span) <= 1e-8

    # A nonzero point fixed by the whole group has D = 0 in exact
    # arithmetic, but D of rounding noise, which a cutoff relative to the
    # largest singular value alone counts as rank (6 for sp(4) at its
    # form, 1 for so(3, C) at the identity); the noise floor reads 0, and
    # the verdict at such a point is closed, 0 = 0.
    @pytest.mark.parametrize("rep,v", [
        (ol.alt_bilinear(ol.symplectic(size=4)),
         ol.standard_symplectic_form(4)),
        (ol.sym2(ol.special_orthogonal(3)), np.eye(3, dtype=complex)),
        (ol.alt_bilinear(ol.symplectic(size=8, field="real")),
         3.0 * ol.standard_symplectic_form(8, "real")),
        (ol.sym2(ol.special_orthogonal(6)), 1e-5 * np.eye(6, dtype=complex)),
    ], ids=["sp4-form", "so3-identity", "sp8-real-form", "so6-identity"])
    def test_a_fixed_point_has_orbit_dimension_zero(self, rep, v):
        algebra = ol.lie_algebra_basis(rep.group)
        decision = ol.orbit_dimension_info(rep, algebra, v)
        assert (decision.rank, decision.ambiguous) == (0, False)
        assert ol.stabilizer_subalgebra(rep, algebra, v).dim == algebra.dim
        verdict = ol.closedness_verdict(rep, algebra, v)
        assert ((verdict.status, verdict.start_orbit_dim,
                 verdict.limit_orbit_dim) == ("closed", 0, 0))

    def test_not_theta_stable_algebra_keeps_the_svd_basis(self):
        # a non-unitary conjugate of the block sl(2) leaves theta-stability
        sl3 = ol.special_linear(3, "complex")
        g = ol.random_group_element(sl3, 5, 0.5)
        inner = ol.lie_algebra_basis(ol.block_embedding(
            ol.special_linear(2, "complex"), 3, 0))
        conjugated = adjoint_conjugate(inner, g)
        with pytest.raises(NotThetaStableError):
            conjugated.cartan
        onb = conjugated.orthonormal
        assert np.array_equal(onb.matrices,
                              ol.groups.orthonormalize(conjugated).matrices)
        rep = ol.defining(sl3)
        v = np.array([1.0, 2.0, 3.0], dtype=complex)
        assert orbit_dimension(rep, conjugated, g @ v) == 2
        assert orbit_dimension(rep, inner, v) == 2
        stab = ol.stabilizer_subalgebra(rep, conjugated, g @ v)
        moved = ol.stabilizer_subalgebra(rep, inner, v)
        assert subspace_distance(
            stab.matrices, adjoint_conjugate(moved, g).matrices) <= 1e-8


class TestAdjointConjugate:
    def test_identity_preserves_span(self, sl2_block):
        basis = ol.lie_algebra_basis(sl2_block)
        conj = adjoint_conjugate(basis, np.eye(6, dtype=complex))
        assert subspace_distance(conj.matrices, basis.matrices) <= 1e-12

    def test_dimension_preserved(self, sl6):
        basis = ol.lie_algebra_basis(ol.special_linear(2, "complex"))
        g = ol.random_group_element(ol.special_linear(2, "complex"), 3, 0.5)
        conj = adjoint_conjugate(basis, g)
        flat = conj.matrices.reshape(conj.dim, -1)
        assert np.linalg.matrix_rank(flat) == basis.dim

    def test_killing_rank_invariant(self):
        from orbitlab.subalgebra import structure_report
        spec = ol.special_linear(3, "complex")
        basis = ol.lie_algebra_basis(spec)
        g = ol.random_group_element(spec, 11, 0.4)
        conj = adjoint_conjugate(basis, g)
        rank = np.linalg.matrix_rank(structure_report(basis).killing_on_derived)
        rank_conj = np.linalg.matrix_rank(structure_report(conj).killing_on_derived)
        assert rank == rank_conj == 8

    def test_singular_conjugator_rejected(self, sl6):
        basis = ol.lie_algebra_basis(sl6)
        with pytest.raises(InvalidArgumentError):
            adjoint_conjugate(basis, np.zeros((6, 6), dtype=complex))


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
    keys = {spec.cache_key for _ in range(3)}
    ol.lie_algebra_basis(spec)
    ol.lie_algebra_basis(spec)
    assert len(dumped) == 1
    assert keys == {json.dumps(spec.to_json(), sort_keys=True)}

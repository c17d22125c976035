"""Classical reductive matrix groups and their Lie algebras.

A group is described declaratively by a :class:`GroupSpec` (family,
ambient size, scalar field, embedding data).  From a spec we build

* an explicit matrix basis of the Lie algebra (:func:`lie_algebra_basis`),
* its split into skew-Hermitian and Hermitian parts
  (:func:`cartan_decompose`, kept on the basis as ``basis.cartan``),
  whose Cartan basis every flow and orbit dimension reads, and
* random elements ``exp(sum c_i X_i)`` with Gaussian coefficients
  (:func:`random_group_element`), the package's operational meaning of
  "generic group element".

All values are immutable after construction; every function here is a
pure function of its inputs.
"""

from __future__ import annotations

import functools
import json
import math
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import _linalg
from .errors import ConfigurationError, InvalidArgumentError, NotThetaStableError
from .serialize import is_integer, matrix_from_json, matrix_to_json

REAL = "real"
COMPLEX = "complex"

SL = "special_linear"
SO = "special_orthogonal"
SP = "symplectic"
TORUS = "torus"
PRODUCT = "product"
BLOCK = "block_embedding"
DIAGONAL = "diagonal_embedding"

# Residual bars for the structural sanity checks on constructed bases.
BRACKET_CLOSURE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class GroupSpec:
    """Declarative description of a reductive matrix group.

    ``size`` is always the side length of the ambient matrices; product
    groups are realized block-diagonally, so a product's size is the sum
    of its members' sizes.
    """

    family: str
    size: int
    field: str
    form: np.ndarray | None = None
    members: tuple["GroupSpec", ...] = ()
    inner: "GroupSpec | None" = None
    offset: int = 0
    copies: int = 1

    def __post_init__(self):
        if self.field not in (REAL, COMPLEX):
            raise ConfigurationError(f"unknown field {self.field!r}")
        for name in ("size", "offset", "copies"):
            if not is_integer(getattr(self, name)):
                raise ConfigurationError(f"{name} must be an integer")
        if self.size <= 0:
            raise ConfigurationError("size must be positive")
        if self.family == SP:
            v = self.form
            if (v is None or v.shape != (self.size, self.size)
                    or not np.isfinite(v).all()):
                raise ConfigurationError(
                    "symplectic family needs a finite size x size form")
            if np.linalg.norm(v + v.T) > 1e-12 * np.linalg.norm(v):
                raise ConfigurationError("symplectic form must be antisymmetric")
            # full rank at the package's cutoff, so invertibility does not
            # depend on the form's scale; a flagged rank is rejected too
            invertible = _linalg.matrix_rank(v)
            if invertible.rank < self.size or invertible.ambiguous:
                raise ConfigurationError("symplectic form must be invertible")
        elif self.family == PRODUCT:
            if not self.members:
                raise ConfigurationError("product needs at least one member")
            if any(m.field != self.field for m in self.members):
                raise ConfigurationError("product members must share the field")
            if self.size != sum(m.size for m in self.members):
                raise ConfigurationError("product size must be the sum of member sizes")
        elif self.family == BLOCK:
            if self.inner is None:
                raise ConfigurationError("block embedding needs an inner group")
            if self.inner.field != self.field:
                raise ConfigurationError("embedded group must share the field")
            if self.offset < 0 or self.offset + self.inner.size > self.size:
                raise ConfigurationError("block does not fit the ambient size")
        elif self.family == DIAGONAL:
            if self.inner is None:
                raise ConfigurationError("diagonal embedding needs an inner group")
            if self.inner.field != self.field:
                raise ConfigurationError("embedded group must share the field")
            if self.copies < 1 or self.size != self.copies * self.inner.size:
                raise ConfigurationError("size must be copies * inner size")
        elif self.family not in (SL, SO, TORUS):
            raise ConfigurationError(f"unknown family {self.family!r}")

    @property
    def dtype(self):
        return np.complex128 if self.field == COMPLEX else np.float64

    def to_json(self) -> dict:
        out = {"family": self.family, "size": self.size, "field": self.field}
        if self.family == SP:
            out["form"] = matrix_to_json(self.form)
        elif self.family == PRODUCT:
            out["members"] = [m.to_json() for m in self.members]
        elif self.family in (BLOCK, DIAGONAL):
            out["inner"] = self.inner.to_json()
            if self.family == BLOCK:
                out["offset"] = self.offset
            else:
                out["copies"] = self.copies
        return out

    @staticmethod
    def from_json(data: dict) -> "GroupSpec":
        family = data["family"]
        kwargs = dict(family=family, size=data["size"], field=data["field"])
        if family == SP:
            kwargs["form"] = matrix_from_json(data["form"], data["field"] == COMPLEX)
        elif family == PRODUCT:
            kwargs["members"] = tuple(GroupSpec.from_json(m) for m in data["members"])
        elif family == BLOCK:
            kwargs["inner"] = GroupSpec.from_json(data["inner"])
            kwargs["offset"] = data.get("offset", 0)
        elif family == DIAGONAL:
            kwargs["inner"] = GroupSpec.from_json(data["inner"])
            kwargs["copies"] = data["copies"]
        return GroupSpec(**kwargs)

    @functools.cached_property
    def cache_key(self) -> str:
        # the spec is frozen, so its JSON text is computed once
        return json.dumps(self.to_json(), sort_keys=True)


def special_linear(n: int, field: str = COMPLEX) -> GroupSpec:
    return GroupSpec(SL, n, field)


def special_orthogonal(n: int, field: str = COMPLEX) -> GroupSpec:
    return GroupSpec(SO, n, field)


def standard_symplectic_form(n: int, field: str = COMPLEX) -> np.ndarray:
    """Block-diagonal form diag(J, ..., J) with J = [[0, 1], [-1, 0]]."""
    if n % 2:
        raise ConfigurationError("symplectic forms need even size")
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    v = scipy.linalg.block_diag(*([J] * (n // 2)))
    return v.astype(np.complex128 if field == COMPLEX else np.float64)


def symplectic(form: np.ndarray | None = None, size: int | None = None,
               field: str = COMPLEX) -> GroupSpec:
    """Stabilizer of an antisymmetric form under g . v = g v g^t."""
    if form is None:
        if size is None:
            raise ConfigurationError("symplectic needs a form or a size")
        form = standard_symplectic_form(size, field)
    form = np.asarray(form, dtype=np.complex128 if field == COMPLEX else np.float64)
    return GroupSpec(SP, form.shape[0], field, form=form)


def torus(n: int, field: str = COMPLEX) -> GroupSpec:
    return GroupSpec(TORUS, n, field)


def product(*members: GroupSpec) -> GroupSpec:
    if not members:
        raise ConfigurationError("product needs at least one member")
    return GroupSpec(PRODUCT, sum(m.size for m in members), members[0].field,
                     members=tuple(members))


def block_embedding(inner: GroupSpec, ambient_size: int, offset: int = 0) -> GroupSpec:
    return GroupSpec(BLOCK, ambient_size, inner.field, inner=inner, offset=offset)


def diagonal_embedding(inner: GroupSpec, copies: int) -> GroupSpec:
    return GroupSpec(DIAGONAL, inner.size * copies, inner.field, inner=inner,
                     copies=copies)


@dataclass(frozen=True, eq=False)
class LieAlgebraBasis:
    """Ordered matrix basis of a Lie algebra inside the ambient matrices.

    For a complex group the matrices form a basis over the complex
    scalars; coefficients in all downstream solves then live in the same
    field.  The container itself does not enforce bracket closure; see
    :func:`bracket_closure_residual`.

    Data derived from the basis alone (its Cartan split, its orthonormal
    basis, its Gram residual and its Hermitian residual) is
    computed on first use and kept on the instance, and so is the
    orbit-map operator of each representation the basis acts through;
    the matrices must not change afterwards.
    """

    matrices: np.ndarray  # (dim, n, n)
    field: str
    ambient_size: int

    def __post_init__(self):
        if self.field not in (REAL, COMPLEX):
            raise ConfigurationError(f"unknown field {self.field!r}")

    @property
    def dim(self) -> int:
        return self.matrices.shape[0]

    @functools.cached_property
    def cartan(self) -> "CartanDecomposition":
        return cartan_decompose(self)

    @functools.cached_property
    def orthonormal(self) -> "LieAlgebraBasis":
        """The basis every orbit-map rank decision reads: the Cartan basis
        ``cartan.basis`` of a theta-stable algebra, and the SVD basis of
        :func:`orthonormalize` of one that is not.  A basis built
        orthonormal (:func:`orthonormal_basis`) is its own."""
        try:
            return self.cartan.basis
        except NotThetaStableError:
            return orthonormalize(self)

    @functools.cached_property
    def orbit_operators(self) -> weakref.WeakKeyDictionary:
        """Orbit-map operator per Representation (the object is the key,
        held weakly, so a cached group basis keeps no representation
        alive), built on first use by ``reps._orbit_operator``."""
        return weakref.WeakKeyDictionary()

    @functools.cached_property
    def real_rows(self) -> np.ndarray:
        """The matrices as real coordinate rows (``_linalg.real_rows``):
        sum_i c_i X_i for real c is c @ real_rows, read back over the field."""
        return _linalg.span_rows(self.matrices, real_span=True)

    @functools.cached_property
    def zero_subalgebra(self) -> "LieAlgebraBasis":
        """The zero subalgebra, one per basis and shared by every caller:
        its empty stack of matrices is read-only."""
        mats = np.zeros((0,) + self.matrices.shape[1:], self.matrices.dtype)
        mats.flags.writeable = False
        return orthonormal_basis(mats, self.field, self.ambient_size)

    @functools.cached_property
    def gram_residual(self) -> float:
        """Distance of the Gram matrix under Re tr(A B*) from the identity."""
        flat = self.real_rows
        return float(np.linalg.norm(flat @ flat.T - np.eye(self.dim)))

    @functools.cached_property
    def hermitian_residual(self) -> float:
        """Distance of the matrices from their conjugate transposes,
        |X_i - X_i*| summed in quadrature over the basis."""
        mats = self.matrices
        return float(np.linalg.norm(mats - np.conj(mats.swapaxes(1, 2))))

    def to_json(self) -> dict:
        return {
            "field": self.field,
            "size": self.ambient_size,
            "matrices": [matrix_to_json(m) for m in self.matrices],
        }

    @staticmethod
    def from_json(data: dict) -> "LieAlgebraBasis":
        field = data["field"]
        n = data["size"]
        if not (is_integer(n) and n > 0):
            raise InvalidArgumentError("algebra size must be a positive integer")
        mats = [matrix_from_json(m, field == COMPLEX) for m in data["matrices"]]
        if any(m.shape != (n, n) for m in mats):
            raise InvalidArgumentError(
                f"every algebra matrix must be {n} x {n}, got shapes "
                f"{sorted({m.shape for m in mats})}")
        dtype = np.complex128 if field == COMPLEX else np.float64
        arr = np.array(mats, dtype=dtype) if mats else np.zeros((0, n, n), dtype=dtype)
        if mats:
            independence = _linalg.matrix_rank(_linalg.stack_flat(arr))
            if independence.rank < len(mats):
                raise InvalidArgumentError(
                    "algebra matrices are linearly dependent")
            # a near-dependence too close to the cutoff to call is bad
            # input too: the algebra's dimension would be a guess
            if independence.ambiguous:
                raise InvalidArgumentError(
                    "algebra matrices are nearly linearly dependent: their "
                    "independence is too close to the rank cutoff to decide")
        return LieAlgebraBasis(arr, field, n)


@dataclass(frozen=True, eq=False)
class CartanDecomposition:
    """Split of the (realified) algebra into skew-Hermitian and Hermitian parts.

    Both bases are orthonormal for the real trace pairing Re tr(A B*)
    and span over the *reals*, also for complex groups.  ``basis``, the
    Cartan basis, spans the algebra over its own field orthonormally:
    ``p_basis`` over C (g = p + i p, and tr(XY) is real for Hermitian X
    and Y), k then p over R (tr(XY) = 0 for skew X and symmetric Y).
    """

    k_basis: LieAlgebraBasis
    p_basis: LieAlgebraBasis
    basis: LieAlgebraBasis


def _elementary(n: int, i: int, j: int, dtype) -> np.ndarray:
    e = np.zeros((n, n), dtype=dtype)
    e[i, j] = 1.0
    return e


def _sl_matrices(n: int, dtype) -> np.ndarray:
    mats = [_elementary(n, i, j, dtype) for i in range(n) for j in range(n) if i != j]
    for i in range(n - 1):
        d = np.zeros((n, n), dtype=dtype)
        d[i, i] = 1.0
        d[i + 1, i + 1] = -1.0
        mats.append(d)
    return np.array(mats) if mats else np.zeros((0, n, n), dtype=dtype)


def _so_matrices(n: int, dtype) -> np.ndarray:
    mats = [_elementary(n, i, j, dtype) - _elementary(n, j, i, dtype)
            for i in range(n) for j in range(i + 1, n)]
    return np.array(mats) if mats else np.zeros((0, n, n), dtype=dtype)


def _symplectic_matrices(form: np.ndarray, dtype) -> np.ndarray:
    # X v + v X^t = 0 exactly when X = S v^-1 with S symmetric, since
    # v^-t = -v^-1; the elements for S_ij = S_ji, i <= j, are independent,
    # so their QR factor is orthonormal, the same at every scale of the form
    n = form.shape[0]
    i, j = np.triu_indices(n)
    sym = np.zeros((len(i), n, n), dtype=dtype)
    sym[np.arange(len(i)), i, j] = sym[np.arange(len(i)), j, i] = 1.0
    mats = (sym @ np.linalg.inv(form.astype(dtype))).reshape(len(i), n * n)
    return np.linalg.qr(mats.T)[0].T.reshape(-1, n, n)


def _embed_stack(mats: np.ndarray, ambient: int, offset: int, dtype) -> np.ndarray:
    k = mats.shape[1] if mats.ndim == 3 else 0
    out = np.zeros((mats.shape[0], ambient, ambient), dtype=dtype)
    out[:, offset:offset + k, offset:offset + k] = mats
    return out


_BASIS_CACHE: dict[str, LieAlgebraBasis] = {}


def lie_algebra_basis(spec: GroupSpec) -> LieAlgebraBasis:
    """Explicit matrix basis of the Lie algebra of the identity component.

    Embedded families come back already sized to the ambient space.
    """
    key = spec.cache_key
    cached = _BASIS_CACHE.get(key)
    if cached is not None:
        return cached
    dtype = spec.dtype
    n = spec.size
    if spec.family == SL:
        mats = _sl_matrices(n, dtype)
    elif spec.family == SO:
        mats = _so_matrices(n, dtype)
    elif spec.family == SP:
        mats = _symplectic_matrices(spec.form, dtype)
    elif spec.family == TORUS:
        mats = np.array([_elementary(n, i, i, dtype) for i in range(n)])
    elif spec.family == PRODUCT:
        pieces = []
        offset = 0
        for member in spec.members:
            sub = lie_algebra_basis(member)
            pieces.append(_embed_stack(sub.matrices, n, offset, dtype))
            offset += member.size
        mats = np.concatenate(pieces, axis=0)
    elif spec.family == BLOCK:
        sub = lie_algebra_basis(spec.inner)
        mats = _embed_stack(sub.matrices, n, spec.offset, dtype)
    elif spec.family == DIAGONAL:
        sub = lie_algebra_basis(spec.inner)
        m = spec.inner.size
        mats = np.zeros((sub.dim, n, n), dtype=dtype)
        for c in range(spec.copies):
            mats[:, c * m:(c + 1) * m, c * m:(c + 1) * m] = sub.matrices
    else:  # pragma: no cover - guarded by GroupSpec validation
        raise ConfigurationError(f"unsupported family {spec.family!r}")
    basis = LieAlgebraBasis(mats, spec.field, n)
    _BASIS_CACHE[key] = basis
    return basis


def bracket_table(basis: LieAlgebraBasis) -> np.ndarray:
    """Every bracket at once: ``table[i, j] = [X_i, X_j]``, shape (k, k, n, n)."""
    mats = basis.matrices
    return mats[:, None] @ mats[None] - mats[None] @ mats[:, None]


@functools.lru_cache(maxsize=None)
def upper_triangle(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays of the pairs i < j of a k x k table, built once per k."""
    index = np.triu_indices(k, 1)
    for part in index:
        part.flags.writeable = False
    return index


def bracket_closure_residual(basis: LieAlgebraBasis,
                             table: np.ndarray | None = None) -> float:
    """Largest relative residual of any bracket against the span, read on
    the basis's orthonormal basis Q.

    With T the brackets [Q_i, Q_j], i < j, and C = T Q^H their
    coordinates (real ones for a real algebra), the residual is
    max |T - C Q| / max(max |T|, 1).  A product of two elements of Q has
    norm at most 1, so brackets that cancel to rounding noise (an abelian
    algebra in a skewed basis) read as closed, not as noise off the span.
    ``table`` is the :func:`bracket_table` of Q when the caller already
    holds it; only its upper triangle is read.
    """
    onb = basis.orthonormal
    if table is None:
        table = bracket_table(onb)
    real_span = basis.field != COMPLEX
    return _linalg.projection_residual(
        _linalg.span_rows(table[upper_triangle(onb.dim)], real_span),
        _linalg.span_rows(onb.matrices, real_span), floor=1.0)


def cartan_decompose(basis: LieAlgebraBasis) -> CartanDecomposition:
    """Split the algebra into X* = -X and X* = X parts.

    For a complex group the algebra is first realified (the real span of
    the basis and i times the basis).  The parts (X - X*)/2 and
    (X + X*)/2 of the real span S span S + S* between them, so their
    dimensions add up to the real dimension of S exactly when S is
    theta-stable, i.e. closed under conjugate transpose; that count is
    the check.  The real dimension of S is one rank decision of the
    realified generators, so a basis of dependent matrices is split as
    the algebra it spans.  The parts and the Cartan basis are their own
    orthonormalization, and the split is the Cartan basis's own.
    """
    mats = basis.matrices
    n = basis.ambient_size
    gens = np.concatenate([mats, 1j * mats]) if basis.field == COMPLEX else mats
    real_dim = _linalg.matrix_rank(_linalg.span_rows(gens, real_span=True)).rank
    adjoints = np.conj(np.transpose(gens, (0, 2, 1)))
    k_basis = orthonormal_basis(_linalg.orthonormal_span(
        (gens - adjoints) / 2.0, real_span=True), basis.field, n)
    p_basis = orthonormal_basis(_linalg.orthonormal_span(
        (gens + adjoints) / 2.0, real_span=True), basis.field, n)
    if k_basis.dim + p_basis.dim != real_dim:
        raise NotThetaStableError(
            "conjugate transpose leaves the algebra: Cartan split dimensions "
            f"{k_basis.dim}+{p_basis.dim} do not add up to {real_dim}; "
            "conjugate the group into a theta-stable position first")
    if basis.field == COMPLEX:
        onb = p_basis
    else:
        onb = orthonormal_basis(
            np.concatenate([k_basis.matrices, p_basis.matrices]), REAL, n)
    cartan = CartanDecomposition(k_basis, p_basis, onb)
    onb.__dict__["cartan"] = cartan
    return cartan


def cartan_decomposition_for(spec: GroupSpec) -> CartanDecomposition:
    return lie_algebra_basis(spec).cartan


def orthonormal_basis(matrices: np.ndarray, field: str,
                      ambient_size: int) -> LieAlgebraBasis:
    """The basis of matrices the caller knows to be orthonormal, recorded
    as its own orthonormalization, so no SVD repeats it."""
    onb = LieAlgebraBasis(matrices, field, ambient_size)
    onb.__dict__["orthonormal"] = onb
    return onb


def from_orthonormal_coordinates(onb: LieAlgebraBasis,
                                 coords: np.ndarray) -> LieAlgebraBasis:
    """The elements whose coordinates over the orthonormal basis ``onb``
    are the rows of ``coords`` (real ones for a real algebra).  Orthonormal
    rows over an orthonormal basis give an orthonormal basis, so the
    result is recorded as its own orthonormalization; no rows give the
    basis's shared ``zero_subalgebra``."""
    if not len(coords):
        return onb.zero_subalgebra
    mats = coords @ _linalg.stack_flat(onb.matrices)
    return orthonormal_basis(mats.reshape((-1,) + onb.matrices.shape[1:]),
                             onb.field, onb.ambient_size)


def orthonormalize(basis: LieAlgebraBasis) -> LieAlgebraBasis:
    """A basis of the same algebra, orthonormal for the real trace pairing
    (over the reals for a real algebra, over the complex field else), from
    one SVD: ``basis.orthonormal`` of an algebra that is not theta-stable."""
    return orthonormal_basis(
        _linalg.orthonormal_span(basis.matrices,
                                 real_span=basis.field != COMPLEX),
        basis.field, basis.ambient_size)


def random_algebra_coefficients(dim: int, seed, spread: float, complex_field: bool):
    """Deterministic Gaussian coefficient draw for a given seed."""
    rng = np.random.default_rng(seed)
    if complex_field:
        # the real parts, then the imaginary parts, interleaved by a view
        draw = spread * rng.standard_normal((2, dim))
        return np.ascontiguousarray(draw.T).view(np.complex128)[:, 0]
    return spread * rng.standard_normal(dim)


def check_spread(spread: float) -> None:
    """The scale of a Gaussian draw must be finite and positive."""
    if not (math.isfinite(spread) and spread > 0):
        raise InvalidArgumentError("spread must be finite and positive")


def random_group_element(spec: GroupSpec, seed, spread: float) -> np.ndarray:
    """exp of a Gaussian algebra element; absolutely continuous on the group.

    Identical (spec, seed, spread) triples give bitwise-identical draws.
    """
    check_spread(spread)
    basis = lie_algebra_basis(spec)
    coeff = random_algebra_coefficients(basis.dim, seed, spread,
                                        spec.field == COMPLEX)
    x = coeff @ _linalg.stack_flat(basis.matrices)
    return scipy.linalg.expm(x.reshape(basis.matrices.shape[1:]))

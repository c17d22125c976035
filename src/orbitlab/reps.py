"""Linear representations: actions, differentials, inner products, stabilizers.

Matrix-space representations keep their vectors as full square (or
rectangular) matrices, so the action g . M = g M g^t and its
differential X . M = X M + M X^t read exactly like the formulas.
Symmetry classes (symmetric / antisymmetric) are re-enforced after each
action to keep rounding from drifting off the subspace.

Each public operation validates its arguments and then calls an
unchecked core of the same name with a leading underscore (``act`` and
``_act``).  Package code that has validated a vector once, such as the
norm flow, calls the cores directly.

Dimensions over the complex field are complex dimensions throughout;
report layers multiply by two where a real count is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg
from .errors import ConfigurationError, InvalidArgumentError
from .groups import COMPLEX, PRODUCT, GroupSpec, LieAlgebraBasis
from .serialize import matrix_from_json, matrix_to_json

DEFINING = "defining"
SYM2 = "sym2"
ALT_BILINEAR = "alt_bilinear"
EXTERNAL_TENSOR = "external_tensor"
DIRECT_SUM = "direct_sum"

SYMMETRY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Representation:
    """Action descriptor: what the group does to the vector space.

    kind = defining        g . v = g v               on column vectors
    kind = sym2            g . M = g M g^t           on symmetric matrices
    kind = alt_bilinear    g . M = g M g^t           on antisymmetric matrices
    kind = external_tensor (A, B) . M = A M B^t      for a two-factor product
    kind = direct_sum      componentwise             on tuples of vectors
    """

    kind: str
    group: GroupSpec
    components: tuple["Representation", ...] = ()

    def __post_init__(self):
        if self.kind not in (DEFINING, SYM2, ALT_BILINEAR, EXTERNAL_TENSOR,
                             DIRECT_SUM):
            raise ConfigurationError(f"unknown representation kind {self.kind!r}")
        if self.kind == EXTERNAL_TENSOR:
            if self.group.family != PRODUCT or len(self.group.members) != 2:
                raise ConfigurationError(
                    "external tensor needs a two-factor product group")
        if self.kind == DIRECT_SUM:
            if not self.components:
                raise ConfigurationError("direct sum needs components")
            for c in self.components:
                if c.group.cache_key() != self.group.cache_key():
                    raise ConfigurationError(
                        "direct sum components must share the group")

    @property
    def dim(self) -> int:
        """Dimension of the vector space over the group's field."""
        n = self.group.size
        if self.kind == DEFINING:
            return n
        if self.kind == SYM2:
            return n * (n + 1) // 2
        if self.kind == ALT_BILINEAR:
            return n * (n - 1) // 2
        if self.kind == EXTERNAL_TENSOR:
            a, b = self.group.members
            return a.size * b.size
        return sum(c.dim for c in self.components)

    def to_json(self) -> dict:
        out = {"kind": self.kind, "group": self.group.to_json()}
        if self.kind == DIRECT_SUM:
            out["components"] = [c.to_json() for c in self.components]
        return out

    @staticmethod
    def from_json(data: dict) -> "Representation":
        group = GroupSpec.from_json(data["group"])
        kind = data["kind"]
        comps = tuple(Representation.from_json(c) for c in data.get("components", []))
        return Representation(kind, group, comps)


def defining(group: GroupSpec) -> Representation:
    return Representation(DEFINING, group)


def sym2(group: GroupSpec) -> Representation:
    return Representation(SYM2, group)


def alt_bilinear(group: GroupSpec) -> Representation:
    return Representation(ALT_BILINEAR, group)


def external_tensor(group: GroupSpec) -> Representation:
    return Representation(EXTERNAL_TENSOR, group)


def direct_sum(*components: Representation) -> Representation:
    if not components:
        raise ConfigurationError("direct sum needs components")
    return Representation(DIRECT_SUM, components[0].group, tuple(components))


def _blocks(rep: Representation, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = rep.group.members[0].size
    return g[:a, :a], g[a:, a:]


def _coerce_element(rep: Representation, g) -> np.ndarray:
    """Accept a tuple of factor matrices for product groups."""
    if isinstance(g, (tuple, list)):
        if rep.group.family != PRODUCT or len(g) != len(rep.group.members):
            raise InvalidArgumentError("tuple element does not match the group")
        out = np.zeros((rep.group.size, rep.group.size), dtype=rep.group.dtype)
        off = 0
        for factor, member in zip(g, rep.group.members):
            factor = np.asarray(factor)
            if factor.shape != (member.size, member.size):
                raise InvalidArgumentError("factor has the wrong shape")
            out[off:off + member.size, off:off + member.size] = factor
            off += member.size
        return out
    g = np.asarray(g)
    n = rep.group.size
    if g.shape != (n, n):
        raise InvalidArgumentError(f"group element must be {n}x{n}")
    return g


def _check_vector(rep: Representation, v):
    n = rep.group.size
    if rep.kind == DEFINING:
        v = np.asarray(v)
        if v.shape != (n,):
            raise InvalidArgumentError(f"vector must have shape ({n},)")
        return v
    if rep.kind in (SYM2, ALT_BILINEAR):
        v = np.asarray(v)
        if v.shape != (n, n):
            raise InvalidArgumentError(f"vector must be a {n}x{n} matrix")
        return v
    if rep.kind == EXTERNAL_TENSOR:
        a, b = rep.group.members
        v = np.asarray(v)
        if v.shape != (a.size, b.size):
            raise InvalidArgumentError(f"vector must be {a.size}x{b.size}")
        return v
    if not isinstance(v, (tuple, list)) or len(v) != len(rep.components):
        raise InvalidArgumentError("direct-sum vector must be a tuple of components")
    return tuple(_check_vector(c, vc) for c, vc in zip(rep.components, v))


def _resymmetrize(rep: Representation, m: np.ndarray) -> np.ndarray:
    if rep.kind == SYM2:
        return (m + m.T) / 2.0
    if rep.kind == ALT_BILINEAR:
        return (m - m.T) / 2.0
    return m


def point(rep: Representation, v, tol: float = SYMMETRY_TOL):
    """Validate and normalize a vector into the representation space."""
    v = _check_vector(rep, v)
    if rep.kind == DIRECT_SUM:
        return tuple(point(c, vc, tol) for c, vc in zip(rep.components, v))
    arr = np.asarray(v)
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise InvalidArgumentError("vector has non-finite entries")
    if rep.kind in (SYM2, ALT_BILINEAR):
        sym = _resymmetrize(rep, v)
        scale = max(np.linalg.norm(v), 1.0)
        if np.linalg.norm(v - sym) > tol * scale:
            raise InvalidArgumentError(
                f"matrix violates the {rep.kind} symmetry class")
        return sym
    return v


def act(rep: Representation, g, v):
    """Apply the group action of g to the vector v."""
    return _act(rep, _coerce_element(rep, g), _check_vector(rep, v))


def _act(rep: Representation, g: np.ndarray, v):
    if rep.kind == DEFINING:
        return g @ v
    if rep.kind in (SYM2, ALT_BILINEAR):
        return _resymmetrize(rep, g @ v @ g.T)
    if rep.kind == EXTERNAL_TENSOR:
        ga, gb = _blocks(rep, g)
        return ga @ v @ gb.T
    return tuple(_act(c, g, vc) for c, vc in zip(rep.components, v))


def differential_act(rep: Representation, x: np.ndarray, v):
    """Infinitesimal action: d/dt act(exp(tX), v) at t = 0."""
    return _differential_act(rep, _coerce_element(rep, x), _check_vector(rep, v))


def _differential_act(rep: Representation, x: np.ndarray, v):
    if rep.kind == DEFINING:
        return x @ v
    if rep.kind in (SYM2, ALT_BILINEAR):
        return _resymmetrize(rep, x @ v + v @ x.T)
    if rep.kind == EXTERNAL_TENSOR:
        xa, xb = _blocks(rep, x)
        return xa @ v + v @ xb.T
    return tuple(_differential_act(c, x, vc) for c, vc in zip(rep.components, v))


def inner_product(rep: Representation, v, w) -> float:
    """Real trace-form inner product; positive definite on every kind."""
    return _inner_product(rep, _check_vector(rep, v), _check_vector(rep, w))


def _inner_product(rep: Representation, v, w) -> float:
    if rep.kind == DIRECT_SUM:
        return sum(_inner_product(c, vc, wc)
                   for c, vc, wc in zip(rep.components, v, w))
    return float((v * np.conj(w)).sum().real)


def _moment_matrix(rep: Representation, v) -> np.ndarray:
    """Hermitian m(v) with <X . v, v> = Re tr(X m(v)*) for every X.

    X ranges over all ambient matrices (block diagonal ones for a
    product group), so the moment map over any algebra basis is one
    contraction against m(v) instead of one differential per element.
    """
    if rep.kind == DEFINING:
        return np.outer(v, v.conj())
    if rep.kind in (SYM2, ALT_BILINEAR):
        # <XM + MX^t, M> = Re tr(X MM*) + Re tr(X M^t conj(M)), and
        # M^t conj(M) = MM* for symmetric and antisymmetric M alike
        return 2.0 * (v @ v.conj().T)
    if rep.kind == EXTERNAL_TENSOR:
        a = rep.group.members[0].size
        m = np.zeros((rep.group.size, rep.group.size),
                     dtype=np.result_type(v, rep.group.dtype))
        m[:a, :a] = v @ v.conj().T
        m[a:, a:] = v.T @ v.conj()
        return m
    return sum(_moment_matrix(c, vc) for c, vc in zip(rep.components, v))


def norm(rep: Representation, v) -> float:
    return float(np.sqrt(max(inner_product(rep, v, v), 0.0)))


def scale(rep: Representation, c, v):
    return _scale(rep, c, _check_vector(rep, v))


def _scale(rep: Representation, c, v):
    if rep.kind == DIRECT_SUM:
        return tuple(_scale(comp, c, vc) for comp, vc in zip(rep.components, v))
    return c * v


def flatten(rep: Representation, v) -> np.ndarray:
    """Vector as one flat coordinate array (direct sums concatenated)."""
    return _flatten(rep, _check_vector(rep, v))


def _flatten(rep: Representation, v) -> np.ndarray:
    if rep.kind == DIRECT_SUM:
        return np.concatenate([_flatten(c, vc)
                               for c, vc in zip(rep.components, v)])
    return v.ravel()


def zero_vector(rep: Representation):
    n = rep.group.size
    dtype = rep.group.dtype
    if rep.kind == DEFINING:
        return np.zeros(n, dtype=dtype)
    if rep.kind in (SYM2, ALT_BILINEAR):
        return np.zeros((n, n), dtype=dtype)
    if rep.kind == EXTERNAL_TENSOR:
        a, b = rep.group.members
        return np.zeros((a.size, b.size), dtype=dtype)
    return tuple(zero_vector(c) for c in rep.components)


def random_vector(rep: Representation, rng: np.random.Generator,
                  spread: float = 1.0):
    """Gaussian sample from the representation space (symmetry respected)."""
    dtype = rep.group.dtype
    complex_field = dtype == np.complex128

    def gauss(shape):
        if complex_field:
            return spread * (rng.standard_normal(shape)
                             + 1j * rng.standard_normal(shape))
        return spread * rng.standard_normal(shape)

    n = rep.group.size
    if rep.kind == DEFINING:
        return gauss((n,))
    if rep.kind in (SYM2, ALT_BILINEAR):
        return _resymmetrize(rep, gauss((n, n)))
    if rep.kind == EXTERNAL_TENSOR:
        a, b = rep.group.members
        return gauss((a.size, b.size))
    return tuple(random_vector(c, rng, spread) for c in rep.components)


def vector_to_json(rep: Representation, v):
    v = _check_vector(rep, v)
    if rep.kind == DIRECT_SUM:
        return {"components": [vector_to_json(c, vc)
                               for c, vc in zip(rep.components, v)]}
    return matrix_to_json(np.asarray(v))


def vector_from_json(rep: Representation, data):
    complex_field = rep.group.field == COMPLEX
    if rep.kind == DIRECT_SUM:
        comps = data["components"] if isinstance(data, dict) else data
        if len(comps) != len(rep.components):
            raise InvalidArgumentError("wrong number of direct-sum components")
        return tuple(vector_from_json(c, d)
                     for c, d in zip(rep.components, comps))
    arr = matrix_from_json(data, complex_field)
    return point(rep, arr.astype(rep.group.dtype))


def _differential_matrix(rep: Representation, algebra: LieAlgebraBasis, v) -> np.ndarray:
    """Columns are the flattened images X_i . v over the algebra basis."""
    v = _check_vector(rep, v)
    if algebra.dim == 0:
        return np.zeros((len(_flatten(rep, v)), 0), dtype=rep.group.dtype)
    cols = [_flatten(rep, _differential_act(rep, _coerce_element(rep, x), v))
            for x in algebra.matrices]
    return np.array(cols).T


def orbit_dimension(rep: Representation, algebra: LieAlgebraBasis, v) -> int:
    """Dimension (over the group's field) of the identity-component orbit."""
    return orbit_dimension_info(rep, algebra, v)[0]


def orbit_dimension_info(rep: Representation, algebra: LieAlgebraBasis,
                         v, rtol: float | None = None) -> tuple[int, bool]:
    """Orbit dimension plus a flag for rank decisions too close to call."""
    a = _differential_matrix(rep, algebra, v)
    decision = _linalg.matrix_rank(a, rtol)
    return decision.rank, decision.ambiguous


def stabilizer_subalgebra(rep: Representation, algebra: LieAlgebraBasis,
                          v) -> LieAlgebraBasis:
    """Basis of {X in the algebra : X . v = 0} by null-space extraction."""
    a = _differential_matrix(rep, algebra, v)
    kernel = _linalg.null_space(a)
    if kernel.shape[1] == 0:
        mats = np.zeros((0, algebra.ambient_size, algebra.ambient_size),
                        dtype=algebra.matrices.dtype if algebra.dim else rep.group.dtype)
    else:
        mats = np.einsum("ik,ijl->kjl", kernel, algebra.matrices)
    return LieAlgebraBasis(np.ascontiguousarray(mats), algebra.field,
                           algebra.ambient_size)

"""Linear representations: actions, differentials, inner products, stabilizers.

Every kind except the direct sum is one layout: a vector v of a fixed
shape, moved by v -> g_L v g_R^t, where g_L and g_R are diagonal blocks
of g (g_R is absent for column vectors), followed by the projection onto
the symmetry class (symmetric, antisymmetric or none).  The
differential is X . v = X_L v + v X_R^t, projected the same way.
Vectors are kept as full square (or rectangular) matrices, so the
formulas read as written; re-projecting after each action keeps
rounding from drifting off the subspace.  A direct sum acts
componentwise on a tuple of component vectors.

Each public operation validates its arguments and then calls an
unchecked core of the same name with a leading underscore (``act`` and
``_act``).  Package code that has validated a vector once, such as the
norm flow, calls the cores directly.

Coordinates are isometric: a vector's coordinates in an orthonormal
basis of its space, read off the flattened vector at indices computed
once per representation (all entries, or the upper triangle with the
off-diagonal entries weighted sqrt(2) for the symmetry classes, and the
components' coordinates concatenated for a direct sum), so that there
are ``rep.dim`` of them and Re(coords(v) . conj coords(w)) is the inner
product.  The orbit map X -> X . v of an algebra basis, whose rank is the
orbit dimension, is linear in v as well.  Its matrix D is the
``rep.dim`` x k matrix of the map between orthonormal bases when the
algebra basis is orthonormal: column i holds the coordinates of X_i . v.
D is one product of the coordinates of v with an operator built once per
(representation, basis) from the images of the basis vectors of the
space and kept on the basis.  Every rank decision reads D on the
algebra's orthonormal basis, so the kernel of a decision is an
orthonormal basis of the stabilizer; the norm flow reads D on its
orthonormal p-basis.

Dimensions over the complex field are complex dimensions throughout;
report layers multiply by two where a real count is wanted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _linalg
from .errors import ConfigurationError, InvalidArgumentError
from .groups import (COMPLEX, PRODUCT, GroupSpec, LieAlgebraBasis,
                     from_orthonormal_coordinates)
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

    Every kind but the direct sum is one layout, set from the kind here
    and read by every operation below: ``shape`` of a vector, the
    ``left`` and ``right`` diagonal blocks of g (``right`` is None for
    column vectors), and the symmetry ``sign`` of the projection applied
    after each action (+1 symmetric, -1 antisymmetric, 0 none).
    """

    kind: str
    group: GroupSpec
    components: tuple["Representation", ...] = ()
    shape: tuple[int, ...] | None = field(init=False, repr=False)
    left: slice | None = field(init=False, repr=False)
    right: slice | None = field(init=False, repr=False)
    sign: int = field(init=False, repr=False)

    def __post_init__(self):
        n = self.group.size
        whole = slice(None)
        if self.kind == DEFINING:
            layout = ((n,), whole, None, 0)
        elif self.kind in (SYM2, ALT_BILINEAR):
            layout = ((n, n), whole, whole, 1 if self.kind == SYM2 else -1)
        elif self.kind == EXTERNAL_TENSOR:
            if self.group.family != PRODUCT or len(self.group.members) != 2:
                raise ConfigurationError(
                    "external tensor needs a two-factor product group")
            a, b = (m.size for m in self.group.members)
            layout = ((a, b), slice(0, a), slice(a, n), 0)
        elif self.kind == DIRECT_SUM:
            if not self.components:
                raise ConfigurationError("direct sum needs components")
            for c in self.components:
                if c.group.cache_key() != self.group.cache_key():
                    raise ConfigurationError(
                        "direct sum components must share the group")
            layout = (None, None, None, 0)
        else:
            raise ConfigurationError(f"unknown representation kind {self.kind!r}")
        for name, value in zip(("shape", "left", "right", "sign"), layout):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        """Dimension of the vector space over the group's field."""
        if self.kind == DIRECT_SUM:
            return sum(c.dim for c in self.components)
        size = math.prod(self.shape)
        # n(n +- 1)/2 for the symmetry classes
        return (size + self.sign * self.shape[0]) // 2 if self.sign else size

    @functools.cached_property
    def coordinate_map(self) -> tuple[np.ndarray, np.ndarray]:
        """Isometric coordinates of a vector of a kind other than the
        direct sum: the positions read off the flattened vector and their
        weights, computed once.  A symmetry class reads its upper triangle
        (the diagonal too when symmetric) and weights the off-diagonal
        entries sqrt(2), since each stands for two equal-size entries."""
        size = math.prod(self.shape)
        if not self.sign:
            return np.arange(size), np.ones(size)
        n = self.shape[0]
        rows, cols = np.triu_indices(n, 0 if self.sign > 0 else 1)
        return rows * n + cols, np.where(rows == cols, 1.0, math.sqrt(2.0))

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
    if rep.kind == DIRECT_SUM:
        if not isinstance(v, (tuple, list)) or len(v) != len(rep.components):
            raise InvalidArgumentError(
                "direct-sum vector must be a tuple of components")
        return tuple(_check_vector(c, vc) for c, vc in zip(rep.components, v))
    v = np.asarray(v)
    if v.shape != rep.shape:
        raise InvalidArgumentError(f"vector must have shape {rep.shape}")
    return v


def _resymmetrize(rep: Representation, m: np.ndarray) -> np.ndarray:
    """Project (a stack of) matrices onto the symmetry class."""
    if not rep.sign:
        return m
    mt = m.swapaxes(-1, -2)
    return (m + mt) / 2.0 if rep.sign > 0 else (m - mt) / 2.0


def point(rep: Representation, v):
    """Validate and normalize a vector into the representation space."""
    v = _check_vector(rep, v)
    if rep.kind == DIRECT_SUM:
        return tuple(point(c, vc) for c, vc in zip(rep.components, v))
    arr = np.asarray(v)
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise InvalidArgumentError("vector has non-finite entries")
    if rep.sign:
        sym = _resymmetrize(rep, v)
        scale = max(np.linalg.norm(v), 1.0)
        if np.linalg.norm(v - sym) > SYMMETRY_TOL * scale:
            raise InvalidArgumentError(
                f"matrix violates the {rep.kind} symmetry class")
        return sym
    return v


def act(rep: Representation, g, v):
    """Apply the group action of g to the vector v."""
    return _act(rep, _coerce_element(rep, g), _check_vector(rep, v))


def _act(rep: Representation, g: np.ndarray, v):
    if rep.kind == DIRECT_SUM:
        return tuple(_act(c, g, vc) for c, vc in zip(rep.components, v))
    out = g[rep.left, rep.left] @ v
    if rep.right is None:
        return out
    return _resymmetrize(rep, out @ g[rep.right, rep.right].T)


def differential_act(rep: Representation, x: np.ndarray, v):
    """Infinitesimal action: d/dt act(exp(tX), v) at t = 0."""
    return _differential_act(rep, _coerce_element(rep, x), _check_vector(rep, v))


def _differential_act(rep: Representation, x: np.ndarray, v):
    """Also maps a stack of algebra elements to the stack of images."""
    if rep.kind == DIRECT_SUM:
        return tuple(_differential_act(c, x, vc)
                     for c, vc in zip(rep.components, v))
    out = x[..., rep.left, rep.left] @ v
    if rep.right is None:
        return out
    return _resymmetrize(
        rep, out + v @ x[..., rep.right, rep.right].swapaxes(-1, -2))


def inner_product(rep: Representation, v, w) -> float:
    """Real trace-form inner product; positive definite on every kind."""
    return _inner_product(rep, _check_vector(rep, v), _check_vector(rep, w))


def _inner_product(rep: Representation, v, w) -> float:
    if rep.kind == DIRECT_SUM:
        return sum(_inner_product(c, vc, wc)
                   for c, vc, wc in zip(rep.components, v, w))
    return float((v * np.conj(w)).sum().real)


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
    if rep.kind == DIRECT_SUM:
        return tuple(zero_vector(c) for c in rep.components)
    return np.zeros(rep.shape, dtype=rep.group.dtype)


def random_vector(rep: Representation, rng: np.random.Generator,
                  spread: float = 1.0):
    """Gaussian sample from the representation space (symmetry respected)."""
    if rep.kind == DIRECT_SUM:
        return tuple(random_vector(c, rng, spread) for c in rep.components)
    sample = rng.standard_normal(rep.shape)
    if rep.group.field == COMPLEX:
        sample = sample + 1j * rng.standard_normal(rep.shape)
    return _resymmetrize(rep, spread * sample)


def vector_to_json(rep: Representation, v):
    v = _check_vector(rep, v)
    if rep.kind == DIRECT_SUM:
        return {"components": [vector_to_json(c, vc)
                               for c, vc in zip(rep.components, v)]}
    return matrix_to_json(np.asarray(v))


def vector_from_json(rep: Representation, data):
    if rep.kind == DIRECT_SUM:
        comps = data["components"] if isinstance(data, dict) else data
        if len(comps) != len(rep.components):
            raise InvalidArgumentError("wrong number of direct-sum components")
        return tuple(vector_from_json(c, d)
                     for c, d in zip(rep.components, comps))
    return point(rep, matrix_from_json(data, rep.group.field == COMPLEX))


def _coordinates(rep: Representation, v, stack: int | None = None) -> np.ndarray:
    """Coordinates of v in an orthonormal basis of the space: ``rep.dim``
    of them, whose real dot product with the conjugated coordinates of w
    is ``inner_product(rep, v, w)``.  ``stack`` reads a stack of that many
    vectors into rows."""
    if rep.kind == DIRECT_SUM:
        return np.concatenate([_coordinates(c, vc, stack)
                               for c, vc in zip(rep.components, v)], axis=-1)
    index, weight = rep.coordinate_map
    flat = v.ravel() if stack is None else v.reshape(stack, -1)
    return flat[..., index] * weight


def _basis_vectors(rep: Representation):
    """The orthonormal basis of the space whose coordinates are the unit
    vectors, in order: each is the projection onto the symmetry class of
    its coordinate's weight at its position."""
    if rep.kind == DIRECT_SUM:
        zeros = [zero_vector(c) for c in rep.components]
        for i, c in enumerate(rep.components):
            for unit in _basis_vectors(c):
                yield tuple(unit if j == i else z for j, z in enumerate(zeros))
        return
    size = math.prod(rep.shape)
    for position, weight in zip(*rep.coordinate_map):
        unit = np.zeros(size, dtype=rep.group.dtype)
        unit[position] = weight
        yield _resymmetrize(rep, unit.reshape(rep.shape))


def _build_orbit_operator(rep: Representation,
                          algebra: LieAlgebraBasis) -> np.ndarray:
    """The orbit map v -> (X_1 . v, ..., X_k . v) in isometric coordinates:
    a (k, N, N) stack with N = rep.dim, read as the (k N) x N operator
    whose row block i is the matrix of v -> X_i . v; column j holds the
    images of basis vector j."""
    columns = [_coordinates(rep, _differential_act(rep, algebra.matrices, unit),
                            algebra.dim)
               for unit in _basis_vectors(rep)]
    return np.stack(columns, axis=-1)


def _orbit_operator(rep: Representation, algebra: LieAlgebraBasis) -> np.ndarray:
    """The orbit-map operator, built once per (representation, basis) and
    kept on the basis."""
    operator = algebra.orbit_operators.get(rep)
    if operator is None:
        operator = _build_orbit_operator(rep, algebra)
        algebra.orbit_operators[rep] = operator
    return operator


def _differential_matrix(rep: Representation, algebra: LieAlgebraBasis, v) -> np.ndarray:
    """The ``rep.dim`` x k matrix D whose column i holds the coordinates of
    X_i . v over the algebra basis: one product of the basis's cached
    orbit-map operator with the coordinates of v."""
    v = _check_vector(rep, v)
    n = rep.group.size
    field = rep.group.field
    if algebra.ambient_size != n or algebra.field != field:
        raise InvalidArgumentError(
            f"algebra elements must be {n}x{n} over the {field} field")
    if algebra.dim == 0:
        return np.zeros((rep.dim, 0), dtype=rep.group.dtype)
    # one N x N product per block: numpy and scipy each load their own
    # OpenBLAS, and a single (k N) x N product of a large algebra crosses
    # the threading threshold of numpy's, whose spinning threads then
    # starve the LAPACK calls made through scipy's
    return (_orbit_operator(rep, algebra) @ _coordinates(rep, v)).T


def orbit_dimension(rep: Representation, algebra: LieAlgebraBasis, v) -> int:
    """Dimension (over the group's field) of the identity-component orbit."""
    return orbit_dimension_info(rep, algebra, v).rank


def orbit_dimension_info(rep: Representation, algebra: LieAlgebraBasis, v,
                         rtol: float = _linalg.RANK_RTOL) -> _linalg.RankDecision:
    """The rank decision of the orbit map X -> X . v on the algebra.

    The map is read between orthonormal bases, on ``algebra.orthonormal``
    (decided at the default cutoff, so ``rtol`` never changes the
    algebra's dimension).  Its rank is the orbit dimension and its kernel
    holds orthonormal coordinates of the stabilizer over that basis, so
    dim orbit + dim stabilizer = ``algebra.orthonormal.dim``, the
    dimension of the algebra's span (``algebra.dim`` counts its matrices,
    which only ``LieAlgebraBasis.from_json`` requires to be independent);
    the flag marks a rank too close to the cutoff to call.
    """
    return _linalg.matrix_rank(
        _differential_matrix(rep, algebra.orthonormal, v), rtol)


def stabilizer_subalgebra(rep: Representation, algebra: LieAlgebraBasis,
                          v, rtol: float = _linalg.RANK_RTOL) -> LieAlgebraBasis:
    """Orthonormal basis of {X in the algebra : X . v = 0}, the kernel of
    the orbit map."""
    return _stabilizer_subalgebra(algebra,
                                  orbit_dimension_info(rep, algebra, v, rtol))


def _stabilizer_subalgebra(algebra: LieAlgebraBasis,
                           decision: _linalg.RankDecision) -> LieAlgebraBasis:
    """The stabilizer read off a decision of :func:`orbit_dimension_info`.

    The kernel's columns are orthonormal coordinates over the orthonormal
    basis of the algebra, so the stabilizer basis is orthonormal and is
    its own ``orthonormal``."""
    return from_orthonormal_coordinates(algebra.orthonormal,
                                        decision.kernel.T)

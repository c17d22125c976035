"""Linear representations: actions, differentials, inner products, stabilizers.

Every kind except the direct sum is one layout: a vector v of a fixed
shape, moved by v -> g_L v g_R^t, where g_L and g_R are diagonal blocks
of g (g_R is absent for column vectors), followed by the projection onto
the symmetry class (symmetric, antisymmetric or none).  The
differential is X . v = X_L v + v X_R^t, projected the same way;
re-projecting after each action keeps rounding from drifting off the
subspace.  A direct sum acts componentwise.

Inside the package a vector is one flat array of its entries,
components concatenated, read in runs of consecutive components of one
layout, each a stack of matrices: an action, a differential or a
projection is one batched product per run, and nothing recurses over
components.  diag(d) scales each entry by the exponential of its
weight, ``rep.weight_map @ d``, which the norm flow's line search reads.
Each public operation turns its vector from the public form (a matrix,
or a tuple of component vectors for a direct sum) into the flat array
once, by ``_check_vector``, calls an unchecked core of the same name
with a leading underscore (``act`` and ``_act``) and gives a vector back
by ``_unflat``.  Package code that has validated a vector once, such as
the norm flow, calls the cores directly.  The one check left in a core
is the fit of an algebra basis to the representation's group, made once
per (representation, basis) when the orbit-map operator is built.

Coordinates are isometric: a vector's coordinates in an orthonormal
basis of its space, read off the flat vector at indices computed once
per representation (all entries, or the upper triangle with the
off-diagonal entries weighted sqrt(2) for the symmetry classes), so
that there are ``rep.dim`` of them and Re(coords(v) . conj coords(w)) is
the inner product.  The orbit map X -> X . v of an algebra basis, whose
rank is the orbit dimension, is linear in v as well.  Its matrix D is
the ``rep.dim`` x k matrix of the map between orthonormal bases when the
algebra basis is orthonormal: column i holds the coordinates of X_i . v.
D is one product of the coordinates of v with an operator built once per
(representation, basis) from the images of one stack of the basis
vectors of the space and kept on the basis; ``_differential_matrix``
takes the coordinates, so a caller that reads them too (the moment map,
a noise floor) reads them once.  ``orbit_dimension_info``
reads D on ``algebra.orthonormal``, the Cartan basis of a theta-stable
algebra, so the kernel of a decision is an orthonormal basis of the
stabilizer; the norm flow reads D on the Cartan basis too.

Dimensions over the complex field are complex dimensions throughout;
report layers multiply by two where a real count is wanted.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _linalg
from .errors import ConfigurationError, InvalidArgumentError
from .groups import (COMPLEX, PRODUCT, GroupSpec, LieAlgebraBasis,
                     check_spread, from_orthonormal_coordinates)
from .serialize import matrix_from_json, matrix_to_json

DEFINING = "defining"
SYM2 = "sym2"
ALT_BILINEAR = "alt_bilinear"
EXTERNAL_TENSOR = "external_tensor"
DIRECT_SUM = "direct_sum"

SYMMETRY_TOL = 1e-12

# Orbit dimensions floor singular values at ORBIT_NOISE |v| (_orbit_rank):
# at a point fixed by the group, D = 0 computes as noise up to about
# 35 eps |v| (Sp(2n) on alt_bilinear at its form, 2n <= 8), 30 times below
# the flag band.
ORBIT_NOISE = 1e4 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class Representation:
    """Action descriptor: what the group does to the vector space.

    kind = defining        g . v = g v               on column vectors
    kind = sym2            g . M = g M g^t           on symmetric matrices
    kind = alt_bilinear    g . M = g M g^t           on antisymmetric matrices
    kind = external_tensor (A, B) . M = A M B^t      for a two-factor product
    kind = direct_sum      componentwise             on tuples of vectors

    Every kind but the direct sum is one layout, set from the kind here:
    ``shape`` of a vector, the ``left`` and ``right`` diagonal blocks of
    g (``right`` is None for column vectors) and the ``sign`` of the
    symmetry projection (+1 symmetric, -1 antisymmetric, 0 none).
    ``blocks`` partitions the rows of g into the diagonal blocks the
    action reads (the finest any component reads): X acts through X[b, b]
    for b in ``blocks`` only.

    ``runs`` groups consecutive components of one layout, nested sums
    flattened, as (layout, span of the flat vector, stack shape (count,
    rows, cols)), a column vector read as n x 1; a leaf kind is one run.
    """

    kind: str
    group: GroupSpec
    components: tuple["Representation", ...] = ()
    shape: tuple[int, ...] | None = field(init=False, repr=False)
    left: slice | None = field(init=False, repr=False)
    right: slice | None = field(init=False, repr=False)
    sign: int = field(init=False, repr=False)
    blocks: tuple[slice, ...] = field(init=False, repr=False)
    runs: tuple[tuple["Representation", slice, tuple], ...] = field(
        init=False, repr=False)

    def __post_init__(self):
        n = self.group.size
        whole = slice(None)
        if self.kind == DEFINING:
            layout = ((n,), whole, None, 0, (whole,))
        elif self.kind in (SYM2, ALT_BILINEAR):
            layout = ((n, n), whole, whole, 1 if self.kind == SYM2 else -1,
                      (whole,))
        elif self.kind == EXTERNAL_TENSOR:
            if self.group.family != PRODUCT or len(self.group.members) != 2:
                raise ConfigurationError(
                    "external tensor needs a two-factor product group")
            a, b = (m.size for m in self.group.members)
            layout = ((a, b), slice(0, a), slice(a, n), 0,
                      (slice(0, a), slice(a, n)))
        elif self.kind == DIRECT_SUM:
            if not self.components:
                raise ConfigurationError("direct sum needs components")
            for c in self.components:
                if c.group.cache_key != self.group.cache_key:
                    raise ConfigurationError(
                        "direct sum components must share the group")
            # the components share the group, so an external tensor's two
            # factor blocks refine every other component's whole
            layout = (None, None, None, 0,
                      max((c.blocks for c in self.components), key=len))
        else:
            raise ConfigurationError(f"unknown representation kind {self.kind!r}")
        for name, value in zip(("shape", "left", "right", "sign", "blocks"),
                               layout):
            object.__setattr__(self, name, value)
        leaves = ([layout for c in self.components
                   for layout, _, (count, *_) in c.runs for _ in range(count)]
                  if self.kind == DIRECT_SUM else [self])
        runs, start = [], 0
        for _, same in itertools.groupby(leaves, key=lambda leaf: leaf.kind):
            same = list(same)
            stack = (len(same), *same[0].shape, 1)[:3]
            runs.append((same[0], slice(start, start + math.prod(stack)), stack))
            start += math.prod(stack)
        object.__setattr__(self, "runs", tuple(runs))

    @functools.cached_property
    def dim(self) -> int:
        """Dimension of the vector space over the group's field."""
        return len(self.coordinate_map[0])

    @property
    def entries(self) -> int:
        """Number of entries of a vector, all components together."""
        return self.runs[-1][1].stop

    @functools.cached_property
    def coordinate_map(self) -> tuple[np.ndarray, np.ndarray]:
        """Isometric coordinates: the positions read off the flat vector
        and their weights.  A symmetry class reads its upper triangle (the
        diagonal too when symmetric) and weights the off-diagonal entries
        sqrt(2), since each stands for two equal-size entries."""
        index, weight = [], []
        for layout, span, (count, rows, cols) in self.runs:
            if layout.sign:
                r, c = np.triu_indices(rows, 0 if layout.sign > 0 else 1)
                at, w = r * cols + c, np.where(r == c, 1.0, math.sqrt(2.0))
            else:
                at, w = np.arange(rows * cols), np.ones(rows * cols)
            starts = span.start + rows * cols * np.arange(count)
            index.append((starts[:, None] + at).reshape(-1))
            weight.append(np.tile(w, count))
        return np.concatenate(index), np.concatenate(weight)

    @functools.cached_property
    def weight_map(self) -> np.ndarray:
        """The integer matrix W whose product W d is the weight of diag(d) on
        each flat entry: diag(d) . E_ij = (d_L,i + d_R,j) E_ij before the
        projection (d_L,i for column vectors), d_L and d_R the entries of
        d on the left and right blocks."""
        eye = np.eye(self.group.size)
        out = np.zeros((self.entries, self.group.size))
        for layout, span, stack in self.runs:
            # a row slice of out is contiguous, so its reshape is a view
            block = out[span].reshape(stack + (-1,))
            block += eye[layout.left][:, None]
            if layout.right is not None:
                block += eye[layout.right]
        return out

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
    """A group or algebra element as an n x n array."""
    try:
        g = np.asarray(g)
    except ValueError as exc:  # a ragged nested list
        raise InvalidArgumentError(f"malformed group element: {exc}") from exc
    n = rep.group.size
    if g.shape != (n, n):
        raise InvalidArgumentError(f"group element must be {n}x{n}")
    return g


def _check_vector(rep: Representation, v) -> np.ndarray:
    """The flat entries of a vector given in its public form: a matrix of
    ``rep.shape``, or a tuple of component vectors for a direct sum."""
    if rep.kind == DIRECT_SUM:
        if not isinstance(v, (tuple, list)) or len(v) != len(rep.components):
            raise InvalidArgumentError(
                "direct-sum vector must be a tuple of components")
        return np.concatenate([_check_vector(c, vc)
                               for c, vc in zip(rep.components, v)])
    try:
        v = np.asarray(v)
    except ValueError as exc:  # a ragged nested list
        raise InvalidArgumentError(f"malformed vector: {exc}") from exc
    if v.shape != rep.shape:
        raise InvalidArgumentError(f"vector must have shape {rep.shape}")
    return v.reshape(-1)


def _unflat(rep: Representation, x: np.ndarray):
    """The public form of the flat vector ``x``: views of its entries."""
    if rep.kind == DIRECT_SUM:
        stops = np.cumsum([c.entries for c in rep.components])
        return tuple(_unflat(c, x[stop - c.entries:stop])
                     for c, stop in zip(rep.components, stops))
    return x.reshape(rep.shape)


def _stacks(rep: Representation, x: np.ndarray):
    """Each run's layout and its stack of matrices off x's last axis."""
    lead = x.shape[:-1]
    return [(layout, x[..., span].reshape(lead + stack))
            for layout, span, stack in rep.runs]


def _joined(stacks: list) -> np.ndarray:
    """The flat vectors of per-run stacks of matrices, runs in order."""
    return np.concatenate([m.reshape(m.shape[:-3] + (math.prod(m.shape[-3:]),))
                           for m in stacks], axis=-1)


def _resymmetrize(layout: Representation, m: np.ndarray) -> np.ndarray:
    """Project (a stack of) matrices onto the layout's symmetry class."""
    if not layout.sign:
        return m
    mt = m.swapaxes(-1, -2)
    return (m + mt) / 2.0 if layout.sign > 0 else (m - mt) / 2.0


def point(rep: Representation, v):
    """Validate and normalize a vector into the representation space.

    Each component meets its symmetry class to SYMMETRY_TOL of its own
    norm, so a large component does not hide a small one's violation."""
    x = _check_vector(rep, v)
    if not (np.all(np.isfinite(x.real)) and np.all(np.isfinite(x.imag))):
        raise InvalidArgumentError("vector has non-finite entries")
    projected = []
    for layout, m in _stacks(rep, x):
        projected.append(_resymmetrize(layout, m))
        # a norm that overflows is the caller's to reject (``norm``)
        with np.errstate(over="ignore", invalid="ignore"):
            size = np.linalg.norm(m, axis=(-2, -1))
            off = np.linalg.norm(m - projected[-1], axis=(-2, -1))
        if np.any(off > SYMMETRY_TOL * np.maximum(size, 1.0)):
            raise InvalidArgumentError(
                f"matrix violates the {layout.kind} symmetry class")
    return _unflat(rep, _joined(projected))


def act(rep: Representation, g, v):
    """Apply the group action of g to the vector v."""
    return _unflat(rep, _act(rep, _coerce_element(rep, g),
                             _check_vector(rep, v)))


def _act(rep: Representation, g: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = []
    for layout, span, stack in rep.runs:
        m = g[layout.left, layout.left] @ x[span].reshape(stack)
        if layout.right is not None:
            m = _resymmetrize(layout, m @ g[layout.right, layout.right].T)
        out.append(m.reshape(-1))
    return out[0] if len(out) == 1 else np.concatenate(out)


def differential_act(rep: Representation, x: np.ndarray, v):
    """Infinitesimal action: d/dt act(exp(tX), v) at t = 0."""
    return _unflat(rep, _differential_act(rep, _coerce_element(rep, x),
                                          _check_vector(rep, v)))


def _differential_act(rep: Representation, x: np.ndarray,
                      v: np.ndarray) -> np.ndarray:
    """Also maps stacks: the leading axes of the algebra elements ``x``
    and of the flat vectors ``v`` broadcast against each other."""
    out = []
    for layout, m in _stacks(rep, v):
        image = x[..., None, layout.left, layout.left] @ m
        if layout.right is not None:
            image = _resymmetrize(layout, image + m @ x[
                ..., None, layout.right, layout.right].swapaxes(-1, -2))
        out.append(image)
    return _joined(out)


def inner_product(rep: Representation, v, w) -> float:
    """Real trace-form inner product; positive definite on every kind."""
    v, w = _check_vector(rep, v), _check_vector(rep, w)
    return float((v * np.conj(w)).sum().real)


def norm(rep: Representation, v) -> float:
    """sqrt(inner_product(v, v)); a norm that overflows is an error."""
    return _norm(_check_vector(rep, v))


def _norm(x: np.ndarray) -> float:
    return float(np.sqrt(_squared_norm(x)))


def _squared_norm(x: np.ndarray) -> float:
    """|x|^2 of flat entries, bitwise ``inner_product(x, x)``; a square
    that overflows is an error."""
    # overflow is what the check below catches, so it is not warned about
    with np.errstate(over="ignore"):
        out = float((x * np.conj(x)).sum().real)
    if not math.isfinite(out):
        raise InvalidArgumentError("the vector's norm overflows")
    return out


def zero_vector(rep: Representation):
    return _unflat(rep, np.zeros(rep.entries, dtype=rep.group.dtype))


def random_vector(rep: Representation, rng: np.random.Generator,
                  spread: float = 1.0):
    """Gaussian sample from the representation space (symmetry respected).

    The entries are drawn component by component, the real part of each
    before its imaginary part over the complex field."""
    check_spread(spread)
    parts = 2 if rep.group.field == COMPLEX else 1
    out = []
    for layout, _, (count, *shape) in rep.runs:
        sample = rng.standard_normal((count, parts, *shape))
        sample = sample[:, 0] + 1j * sample[:, 1] if parts == 2 else sample[:, 0]
        out.append(_resymmetrize(layout, spread * sample))
    return _unflat(rep, _joined(out))


def vector_to_json(rep: Representation, v):
    # [re, im] pairs over the complex field, also for a real array
    x = _check_vector(rep, v)
    v = _unflat(rep, x.astype(complex) if rep.group.field == COMPLEX else x)
    if rep.kind == DIRECT_SUM:
        return {"components": [vector_to_json(c, vc)
                               for c, vc in zip(rep.components, v)]}
    return matrix_to_json(v)


def vector_from_json(rep: Representation, data):
    if rep.kind == DIRECT_SUM:
        comps = data["components"] if isinstance(data, dict) else data
        if len(comps) != len(rep.components):
            raise InvalidArgumentError("wrong number of direct-sum components")
        return tuple(vector_from_json(c, d)
                     for c, d in zip(rep.components, comps))
    return point(rep, matrix_from_json(data, rep.group.field == COMPLEX))


def _coordinates(rep: Representation, x: np.ndarray) -> np.ndarray:
    """Coordinates of the flat vector x in an orthonormal basis of the
    space, ``rep.dim`` of them (a stack of rows for a stack of vectors):
    Re(coords(v) . conj coords(w)) is ``inner_product(rep, v, w)``."""
    index, weight = rep.coordinate_map
    return x[..., index] * weight


def _build_orbit_operator(rep: Representation,
                          algebra: LieAlgebraBasis) -> np.ndarray:
    """The orbit map v -> (X_1 . v, ..., X_k . v) in isometric coordinates:
    a (k, N, N) stack with N = rep.dim, read as the (k N) x N operator
    whose row block i is the matrix of v -> X_i . v; column j holds the
    images of basis vector j, the projected unit stack's row j."""
    index, weight = rep.coordinate_map
    units = np.zeros((rep.dim, rep.entries), dtype=rep.group.dtype)
    units[np.arange(rep.dim), index] = weight
    units = _joined([_resymmetrize(layout, m)
                     for layout, m in _stacks(rep, units)])
    images = _differential_act(rep, algebra.matrices[:, None], units)
    return np.ascontiguousarray(_coordinates(rep, images).swapaxes(-1, -2))


def _orbit_operator(rep: Representation, algebra: LieAlgebraBasis) -> np.ndarray:
    """The orbit-map operator, built once per (representation, basis) and
    kept on the basis; the basis is checked against the representation's
    group when its operator is built."""
    operator = algebra.orbit_operators.get(rep)
    if operator is None:
        n, field = rep.group.size, rep.group.field
        if algebra.ambient_size != n or algebra.field != field:
            raise InvalidArgumentError(
                f"algebra elements must be {n}x{n} over the {field} field")
        operator = _build_orbit_operator(rep, algebra)
        algebra.orbit_operators[rep] = operator
    return operator


def _differential_matrix(rep: Representation, algebra: LieAlgebraBasis,
                         coords: np.ndarray) -> np.ndarray:
    """The ``rep.dim`` x k matrix D whose column i holds the coordinates of
    X_i . v over the algebra basis: one product of the basis's cached
    orbit-map operator with ``coords``, the coordinates of v."""
    # one N x N product per block: numpy and scipy each load their own
    # OpenBLAS, and a single (k N) x N product of a large algebra crosses
    # the threading threshold of numpy's, whose spinning threads then
    # starve the LAPACK calls made through scipy's
    return (_orbit_operator(rep, algebra) @ coords).T


def orbit_dimension_info(rep: Representation, algebra: LieAlgebraBasis, v,
                         rtol: float = _linalg.RANK_RTOL) -> _linalg.RankDecision:
    """The rank decision of the orbit map X -> X . v on the algebra.

    The map is read between orthonormal bases, on ``algebra.orthonormal``
    (decided at the default cutoff, so ``rtol`` never changes the
    algebra's dimension), with the floor ``ORBIT_NOISE * |v|``.  The
    rank is the orbit dimension and the kernel holds
    orthonormal coordinates of the stabilizer over that basis, so
    dim orbit + dim stabilizer = ``algebra.orthonormal.dim``, the
    dimension of the algebra's span (``algebra.dim`` counts its matrices,
    which only ``LieAlgebraBasis.from_json`` requires to be independent);
    the flag marks a rank too close to the cutoff to call.
    """
    # D and the floor read one coordinate array
    coords = _coordinates(rep, _check_vector(rep, v))
    return _orbit_rank(_differential_matrix(rep, algebra.orthonormal, coords),
                       _linalg.vector_norm(coords), rtol)


def _orbit_rank(d: np.ndarray, norm: float,
                rtol: float) -> _linalg.RankDecision:
    """The rank decision of an orbit-map matrix D taken at a point of norm
    ``norm``, with the noise floor ``ORBIT_NOISE * norm``: the one rule
    every orbit dimension is decided by."""
    return _linalg.matrix_rank(d, rtol, floor=ORBIT_NOISE * norm)


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

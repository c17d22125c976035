"""Structural analysis of matrix Lie subalgebras.

The reductivity test is the algebraic one for an algebraic subalgebra:
the algebra must split as center + derived algebra, the Killing form
tr(ad X ad Y) must be nondegenerate on the derived part (Cartan's
criterion for semisimplicity), and every center element must be a
semisimple matrix.  The analysis runs on the structure constants of an
orthonormal basis (de Graaf, *Lie Algebras: Theory and Algorithms*,
2000).  Every rank decision of it (the derived and center dimensions,
the decomposition rank, the Killing rank and the Jordan type of each
center element) degrades to an inconclusive verdict when it lands too
close to the cutoff.  Example witnesses are attached whenever a check
definitively fails, that is when it fails and no decision it reads was
flagged.

Everything here is decided at the Lie-algebra level, i.e. for the
identity component of the corresponding group.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import _linalg
from .errors import NotBracketClosedError
from .groups import (BRACKET_CLOSURE_TOL, COMPLEX, LieAlgebraBasis,
                     bracket_closure_residual, bracket_table,
                     from_orthonormal_coordinates, upper_triangle)
from .serialize import matrix_to_json

REDUCTIVE = "reductive"
NOT_REDUCTIVE = "not_reductive"
INCONCLUSIVE = "inconclusive"

SEMISIMPLE = "semisimple"
NILPOTENT = "nilpotent"
MIXED = "mixed"
AMBIGUOUS = "ambiguous"

# Eigenvalues closer than this (relative to the operator norm) merge
# into one cluster; clusters closer than 10x the radius are ambiguous,
# and 10x the radius floors each cluster's multiplicity rank decision.
EIGEN_MERGE_RTOL = 1e-6


@dataclass(frozen=True, eq=False)
class StructureData:
    """Derived algebra, center and Killing Gram matrix of a subalgebra, in
    coordinates of ``basis``, an orthonormal basis of it.

    The rows of ``derived_coords`` and ``center_coords`` are orthonormal
    coordinate vectors of the derived algebra and of the center, so
    ``derived`` and ``center`` are orthonormal bases.  ``ambiguous``
    flags a derived or center dimension decided inside the ambiguity
    band.  ``killing_scale`` is |C|^2, the squared norm of all structure
    constants, which bounds the Killing form of two unit elements.
    """

    basis: LieAlgebraBasis
    derived_coords: np.ndarray
    center_coords: np.ndarray
    killing_on_derived: np.ndarray
    ambiguous: bool
    killing_scale: float

    @functools.cached_property
    def derived(self) -> LieAlgebraBasis:
        return from_orthonormal_coordinates(self.basis, self.derived_coords)

    @functools.cached_property
    def center(self) -> LieAlgebraBasis:
        return from_orthonormal_coordinates(self.basis, self.center_coords)


@dataclass(frozen=True, eq=False)
class SubalgebraReport:
    dim: int
    derived_dim: int
    center_dim: int
    killing_rank_on_derived: int
    center_all_semisimple: bool | None
    decomposition_ok: bool
    verdict: str
    witnesses: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "derived_dim": self.derived_dim,
            "center_dim": self.center_dim,
            "killing_rank_on_derived": self.killing_rank_on_derived,
            "center_all_semisimple": self.center_all_semisimple,
            "decomposition_ok": self.decomposition_ok,
            "verdict": self.verdict,
            "witnesses": [
                {"kind": kind, "matrix": matrix_to_json(mat)}
                for kind, mat in self.witnesses
            ],
        }


def structure_report(basis: LieAlgebraBasis,
                     rtol: float = _linalg.RANK_RTOL) -> StructureData:
    """Derived algebra, center and Killing form of a bracket-closed basis,
    from the structure constants of its orthonormal basis Q.

    One product of the bracket table T of Q gives the coordinates
    C = T Q^H, ``C[i, j]`` those of ``[Q_i, Q_j]`` (real ones for a real
    algebra).  The derived algebra is the row span of the upper triangle
    of C, the center is the kernel of c -> (sum_i c_i C[i, j])_j, and
    ``ad Q_i`` is ``C[i]^T``.  Q is orthonormal, so coordinates are an
    isometry: ``rtol``, the relative cutoff of the derived and center
    dimensions, means what it means on the matrices.
    """
    onb = basis.orthonormal
    table = bracket_table(onb)
    residual = bracket_closure_residual(onb, table)
    if residual > BRACKET_CLOSURE_TOL:
        raise NotBracketClosedError(
            f"basis is not bracket-closed (residual {residual:.2e})")
    k, n = onb.dim, onb.ambient_size
    real_span = basis.field != COMPLEX
    rows = _linalg.span_rows(table.reshape(k * k, n, n), real_span)
    q = _linalg.span_rows(onb.matrices, real_span)
    c = (rows @ q.conj().T).reshape(k, k, k)

    # A product of two unit elements has norm at most 1, so the derived
    # and center cutoffs never fall below rtol: brackets that cancel to
    # rounding noise (an abelian algebra) count as zero.
    derived = _linalg.matrix_rank(c[upper_triangle(k)], rtol, floor=rtol)
    # center: coefficient vectors z with sum_i z_i C[i, j] = 0 for all j
    center = _linalg.matrix_rank(c.transpose(1, 2, 0).reshape(k * k, k),
                                 rtol, floor=rtol)

    # Killing form of the whole algebra, tr(ad Q_i ad Q_m) with
    # ad Q_i = C[i]^T, then restricted to the derived algebra
    killing = np.einsum("ijl,mlj->im", c, c)
    d = derived.row_space
    return StructureData(onb, d, center.kernel.T, d @ killing @ d.T,
                         derived.ambiguous or center.ambiguous,
                         float(np.vdot(c, c).real))


def _cluster_eigenvalues(eigs: np.ndarray, radius: float):
    """Greedy merge of eigenvalues into clusters of the given radius."""
    order = np.argsort(eigs.real + 1e-12 * eigs.imag)
    clusters: list[list[complex]] = []
    for idx in order:
        lam = eigs[idx]
        placed = False
        for cluster in clusters:
            if abs(np.mean(cluster) - lam) <= radius:
                cluster.append(lam)
                placed = True
                break
        if not placed:
            clusters.append([lam])
    return clusters


def element_type(x: np.ndarray) -> str:
    """Classify a matrix as semisimple, nilpotent, mixed or ambiguous.

    Every decision is a rank decision of the package's one cutoff,
    :func:`_linalg.rank_from_singular_values`, on x^ = x / |x|_2, and a
    flagged one makes the call ambiguous.  x is nilpotent when
    x^^n has rank 0, decided on its largest singular value alone with
    the cutoff floored at ``RANK_RTOL``.  Otherwise x is semisimple when
    every eigenvalue cluster c has geometric multiplicity
    n - rank(x^ - cI), floored at 10x the merge radius, equal to its
    size.  Cluster separations within 10x of the merge radius make the
    call ambiguous as well.
    """
    x = np.asarray(x)
    n = x.shape[0]
    opnorm = _linalg.svd(x, vectors=False)[0]
    if opnorm == 0.0:
        return NILPOTENT
    xn = x / opnorm
    nilpotent = _linalg.rank_from_singular_values(
        [_linalg.svd(np.linalg.matrix_power(xn, n), vectors=False)[0]],
        floor=_linalg.RANK_RTOL)
    if nilpotent.ambiguous or nilpotent.rank == 0:
        return AMBIGUOUS if nilpotent.ambiguous else NILPOTENT

    clusters = _cluster_eigenvalues(np.linalg.eigvals(xn), EIGEN_MERGE_RTOL)
    centers = [np.mean(c) for c in clusters]
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            if abs(centers[i] - centers[j]) <= 10.0 * EIGEN_MERGE_RTOL:
                return AMBIGUOUS
    for center, cluster in zip(centers, clusters):
        geometric = _linalg.rank_from_singular_values(
            _linalg.svd(xn - center * np.eye(n), vectors=False),
            floor=10.0 * EIGEN_MERGE_RTOL)
        if geometric.ambiguous or n - geometric.rank != len(cluster):
            return AMBIGUOUS if geometric.ambiguous else MIXED
    return SEMISIMPLE


def _decomposition_witness(data: StructureData, rtol: float) -> np.ndarray:
    """Coordinates of a unit element showing that the center and the
    derived algebra do not split the algebra.  When d + z <= k it is
    orthogonal to both (a kernel direction of the stacked coordinate
    rows); when d + z > k the two meet, and it is an element of their
    intersection (a left kernel direction y of the stacked rows, so that
    y_D . derived = -y_Z . center)."""
    derived = data.derived_coords
    stacked = np.concatenate([derived, data.center_coords])
    d = derived.shape[0]
    if stacked.shape[0] > data.basis.dim:
        y = _linalg.matrix_rank(stacked.T, rtol).kernel[:, 0]
        coords = y[:d] @ derived
        return coords / np.linalg.norm(coords)
    # the rows of vh past the rank, conjugated kernel columns, are unit
    # coordinates orthogonal to every stacked row
    return _linalg.matrix_rank(stacked, rtol).kernel[:, 0].conj()


def reductivity_verdict(basis: LieAlgebraBasis,
                        rtol: float = _linalg.RANK_RTOL) -> SubalgebraReport:
    """Algebraic reductivity: center + derived split, Cartan criterion,
    semisimple center.  The zero algebra is reductive.  ``rtol`` is the
    relative cutoff of every rank decision of the analysis.  A failed
    check is a definite "not reductive" only when neither the derived
    and center dimensions nor its own rank decision was flagged; else
    the verdict is inconclusive."""
    if basis.dim == 0:
        return SubalgebraReport(0, 0, 0, 0, True, True, REDUCTIVE, [])

    data = structure_report(basis, rtol)
    k = data.basis.dim
    # every check reads the derived and center dimensions
    ambiguous = data.ambiguous
    witnesses = []

    d = data.derived_coords.shape[0]
    z = data.center_coords.shape[0]
    dims_ok = d + z == k
    if dims_ok and d and z:
        stacked = np.concatenate([data.derived_coords, data.center_coords])
        decision = _linalg.matrix_rank(stacked, rtol)
        ambiguous |= decision.ambiguous
        dims_ok = decision.rank == k
    decomposition_ok = bool(dims_ok)
    decomposition_failed = not (decomposition_ok or ambiguous)
    if decomposition_failed:
        witness = from_orthonormal_coordinates(
            data.basis, _decomposition_witness(data, rtol)[None])
        witnesses.append(("failed_decomposition", witness.matrices[0]))

    killing_degenerate = False
    killing_rank = 0
    if d:
        # a cutoff at least rtol |C|^2: a Killing form that cancels to
        # rounding noise (a nilpotent derived algebra) counts as zero
        killing_decision = _linalg.matrix_rank(
            data.killing_on_derived, rtol, floor=rtol * data.killing_scale)
        killing_rank = killing_decision.rank
        ambiguous |= killing_decision.ambiguous
        if killing_rank < d and not (killing_decision.ambiguous
                                     or data.ambiguous):
            killing_degenerate = True
            # a derived direction on which the Killing form degenerates
            direction = np.einsum("i,ijl->jl", killing_decision.kernel[:, 0],
                                  data.derived.matrices)
            witnesses.append(("degenerate_killing_direction", direction))

    center_semisimple: bool | None = True
    center_failed = False
    for zmat in data.center.matrices:
        kind = element_type(zmat)
        if kind == AMBIGUOUS:
            center_semisimple = None
            ambiguous = True
        elif kind != SEMISIMPLE:
            center_semisimple = False
            center_failed = not data.ambiguous
            if center_failed:
                witnesses.append(("non_semisimple_center_element", zmat))
            break

    all_good = (decomposition_ok and killing_rank == d
                and center_semisimple is True)
    if decomposition_failed or killing_degenerate or center_failed:
        verdict = NOT_REDUCTIVE
    elif ambiguous or not all_good:
        verdict = INCONCLUSIVE
    else:
        verdict = REDUCTIVE
    return SubalgebraReport(k, d, z, killing_rank, center_semisimple,
                            decomposition_ok, verdict, witnesses)

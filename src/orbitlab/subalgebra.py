"""Structural analysis of matrix Lie subalgebras.

The reductivity test is the algebraic one for an algebraic subalgebra:
the algebra must split as center + derived algebra, the Killing form
tr(ad X ad Y) must be nondegenerate on the derived part (Cartan's
criterion for semisimplicity), and every center element must be a
semisimple matrix.  Example witnesses are attached whenever a check
definitively fails.  Of the rank decisions, the decomposition rank and
the Killing rank degrade to an inconclusive verdict when they land too
close to the cutoff; the center and derived-algebra dimensions use the
same cutoff but are decided without that flag.

Everything here is decided at the Lie-algebra level, i.e. for the
identity component of the corresponding group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _linalg
from .errors import InvalidArgumentError
from .groups import (BRACKET_CLOSURE_TOL, COMPLEX, LieAlgebraBasis,
                     bracket_closure_residual, bracket_table)
from .serialize import matrix_to_json

REDUCTIVE = "reductive"
NOT_REDUCTIVE = "not_reductive"
INCONCLUSIVE = "inconclusive"

SEMISIMPLE = "semisimple"
NILPOTENT = "nilpotent"
MIXED = "mixed"
AMBIGUOUS = "ambiguous"

# Eigenvalues closer than this (relative to the operator norm) merge
# into one cluster; clusters closer than 10x the radius are ambiguous.
EIGEN_MERGE_RTOL = 1e-6
NILPOTENT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class StructureData:
    """Derived algebra, center and Killing Gram matrix of a subalgebra."""

    basis: LieAlgebraBasis
    derived: LieAlgebraBasis
    center: LieAlgebraBasis
    killing_on_derived: np.ndarray


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


def _coordinates(basis: LieAlgebraBasis, targets: np.ndarray) -> np.ndarray:
    """Least-squares coordinates of target matrices in the basis."""
    flat_basis = _linalg.stack_flat(basis.matrices).T
    flat_targets = _linalg.stack_flat(targets).T
    coords, *_ = np.linalg.lstsq(flat_basis, flat_targets, rcond=None)
    return coords


def structure_report(basis: LieAlgebraBasis,
                     rtol: float = _linalg.RANK_RTOL) -> StructureData:
    """Derived algebra, center and Killing form of a bracket-closed basis.

    All three come from one bracket table ``[X_i, X_j]``: the derived
    algebra is the span of its upper triangle, the center is the kernel
    of c -> ([sum_i c_i X_i, X_j])_j, and ``ad X_i`` holds the
    coordinates of row i of the table.  ``rtol`` is the relative cutoff
    of the derived and center dimensions.
    """
    table = bracket_table(basis)
    residual = bracket_closure_residual(basis, table)
    if residual > BRACKET_CLOSURE_TOL:
        raise InvalidArgumentError(
            f"basis is not bracket-closed (residual {residual:.2e})")
    k = basis.dim
    n = basis.ambient_size

    derived_mats = _linalg.orthonormal_span(table[np.triu_indices(k, 1)], rtol,
                                            real_span=basis.field != COMPLEX)
    derived = LieAlgebraBasis(derived_mats, basis.field, n)

    # Center: coefficient vectors c with [sum_i c_i X_i, X_j] = 0 for all j.
    center_kernel = _linalg.null_space(table.reshape(k, k * n * n).T, rtol)
    center_mats = np.einsum("ik,ijl->kjl", center_kernel, basis.matrices)
    center = LieAlgebraBasis(center_mats, basis.field, n)

    # Killing form on the derived algebra, via ad of the full algebra;
    # column j of ad X_i holds the coordinates of [X_i, X_j].
    coords = _coordinates(basis, table.reshape(k * k, n, n))
    ad = coords.T.reshape(k, k, k).transpose(0, 2, 1)
    derived_coords = _coordinates(basis, derived.matrices)  # (k, d)
    ad_derived = np.einsum("ikl,id->dkl", ad, derived_coords)
    killing = np.einsum("akl,blk->ab", ad_derived, ad_derived)
    return StructureData(basis, derived, center, killing)


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

    Nilpotency is tested by powering the operator-norm-normalized
    matrix; semisimplicity by comparing geometric and algebraic
    multiplicities per eigenvalue cluster.  Cluster separations within
    10x of the merge radius make the call ambiguous.
    """
    x = np.asarray(x)
    n = x.shape[0]
    opnorm = _linalg.spectral_norm(x)
    if opnorm == 0.0:
        return NILPOTENT
    xn = x / opnorm
    power = np.linalg.matrix_power(xn, n)
    if _linalg.spectral_norm(power) <= NILPOTENT_TOL:
        return NILPOTENT

    eigs = np.linalg.eigvals(x)
    radius = EIGEN_MERGE_RTOL * opnorm
    clusters = _cluster_eigenvalues(eigs, radius)
    centers = [np.mean(c) for c in clusters]
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            if abs(centers[i] - centers[j]) <= 10.0 * radius:
                return AMBIGUOUS
    for center, cluster in zip(centers, clusters):
        mult = len(cluster)
        shifted = x - center * np.eye(n, dtype=x.dtype)
        s = _linalg.svd(shifted, vectors=False)
        geometric = int((s <= 10.0 * radius).sum())
        if geometric != mult:
            return MIXED
    return SEMISIMPLE


def reductivity_verdict(basis: LieAlgebraBasis,
                        rtol: float = _linalg.RANK_RTOL) -> SubalgebraReport:
    """Algebraic reductivity: center + derived split, Cartan criterion,
    semisimple center.  The zero algebra is reductive.  ``rtol`` is the
    relative cutoff of every rank decision of the analysis."""
    k = basis.dim
    if k == 0:
        return SubalgebraReport(0, 0, 0, 0, True, True, REDUCTIVE, [])

    data = structure_report(basis, rtol)
    witnesses = []
    ambiguous = False

    d = data.derived.dim
    z = data.center.dim
    dims_ok = d + z == k
    if dims_ok and d and z:
        stacked = np.concatenate([data.derived.matrices, data.center.matrices])
        # the kernel is not needed, so the singular values alone decide
        decision = _linalg.rank_from_singular_values(
            _linalg.svd(_linalg.stack_flat(stacked), vectors=False), rtol)
        ambiguous |= decision.ambiguous
        dims_ok = decision.rank == d + z
    decomposition_ok = bool(dims_ok)
    if not decomposition_ok:
        witnesses.append(("failed_decomposition", basis.matrices[0]))

    killing_degenerate = False
    killing_rank = 0
    if d:
        killing_decision = _linalg.matrix_rank(data.killing_on_derived, rtol)
        killing_rank = killing_decision.rank
        ambiguous |= killing_decision.ambiguous
        if killing_rank < d and not killing_decision.ambiguous:
            killing_degenerate = True
            # a derived direction on which the Killing form degenerates
            direction = np.einsum("i,ijl->jl", killing_decision.kernel[:, 0],
                                  data.derived.matrices)
            witnesses.append(("degenerate_killing_direction", direction))

    center_semisimple: bool | None = True
    for zmat in data.center.matrices:
        kind = element_type(zmat)
        if kind == AMBIGUOUS:
            center_semisimple = None
            ambiguous = True
        elif kind != SEMISIMPLE:
            center_semisimple = False
            witnesses.append(("non_semisimple_center_element", zmat))
            break

    definite_failure = (not decomposition_ok or killing_degenerate
                        or center_semisimple is False)
    all_good = (decomposition_ok and killing_rank == d
                and center_semisimple is True)

    if definite_failure:
        verdict = NOT_REDUCTIVE
    elif ambiguous or not all_good:
        verdict = INCONCLUSIVE
    else:
        verdict = REDUCTIVE
    return SubalgebraReport(k, d, z, killing_rank, center_semisimple,
                            decomposition_ok, verdict, witnesses)

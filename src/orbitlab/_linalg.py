"""Shared numerical linear algebra: the package-wide rank policy.

Every rank / span / null-space decision in the package funnels through
this module, and every one of them counts singular values against a
cutoff written once, in :func:`rank_from_singular_values`.  The relative
threshold is passed by value as ``rtol`` and defaults to ``RANK_RTOL``,
a constant.  :func:`matrix_rank` is the one rank decision of a matrix:
one SVD gives the rank, the ambiguity flag, the orthonormal kernel and
the orthonormal row space.  A decision that lands too close to the
cutoff is flagged instead of silently guessed, and callers turn that
flag into an "inconclusive" outcome.  :func:`_orthonormal_rows`, the
one orthonormal basis of a span (behind :func:`orthonormal_span`),
drops the flag and takes no ``rtol``: it decides at ``RANK_RTOL``,
because it builds fixed bases whose singular values are exact zeros or
O(1) (the Cartan split, the orthonormal basis of an algebra that is not
theta-stable).

Matrices become coordinate rows in one of two ways (:func:`span_rows`):
flat over their own field, or over the reals by :func:`real_rows`, a
view of each complex entry as its real and imaginary parts side by side.
Euclidean products of real rows are the real trace pairing Re tr(A B*),
and an orthonormal basis of real rows reads back as complex matrices
through the inverse view.

Every SVD of the package is one call of :func:`svd`, which calls
LAPACK's ``?gesdd`` directly, at the wrapper's default workspace and
without numpy's per-call overhead, and hands the factors out C-ordered.
It checks ``info`` and raises ``numpy.linalg.LinAlgError`` on a nonzero
value, so a NaN entry or a failed convergence never reads as a silent
rank; an empty matrix never reaches LAPACK.

The eigendecomposition of a Hermitian matrix, the norm flow's step, is
one direct LAPACK call as well (:func:`eigh`, ``?heevd``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from .errors import InvalidArgumentError

# Default relative singular-value threshold for rank decisions.
RANK_RTOL = 1e-9

# A singular value within this factor of the cutoff (on either side)
# makes the rank decision ambiguous.
AMBIGUITY_BAND = 10.0


@dataclass(frozen=True, eq=False)
class RankDecision:
    rank: int
    ambiguous: bool
    # orthonormal kernel basis (columns), orthonormal basis of the row
    # space (rows) and the singular values, descending; None when decided
    # from the singular values alone
    kernel: np.ndarray | None = None
    row_space: np.ndarray | None = None
    singular_values: np.ndarray | None = None


def svd(a: np.ndarray, vectors: bool = True, full_matrices: bool = False):
    """Singular values of ``a`` in descending order, and with ``vectors``
    the factors: ``(u, s, vh)`` with ``a = u @ diag(s) @ vh``, else ``s``.

    ``full_matrices`` gives square ``u`` and ``vh``.  An empty ``a`` has
    no singular values and identity (or empty) factors.
    """
    a = np.asarray(a)
    complex_field = np.iscomplexobj(a)
    a = a.astype(np.complex128 if complex_field else np.float64, copy=False)
    m, n = a.shape
    if m == 0 or n == 0:
        s = np.zeros(0)
        if not vectors:
            return s
        u = np.eye(m, m if full_matrices else 0, dtype=a.dtype)
        vh = np.eye(n if full_matrices else 0, n, dtype=a.dtype)
        return u, s, vh
    gesdd = lapack.zgesdd if complex_field else lapack.dgesdd
    u, s, vh, info = gesdd(a, compute_uv=vectors, full_matrices=full_matrices)
    if info:
        # info < 0 flags a NaN entry, info > 0 a failed convergence
        raise np.linalg.LinAlgError(f"SVD did not converge (?gesdd info {info})")
    if not vectors:
        return s
    # LAPACK's factors are Fortran-ordered; C-ordered copies keep every
    # downstream product on one memory order, and so one rounding, and
    # let orthonormal_span view real rows as complex ones
    return np.ascontiguousarray(u), s, np.ascontiguousarray(vh)


def eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues d (ascending) and eigenvectors U of a Hermitian (real
    symmetric) matrix ``h`` = U diag(d) U*.

    One direct call of LAPACK's ``?heevd`` (``?syevd``), which reads the
    upper triangle of ``h`` only.  It checks ``info`` and raises
    ``numpy.linalg.LinAlgError`` on a nonzero value.
    """
    h = np.asarray(h)
    evd = lapack.zheevd if np.iscomplexobj(h) else lapack.dsyevd
    d, u, info = evd(h)
    if info:
        raise np.linalg.LinAlgError(
            f"eigendecomposition failed ({evd.__name__} info {info})")
    return d, u


def vector_norm(x: np.ndarray) -> float:
    """Euclidean norm of a flat vector by BLAS ``?nrm2``, which scales as
    it sums, so a finite norm never overflows on the way; an empty vector,
    whose norm is 0, never reaches BLAS."""
    if x.size == 0:
        return 0.0
    return float((blas.dznrm2 if np.iscomplexobj(x) else blas.dnrm2)(x))


def check_rtol(rtol: float) -> None:
    """The one rule on a relative cutoff: an ``rtol`` outside (0, 1), NaN
    included, decides nothing (at 1 or more even the largest singular
    value falls below the cutoff) and raises ``InvalidArgumentError``."""
    if not 0.0 < rtol < 1.0:
        raise InvalidArgumentError(
            f"rank cutoff rtol must lie strictly between 0 and 1, not {rtol!r}")


def rank_from_singular_values(s, rtol: float = RANK_RTOL, floor: float = 0.0,
                              one_sided: bool = False) -> RankDecision:
    """Count singular values above the cutoff.

    The cutoff is ``max(rtol * max(s), floor)``.  The decision is
    ambiguous when some singular value falls inside the band
    ``[cutoff / AMBIGUITY_BAND, cutoff * AMBIGUITY_BAND]``.  With
    ``one_sided=True`` only the upper half of the band counts: values
    just below the cutoff are expected there (they are the residual of
    a converging flow) and do not taint the decision.  The count runs
    on a Python float list: at a handful of values that is several
    times cheaper than numpy reductions.  ``rtol`` obeys
    :func:`check_rtol`.
    """
    check_rtol(rtol)
    s = s.tolist() if isinstance(s, np.ndarray) else [float(x) for x in s]
    top = max(s, default=0.0)
    if top == 0.0:
        return RankDecision(0, False)
    cutoff = float(max(rtol * top, floor))
    lo = cutoff if one_sided else cutoff / AMBIGUITY_BAND
    hi = cutoff * AMBIGUITY_BAND
    rank = 0
    ambiguous = False
    for x in s:
        rank += x > cutoff
        ambiguous |= lo < x <= hi
    return RankDecision(rank, ambiguous)


def matrix_rank(a: np.ndarray, rtol: float = RANK_RTOL,
                floor: float = 0.0) -> RankDecision:
    """Rank, ambiguity flag, orthonormal kernel, orthonormal row space and
    singular values of ``a`` from one SVD; ``floor`` as in
    :func:`rank_from_singular_values`.

    Only ``vh`` is read, so the full square factor is requested only when
    ``a`` is wide and the thin one would miss kernel directions.
    """
    m, k = a.shape
    _, s, vh = svd(a, full_matrices=m < k)
    decision = rank_from_singular_values(s, rtol, floor)
    return RankDecision(decision.rank, decision.ambiguous,
                        vh[decision.rank:].conj().T, vh[:decision.rank], s)


def null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the (right) null space, columns of the result."""
    return matrix_rank(a).kernel


def stack_flat(mats: np.ndarray) -> np.ndarray:
    """Flatten a (k, n, m) stack to a (k, n*m) coefficient matrix."""
    mats = np.asarray(mats)
    return mats.reshape(mats.shape[0], math.prod(mats.shape[1:]))


def span_rows(mats: np.ndarray, real_span: bool = False) -> np.ndarray:
    """Matrices as coordinate rows: flat over the matrices' own field, or
    with ``real_span`` read over the reals by :func:`real_rows`."""
    flat = stack_flat(mats)
    return real_rows(flat) if real_span else flat


def real_rows(a: np.ndarray) -> np.ndarray:
    """``a`` read in place as float64: a complex entry becomes its real and
    imaginary parts side by side, so the last axis doubles, and for two
    such rows Re(a . conj(b)) = real_rows(a) . real_rows(b).  A real
    ``a`` comes back as it is.  The real part of a product of complex
    rows is then one real product, with no conjugated copy, and
    orthonormality of real rows is orthonormality for Re tr(A B*)."""
    return np.ascontiguousarray(a).view(np.float64)


def _orthonormal_rows(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the row span of ``rows``, as rows."""
    _, s, vh = svd(rows)
    return vh[:rank_from_singular_values(s).rank]


def orthonormal_span(mats: np.ndarray, real_span: bool = False) -> np.ndarray:
    """Orthonormal basis of the span of a matrix stack.

    ``real_span`` spans over the reals, orthonormal for Re tr(A B*)
    (:func:`real_rows` coordinates); otherwise the span is over the
    matrices' own field, orthonormal for tr(A B*).
    """
    mats = np.asarray(mats)
    q = _orthonormal_rows(span_rows(mats, real_span))
    if np.iscomplexobj(mats):
        q = q.view(np.complex128)
    return q.reshape((-1,) + mats.shape[1:])


def projection_residual(rows: np.ndarray, q: np.ndarray,
                        floor: float = 0.0) -> float:
    """Largest residual of projecting ``rows`` onto the span of the
    orthonormal rows ``q``, relative to the largest row norm or to
    ``floor``, whichever is larger: max |t - (t q^H) q| / max(|t|, floor)
    over the rows t."""
    if rows.shape[0] == 0:
        return 0.0
    res = np.linalg.norm(rows - (rows @ q.conj().T) @ q, axis=1)
    norms = np.linalg.norm(rows, axis=1)
    scale = max(norms.max(), floor, 1e-300)
    return float(res.max() / scale)

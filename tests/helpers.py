"""Helpers that only the tests use: flat vectors, and residuals and
distances between spans."""

import numpy as np

import orbitlab as ol
from orbitlab import _linalg


def flatten(rep: ol.Representation, v) -> np.ndarray:
    """Vector as one flat entry array (direct sums concatenated)."""
    return ol.reps._check_vector(rep, v)


def span_projection_residual(targets: np.ndarray, span: np.ndarray,
                             real_span: bool = False) -> float:
    """Largest relative residual of projecting each target onto the span.

    ``real_span`` restricts coefficients to the reals (projection in
    ``_linalg.real_rows`` coordinates); otherwise coefficients live in the
    matrices' own field.  The span's basis is rank-revealing, so
    dependent span matrices add no spurious direction.
    """
    return _linalg.projection_residual(
        _linalg.span_rows(targets, real_span),
        _linalg._orthonormal_rows(_linalg.span_rows(span, real_span)))


def subspace_distance(a: np.ndarray, b: np.ndarray,
                      real_span: bool = False) -> float:
    """Distance between the spans of two matrix stacks (0 = equal spans).

    The operator norm of the difference of orthogonal projectors q^H q,
    i.e. the sine of the largest principal angle; symmetric in the
    arguments and exactly 1.0 when one span has a direction orthogonal to
    all of the other.
    """
    fa = _linalg.span_rows(a, real_span)
    fb = _linalg.span_rows(b, real_span)
    if fa.shape[0] == 0 and fb.shape[0] == 0:
        return 0.0
    if fa.shape[0] == 0 or fb.shape[0] == 0:
        return 1.0
    qa = _linalg._orthonormal_rows(fa)
    qb = _linalg._orthonormal_rows(fb)
    return _linalg.spectral_norm(qa.conj().T @ qa - qb.conj().T @ qb)

"""Helpers that only the tests use: flat vectors and their coordinates,
residuals and distances between spans, and oracles the program itself
never calls (the bracket of two matrices, a conjugated algebra basis, a
scaled vector, the moment vector of a vector in its public form,
minimality at a bar and an orbit dimension without its ambiguity
flag)."""

import numpy as np

import orbitlab as ol
from orbitlab import _linalg, kempfness
from orbitlab.errors import InvalidArgumentError


def flatten(rep: ol.Representation, v) -> np.ndarray:
    """Vector as one flat entry array (direct sums concatenated)."""
    return ol.reps._check_vector(rep, v)


def coordinates(rep: ol.Representation, v) -> np.ndarray:
    """Isometric coordinates of a vector given in its public form."""
    return ol.reps._coordinates(rep, flatten(rep, v))


def bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def adjoint_conjugate(basis: ol.LieAlgebraBasis,
                      g: np.ndarray) -> ol.LieAlgebraBasis:
    """Conjugated basis {g X_i g^-1}; span properties are preserved."""
    g = np.asarray(g)
    if g.shape != (basis.ambient_size, basis.ambient_size):
        raise InvalidArgumentError("conjugating element has the wrong shape")
    try:
        g_inv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise InvalidArgumentError("conjugating element is singular") from exc
    if not np.all(np.isfinite(g_inv)):
        raise InvalidArgumentError("conjugating element is singular")
    mats = np.einsum("ab,ibc,cd->iad", g, basis.matrices, g_inv)
    return ol.LieAlgebraBasis(mats.astype(basis.matrices.dtype), basis.field,
                              basis.ambient_size)


def scale(rep: ol.Representation, c, v):
    """The vector c * v in its public form."""
    return ol.reps._unflat(rep, c * ol.reps._check_vector(rep, v))


def moment_vector(rep: ol.Representation, p_basis: ol.LieAlgebraBasis,
                  v) -> np.ndarray:
    """The moment vector mu(v) over the p-basis, by the package's formula
    on the orbit-map matrix of the basis at v; nothing is checked."""
    coords = coordinates(rep, v)
    return kempfness.moment_vector(
        ol.reps._differential_matrix(rep, p_basis, coords), coords)


def is_minimal(rep: ol.Representation, group, v,
               tol: float = ol.FlowConfig.moment_tolerance) -> bool:
    """True when the relative moment norm under ``group`` is at most
    ``tol``, by default the bar at which the norm flow stops."""
    return ol.relative_moment_norm(rep, group, v) <= tol


def orbit_dimension(rep: ol.Representation, algebra: ol.LieAlgebraBasis,
                    v) -> int:
    """Dimension (over the group's field) of the identity-component orbit,
    the rank of :func:`orbitlab.orbit_dimension_info` without its flag."""
    return ol.orbit_dimension_info(rep, algebra, v).rank


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
    return float(_linalg.svd(qa.conj().T @ qa - qb.conj().T @ qb,
                             vectors=False)[0])

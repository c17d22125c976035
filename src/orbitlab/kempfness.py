"""Orbit closedness via minimal vectors and a norm-minimizing flow.

The norm functional g -> |g . v|^2 on a reductive matrix group attains
its infimum exactly when the orbit is closed, and its critical points
are the minimal vectors: points where <X . v, v> = 0 for every Hermitian
algebra direction X.  The flow implemented here descends the norm along
the Hermitian part p of the algebra by damped, regularized Newton steps
on the Kempf-Ness function X -> |exp(X) . v|^2 / 2.  Its gradient at v
is the moment vector mu(v).  For X in p the operator v -> X . v is
Hermitian, so the Hessian in p-basis coordinates is H = 2 Re(D* D),
where D is the rep.dim x k matrix of the orbit map X -> X . v between
orthonormal bases: column i holds the isometric coordinates of X_i . v
(``reps._coordinates``), and on the algebra's orthonormal basis the same
map decides orbit dimensions.  One step is

    c = (H + lam I)^-1 mu(v_k),
    lam = NEWTON_REGULARIZATION min(1, rel) tr(H) / k,
    v_{k+1} = act(exp(-t sum_i c_i X_i), v_k),

with t = 1, 1/2, 1/4, ... until the Armijo condition holds, where rel
is the relative moment norm |mu(v_k)| / |v_k|^2.  lam keeps the step
bounded where H is singular: along the stabilizer directions of a
minimal vector, and as a whole when the iterate nears a smaller orbit
in the closure.  It shrinks with rel (regularized Newton methods for
singular solutions, Li, Fukushima, Qi and Yamashita, Comput. Optim.
Appl. 28, 2004), so the tail converges faster than the rate
NEWTON_REGULARIZATION that a fixed share of tr(H) / k would set.  The
function is geodesically convex, so the damped steps still descend to
the closed orbit in the closure, and every iterate stays exactly on the
starting orbit.

Each step costs a few calls that each do real work, around one matrix.
D is one product of the iterate's coordinates with the orbit-map
operator that the p-basis keeps per representation
(``reps._differential_matrix``, the one place D is built).  The moment
vector is read off the same D, mu_i = <X_i . w, w> =
Re(D^t conj(coords w))_i (Kempf-Ness), and so is
H + lam I, symmetric positive definite whenever mu != 0 and solved by
one Cholesky factorization (LAPACK ``dposv``, whose ``info`` is
checked).  The step matrix X = sum_i c_i X_i is Hermitian, because the
p-basis is (checked once per basis, with its orthonormality), so
exp(-t X) is I + U diag(expm1(-t d)) U* from one eigendecomposition
X = U diag(d) U* (``_linalg.hermitian_expm1``).  ``moment_vector`` and
``matrix_exp`` are looked up on this module at every step, so a tracer
that wraps them sees each call.

``norm_flow`` validates its vector once on entry; the line search runs
on the unchecked cores of the action and the inner product.  The flow's
stop state is one field, ``FlowTrace.reason``; whether it converged or
collapsed, and how many steps it took, are read off the trace.

The closedness verdict compares orbit dimensions at the start and at the
flow limit.  Each side is one ``_linalg.matrix_rank`` decision of the
orbit map on the algebra's orthonormal basis, so both read one operator;
the start decision also yields the start point's stabilizer, born
orthonormal, which the verdict carries.  A subtlety: the final iterate
is only within about sqrt(residual) of the true limit, so singular
values of that size at the limit are artifacts of finite convergence.
The limit-side decision therefore passes an absolute floor of
LIMIT_RANK_FLOOR * sqrt(relative moment norm) * |limit| on top of the
package rank policy, and is flagged only by singular values just above
that floor.
Inconclusive is a first-class outcome, never an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from . import _linalg, reps
from .errors import InvalidArgumentError
from .groups import LieAlgebraBasis, lie_algebra_basis
from .serialize import is_integer, is_real

CLOSED = "closed"
NON_CLOSED = "non_closed"
INCONCLUSIVE = "inconclusive"

# Orthonormality and Hermitian bar on the p-basis fed to the moment map.
GRAM_TOL = 1e-8

# Multiplier on sqrt(moment residual) * |limit| for the limit-side rank
# floor; calibrated so the residual cluster sits one order below it.
LIMIT_RANK_FLOOR = 10.0

# |v_k|^2 below this fraction of the starting norm^2 counts as collapse
# onto the zero vector (the flow then certifies 0 in the orbit closure).
# Must sit well above the rounding floor: after the iterate has shrunk by
# ~1e-8, accumulated arithmetic noise pushes it off the nullcone onto a
# nearby orbit with a genuine (tiny) minimal vector, which would then
# pass the moment test and fake a closed verdict.
COLLAPSE_REL_NORM2 = 1e-12

# Armijo sufficient-decrease coefficient for the line search.
SUFFICIENT_DECREASE = 1e-4

# Newton line search: the step length starts at the full Newton step,
# halves on every rejection, and the flow stalls once it drops below
# MIN_STEP.
INITIAL_STEP = 1.0
STEP_SHRINK = 0.5
MIN_STEP = 1e-14

# Regularization of the Newton system relative to the mean Hessian
# eigenvalue tr(H) / k, times min(1, relative moment norm); bounds the
# step where H turns singular.
NEWTON_REGULARIZATION = 1e-3


@dataclass(frozen=True)
class FlowConfig:
    moment_tolerance: float = 1e-8   # stop at relative moment norm <= this
    max_iterations: int = 20000      # Newton steps before "budget"

    def __post_init__(self):
        if not (is_real(self.moment_tolerance) and self.moment_tolerance > 0):
            raise InvalidArgumentError("moment_tolerance must be a positive number")
        if not (is_integer(self.max_iterations) and self.max_iterations >= 1):
            raise InvalidArgumentError("max_iterations must be a positive integer")

    def to_json(self) -> dict:
        return {
            "moment_tolerance": self.moment_tolerance,
            "max_iterations": self.max_iterations,
        }

    @staticmethod
    def from_json(data: dict) -> "FlowConfig":
        """Reads the known keys only, so reports with older fields load."""
        return FlowConfig(**{k: data[k] for k in (
            "moment_tolerance", "max_iterations") if k in data})


@dataclass(frozen=True, eq=False)
class FlowTrace:
    norms: np.ndarray          # |v_k| per accepted step, nonincreasing
    moment_norms: np.ndarray   # relative moment norm at each iterate
    limit_point: object
    reason: str                # "moment", "collapse", "budget", "stalled"

    @property
    def iterations_used(self) -> int:
        return len(self.norms) - 1

    @property
    def converged(self) -> bool:
        return self.reason in ("moment", "collapse")

    @property
    def collapsed(self) -> bool:
        """The limit is certified to be the zero vector."""
        return self.reason == "collapse"

    def to_json(self, rep: reps.Representation | None = None) -> dict:
        out = {
            "norms": [float(x) for x in self.norms],
            "moment_norms": [float(x) for x in self.moment_norms],
            "iterations_used": self.iterations_used,
            "converged": self.converged,
            "collapsed": self.collapsed,
            "reason": self.reason,
        }
        if rep is not None:
            out["limit_point"] = reps.vector_to_json(rep, self.limit_point)
        return out


@dataclass(frozen=True, eq=False)
class ClosednessVerdict:
    status: str
    start_orbit_dim: int
    limit_orbit_dim: int
    start_norm: float
    limit_norm: float
    trace: FlowTrace
    stabilizer: LieAlgebraBasis  # kernel of the start orbit map
    start_ambiguous: bool        # flag of the start orbit and stabilizer dims

    def to_json(self, rep: reps.Representation | None = None) -> dict:
        return {
            "status": self.status,
            "start_orbit_dim": self.start_orbit_dim,
            "limit_orbit_dim": self.limit_orbit_dim,
            "start_norm": self.start_norm,
            "limit_norm": self.limit_norm,
            "trace": self.trace.to_json(rep),
        }


def moment_vector(rep: reps.Representation, p_basis: LieAlgebraBasis,
                  v, d: np.ndarray | None = None) -> np.ndarray:
    """Coefficients <X_i . v, v> over the orthonormal Hermitian basis.

    This is the gradient of t -> |exp(tX) . v|^2 / 2 at t = 0 in the
    direction X; it vanishes exactly at minimal vectors.  It is read off
    the orbit-map matrix D of the basis at v (columns X_i . v) as
    Re(D^t conj(flat v)); ``d`` is that matrix when the caller holds it
    already, as the norm flow does.  The basis's Gram and Hermitian
    residuals are kept on the basis, so validating it costs two
    attribute reads after the first call.
    """
    if p_basis.gram_residual > GRAM_TOL:
        raise InvalidArgumentError(
            "p-basis must be orthonormal for the real trace pairing")
    if p_basis.hermitian_residual > GRAM_TOL:
        raise InvalidArgumentError("p-basis matrices must be Hermitian")
    v = reps._check_vector(rep, v)
    if d is None:
        d = reps._differential_matrix(rep, p_basis, v)
    coords = reps._coordinates(rep, v).astype(d.dtype, copy=False)
    return _linalg.real_rows(d.T) @ _linalg.real_rows(coords)


def relative_moment_norm(rep: reps.Representation, p_basis: LieAlgebraBasis,
                         v) -> float:
    norm2 = reps.inner_product(rep, v, v)
    if norm2 == 0.0:
        return 0.0
    return float(np.linalg.norm(moment_vector(rep, p_basis, v))) / norm2


def is_minimal(rep: reps.Representation, p_basis: LieAlgebraBasis, v,
               tol: float = 1e-8) -> bool:
    """True when the moment vector vanishes to scale-invariant tolerance."""
    return relative_moment_norm(rep, p_basis, v) <= tol


def _basis(group) -> LieAlgebraBasis:
    """The algebra basis of a ``group`` argument: a GroupSpec's cached
    basis, or the theta-stable basis itself.  Either way its Cartan split
    and orthonormalization are derived once and kept on the basis."""
    if isinstance(group, LieAlgebraBasis):
        return group
    return lie_algebra_basis(group)


def _newton_direction(d: np.ndarray, coeff: np.ndarray,
                      rel: float) -> np.ndarray:
    """p-basis coefficients c = (H + lam I)^-1 mu of the regularized
    Newton step, with H = 2 Re(D* D) the Hessian of |exp(X) . w|^2 / 2
    read off the orbit-map matrix D at w, and lam scaled down with the
    relative moment norm ``rel`` of w."""
    k = d.shape[1]
    rows = _linalg.real_rows(d.T)
    system = 2.0 * (rows @ rows.T)
    system.flat[::k + 1] += (NEWTON_REGULARIZATION * min(1.0, rel)
                             * system.trace() / k)
    # H + lam I is symmetric positive definite whenever mu != 0 (then some
    # X_i . w != 0, so tr H > 0): one Cholesky solve
    _, direction, info = lapack.dposv(system, coeff)
    if info:
        raise np.linalg.LinAlgError(
            f"Newton system is not positive definite (dposv info {info})")
    return direction


def matrix_exp(x: np.ndarray) -> np.ndarray:
    """exp(x) of a Hermitian matrix x, the flow's step: I plus
    :func:`_linalg.hermitian_expm1`, from one eigendecomposition."""
    out = _linalg.hermitian_expm1(x)
    out.flat[::len(out) + 1] += 1.0
    return out


def norm_flow(rep: reps.Representation, group, v,
              config: FlowConfig = FlowConfig()) -> FlowTrace:
    """Run the norm-minimizing flow from v; returns the full trace.

    ``group`` may be a GroupSpec or a theta-stable LieAlgebraBasis.  The
    flow is run on v / |v| and rescaled afterwards (it commutes with
    scaling), which keeps the regularization and the stopping tests
    scale-free.  Budget exhaustion is reported on the trace, not raised.
    """
    p_basis = _basis(group).cartan.p_basis
    v = reps._check_vector(rep, v)

    # overflow is what the check below catches, so it is not warned about
    with np.errstate(over="ignore"):
        start_norm = reps.norm(rep, v)
    if not np.isfinite(start_norm):
        raise InvalidArgumentError("the vector's norm overflows")
    if start_norm == 0.0 or p_basis.dim == 0:
        return FlowTrace(np.array([start_norm]), np.array([0.0]), v, "moment")

    # v is validated once above; the loop runs on the unchecked cores
    w = reps._scale(rep, 1.0 / start_norm, v)
    # the step matrix sum_i c_i X_i is one real product with these rows
    p_rows = _linalg.real_rows(_linalg.stack_flat(p_basis.matrices))
    p_shape = p_basis.matrices.shape[1:]
    norm2 = reps._inner_product(rep, w, w)
    norms = [np.sqrt(norm2)]
    moment_norms = []
    reason = "budget"

    for _ in range(config.max_iterations):
        # one orbit-map matrix per iterate: the moment vector, the
        # tolerance test and the Newton system all read it
        d = reps._differential_matrix(rep, p_basis, w)
        coeff = moment_vector(rep, p_basis, w, d)
        rel = math.sqrt(coeff @ coeff) / norm2
        moment_norms.append(rel)
        if rel <= config.moment_tolerance:
            reason = "moment"
            break
        direction = _newton_direction(d, coeff, rel)
        x = (direction @ p_rows).view(p_basis.matrices.dtype).reshape(p_shape)
        # Armijo bar: the slope of |exp(-tX) . w|^2 at t = 0 is -2 mu . c
        decrease = 2.0 * SUFFICIENT_DECREASE * float(coeff @ direction)
        step = INITIAL_STEP
        while step >= MIN_STEP:
            candidate = reps._act(rep, matrix_exp(-step * x), w)
            cand2 = reps._inner_product(rep, candidate, candidate)
            if cand2 <= norm2 - step * decrease:
                break
            step *= STEP_SHRINK
        else:
            reason = "stalled"
            break
        w = candidate
        norm2 = cand2
        norms.append(np.sqrt(norm2))
        if norm2 <= COLLAPSE_REL_NORM2:
            reason = "collapse"
            break
    else:
        moment_norms.append(relative_moment_norm(rep, p_basis, w))

    limit = (reps.zero_vector(rep) if reason == "collapse"
             else reps._scale(rep, start_norm, w))
    return FlowTrace(start_norm * np.array(norms), np.array(moment_norms),
                     limit, reason)


def closedness_verdict(rep: reps.Representation, group, v,
                       config: FlowConfig = FlowConfig(),
                       rtol: float = _linalg.RANK_RTOL) -> ClosednessVerdict:
    """Decide closedness of the orbit of v by the dimension-drop criterion.

    Closed: the flow converged and the limit has the same orbit
    dimension (the zero vector is its own closed orbit, 0 = 0).
    NonClosed: the flow collapsed onto zero from a nonzero start, or
    converged onto a strictly smaller orbit.  Inconclusive: budget or
    stall, any rank decision too close to its threshold, or a limit
    dimension above the start dimension, which no in-orbit iterate can
    reach.  ``rtol`` is the relative cutoff of both orbit-dimension
    decisions.  The start decision's kernel is the stabilizer of v,
    carried on the verdict with that decision's ambiguity flag.
    """
    algebra = _basis(group)
    start = reps.orbit_dimension_info(rep, algebra, v, rtol)
    trace = norm_flow(rep, group, v, config)
    # Directions whose singular value is below the position uncertainty
    # of the limit point (about sqrt(residual) * |limit|) are the ones
    # dying in the true limit; they are floored to zero, and only values
    # just *above* the floor make the decision ambiguous.  Like the start
    # decision, it reads the orbit map on the algebra's orthonormal basis
    # (decided at the default cutoff), so the floor compares unit-length
    # directions.
    limit_norm = reps.norm(rep, trace.limit_point)
    floor = (LIMIT_RANK_FLOOR * np.sqrt(max(trace.moment_norms[-1], 1e-15))
             * limit_norm)
    limit = _linalg.matrix_rank(
        reps._differential_matrix(rep, algebra.orthonormal, trace.limit_point),
        rtol, floor=floor, one_sided=True)

    if trace.collapsed:
        status = NON_CLOSED
    elif (not trace.converged or start.ambiguous or limit.ambiguous
          or limit.rank > start.rank):
        status = INCONCLUSIVE
    elif limit.rank == start.rank:
        status = CLOSED
    else:
        status = NON_CLOSED
    return ClosednessVerdict(status, start.rank, limit.rank,
                             reps.norm(rep, v), limit_norm, trace,
                             reps._stabilizer_subalgebra(algebra, start),
                             start.ambiguous)

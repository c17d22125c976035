"""Orbit closedness via minimal vectors and a norm-minimizing flow.

The norm functional g -> |g . v|^2 on a reductive matrix group attains
its infimum exactly when the orbit is closed, and its critical points
are the minimal vectors: points where <X . v, v> = 0 for every Hermitian
algebra direction X.  The flow implemented here descends the norm along
the Hermitian part p of the algebra by damped, regularized Newton steps
on the Kempf-Ness function X -> |exp(X) . v|^2 / 2.  Its gradient at v
is the moment vector mu(v).  For X in p the operator v -> X . v is
Hermitian, so the Hessian in p-basis coordinates is H = 2 Re(D_p* D_p).
D is the rep.dim x k matrix of the orbit map X -> X . v between
orthonormal bases: column i holds the isometric coordinates of X_i . v
(``reps._coordinates``) for X_i in the Cartan basis
``algebra.cartan.basis``, and D_p is its trailing p columns, all of D
for a complex group.  One step is

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
operator that the Cartan basis keeps per representation
(``reps._differential_matrix``).  The moment vector is read off D_p,
mu_i = <X_i . w, w> = Re(D_p^t conj(coords w))_i (Kempf-Ness),
and so is H + lam I, symmetric positive definite whenever mu != 0 and
solved by one Cholesky factorization (LAPACK ``dposv``, whose ``info``
is checked).  The step matrix X = sum_i c_i X_i is Hermitian, because the
p-basis is (checked once per basis, with its orthonormality), so
exp(-t X) is I + U diag(expm1(-t d)) U* from one eigendecomposition
X = U diag(d) U* (``_linalg.hermitian_expm1``).  ``moment_vector`` and
``matrix_exp`` are looked up on this module at every step, so a tracer
that wraps them sees each call.

``norm_flow`` validates its vector once on entry (``reps.norm`` rejects
a norm that overflows); the line search runs on the unchecked cores of
the action and the inner product.  The flow's stop state is one field,
``FlowTrace.reason``; whether it converged or collapsed, and how many
steps it took, are read off the trace.

Minimality is decided at one bar, ``FlowConfig.moment_tolerance``, where
the flow stops; ``is_minimal``, the command line's ``minimal`` and the
example1 pipeline read it.  ``GRAM_TOL`` bars the p-basis, not vectors.

The closedness verdict compares orbit dimensions at the start and at the
flow limit, each one ``_linalg.matrix_rank`` decision of the orbit map
between orthonormal bases, whose rank is the same on any of them.  Both
read the flow's own D on the Cartan basis, so a verdict builds one orbit
operator: the start side reads the first, ``FlowTrace.start_orbit_map``
at v / |v|, with the noise floor ``reps.ORBIT_NOISE`` at that unit
scale, and its kernel is the stabilizer the verdict carries; the limit
side reads the last, ``FlowTrace.limit_orbit_map``, at limit / |v|.  A
subtlety: the final iterate is only within about sqrt(residual) of the
true limit, so singular values of that size at the limit are artifacts
of finite convergence.  The limit-side decision therefore passes an
absolute floor of LIMIT_RANK_FLOOR * sqrt(relative moment norm) *
|limit| / |v| on top of the package rank policy, and is flagged only by
singular values just above that floor.
Inconclusive is a first-class outcome, never an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from . import _linalg, groups, reps
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
    # D on algebra.cartan.basis at v / |v| and at limit_point / |v| (zero
    # after a collapse); they decide the start and the limit orbit
    # dimensions and are left out of to_json
    start_orbit_map: np.ndarray
    limit_orbit_map: np.ndarray

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

    def to_json(self, rep: reps.Representation) -> dict:
        return {
            "norms": [float(x) for x in self.norms],
            "moment_norms": [float(x) for x in self.moment_norms],
            "iterations_used": self.iterations_used,
            "converged": self.converged,
            "collapsed": self.collapsed,
            "reason": self.reason,
            "limit_point": reps.vector_to_json(rep, self.limit_point),
        }


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

    def to_json(self, rep: reps.Representation) -> dict:
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
    reps.norm(rep, v)  # raises when the norm overflows
    norm2 = reps.inner_product(rep, v, v)
    if norm2 == 0.0:
        return 0.0
    return float(np.linalg.norm(moment_vector(rep, p_basis, v))) / norm2


def is_minimal(rep: reps.Representation, p_basis: LieAlgebraBasis, v,
               tol: float = FlowConfig.moment_tolerance) -> bool:
    """True when the relative moment norm is at most ``tol``, by default
    the bar at which the norm flow stops."""
    return relative_moment_norm(rep, p_basis, v) <= tol


def _basis(group) -> LieAlgebraBasis:
    """The algebra basis of a ``group`` argument: a GroupSpec's cached
    basis, or the theta-stable basis itself.  Either way its Cartan split
    and its Cartan basis are derived once and kept on the basis."""
    if isinstance(group, LieAlgebraBasis):
        return group
    return lie_algebra_basis(group)


def _newton_direction(d: np.ndarray, coeff: np.ndarray,
                      rel: float) -> np.ndarray:
    """p-basis coefficients c = (H + lam I)^-1 mu of the regularized
    Newton step, with H = 2 Re(D* D) the Hessian of |exp(X) . w|^2 / 2
    read off the p columns D of the orbit-map matrix at w, and lam
    scaled down with the relative moment norm ``rel`` of w."""
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
    cartan = _basis(group).cartan
    p_basis = cartan.p_basis
    onb = cartan.basis
    # the p-basis is the trailing part of the Cartan basis (all of it for
    # a complex group)
    p_first = onb.dim - p_basis.dim
    v = reps._check_vector(rep, v)
    start_norm = reps.norm(rep, v)
    # v is validated once above; the flow runs on the unchecked cores
    w = v if start_norm == 0.0 else reps._scale(rep, 1.0 / start_norm, v)
    # one orbit-map matrix per iterate: the moment vector, the tolerance
    # test and the Newton system all read its p columns
    start_map = d = reps._differential_matrix(rep, onb, w)
    if start_norm == 0.0 or p_basis.dim == 0:
        # the zero vector and every point of a compact group are minimal
        return FlowTrace(np.array([start_norm]), np.array([0.0]), v, "moment",
                         start_map, start_map)

    # the step matrix sum_i c_i X_i is one real product with these rows
    p_rows = _linalg.real_rows(_linalg.stack_flat(p_basis.matrices))
    p_shape = p_basis.matrices.shape[1:]
    norm2 = reps._inner_product(rep, w, w)
    norms = [np.sqrt(norm2)]
    moment_norms = []
    reason = "budget"

    for iteration in range(config.max_iterations + 1):
        coeff = moment_vector(rep, p_basis, w, d[:, p_first:])
        rel = math.sqrt(coeff @ coeff) / norm2
        moment_norms.append(rel)
        if iteration == config.max_iterations:
            break  # the budget is spent; its last iterate is measured
        if rel <= config.moment_tolerance:
            reason = "moment"
            break
        direction = _newton_direction(d[:, p_first:], coeff, rel)
        x = (direction @ p_rows).view(p_basis.matrices.dtype).reshape(p_shape)
        # Armijo bar: the slope of |exp(-tX) . w|^2 at t = 0 is -2 mu . c
        decrease = 2.0 * SUFFICIENT_DECREASE * float(coeff @ direction)
        step = INITIAL_STEP
        while step >= MIN_STEP:
            g = matrix_exp(-step * x)
            # a huge trial step may overflow: the Armijo test below
            # rejects an inf or NaN cand2 and halves the step
            with np.errstate(over="ignore", invalid="ignore"):
                candidate = reps._act(rep, g, w)
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
        d = reps._differential_matrix(rep, onb, w)

    if reason == "collapse":
        limit = reps.zero_vector(rep)
        d = np.zeros_like(d)
    else:
        limit = reps._scale(rep, start_norm, w)
    return FlowTrace(start_norm * np.array(norms), np.array(moment_norms),
                     limit, reason, start_map, d)


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
    onb = _basis(group).cartan.basis
    trace = norm_flow(rep, onb, v, config)
    # D is taken at v / |v|: the floor ORBIT_NOISE |v| at unit scale
    start = _linalg.matrix_rank(trace.start_orbit_map, rtol,
                                floor=reps.ORBIT_NOISE)
    # Directions whose singular value is below the position uncertainty
    # of the limit point (about sqrt(residual) * |limit|) are the ones
    # dying in the true limit; they are floored to zero, and only values
    # just *above* the floor make the decision ambiguous.  The flow's
    # matrix is taken at the limit over |v|, so the floor is too.
    start_norm = reps.norm(rep, v)
    limit_norm = reps.norm(rep, trace.limit_point)
    floor = (LIMIT_RANK_FLOOR * np.sqrt(max(trace.moment_norms[-1], 1e-15))
             * (limit_norm / start_norm if start_norm else 0.0))
    limit = _linalg.matrix_rank(trace.limit_orbit_map, rtol, floor=floor,
                                one_sided=True)

    if trace.collapsed:
        status = NON_CLOSED
    elif (not trace.converged or start.ambiguous or limit.ambiguous
          or limit.rank > start.rank):
        status = INCONCLUSIVE
    elif limit.rank == start.rank:
        status = CLOSED
    else:
        status = NON_CLOSED
    return ClosednessVerdict(status, start.rank, limit.rank, start_norm,
                             limit_norm, trace,
                             groups.from_orthonormal_coordinates(
                                 onb, start.kernel.T),
                             start.ambiguous)

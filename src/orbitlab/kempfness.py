"""Orbit closedness via minimal vectors and a norm-minimizing flow.

The norm functional g -> |g . v|^2 on a reductive matrix group attains
its infimum exactly when the orbit is closed, and its critical points
are the minimal vectors: points where <X . v, v> = 0 for every Hermitian
algebra direction X.  The flow implemented here descends the norm along
the Hermitian part p of the algebra by regularized Newton steps
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

with t the exact minimizer of the norm along the ray, where rel is the
relative moment norm |mu(v_k)| / |v_k|^2.  lam keeps the step
bounded where H is singular: along the stabilizer directions of a
minimal vector, and as a whole when the iterate nears a smaller orbit
in the closure.  It shrinks with rel (regularized Newton methods for
singular solutions, Li, Fukushima, Qi and Yamashita, Comput. Optim.
Appl. 28, 2004), so the tail converges faster than the rate
NEWTON_REGULARIZATION that a fixed share of tr(H) / k would set.  The
function is geodesically convex (Kempf and Ness, LNM 732, 1979), so the
steps descend to the closed orbit in the closure, and every iterate
stays exactly on the starting orbit.

Convexity along each one-parameter subgroup also makes the ray exactly
solvable, as in geodesically convex scaling (Burgisser et al.,
arXiv:1910.12375).  The step matrix X = sum_i c_i X_i is Hermitian,
because the Cartan split builds the p-basis Hermitian (and
orthonormal), so one eigendecomposition X = U diag(d) U* per
diagonal block the representation reads (``_linalg.eigh``) diagonalizes
its action: with coefficients W = U* . w, f(t) = |exp(-tX) . w|^2 is
sum_m |W_m|^2 exp(-2 t s_m), s_m the weight of entry m
(``rep.weight_map @ d``).  ``_ray_length`` minimizes f exactly: it goes
straight to the collapse bar when every weight on the support is
positive, and otherwise solves f' = 0 by a safeguarded Newton iteration
from t = 0 whose exponents are shifted so that none overflows; no ray
goes further than RAY_REACH in its fastest exponent.  The
support leaves out coefficients at the rounding floor (SUPPORT_FLOOR):
those keep their value, so a long ray into the nullcone does not blow
rounding noise of negative weight up into a component off it, which the
flow would then settle on as a tiny minimal vector.  A trial
point is evaluated in expm1 form, w + U (expm1(-t s) o W) U^t, and its
decrease as -2 Re <w, change> - |change|^2, so a small step keeps its
relative precision; the point is accepted when that decrease reaches
SUFFICIENT_DECREASE times the one the ray predicts, else t halves.
The unit Newton step is only the fallback where rounding hides the
ray's slope: an example1 flow takes one step, and its search one
evaluation of the model.

Each step costs a few calls that each do real work, around one matrix.
D is one product of the iterate's coordinates, read once, with the
orbit-map operator that the Cartan basis keeps per representation
(``reps._differential_matrix``).  ``moment_vector`` reads mu off D_p and
the same coordinates, mu_i = <X_i . w, w> = Re(D_p^t conj(coords w))_i
(Kempf-Ness), and so is H + lam I read off D_p, symmetric positive
definite whenever mu != 0 and solved by one Cholesky factorization
(LAPACK ``dposv``, whose ``info`` is checked).  The ray then costs one
eigendecomposition per block, two small products for W and one per
trial point.  ``moment_vector`` and ``matrix_exp`` (which gives every
trial point its expm1(-t s)) are looked up on this module at every
step, so a tracer that wraps them sees each call.

``norm_flow`` is the one place a verdict validates and norms its input:
it reads v's flat entries once and norms them by the core of
``reps.norm``, which rejects a norm that overflows.  It holds its iterate
as the flat entry array and checks nothing per step (its p-basis is the
Cartan split's own): the line search moves it by the unchecked core of
the action, and the public form is rebuilt only for the limit point.
The trace carries |v| and |limit| (bitwise ``reps.norm``'s values) and
the orbit maps at both ends, all four read by the verdict.  The flow's
stop state is one field, ``FlowTrace.reason``; whether it converged or
collapsed, and how many steps it took, are read off it.

Minimality is decided at one bar, ``FlowConfig.moment_tolerance``, where
the flow stops; the command line's ``minimal`` and the example1 pipeline
compare ``relative_moment_norm`` with it.  Every entry point here takes
its group as a GroupSpec or a theta-stable LieAlgebraBasis
(``groups.lie_algebra_basis`` reads either) and reads the p-basis off
that group's own Cartan split, which is orthonormal and Hermitian by
construction, so no p-basis from outside is checked.

The closedness verdict compares orbit dimensions at the start and at the
flow limit, each one rank decision of the orbit map between orthonormal
bases, whose rank is the same on any of them: ``reps._orbit_rank`` at
the start, whose kernel is kept, and the singular values alone at the
limit, where only the rank and its flag are read.  Both read the flow's
own D on the Cartan basis, so a verdict builds one orbit operator: the
start side reads the first, ``FlowTrace.start_orbit_map`` at v / |v|,
by the rule and noise floor of every orbit dimension at unit norm, and
its kernel is the stabilizer the verdict carries, built by
``reps._stabilizer_subalgebra`` as every stabilizer is; the limit side
reads the last, ``FlowTrace.limit_orbit_map``, at limit / |v|.  A
subtlety: the final iterate is only within about sqrt(residual) of the
true limit, so singular values of that size at the limit are artifacts
of finite convergence.  The limit-side decision therefore passes an
absolute floor of LIMIT_RANK_FLOOR * sqrt(relative moment norm) *
|limit| / |v| on top of the package rank policy, and is flagged by
singular values just above that floor.  The floor can only lower the
limit rank, so it decides the verdict only when the limit rank drops;
such a drop is inconclusive when the floor reaches the smallest
singular value the start decision kept: after a loose moment tolerance
it no longer tells a dying direction from a live one.
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

# The line search minimizes the norm along each Newton ray exactly; a
# trial point is accepted when its decrease is at least this share of
# the decrease its one-dimensional model predicts.
SUFFICIENT_DECREASE = 1e-4

# The full Newton step stands where the ray's model has nothing to add,
# and bounds a step to infinity from below; a rejected trial point halves
# the step, and the flow stalls once it drops below MIN_STEP.
INITIAL_STEP = 1.0
STEP_SHRINK = 0.5
MIN_STEP = 1e-14

# No ray goes further than t max|s| = RAY_REACH, its fastest exponent:
# a step's weights carry rounding, and a stabilizer basis read off a null
# space carries its own (weights of 3e-12 where the exact ones are 0 on
# the sp(6) flow of the special translate), which a ray of length 1e12
# would turn into a move off the orbit.  Collapsing the norm by the bar
# 1e-12 takes t max|s| of about 14 when the slowest positive weight is
# within a factor 20 of the fastest; a shorter ray is continued by the
# next Newton step.
RAY_REACH = 300.0

# An eigen-coefficient whose squared modulus is at most this, on the
# flow's unit start scale, is rounding noise, not support: the rotation
# into the step's eigenbasis leaves about eps |w| in every coefficient
# that is zero in exact arithmetic, and the flow carries that absolute
# noise as its iterate shrinks.  Along a ray to the collapse bar a noise
# coefficient of negative weight would grow by e^50 or more and pass for
# a component off the nullcone, so noise keeps its value instead.
SUPPORT_FLOOR = (100.0 * np.finfo(float).eps) ** 2

# The search takes its last Newton step from |log(descending / ascending
# slope)| <= RAY_TOL, which leaves a relative slope of order RAY_TOL^2;
# the iteration converges quadratically, so RAY_ITERATIONS is a backstop.
RAY_TOL = 1e-6
RAY_ITERATIONS = 100

# A slope of the ray's model below this share of the sum of its terms'
# magnitudes is rounding, not descent.
RAY_SLOPE_FLOOR = 1e-10

# splits the weights into their positive and negative halves
_SIGNS = np.array([[1.0], [-1.0]])

# Regularization of the Newton system relative to the mean Hessian
# eigenvalue tr(H) / k, times min(1, relative moment norm); bounds the
# step where H turns singular.
NEWTON_REGULARIZATION = 1e-3


@dataclass(frozen=True)
class FlowConfig:
    moment_tolerance: float = 1e-8   # stop at relative moment norm <= this
    max_iterations: int = 20000      # Newton steps before "budget"

    def __post_init__(self):
        if not (is_real(self.moment_tolerance)
                and math.isfinite(self.moment_tolerance)
                and self.moment_tolerance > 0):
            raise InvalidArgumentError(
                "moment_tolerance must be a finite positive number")
        if not (is_integer(self.max_iterations) and self.max_iterations >= 1):
            raise InvalidArgumentError("max_iterations must be a positive integer")

    def to_json(self) -> dict:
        return {
            "moment_tolerance": self.moment_tolerance,
            "max_iterations": self.max_iterations,
        }


@dataclass(frozen=True, eq=False)
class FlowTrace:
    norms: np.ndarray          # |v_k| per accepted step, nonincreasing
    moment_norms: np.ndarray   # relative moment norm at each iterate
    limit_point: object
    reason: str                # "moment", "collapse", "budget", "stalled"
    # D on algebra.cartan.basis at v / |v| and at limit_point / |v| (zero
    # after a collapse), which decide the start and the limit orbit
    # dimensions, and |v| and |limit_point|, bitwise what reps.norm gives;
    # all four are left out of to_json
    start_orbit_map: np.ndarray
    limit_orbit_map: np.ndarray
    start_norm: float
    limit_norm: float

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
    trace: FlowTrace             # carries |v| and |limit| as well
    stabilizer: LieAlgebraBasis  # kernel of the start orbit map
    start_ambiguous: bool        # flag of the start orbit and stabilizer dims

    def to_json(self, rep: reps.Representation) -> dict:
        return {
            "status": self.status,
            "start_orbit_dim": self.start_orbit_dim,
            "limit_orbit_dim": self.limit_orbit_dim,
            "start_norm": self.trace.start_norm,
            "limit_norm": self.trace.limit_norm,
            "trace": self.trace.to_json(rep),
        }


def moment_vector(d: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """mu_i = <X_i . v, v> over an orthonormal Hermitian basis, the
    gradient of t -> |exp(tX) . v|^2 / 2 at t = 0, zero exactly at minimal
    vectors: Re(D^t conj(coords)) of the orbit-map matrix D of the basis
    at v (``reps._differential_matrix``) and the coordinates of v.  Nothing
    is checked; ``relative_moment_norm`` checks its vector."""
    coords = coords.astype(d.dtype, copy=False)
    return _linalg.real_rows(d.T) @ _linalg.real_rows(coords)


def relative_moment_norm(rep: reps.Representation, group, v) -> float:
    """|mu(v)| / |v|^2 over the p-basis of ``group``'s Cartan split, 0.0 at
    the zero vector.  ``group`` may be a GroupSpec or a theta-stable
    LieAlgebraBasis, as for ``closedness_verdict``.  A group of another
    size or field and a norm that overflows are errors; v is validated and
    its coordinates read once."""
    p_basis = lie_algebra_basis(group).cartan.p_basis
    flat = reps._check_vector(rep, v)
    norm2 = reps._squared_norm(flat)
    coords = reps._coordinates(rep, flat)
    # D checks the basis's fit to the group, also at the zero vector
    d = reps._differential_matrix(rep, p_basis, coords)
    if norm2 == 0.0:
        return 0.0
    return float(np.linalg.norm(moment_vector(d, coords))) / norm2


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


def matrix_exp(x: np.ndarray, t: float = 1.0) -> np.ndarray:
    """expm1(t x): the change exp(t X) - I of the Hermitian step X on its
    eigenbasis, given by its weights ``x``, at full relative precision
    however small the step.  The norm flow calls it once per trial point."""
    return np.expm1(t * x)


def _eigen_step(rep: reps.Representation,
                x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weights and the eigenvectors U of the step X = U diag(d) U*.

    One eigendecomposition per diagonal block the representation reads
    (``rep.blocks``), so U is block diagonal like X; the weights are those
    of diag(d) on the flat entries of a vector (``rep.weight_map @ d``),
    and exp(-tX) . w = U (exp(-t weights) o (U* . w)) U^t entrywise.
    """
    if len(rep.blocks) == 1:
        d, u = _linalg.eigh(x)
    else:
        d = np.empty(len(x))
        u = np.zeros_like(x)
        for block in rep.blocks:
            d[block], u[block, block] = _linalg.eigh(x[block, block])
    return rep.weight_map @ d, u


def _ray_length(a: np.ndarray, s: np.ndarray) -> float:
    """The t > 0 minimizing f(t) = sum_m a_m exp(-2 t s_m), the squared
    norm along the Newton ray, with a_m >= 0 the squared moduli of the
    iterate's eigen-coefficients and s_m their weights, 0 off the support
    (a_m at most SUPPORT_FLOOR), capped at RAY_REACH / max |s|.

    f is convex.  When no weight on the support is negative, f falls to
    its infimum at t = infinity, the mass of the zero weights, and the
    step goes to where the positive weights' mass, at most
    (sum_{s>0} a) exp(-2 t min_{s>0} s), is below the rounding of that
    infimum, or below half the collapse bar when the infimum is too.
    Otherwise the minimizer is the root of phi(t) = log P(t) - log N(t),
    with P and N the descending and ascending halves of -f'(t) / 2.  phi
    falls with slope -2 times the sum of a P-weighted mean of s and an
    N-weighted mean of |s|, so it is nearly linear.  The safeguarded
    Newton iteration starts at t = 0, where P and N are plain sums, so
    its first step is the root of the two-exponential model fitted there,
    and it stops after a step from |phi| <= RAY_TOL, whose error is of
    order phi^2.  The exponents are shifted by the smallest weight, so no
    term overflows.
    """
    low = s.min()
    if low >= 0.0:
        positive = s > 0.0
        if not positive.any():
            return INITIAL_STEP
        infimum = a[~positive].sum()
        target = (0.5 * COLLAPSE_REL_NORM2 if infimum < 0.5 * COLLAPSE_REL_NORM2
                  else np.finfo(float).eps * infimum)
        t = math.log(a[positive].sum() / target) / (2.0 * s[positive].min())
        return min(max(INITIAL_STEP, t), RAY_REACH / s.max())
    # rows a s+, a s-, a s+^2, a s-^2 against e = exp(2 t (low - s)) <= 1
    # give P, N and their slopes in one product per iteration
    halves = np.maximum(s * _SIGNS, 0.0)
    moments = np.empty((4, len(s)))
    np.multiply(a, halves, out=moments[:2])
    np.multiply(moments[:2], halves, out=moments[2:])
    reach = RAY_REACH / halves.max()
    # at t = 0 every e is 1, so P, N and their slopes are plain sums
    values = moments.sum(axis=1)
    p, n = values[:2].tolist()
    if p - n <= RAY_SLOPE_FLOOR * (p + n):
        # the Newton direction descends, but near convergence its slope
        # -2 sum a s can drown in the rounding of the sum: the model then
        # has nothing to add to the unit step, which the safeguard judges
        # on its exact decrease
        return INITIAL_STEP
    shifted = low - s
    lo, hi, t = 0.0, math.inf, 0.0
    for _ in range(RAY_ITERATIONS):
        p, n, dp, dn = values.tolist()
        if p == 0.0:
            # the descending half underflowed: far past the minimizer
            hi = t
            t = 0.5 * (lo + hi)
        else:
            phi = math.log(p) - math.log(n)
            newton = t + phi / (2.0 * (dp / p + dn / n))
            if abs(phi) <= RAY_TOL:
                return min(newton, reach)
            if phi > 0.0:
                lo = t
            else:
                hi = t
            # from phi > 0 Newton moves right, so hi is finite when it
            # leaves the bracket
            t = newton if lo < newton < hi else 0.5 * (lo + hi)
        values = moments @ np.exp((2.0 * t) * shifted)
    return min(t, reach)


def norm_flow(rep: reps.Representation, group, v,
              config: FlowConfig = FlowConfig()) -> FlowTrace:
    """Run the norm-minimizing flow from v; returns the full trace.

    ``group`` may be a GroupSpec or a theta-stable LieAlgebraBasis.  The
    flow is run on v / |v| and rescaled afterwards (it commutes with
    scaling), which keeps the regularization and the stopping tests
    scale-free.  Budget exhaustion is reported on the trace, not raised.
    """
    cartan = lie_algebra_basis(group).cartan
    p_basis = cartan.p_basis
    onb = cartan.basis
    # the p-basis is the trailing part of the Cartan basis (all of it for
    # a complex group)
    p_first = onb.dim - p_basis.dim
    # v is validated and normed once here; the flow runs on the unchecked
    # cores, with its iterate held flat
    flat = reps._check_vector(rep, v)
    start_norm = reps._norm(flat)
    w = flat if start_norm == 0.0 else (1.0 / start_norm) * flat
    # one coordinate read and one orbit-map matrix per iterate: the moment
    # vector, the tolerance test and the Newton system all read its p columns
    coords = reps._coordinates(rep, w)
    start_map = d = reps._differential_matrix(rep, onb, coords)
    if start_norm == 0.0 or p_basis.dim == 0:
        # the zero vector and every point of a compact group are minimal
        return FlowTrace(np.array([start_norm]), np.array([0.0]),
                         reps._unflat(rep, flat), "moment", start_map,
                         start_map, start_norm, start_norm)

    # the step matrix sum_i c_i X_i is one real product with these rows
    p_rows = p_basis.real_rows
    p_shape = p_basis.matrices.shape[1:]
    norm2 = float(np.vdot(w, w).real)
    norms = [np.sqrt(norm2)]
    moment_norms = []
    reason = "budget"

    for iteration in range(config.max_iterations + 1):
        coeff = moment_vector(d[:, p_first:], coords)
        rel = math.sqrt(coeff @ coeff) / norm2
        moment_norms.append(rel)
        if iteration == config.max_iterations:
            break  # the budget is spent; its last iterate is measured
        if rel <= config.moment_tolerance:
            reason = "moment"
            break
        direction = _newton_direction(d[:, p_first:], coeff, rel)
        x = (direction @ p_rows).view(p_basis.matrices.dtype).reshape(p_shape)
        weights, u = _eigen_step(rep, x)
        coeffs = reps._act(rep, u.conj().T, w)
        a = coeffs.real ** 2 + coeffs.imag ** 2
        # weights off the support are zeroed: noise neither sets the step
        # nor grows with it, and no trial point overflows
        weights = np.where(a > SUPPORT_FLOOR, weights, 0.0)
        step = _ray_length(a, weights)
        while step >= MIN_STEP:
            # the trial point in expm1 form, w + U (expm1(-t s) o coeffs) U^t,
            # and its decrease -2 Re <w, change> - |change|^2, both exact to
            # rounding however small the change
            change = reps._act(rep, u, matrix_exp(weights, -step) * coeffs)
            decrease = -(2.0 * np.vdot(w, change).real
                         + np.vdot(change, change).real)
            predicted = -float(a @ np.expm1(-2.0 * step * weights))
            if decrease > 0.0 and decrease >= SUFFICIENT_DECREASE * predicted:
                break
            step *= STEP_SHRINK
        else:
            reason = "stalled"
            break
        w = w + change
        # the exact decrease accepted the point; its own squared norm is
        # recorded, and a rise of a rounding error is not
        norm2 = min(norm2, float(np.vdot(w, w).real))
        norms.append(np.sqrt(norm2))
        if norm2 <= COLLAPSE_REL_NORM2:
            reason = "collapse"
            break
        coords = reps._coordinates(rep, w)
        d = reps._differential_matrix(rep, onb, coords)

    if reason == "collapse":
        limit, limit_norm = reps.zero_vector(rep), 0.0
        d = np.zeros_like(d)
    else:
        flat = start_norm * w
        limit, limit_norm = reps._unflat(rep, flat), reps._norm(flat)
    return FlowTrace(start_norm * np.array(norms), np.array(moment_norms),
                     limit, reason, start_map, d, start_norm, limit_norm)


def closedness_verdict(rep: reps.Representation, group, v,
                       config: FlowConfig = FlowConfig(),
                       rtol: float = _linalg.RANK_RTOL) -> ClosednessVerdict:
    """Decide closedness of the orbit of v by the dimension-drop criterion.

    Closed: the flow converged and the limit has the same orbit
    dimension (the zero vector is its own closed orbit, 0 = 0).
    NonClosed: the flow collapsed onto zero from a nonzero start, or
    converged onto a strictly smaller orbit.  Inconclusive: budget or
    stall, any rank decision too close to its threshold, a limit
    dimension above the start dimension, which no in-orbit iterate can
    reach, or a drop under a limit floor that reaches a kept start
    singular value.  ``rtol`` is the relative cutoff of both orbit-dimension
    decisions.  The start decision's kernel is the stabilizer of v,
    carried on the verdict with that decision's ambiguity flag.
    """
    onb = lie_algebra_basis(group).cartan.basis
    trace = norm_flow(rep, onb, v, config)
    # D is taken at v / |v|, so at unit norm
    start = reps._orbit_rank(trace.start_orbit_map, 1.0, rtol)
    # Directions whose singular value is below the position uncertainty
    # of the limit point (about sqrt(residual) * |limit|) are the ones
    # dying in the true limit; they are floored to zero, and only values
    # just *above* the floor make the decision ambiguous.  The flow's
    # matrix is taken at the limit over |v|, so the floor is too.
    floor = (LIMIT_RANK_FLOOR * math.sqrt(max(trace.moment_norms[-1], 1e-15))
             * (trace.limit_norm / trace.start_norm if trace.start_norm
                else 0.0))
    # only the rank and its flag are read: singular values alone
    limit = _linalg.rank_from_singular_values(
        _linalg.svd(trace.limit_orbit_map, vectors=False), rtol, floor=floor,
        one_sided=True)
    # a rank drop under a floor as large as a kept start direction
    # decides nothing; without a drop the floor decided nothing either
    blind = (limit.rank < start.rank
             and floor >= start.singular_values[start.rank - 1])

    if trace.collapsed:
        status = NON_CLOSED
    elif (not trace.converged or start.ambiguous or limit.ambiguous or blind
          or limit.rank > start.rank):
        status = INCONCLUSIVE
    elif limit.rank == start.rank:
        status = CLOSED
    else:
        status = NON_CLOSED
    return ClosednessVerdict(status, start.rank, limit.rank, trace,
                             reps._stabilizer_subalgebra(onb, start),
                             start.ambiguous)

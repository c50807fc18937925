"""Barrier interior-point solver for convex-form geometric programs.

Solves   min  lse_0(y)   s.t.  lse_s(y) <= 0
where lse(y) = log sum_m exp(a_m.y + b_m).  The problem is convex, so the
primal barrier method with damped Newton centering reaches the global
optimum with a certified gap of (number of inequalities) / t at barrier
weight t (Boyd & Vandenberghe, Convex Optimization, 11.3-11.4).

All log-sum-exp evaluations are max-shifted, so exponents of several
hundred in magnitude are handled without overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .posynomial import ConvexFormProblem, PackedConstraints

OPTIMAL = "optimal"
MAX_ITERATIONS = "max_iterations"
# a centering whose line search accepted no step down to 1e-18: its point
# was never centered, so no gap is certified for it
STALLED = "stalled"
CENTERED = "centered"         # a centering's normal stop, not a solve status
# a centering's stop, never a solve status: its last line-search step
# did not lower the barrier value, while the decrement was above the
# stop test's rounding floor
ROUNDING_FLOOR = "rounding_floor"

# called directly, the reductions cost less than the array methods on
# the kernel's small arrays
_min, _max, _sum = np.minimum.reduce, np.maximum.reduce, np.add.reduce

# a point counts as strictly feasible when every constraint has at least
# this much negative slack in log form
FEASIBILITY_MARGIN = 1e-6

# the barrier weight t runs on the grid INITIAL_T * BARRIER_MU**i up to
# its first point with gap m/t <= DUALITY_GAP_TOL, the final t
BARRIER_MU = 10.0
INITIAL_T = 1.0
# the pass solves of `solve` step t by this instead, clamped to the
# final t, so they center at every second point of the grid and at the
# final t.  A centering's Newton steps grow slowly with the step (Boyd &
# Vandenberghe 11.3.3), so skipping half the centerings saves about a
# fifth of the steps.  The grid stays at 10: the final t, and with it the
# certified gap and the optimum's last bits, stay those of a x10
# schedule, and every warm-start record stays on the grid.  Phase-1
# keeps the x10 step, because moving its path moves its start and so the
# final rates.  A step of 1000 sent cold centerings to the Newton cap.
PASS_BARRIER_MU = BARRIER_MU ** 2
NEWTON_TOL = 1e-9             # tolerance on the Newton decrement
MAX_NEWTON = 100              # Newton iteration cap per centering
LINE_SEARCH_BACKTRACK = 0.5   # step shrink factor, in (0, 1)
LINE_SEARCH_SLOPE = 0.1       # Armijo constant, in (0, 0.5)
# a warm start resumes only from a recorded central point whose squared
# Newton decrement under the new barrier is at most this.  The decrement
# grows like sqrt(t), so 1 stopped most scans at t <= 100; damped Newton
# pays only a bounded number of extra steps for a larger one (Boyd &
# Vandenberghe 9.5.3).  1000 cut more steps but sent more warm centerings
# to the Newton cap and a cold restart.
WARM_DECREMENT_SQ = 100.0

# certified gap (log-objective units) at exit; 1e-9 keeps each allocator
# pass's certified suboptimality well inside its 1e-8-bit ascent budget
DUALITY_GAP_TOL = 1e-9


@dataclass
class SolverResult:
    y: np.ndarray
    x: np.ndarray
    objective_value: float
    status: str
    newton_steps_used: int
    certified_gap: float
    # one (t, y, log objective, gap m/t) record per centering, in
    # increasing t; certified_gap is the last record's gap, and a later
    # solve with the same constraints can warm-start from it (see solve)
    path: list
    # barrier evaluations made by the solve: y0's, the warm-start scan's,
    # _predict's and every line-search candidate's
    evaluations: int


@dataclass
class FeasibilityResult:
    feasible: bool
    y: np.ndarray | None
    max_slack: float          # best achieved max_s lse_s(y); feasible iff < -margin
    status: str


def logsumexp_bundle(exponents, offsets, y):
    """(value, gradient, Hessian) of log sum exp(A y + b); Hessian is PSD."""
    z = exponents @ y + offsets
    m = z.max()
    e = np.exp(z - m)
    s = e.sum()
    w = e / s
    g = exponents.T @ w
    hess = (exponents.T * w) @ exponents - np.outer(g, g)
    return float(m + np.log(s)), g, hess


# the index of the objective's one block, for np.add.reduceat
_FIRST = np.zeros(1, dtype=np.intp)


class _Point:
    """The barrier's values at one y: f0, -f_s per constraint, sum_s
    log(-f_s), and exp(z - block max) per row with its per-block sums,
    for the objective (e0, s0) and for the constraints (e_con, s_con).
    phi at any t is then float arithmetic.  None of them depends on t,
    and neither do the derivative parts _Barrier.parts computes from
    them, so those are kept here once computed: a second bundle at the
    same y (_predict's at a central point, a centering run again from
    that point, or the warm-start pick that _center starts from) builds
    no Hessian again.  step keeps the last (t, phi, Newton step,
    grad . step) found here, so the warm-start scan's direction at its
    pick is not solved again by _center."""

    __slots__ = ("f0", "negf", "logsum", "e0", "s0", "e_con", "s_con", "parts", "step")

    def __init__(self, f0, negf, logsum, e0, s0, e_con, s_con):
        self.f0, self.negf, self.logsum = f0, negf, logsum
        self.e0, self.s0, self.e_con, self.s_con = e0, s0, e_con, s_con
        self.parts = self.step = None

    def phi(self, t):
        """The barrier value t*f0 - sum_s log(-f_s)."""
        return t * self.f0 - self.logsum


class _Barrier:
    """Centering objective t*f0(y) - sum_s log(-f_s(y)).

    The problem's constraint pack is evaluated first, and the objective's
    rows only at points inside the domain, so a line-search candidate
    outside it costs the constraint rows alone.  With u = -1/f_s, G the
    LSE gradients of the constraint blocks (one row per block) and g0 the
    objective's, the gradient is t*g0 + G^T u and the Hessian is
    t*H_obj + H_con, where H_obj = A0^T diag(w0) A0 - g0 g0^T is the
    objective's LSE Hessian and H_con = A_con^T diag(w u[block]) A_con +
    G^T diag(u^2 - u) G, w being the per-block softmax weights.  g0,
    G^T u, H_obj and H_con do not depend on t.
    """

    def __init__(self, obj_exponents, obj_offsets, constraints):
        self.a0, self.b0, self.constraints = obj_exponents, obj_offsets, constraints
        # C-contiguous transposes: scaling their columns by row weights and
        # multiplying by A is cheaper than the same product on A.T
        self.a0_t = np.ascontiguousarray(obj_exponents.T)
        self.a_con_t = np.ascontiguousarray(constraints.A.T)
        self.evaluations = 0

    def evaluate(self, y):
        """A _Point at y, or None when y is outside the domain (some
        f_s >= 0), found before any objective row is read.  One
        evaluation serves the line search and every later bundle at y."""
        self.evaluations += 1
        vals, e_con, s_con = self.constraints.shifted_exp(y)
        negf = -vals
        if len(negf) and _min(negf) <= 0:
            return None
        z = self.a0.dot(y)
        z += self.b0
        mx = _max(z)
        z -= mx
        e0 = np.exp(z, out=z)
        # summed as the constraint pack sums a block: np.add.reduce rounds
        # differently
        s0 = np.add.reduceat(e0, _FIRST)[0]
        return _Point(float(mx + np.log(s0)), negf, float(_sum(np.log(negf))),
                      e0, s0, e_con, s_con)

    def parts(self, point):
        """(g0, G^T u, H_obj, H_con) at point."""
        cons = self.constraints
        e0, s0, e_con, s_con = point.e0, point.s0, point.e_con, point.s_con
        u = 1.0 / point.negf
        # the objective's gradient is one gemv over its (possibly
        # thousands of) rows; the small constraint blocks share one reduceat
        g0 = self.a0_t.dot(e0) / s0
        g_con = np.add.reduceat(cons.A * e_con[:, None], cons.starts, axis=0)
        g_con /= s_con[:, None]
        h_obj = (self.a0_t * (e0 / s0)).dot(self.a0)
        h_obj -= g0[:, None] * g0
        h_con = (self.a_con_t * (e_con * (u / s_con)[cons.row_block])).dot(cons.A)
        h_con += (g_con.T * (u * u - u)).dot(g_con)
        return g0, u.dot(g_con), h_obj, h_con

    def bundle(self, point, t):
        """(phi, gradient, Hessian, f0) at the evaluated point.  The
        Hessian is a new array, so the caller may change it."""
        if point.parts is None:
            point.parts = self.parts(point)
        g0, gu, h_obj, h_con = point.parts
        hess = h_obj * t
        hess += h_con
        return point.phi(t), t * g0 + gu, hess, point.f0

    def newton(self, point, t):
        """(phi, Newton step, grad . step) at point for weight t;
        -grad . step is the squared Newton decrement."""
        step = point.step
        if step is None or step[0] != t:
            val, grad, hess, _ = self.bundle(point, t)
            point.step = step = (t, val, *_regularized_newton_step(hess, grad))
        return step[1:]


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


@np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore",
             under="ignore")
def _solve(a, b):
    """np.linalg.solve(a, b) for a float64 matrix a and vector b, bit for
    bit: the gufunc it wraps, under its error state, in which LAPACK's
    singular-matrix flag raises LinAlgError.  The wrapper's array and
    type checks cost more than the solve of a small system."""
    return _umath_linalg.solve1(a, b, signature="dd->d")


def _regularized_newton_step(hess, grad):
    """(d, grad . d) for hess d = -grad, with d a finite direction of
    descent.  The plain solve is returned when it succeeds with a finite
    grad . d < 0, as it does for every positive definite hess: one
    factorization per step.  For a finite grad, a finite grad . d implies
    a finite d.  Otherwise 1e-12*trace(H), escalating tenfold, is put on
    the diagonal of hess, in place, until a Cholesky factorization accepts
    it and the solve gives a finite grad . d <= 0 (0 only at grad = 0).
    The solve is checked too because near a condition number of 1e19
    Cholesky can accept a matrix whose LU solve meets an exact zero pivot
    or points uphill; an uphill direction would read as a zero decrement
    and end its centering with a false gap."""
    try:
        delta = _solve(hess, -grad)
    except LinAlgError:
        pass
    else:
        descent = float(grad.dot(delta))
        if descent < 0 and math.isfinite(descent):
            return delta, descent
    diagonal = hess.diagonal().copy()
    reg = 1e-12 * max(np.trace(hess), 1.0)
    for _ in range(60):
        hess.flat[::len(grad) + 1] = diagonal + reg
        reg *= 10.0
        try:
            np.linalg.cholesky(hess)
            delta = _solve(hess, -grad)
        except LinAlgError:
            continue
        descent = float(grad.dot(delta))
        if descent <= 0 and math.isfinite(descent):
            return delta, descent
    raise LinAlgError("Newton system could not be regularized")


def _center(barrier, y, point, t, callback=None):
    """Damped Newton to the analytic center for barrier weight t, from y
    with point = barrier.evaluate(y).

    Stops when the Newton decrement (the H^-1-weighted gradient norm)
    falls below NEWTON_TOL or below the float64 rounding floor of the
    barrier value itself: at large t the barrier magnitude reaches ~t*|f0|
    and quadratic-model improvements smaller than eps times that are not
    representable, so demanding more would spin.  The backtracking line
    search starts at the full step.  Returns (y, point, stop, steps)
    at the point reached: stop is CENTERED, OPTIMAL once callback(y) is
    true, MAX_ITERATIONS, STALLED when no step down to 1e-18 passes, or
    ROUNDING_FLOOR when the step that passes does not lower the barrier
    value.
    """
    steps = 0
    eps = float(np.finfo(float).eps)
    for _ in range(MAX_NEWTON):
        val, delta, descent = barrier.newton(point, t)
        decrement = math.sqrt(max(-descent, 0.0))
        if decrement <= max(NEWTON_TOL, math.sqrt(32.0 * eps * abs(val))):
            return y, point, CENTERED, steps
        alpha = 1.0
        accepted = None
        while alpha >= 1e-18:
            cand = y + alpha * delta
            cand_point = barrier.evaluate(cand)
            if cand_point is not None:
                cand_val = cand_point.phi(t)
                if cand_val <= val + LINE_SEARCH_SLOPE * alpha * descent:
                    accepted = cand
                    break
            alpha *= LINE_SEARCH_BACKTRACK
        if accepted is None:
            return y, point, STALLED, steps
        if cand_val >= val:
            return y, point, ROUNDING_FLOOR, steps
        y, point = accepted, cand_point
        steps += 1
        if callback is not None and callback(y):
            return y, point, OPTIMAL, steps
    return y, point, MAX_ITERATIONS, steps


def _predict(barrier, y, point, t, t_next):
    """The start for the centering at t_next, from the central point
    (y, point) at t: y + t (1 - t/t_next) d with H(t) d = -grad f0, the
    first-order step along the central path in r = 1/t (the path solves
    t grad f0 + grad phi = 0, so dy/dt = d).  The full step is halved
    until it lands strictly inside the domain with a lower barrier value
    at t_next; (y, point) when no step down to 1e-18 does.  H(t) comes
    from point's cached parts, so no Hessian is built."""
    _, _, hess, _ = barrier.bundle(point, t)
    d, _ = _regularized_newton_step(hess, point.parts[0])
    step = t * (1.0 - t / t_next) * d
    val = point.phi(t_next)
    alpha = 1.0
    while alpha >= 1e-18:
        cand = y + alpha * step
        cand_point = barrier.evaluate(cand)
        if cand_point is not None and cand_point.phi(t_next) < val:
            return cand, cand_point
        alpha *= LINE_SEARCH_BACKTRACK
    return y, point


def _central_path(barrier, y, point, t, callback=None, mu=BARRIER_MU):
    """Center at barrier weight t, then mu times more each round, but
    never past the final t: the first point of t * BARRIER_MU**i whose
    certified gap m/t is at most DUALITY_GAP_TOL.  Stops when a centering
    does not end CENTERED or the final t is centered.  A centering that
    ends at ROUNDING_FLOOR hands its point on to the next t as if
    CENTERED, but at the final t, whose centering is the one that
    certifies the gap, it is STALLED.

    With mu = PASS_BARRIER_MU (the pass solves) each centering after the
    first starts at the point _predict gives; when that centering does
    not end CENTERED, it runs again from the central point the start was
    predicted from, and the failed attempt's steps still count.  The
    tenfold path (phase-1) starts each centering at the last central
    point.

    Returns (status, steps, rows, centered) with one (t, y, f0, m/t) row
    per centering; status is the last centering's stop, OPTIMAL at the
    gap, and centered is the last row whose centering ended CENTERED
    (not handed on from the floor), or None.
    """
    m = barrier.constraints.count
    t_final = t
    while m / t_final > DUALITY_GAP_TOL:
        t_final *= BARRIER_MU
    total_steps = 0
    rows = []
    centered = None
    starts = [(y, point)]
    while True:
        for y, point in starts:   # a predicted start, then its central point
            y, point, stop, steps = _center(barrier, y, point, t, callback)
            total_steps += steps
            floor = stop == ROUNDING_FLOOR
            if floor:
                stop = CENTERED if t < t_final else STALLED
            if stop == CENTERED:
                break
        rows.append((t, y, point.f0, m / t))
        if stop != CENTERED:
            return stop, total_steps, rows, centered
        if not floor:
            centered = rows[-1]
        if t >= t_final:
            return OPTIMAL, total_steps, rows, centered
        t_prev, t = t, min(t * mu, t_final)
        starts = [(y, point)]
        if mu == PASS_BARRIER_MU:
            starts.insert(0, _predict(barrier, y, point, t_prev, t))


def _warm_start(barrier, path):
    """(y, point, t) to resume the barrier from: the last (t, y) of the
    path records, scanned in increasing t, that is strictly feasible and
    whose squared Newton decrement under this barrier at weight t is at
    most WARM_DECREMENT_SQ.  When the first record's point is feasible
    but fails the test, it is tried at t / BARRIER_MU, t / BARRIER_MU**2,
    ... down to INITIAL_T, so the start stays on the grid; None when no
    weight passes or the first point is infeasible."""
    start = None
    for t, y, *_ in path:
        point = barrier.evaluate(y)
        if point is None:
            break
        if -barrier.newton(point, t)[2] > WARM_DECREMENT_SQ:
            while start is None and t > INITIAL_T:
                t /= BARRIER_MU
                if -barrier.newton(point, t)[2] <= WARM_DECREMENT_SQ:
                    start = (y, point, t)
            break
        start = (y, point, t)
    return start


def solve(problem: ConvexFormProblem, y0, *,
          warm_path: list | None = None) -> SolverResult:
    """Solve a convex-form GP to its global optimum from y0, which must be
    strictly feasible for all inequalities (find_feasible supplies one).

    The barrier weight steps by PASS_BARRIER_MU, clamped to the final t
    of the INITIAL_T * BARRIER_MU**i grid, and each centering after the
    first starts at the point _predict takes along the central path.
    warm_path is the path of an earlier solve with the same constraints,
    such as the previous pass of a sequential scheme.  The barrier then
    resumes from the point _warm_start picks, at its t on the same grid,
    so the final t and certified gap are those of a cold solve.  With no
    usable point, or when a warm centering hits the Newton cap or stalls,
    the solve runs cold from y0 at t = INITIAL_T; the warm attempt's steps
    still count.
    """
    barrier = _Barrier(problem.objective_exponents, problem.objective_offsets,
                       problem.constraints)
    y0 = np.asarray(y0, dtype=float)
    point = barrier.evaluate(y0)
    if point is None:
        raise ValueError("y0 is not strictly feasible")

    steps = 0
    warm = _warm_start(barrier, warm_path) if warm_path else None
    if warm is not None:
        status, steps, rows, _ = _central_path(barrier, *warm, mu=PASS_BARRIER_MU)
    if warm is None or status != OPTIMAL:
        status, cold_steps, rows, _ = _central_path(barrier, y0, point, INITIAL_T,
                                                    mu=PASS_BARRIER_MU)
        steps += cold_steps
    _, y, f0, gap = rows[-1]
    return SolverResult(y=y, x=np.exp(y), objective_value=float(np.exp(f0)),
                        status=status, newton_steps_used=steps,
                        certified_gap=gap, path=rows,
                        evaluations=barrier.evaluations)


def find_feasible(problem: ConvexFormProblem) -> FeasibilityResult:
    """Find a strictly feasible point for the problem's inequalities.

    Minimizes an auxiliary slack tau subject to lse_s(y) <= tau, stopping
    as soon as a point with all slacks below -1e-6 appears.  When the
    phase-1 optimum certifies min tau >= -1e-6 the problem is reported
    infeasible (status OPTIMAL) along with the best achieved slack.  A
    path that stops uncertified, such as at the rounding floor of its
    final t, still certifies it when its last record that ended CENTERED
    has tau - m/t >= -1e-6.
    """
    n = problem.n_variables
    cons = problem.constraints
    if not cons.count:
        return FeasibilityResult(True, np.zeros(n), -np.inf, OPTIMAL)

    # extended variable (y, tau); constraints lse_s(y) - tau <= 0 are again
    # LSEs with an exponent of -1 on tau
    ext = PackedConstraints(np.hstack([cons.A, -np.ones((len(cons.b), 1))]),
                            cons.b, cons.sizes)
    obj_a = np.zeros((1, n + 1))
    obj_a[0, -1] = 1.0
    barrier = _Barrier(obj_a, np.zeros(1), ext)

    best_slack = np.inf

    def early_exit(z):   # once per point: the start, then each accepted step
        nonlocal best_slack
        best_slack = min(best_slack, float(cons.shifted_exp(z[:-1])[0].max()))
        return best_slack < -FEASIBILITY_MARGIN

    z = np.zeros(n + 1)
    if early_exit(z):
        return FeasibilityResult(True, np.zeros(n), best_slack, OPTIMAL)
    z[-1] = best_slack + 1.0      # tau = max_s lse_s(0) + 1
    status, _, rows, centered = _central_path(barrier, z, barrier.evaluate(z), INITIAL_T,
                                              callback=early_exit)
    if best_slack < -FEASIBILITY_MARGIN:
        # early_exit stops the path at the first point that clears the margin
        return FeasibilityResult(True, rows[-1][1][:-1], best_slack, OPTIMAL)
    if status != OPTIMAL and centered is not None:
        # a record centered at weight t bounds min tau below by tau - m/t
        _, _, tau, gap = centered
        if tau - gap >= -FEASIBILITY_MARGIN:
            status = OPTIMAL
    return FeasibilityResult(False, None, best_slack, status)

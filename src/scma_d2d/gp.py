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

from dataclasses import dataclass

import numpy as np

from .posynomial import ConvexFormProblem

OPTIMAL = "optimal"
MAX_ITERATIONS = "max_iterations"

# a point counts as strictly feasible when every constraint has at least
# this much negative slack in log form
FEASIBILITY_MARGIN = 1e-6

# the barrier weight t runs through INITIAL_T * BARRIER_MU**i
BARRIER_MU = 10.0
INITIAL_T = 1.0
NEWTON_TOL = 1e-9             # tolerance on the Newton decrement
MAX_NEWTON = 100              # Newton iteration cap per centering
LINE_SEARCH_BACKTRACK = 0.5   # step shrink factor, in (0, 1)
LINE_SEARCH_SLOPE = 0.1       # Armijo constant, in (0, 0.5)
# a warm start resumes only from a recorded central point whose squared
# Newton decrement under the new barrier is at most this
WARM_DECREMENT_SQ = 1.0

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


class PackedConstraints:
    """Several LSEs stacked for vectorized evaluation: block s holds rows
    starts[s] up to the next start.  At least one block is required."""

    def __init__(self, exponent_blocks, offset_blocks):
        self.count = len(exponent_blocks)
        self.A = np.vstack(exponent_blocks)
        self.b = np.concatenate(offset_blocks)
        sizes = np.array([len(b) for b in offset_blocks])
        self.starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        # the first block's row count, and the block of each later row
        self.head = int(sizes[0])
        self.tail_seg = np.repeat(np.arange(1, self.count), sizes[1:])

    def shifted_exp(self, y):
        """(lse value per block, exp(z - block max) per row, per-block sums
        of those exps) at y, where z = A y + b.

        The first block is shifted by its scalar max, so that a large first
        block (the barrier's objective) costs no per-row gather."""
        z = self.A @ y + self.b
        mx = np.maximum.reduceat(z, self.starts)
        z[:self.head] -= mx[0]
        z[self.head:] -= mx[self.tail_seg]
        e = np.exp(z, out=z)
        sums = np.add.reduceat(e, self.starts)
        return mx + np.log(sums), e, sums

    def values(self, y):
        return self.shifted_exp(y)[0]


class _Point:
    """The barrier's arrays at one y: per-block LSE values, exp(z - block
    max) per row and per-block sums of those exps.  None of them depends
    on t, and neither do the derivative parts _Barrier.parts computes
    from them, so those are kept here once computed: a second bundle at
    the same y (a new t at a centering boundary, or the warm-start pick
    that _center starts from) builds no Hessian again."""

    __slots__ = ("vals", "e", "sums", "parts")

    def __init__(self, vals, e, sums):
        self.vals, self.e, self.sums = vals, e, sums
        self.parts = None


class _Barrier:
    """Centering objective t*f0(y) - sum_s log(-f_s(y)).

    The objective's rows are packed in front of the constraints' as block
    0, so one matmul, one exp and one reduceat serve f0 and every f_s.
    With u = -1/f_s, row s of G the LSE gradient of block s and g0 its
    row 0, the gradient is t*g0 + G_con^T u and the Hessian is
    t*H_obj + H_con, where H_obj = A0^T diag(w0) A0 - g0 g0^T is the
    objective's LSE Hessian and H_con = A_con^T diag(w u[block]) A_con +
    G_con^T diag(u^2 - u) G_con, w being the per-block softmax weights.
    g0, G_con^T u, H_obj and H_con do not depend on t.
    """

    def __init__(self, obj_exponents, obj_offsets, con_exponents, con_offsets):
        self.packed = PackedConstraints([obj_exponents, *con_exponents],
                                        [obj_offsets, *con_offsets])
        head = self.packed.head
        self.a0 = self.packed.A[:head]
        self.a_con = self.packed.A[head:]
        # C-contiguous transposes: scaling their columns by row weights and
        # multiplying by A is cheaper than the same product on A.T
        self.a0_t = np.ascontiguousarray(self.a0.T)
        self.a_con_t = np.ascontiguousarray(self.a_con.T)
        self.con_starts = self.packed.starts[1:] - head
        self.con_block = self.packed.tail_seg - 1   # constraint index per row

    def evaluate(self, y):
        """A _Point at y, or None when y is outside the domain (some
        f_s >= 0).  One evaluation serves the line search and every
        later bundle at y."""
        vals, e, sums = self.packed.shifted_exp(y)
        if vals[1:].max(initial=-np.inf) >= 0:
            return None
        return _Point(vals, e, sums)

    @staticmethod
    def phi(vals, t):
        """The barrier value from the per-block LSE values [f0, f_1, ...]."""
        return t * vals[0] - np.log(-vals[1:]).sum()

    def parts(self, point):
        """(g0, G_con^T u, H_obj, H_con) at point."""
        vals, e, sums = point.vals, point.e, point.sums
        head = self.packed.head
        u = -1.0 / vals[1:]
        # block 0's gradient is one gemv over its (possibly thousands of)
        # rows; the small constraint blocks share one reduceat
        g0 = self.a0_t @ e[:head] / sums[0]
        g_con = np.add.reduceat(self.a_con * e[head:, None], self.con_starts, axis=0)
        g_con /= sums[1:, None]
        c_con = e[head:] * (u / sums[1:])[self.con_block]
        h_obj = (self.a0_t * (e[:head] / sums[0])) @ self.a0 - np.outer(g0, g0)
        h_con = (self.a_con_t * c_con) @ self.a_con + (g_con.T * (u * u - u)) @ g_con
        return g0, g_con.T @ u, h_obj, h_con

    def bundle(self, y, t, point=None):
        """(phi, gradient, Hessian, f0) at y; point, when given, is
        evaluate(y) and is used instead of evaluating again.  The
        Hessian is a new array, so the caller may change it."""
        if point is None:
            point = self.evaluate(y)
            if point is None:
                raise FloatingPointError("barrier evaluated outside the domain")
        if point.parts is None:
            point.parts = self.parts(point)
        g0, gu, h_obj, h_con = point.parts
        return self.phi(point.vals, t), t * g0 + gu, t * h_obj + h_con, point.vals[0]


def _regularized_newton_step(hess, grad):
    """Solve hess d = -grad.  The plain solve is returned when it succeeds
    with a finite descent direction (grad . d < 0), as it does for every
    positive definite hess: one factorization per step.  Otherwise a
    Cholesky factorization checks positive definiteness; while it fails,
    1e-12*trace(H) (escalating tenfold) is put on the diagonal of hess, in
    place.  The diagonal and the trace are read at the first failure,
    before hess changes."""
    try:
        delta = np.linalg.solve(hess, -grad)
    except np.linalg.LinAlgError:
        pass
    else:
        if np.isfinite(delta).all() and grad @ delta < 0:
            return delta
    diagonal = None
    for _ in range(60):
        try:
            np.linalg.cholesky(hess)
        except np.linalg.LinAlgError:
            if diagonal is None:
                diagonal = hess.diagonal().copy()
                reg = 1e-12 * max(np.trace(hess), 1.0)
            else:
                reg *= 10.0
            hess.flat[::len(grad) + 1] = diagonal + reg
            continue
        return np.linalg.solve(hess, -grad)
    raise np.linalg.LinAlgError("Newton system could not be regularized")


def _newton_direction(barrier, y, t, point):
    """(phi, Newton step, grad . step) at y; -grad . step is the squared
    Newton decrement."""
    val, grad, hess, _ = barrier.bundle(y, t, point)
    delta = _regularized_newton_step(hess, grad)
    return val, delta, float(grad @ delta)


def _center(barrier, y, point, t, callback=None):
    """Damped Newton to the analytic center for barrier weight t, from y
    with point = barrier.evaluate(y).

    Stops when the Newton decrement (the H^-1-weighted gradient norm)
    falls below NEWTON_TOL or below the float64 rounding floor of the
    barrier value itself: at large t the barrier magnitude reaches ~t*|f0|
    and quadratic-model improvements smaller than eps times that are not
    representable, so demanding more would spin.  Returns (y, point,
    centered, steps) at the point reached.
    """
    steps = 0
    eps = np.finfo(float).eps
    for _ in range(MAX_NEWTON):
        val, delta, descent = _newton_direction(barrier, y, t, point)
        decrement = np.sqrt(max(-descent, 0.0))
        noise_floor = np.sqrt(32.0 * eps * abs(val))
        if decrement <= max(NEWTON_TOL, noise_floor):
            return y, point, True, steps
        alpha = 1.0
        accepted = None
        while alpha >= 1e-18:
            cand = y + alpha * delta
            cand_point = barrier.evaluate(cand)
            if cand_point is not None:
                cand_val = barrier.phi(cand_point.vals, t)
                if cand_val <= val + LINE_SEARCH_SLOPE * alpha * descent:
                    accepted = cand
                    break
            alpha *= LINE_SEARCH_BACKTRACK
        if accepted is None or cand_val >= val:
            # rounding floor: no representable progress possible
            return y, point, True, steps
        y, point = accepted, cand_point
        steps += 1
        if callback is not None and callback(y):
            return y, point, True, steps
    return y, point, False, steps


def _central_path(barrier, y, point, t, callback=None):
    """Center at barrier weight t, then BARRIER_MU times more each round,
    until callback(y) asks to stop, a centering hits the Newton cap, or
    the certified gap m/t is at most DUALITY_GAP_TOL.

    Returns (status, steps, rows) with one (t, y, f0, m/t) row per
    centering; status is MAX_ITERATIONS after a capped centering and OPTIMAL
    otherwise.
    """
    m = barrier.packed.count - 1
    total_steps = 0
    rows = []
    while True:
        y, point, centered, steps = _center(barrier, y, point, t, callback)
        total_steps += steps
        rows.append((t, y, point.vals[0], m / t))
        if callback is not None and callback(y):
            return OPTIMAL, total_steps, rows
        if not centered:
            return MAX_ITERATIONS, total_steps, rows
        if m / t <= DUALITY_GAP_TOL:
            return OPTIMAL, total_steps, rows
        t *= BARRIER_MU


def _warm_start(barrier, path):
    """(y, point, t) to resume the barrier from: the last (t, y) of the
    path records, scanned in increasing t, that is strictly feasible and
    whose squared Newton decrement under this barrier at weight t is at
    most WARM_DECREMENT_SQ; None when the first point already fails."""
    start = None
    for t, y, *_ in path:
        point = barrier.evaluate(y)
        if point is None:
            break
        if -_newton_direction(barrier, y, t, point)[2] > WARM_DECREMENT_SQ:
            break
        start = (y, point, t)
    return start


def solve(problem: ConvexFormProblem, y0, *,
          warm_path: list | None = None) -> SolverResult:
    """Solve a convex-form GP to its global optimum from y0, which must be
    strictly feasible for all inequalities (find_feasible supplies one).

    warm_path is the path of an earlier solve with the same constraints,
    such as the previous pass of a sequential scheme.  The barrier then
    resumes from the point _warm_start picks, at its t on the same
    INITIAL_T * BARRIER_MU**i grid, so the final t and certified gap are
    those of a cold solve.  With no usable point, or when a warm
    centering hits the Newton cap, the solve runs cold from y0 at
    t = INITIAL_T; the capped attempt's steps still count.
    """
    barrier = _Barrier(problem.objective_exponents, problem.objective_offsets,
                       problem.constraint_exponents, problem.constraint_offsets)
    y0 = np.asarray(y0, dtype=float)
    point = barrier.evaluate(y0)
    if point is None:
        raise ValueError("y0 is not strictly feasible")

    steps = 0
    warm = _warm_start(barrier, warm_path) if warm_path else None
    if warm is not None:
        status, steps, rows = _central_path(barrier, *warm)
    if warm is None or status == MAX_ITERATIONS:
        status, cold_steps, rows = _central_path(barrier, y0, point, INITIAL_T)
        steps += cold_steps
    _, y, f0, gap = rows[-1]
    return SolverResult(y=y, x=np.exp(y), objective_value=float(np.exp(f0)),
                        status=status, newton_steps_used=steps,
                        certified_gap=gap, path=rows)


def find_feasible(problem: ConvexFormProblem) -> FeasibilityResult:
    """Find a strictly feasible point for the problem's inequalities.

    Minimizes an auxiliary slack tau subject to lse_s(y) <= tau, stopping
    as soon as a point with all slacks below -1e-6 appears.  When the
    phase-1 optimum certifies min tau >= -1e-6 the problem is reported
    infeasible along with the best achieved slack.
    """
    n = problem.n_variables
    if not problem.constraint_exponents:
        return FeasibilityResult(True, np.zeros(n), -np.inf, OPTIMAL)
    packed = PackedConstraints(problem.constraint_exponents,
                               problem.constraint_offsets)

    # extended variable (y, tau); constraints lse_s(y) - tau <= 0 are again
    # LSEs with an exponent of -1 on tau
    ext_a = [np.hstack([a, -np.ones((len(a), 1))])
             for a in problem.constraint_exponents]
    obj_a = np.zeros((1, n + 1))
    obj_a[0, -1] = 1.0
    barrier = _Barrier(obj_a, np.zeros(1), ext_a, problem.constraint_offsets)

    y = np.zeros(n)
    tau = float(packed.values(y).max()) + 1.0
    z = np.concatenate([y, [tau]])
    best_slack = tau - 1.0

    def early_exit(point):
        nonlocal best_slack
        slack = float(packed.values(point[:-1]).max())
        best_slack = min(best_slack, slack)
        return slack < -FEASIBILITY_MARGIN

    if early_exit(z):
        return FeasibilityResult(True, y, best_slack, OPTIMAL)
    status, _, rows = _central_path(barrier, z, barrier.evaluate(z), INITIAL_T,
                                    callback=early_exit)
    if best_slack < -FEASIBILITY_MARGIN:
        # early_exit stops the path at the first point that clears the margin
        return FeasibilityResult(True, rows[-1][1][:-1], best_slack, OPTIMAL)
    return FeasibilityResult(False, None, best_slack, status)

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
INFEASIBLE = "infeasible"
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

# certified gap (log-objective units) at exit; 1e-9 keeps each allocator
# pass's certified suboptimality well inside its 1e-8-bit ascent budget
DUALITY_GAP_TOL = 1e-9


@dataclass
class SolverResult:
    y: np.ndarray | None
    x: np.ndarray | None
    objective_value: float
    status: str
    newton_steps_used: int
    certified_gap: float


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


def objective_gradient_hessian(problem: ConvexFormProblem, y):
    """Value, gradient and Hessian of the convex-form objective at y."""
    y = np.asarray(y, dtype=float)
    return logsumexp_bundle(problem.objective_exponents, problem.objective_offsets, y)


class PackedConstraints:
    """All inequality LSEs stacked for vectorized evaluation."""

    def __init__(self, exponent_blocks, offset_blocks, n):
        self.count = len(exponent_blocks)
        if self.count:
            self.A = np.vstack(exponent_blocks)
            self.b = np.concatenate(offset_blocks)
            sizes = np.array([len(b) for b in offset_blocks])
            self.starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
            self.seg = np.repeat(np.arange(self.count), sizes)
        else:
            self.A = np.zeros((0, n))
            self.b = np.zeros(0)
            self.starts = np.zeros(0, dtype=int)
            self.seg = np.zeros(0, dtype=int)

    def values(self, y):
        if not self.count:
            return np.zeros(0)
        z = self.A @ y + self.b
        mx = np.maximum.reduceat(z, self.starts)
        sums = np.add.reduceat(np.exp(z - mx[self.seg]), self.starts)
        return mx + np.log(sums)

    def values_and_weights(self, y):
        if not self.count:
            return np.zeros(0), np.zeros(0)
        z = self.A @ y + self.b
        mx = np.maximum.reduceat(z, self.starts)
        e = np.exp(z - mx[self.seg])
        sums = np.add.reduceat(e, self.starts)
        return mx + np.log(sums), e / sums[self.seg]


class _Barrier:
    """Centering objective t*f0(y) - sum_s log(-f_s(y))."""

    def __init__(self, obj_exponents, obj_offsets, packed):
        self.a0 = obj_exponents
        self.b0 = obj_offsets
        self.packed = packed

    def value(self, y, t):
        """phi(y) or None when y is outside the domain (some f_s >= 0)."""
        vals = self.packed.values(y)
        if vals.size and vals.max() >= 0:
            return None
        z = self.a0 @ y + self.b0
        m = z.max()
        f0 = m + np.log(np.exp(z - m).sum())
        return t * f0 - np.log(-vals).sum(), f0

    def bundle(self, y, t):
        f0, g0, h0 = logsumexp_bundle(self.a0, self.b0, y)
        vals, w = self.packed.values_and_weights(y)
        if vals.size and vals.max() >= 0:
            raise FloatingPointError("barrier evaluated outside the domain")
        u = -1.0 / vals if vals.size else vals
        p = self.packed
        if p.count:
            quad = p.A.T @ (p.A * (w * u[p.seg])[:, None])
            grads = np.add.reduceat(p.A * w[:, None], p.starts, axis=0)
            grad = t * g0 + grads.T @ u
            hess = t * h0 + quad + grads.T @ ((u * u - u)[:, None] * grads)
            val = t * f0 - np.log(-vals).sum()
        else:
            grad = t * g0
            hess = t * h0
            val = t * f0
        return val, grad, hess, f0


def _regularized_newton_step(hess, grad):
    """Solve hess d = -grad by Cholesky, adding 1e-12*trace(H) (escalating
    tenfold) to the diagonal whenever factorization fails."""
    n = len(grad)
    reg = 0.0
    base = 1e-12 * max(np.trace(hess), 1.0)
    for _ in range(60):
        try:
            low = np.linalg.cholesky(hess + reg * np.eye(n))
        except np.linalg.LinAlgError:
            reg = base if reg == 0.0 else reg * 10.0
            continue
        rhs = np.linalg.solve(low, -grad)
        return np.linalg.solve(low.T, rhs)
    raise np.linalg.LinAlgError("Newton system could not be regularized")


def _center(barrier, y, t, callback=None):
    """Damped Newton to the analytic center for barrier weight t.

    Stops when the Newton decrement (the H^-1-weighted gradient norm)
    falls below NEWTON_TOL or below the float64 rounding floor of the
    barrier value itself: at large t the barrier magnitude reaches ~t*|f0|
    and quadratic-model improvements smaller than eps times that are not
    representable, so demanding more would spin.  Returns (y, centered,
    steps).
    """
    steps = 0
    eps = np.finfo(float).eps
    for _ in range(MAX_NEWTON):
        val, grad, hess, _ = barrier.bundle(y, t)
        delta = _regularized_newton_step(hess, grad)
        descent = float(grad @ delta)
        decrement = np.sqrt(max(-descent, 0.0))
        noise_floor = np.sqrt(32.0 * eps * abs(val))
        if decrement <= max(NEWTON_TOL, noise_floor):
            return y, True, steps
        alpha = 1.0
        accepted = None
        while alpha >= 1e-18:
            cand = y + alpha * delta
            got = barrier.value(cand, t)
            if got is not None and got[0] <= val + LINE_SEARCH_SLOPE * alpha * descent:
                accepted = cand
                break
            alpha *= LINE_SEARCH_BACKTRACK
        if accepted is None or got[0] >= val:
            # rounding floor: no representable progress possible
            return y, True, steps
        y = accepted
        steps += 1
        if callback is not None and callback(y):
            return y, True, steps
    return y, False, steps


def _central_path(barrier, y, callback=None):
    """Center at t = INITIAL_T, then BARRIER_MU times more each round,
    until callback(y) asks to stop, a centering hits the Newton cap, or
    the certified gap m/t is at most DUALITY_GAP_TOL.

    Returns (y, t, status, steps, rows) with one (outer, t, f0, gap) row
    per centering; status is MAX_ITERATIONS after a capped centering and
    OPTIMAL otherwise.
    """
    m = barrier.packed.count
    t = INITIAL_T
    total_steps = 0
    rows = []
    while True:
        y, centered, steps = _center(barrier, y, t, callback)
        total_steps += steps
        _, f0 = barrier.value(y, t)
        rows.append((len(rows), t, f0, m / t))
        if callback is not None and callback(y):
            return y, t, OPTIMAL, total_steps, rows
        if not centered:
            return y, t, MAX_ITERATIONS, total_steps, rows
        if m / t <= DUALITY_GAP_TOL:
            return y, t, OPTIMAL, total_steps, rows
        t *= BARRIER_MU


def _trace_write(path, rows):
    with open(path, "w") as fh:
        fh.write("outer_iteration,t,objective,gap\n")
        for outer, t, f0, gap in rows:
            fh.write(f"{outer},{float(t)!r},{float(f0)!r},{float(gap)!r}\n")


def solve(problem: ConvexFormProblem, y0=None, *,
          trace_path: str | None = None) -> SolverResult:
    """Solve a convex-form GP to its global optimum.

    y0 must be strictly feasible for all inequalities when given; when
    omitted, find_feasible supplies one.  Returns status "infeasible"
    when phase-1 certifies that no strictly feasible point exists.
    trace_path, when set, names a CSV of (outer, t, objective, gap), one
    row per centering.
    """
    if y0 is None:
        feas = find_feasible(problem)
        if not feas.feasible:
            status = MAX_ITERATIONS if feas.status == MAX_ITERATIONS else INFEASIBLE
            return SolverResult(None, None, np.nan, status, 0, np.inf)
        y0 = feas.y
    packed = PackedConstraints(problem.constraint_exponents,
                               problem.constraint_offsets, problem.n_variables)
    y = np.asarray(y0, dtype=float)
    vals = packed.values(y)
    if vals.size and vals.max() >= 0:
        raise ValueError("y0 is not strictly feasible")

    barrier = _Barrier(problem.objective_exponents, problem.objective_offsets, packed)
    y, t, status, steps, rows = _central_path(barrier, y)
    if trace_path is not None:
        _trace_write(trace_path, rows)
    f0 = rows[-1][2]
    return SolverResult(y=y, x=np.exp(y), objective_value=float(np.exp(f0)),
                        status=status, newton_steps_used=steps,
                        certified_gap=packed.count / t)


def find_feasible(problem: ConvexFormProblem) -> FeasibilityResult:
    """Find a strictly feasible point for the problem's inequalities.

    Minimizes an auxiliary slack tau subject to lse_s(y) <= tau, stopping
    as soon as a point with all slacks below -1e-6 appears.  When the
    phase-1 optimum certifies min tau >= -1e-6 the problem is reported
    infeasible along with the best achieved slack.
    """
    n = problem.n_variables
    packed = PackedConstraints(problem.constraint_exponents,
                               problem.constraint_offsets, n)
    if packed.count == 0:
        return FeasibilityResult(True, np.zeros(n), -np.inf, OPTIMAL)

    # extended variable (y, tau); constraints lse_s(y) - tau <= 0 are again
    # LSEs with an exponent of -1 on tau
    ext_a = [np.hstack([a, -np.ones((len(a), 1))])
             for a in problem.constraint_exponents]
    ext_packed = PackedConstraints(ext_a, problem.constraint_offsets, n + 1)
    obj_a = np.zeros((1, n + 1))
    obj_a[0, -1] = 1.0
    barrier = _Barrier(obj_a, np.zeros(1), ext_packed)

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
    z, _, status, _, _ = _central_path(barrier, z, callback=early_exit)
    if best_slack < -FEASIBILITY_MARGIN:
        # early_exit stops the path at the first point that clears the margin
        return FeasibilityResult(True, z[:-1], best_slack, OPTIMAL)
    return FeasibilityResult(False, None, best_slack, status)

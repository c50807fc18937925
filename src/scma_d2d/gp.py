"""Barrier interior-point solver for convex-form geometric programs.

Solves   min  lse_0(y)   s.t.  lse_s(y) <= 0,  A_eq y + b_eq = 0
where lse(y) = log sum_m exp(a_m.y + b_m).  The problem is convex, so the
primal barrier method with damped Newton centering reaches the global
optimum with a certified gap of (number of inequalities) / t at barrier
weight t.  Affine equalities are eliminated up front (y = y_p + Z v with Z
a nullspace basis), which the power-allocation pipeline never needs but
the standard form admits.

All log-sum-exp evaluations are max-shifted, so exponents of several
hundred in magnitude are handled without overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .posynomial import ConvexFormProblem

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
MAX_ITERATIONS = "max_iterations"

# a point counts as strictly feasible when every constraint has at least
# this much negative slack in log form
FEASIBILITY_MARGIN = 1e-6


@dataclass
class SolverSettings:
    barrier_mu: float = 10.0            # multiplicative barrier update, > 1
    initial_t: float = 1.0              # starting barrier weight
    newton_tol: float = 1e-9            # tolerance on the Newton decrement
    max_newton: int = 100               # Newton iteration cap per centering
    duality_gap_tol: float = 1e-8       # certified gap (log-objective units) at exit
    line_search_backtrack: float = 0.5  # step shrink factor, in (0, 1)
    line_search_slope: float = 0.1      # Armijo constant, in (0, 0.5)
    trace_path: str | None = None       # CSV of (outer, t, objective, gap) when set

    def __post_init__(self):
        if not self.barrier_mu > 1:
            raise ValueError("barrier_mu must be > 1")
        if not 0 < self.line_search_backtrack < 1:
            raise ValueError("line_search_backtrack must be in (0, 1)")
        if not 0 < self.line_search_slope < 0.5:
            raise ValueError("line_search_slope must be in (0, 0.5)")


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


def _center(barrier, y, t, settings, callback=None):
    """Damped Newton to the analytic center for barrier weight t.

    Stops when the Newton decrement (the H^-1-weighted gradient norm)
    falls below newton_tol or below the float64 rounding floor of the
    barrier value itself: at large t the barrier magnitude reaches ~t*|f0|
    and quadratic-model improvements smaller than eps times that are not
    representable, so demanding more would spin.  Returns (y, centered,
    steps).
    """
    steps = 0
    eps = np.finfo(float).eps
    for _ in range(settings.max_newton):
        val, grad, hess, _ = barrier.bundle(y, t)
        delta = _regularized_newton_step(hess, grad)
        descent = float(grad @ delta)
        decrement = np.sqrt(max(-descent, 0.0))
        noise_floor = np.sqrt(32.0 * eps * abs(val))
        if decrement <= max(settings.newton_tol, noise_floor):
            return y, True, steps
        alpha = 1.0
        accepted = None
        while alpha >= 1e-18:
            cand = y + alpha * delta
            got = barrier.value(cand, t)
            if got is not None and got[0] <= val + settings.line_search_slope * alpha * descent:
                accepted = cand
                break
            alpha *= settings.line_search_backtrack
        if accepted is None or got[0] >= val:
            # rounding floor: no representable progress possible
            return y, True, steps
        y = accepted
        steps += 1
        if callback is not None and callback(y):
            return y, True, steps
    return y, False, steps


def _nullspace_map(a_eq, b_eq):
    """Particular solution and nullspace basis of A y + b = 0."""
    y_p, *_ = np.linalg.lstsq(a_eq, -b_eq, rcond=None)
    if not np.allclose(a_eq @ y_p + b_eq, 0.0, atol=1e-9):
        return None, None
    _, sing, vh = np.linalg.svd(a_eq)
    tol = max(a_eq.shape) * np.finfo(float).eps * (sing[0] if sing.size else 0.0)
    rank = int((sing > tol).sum())
    return y_p, vh[rank:].T


def _reduce_equalities(problem):
    """Eliminate affine equalities; returns (obj_a, obj_b, cons_a, cons_b,
    y_particular, basis) in the reduced variable, or None if inconsistent."""
    a_eq, b_eq = problem.equality_exponents, problem.equality_offsets
    if len(b_eq) == 0:
        n = problem.n_variables
        return (problem.objective_exponents, problem.objective_offsets,
                problem.constraint_exponents, problem.constraint_offsets,
                np.zeros(n), np.eye(n))
    y_p, basis = _nullspace_map(a_eq, b_eq)
    if y_p is None:
        return None
    obj_a = problem.objective_exponents @ basis
    obj_b = problem.objective_offsets + problem.objective_exponents @ y_p
    cons_a = [a @ basis for a in problem.constraint_exponents]
    cons_b = [b + a @ y_p for a, b in zip(problem.constraint_exponents,
                                          problem.constraint_offsets)]
    return obj_a, obj_b, cons_a, cons_b, y_p, basis


def _trace_write(settings, rows):
    if settings.trace_path is None:
        return
    with open(settings.trace_path, "w") as fh:
        fh.write("outer_iteration,t,objective,gap\n")
        for outer, t, f0, gap in rows:
            fh.write(f"{outer},{float(t)!r},{float(f0)!r},{float(gap)!r}\n")


def solve(problem: ConvexFormProblem, y0=None,
          settings: SolverSettings | None = None) -> SolverResult:
    """Solve a convex-form GP to its global optimum.

    y0 must be strictly feasible for all inequalities when given; when
    omitted, a phase-1 problem is solved first.  Returns status
    "infeasible" (with the phase-1 certificate folded into max_slack
    reporting) when no strictly feasible point exists.
    """
    settings = settings or SolverSettings()
    reduced = _reduce_equalities(problem)
    if reduced is None:
        return SolverResult(None, None, np.nan, INFEASIBLE, 0, np.inf)
    obj_a, obj_b, cons_a, cons_b, y_p, basis = reduced
    n_red = basis.shape[1]
    packed = PackedConstraints(cons_a, cons_b, n_red)

    if y0 is not None:
        y0 = np.asarray(y0, dtype=float)
        if len(problem.equality_offsets) and not np.allclose(
                problem.equality_exponents @ y0 + problem.equality_offsets, 0.0,
                atol=1e-9):
            raise ValueError("y0 violates the equality constraints")
        v = basis.T @ (y0 - y_p)
        vals = packed.values(v)
        if vals.size and vals.max() >= 0:
            raise ValueError("y0 is not strictly feasible")
    else:
        feas = _find_feasible_reduced(packed, n_red, settings)
        if not feas.feasible:
            status = MAX_ITERATIONS if feas.status == MAX_ITERATIONS else INFEASIBLE
            return SolverResult(None, None, np.nan, status, 0, np.inf)
        v = feas.y

    barrier = _Barrier(obj_a, obj_b, packed)
    m = packed.count
    t = settings.initial_t
    total_steps = 0
    status = OPTIMAL
    trace_rows = []
    outer = 0
    while True:
        v, centered, steps = _center(barrier, v, t, settings)
        total_steps += steps
        if not centered:
            status = MAX_ITERATIONS
        gap = m / t
        _, f0 = barrier.value(v, t)
        trace_rows.append((outer, t, f0, gap))
        if gap <= settings.duality_gap_tol or status == MAX_ITERATIONS:
            break
        t *= settings.barrier_mu
        outer += 1
    _trace_write(settings, trace_rows)

    y = y_p + basis @ v
    _, f0 = barrier.value(v, t)
    return SolverResult(y=y, x=np.exp(y), objective_value=float(np.exp(f0)),
                        status=status, newton_steps_used=total_steps,
                        certified_gap=m / t)


def _find_feasible_reduced(packed, n, settings) -> FeasibilityResult:
    """Phase-1 in the (already equality-reduced) variable space."""
    if packed.count == 0:
        return FeasibilityResult(True, np.zeros(n), -np.inf, OPTIMAL)

    # extended variable (v, tau); constraints lse_s(v) - tau <= 0 are again
    # LSEs with an exponent of -1 on tau
    ext_a = [np.hstack([a, -np.ones((len(a), 1))])
             for a in np.split(packed.A, packed.starts[1:])]
    ext_b = list(np.split(packed.b, packed.starts[1:]))
    ext_packed = PackedConstraints(ext_a, ext_b, n + 1)
    obj_a = np.zeros((1, n + 1))
    obj_a[0, -1] = 1.0
    obj_b = np.zeros(1)
    barrier = _Barrier(obj_a, obj_b, ext_packed)

    v = np.zeros(n)
    tau = float(packed.values(v).max()) + 1.0
    z = np.concatenate([v, [tau]])
    best_slack = tau - 1.0

    def early_exit(point):
        nonlocal best_slack
        slack = float(packed.values(point[:-1]).max())
        best_slack = min(best_slack, slack)
        return slack < -FEASIBILITY_MARGIN

    if early_exit(z):
        return FeasibilityResult(True, v, best_slack, OPTIMAL)

    m = ext_packed.count
    t = settings.initial_t
    gap_tol = max(settings.duality_gap_tol, 1e-9)
    status = OPTIMAL
    while True:
        z, centered, _ = _center(barrier, z, t, settings, callback=early_exit)
        if early_exit(z):
            return FeasibilityResult(True, z[:-1], best_slack, OPTIMAL)
        if not centered:
            status = MAX_ITERATIONS
            break
        if m / t <= gap_tol:
            break
        t *= settings.barrier_mu
    return FeasibilityResult(False, None, best_slack, status)


def find_feasible(problem: ConvexFormProblem,
                  settings: SolverSettings | None = None) -> FeasibilityResult:
    """Find a strictly feasible point for the problem's inequalities.

    Minimizes an auxiliary slack tau subject to lse_s(y) <= tau, stopping
    as soon as a point with all slacks below -1e-6 appears.  When the
    phase-1 optimum certifies min tau >= -1e-6 the problem is reported
    infeasible along with the best achieved slack.
    """
    settings = settings or SolverSettings()
    reduced = _reduce_equalities(problem)
    if reduced is None:
        return FeasibilityResult(False, None, np.inf, INFEASIBLE)
    _, _, cons_a, cons_b, y_p, basis = reduced
    n_red = basis.shape[1]
    packed = PackedConstraints(cons_a, cons_b, n_red)
    res = _find_feasible_reduced(packed, n_red, settings)
    if res.y is not None:
        res = replace(res, y=y_p + basis @ res.y)
    return res

"""Tests for the barrier interior-point GP solver."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from conftest import make_scenario
from hypothesis import strategies as st

from scma_d2d import allocation, gp
from scma_d2d.gp import (
    MAX_ITERATIONS,
    OPTIMAL,
    FeasibilityResult,
    find_feasible,
    logsumexp_bundle,
    solve,
)
from scma_d2d.posynomial import (
    ConvexFormProblem,
    Monomial,
    Posynomial,
    to_convex_form,
)


def lse_problem(registry, obj_a, obj_b, cons=()):
    """Assemble a ConvexFormProblem directly from exponent/offset arrays."""
    n = len(registry)
    return ConvexFormProblem(
        registry=tuple(registry),
        objective_exponents=np.asarray(obj_a, dtype=float).reshape(-1, n),
        objective_offsets=np.asarray(obj_b, dtype=float).reshape(-1),
        constraint_exponents=[np.asarray(a, dtype=float).reshape(-1, n) for a, _ in cons],
        constraint_offsets=[np.asarray(b, dtype=float).reshape(-1) for _, b in cons],
    )


class TestAnalyticOptima:
    def test_minimize_x_with_reciprocal_cap(self):
        """min x s.t. 1/x <= 1 has the tight solution x = 1."""
        reg = ("x",)
        obj = Monomial.from_powers(reg, 1.0, {"x": 1}).as_posynomial()
        con = Monomial.from_powers(reg, 1.0, {"x": -1}).as_posynomial()
        res = solve(to_convex_form(obj, constraints=[con]), y0=np.array([1.0]))
        assert res.status == OPTIMAL
        assert res.x[0] == pytest.approx(1.0, rel=1e-6)
        assert res.objective_value == pytest.approx(1.0, rel=1e-6)

    def test_minimize_x_plus_reciprocal(self):
        """min x + 1/x, unconstrained, has minimum value 2 at x = 1."""
        reg = ("x",)
        obj = Posynomial.from_monomials([
            Monomial.from_powers(reg, 1.0, {"x": 1}),
            Monomial.from_powers(reg, 1.0, {"x": -1}),
        ])
        res = solve(to_convex_form(obj), y0=np.array([0.4]))
        assert res.status == OPTIMAL
        assert res.x[0] == pytest.approx(1.0, rel=1e-6)
        assert res.objective_value == pytest.approx(2.0, rel=1e-6)

    def test_reciprocal_product_under_caps(self):
        """min 1/(x1 x2) s.t. x1 <= 2, x2 <= 3 pushes both caps tight."""
        reg = ("x1", "x2")
        obj = Monomial.from_powers(reg, 1.0, {"x1": -1, "x2": -1}).as_posynomial()
        cons = [
            Monomial.from_powers(reg, 0.5, {"x1": 1}).as_posynomial(),
            Monomial.from_powers(reg, 1 / 3, {"x2": 1}).as_posynomial(),
        ]
        res = solve(to_convex_form(obj, constraints=cons), y0=np.zeros(2))
        assert res.status == OPTIMAL
        assert res.x == pytest.approx([2.0, 3.0], rel=1e-6)
        assert res.objective_value == pytest.approx(1 / 6, rel=1e-6)

        # independent check: exhaustive scan over a feasible grid
        grid1 = np.linspace(0.05, 2.0, 100)
        grid2 = np.linspace(0.05, 3.0, 100)
        vals = 1.0 / np.outer(grid1, grid2)
        assert res.objective_value == pytest.approx(vals.min(), rel=1e-6)


class TestDerivatives:
    def test_single_term_is_affine(self):
        p = lse_problem(("a", "b"), [[2.0, -1.0]], [0.3])
        val, grad, hess = logsumexp_bundle(p.objective_exponents, p.objective_offsets,
                                           np.array([0.1, 0.2]))
        assert val == pytest.approx(2.0 * 0.1 - 0.2 + 0.3)
        assert np.allclose(grad, [2.0, -1.0])
        assert np.allclose(hess, 0.0)

    def test_symmetric_terms_cancel_at_origin(self):
        p = lse_problem(("y",), [[1.0], [-1.0]], [0.0, 0.0])
        _, grad, _ = logsumexp_bundle(p.objective_exponents, p.objective_offsets,
                                      np.zeros(1))
        assert np.allclose(grad, 0.0, atol=1e-15)

    def test_matches_finite_differences(self):
        """Gradients and Hessians agree with central differences on random
        4-term instances."""
        rng = np.random.default_rng(17)
        h = 1e-5
        for _ in range(20):
            n = rng.integers(2, 5)
            A = rng.normal(size=(4, n))
            b = rng.normal(size=4)
            p = lse_problem(tuple(f"v{i}" for i in range(n)), A, b)
            y = rng.normal(size=n)
            val, grad, hess = logsumexp_bundle(p.objective_exponents, p.objective_offsets, y)

            def f(point):
                z = A @ point + b
                m = z.max()
                return m + np.log(np.exp(z - m).sum())

            for i in range(n):
                ei = np.zeros(n)
                ei[i] = h
                assert grad[i] == pytest.approx((f(y + ei) - f(y - ei)) / (2 * h),
                                                rel=1e-5, abs=1e-7)
                for j in range(n):
                    ej = np.zeros(n)
                    ej[j] = h
                    fd = (f(y + ei + ej) - f(y + ei - ej)
                          - f(y - ei + ej) + f(y - ei - ej)) / (4 * h * h)
                    assert hess[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-5)

    def test_hessian_psd(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(6, 3))
        b = rng.normal(size=6)
        p = lse_problem(("a", "b", "c"), A, b)
        _, _, hess = logsumexp_bundle(p.objective_exponents, p.objective_offsets,
                                      rng.normal(size=3))
        assert np.linalg.eigvalsh(hess).min() >= -1e-12


def barrier_case(seed, n, obj_rows, con_sizes):
    """A barrier with random LSE blocks and a point y strictly inside
    every constraint: block s's offsets are shifted so that
    lse_s(y) = -margin_s with margins in [0.2, 3]."""
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n)
    obj_a = rng.normal(size=(obj_rows, n))
    obj_b = rng.normal(size=obj_rows)
    cons = []
    for size in con_sizes:
        a = rng.normal(size=(size, n))
        b = rng.normal(size=size)
        lse = logsumexp_bundle(a, b, y)[0]
        cons.append((a, b - lse - rng.uniform(0.2, 3.0)))
    barrier = gp._Barrier(obj_a, obj_b, [a for a, _ in cons], [b for _, b in cons])
    return barrier, y, (obj_a, obj_b), cons


def barrier_oracle(obj, cons, y, t):
    """phi, gradient and Hessian of t*f0 - sum log(-f_s), assembled from
    logsumexp_bundle per block."""
    f0, g0, h0 = logsumexp_bundle(*obj, y)
    phi, grad, hess = t * f0, t * g0, t * h0
    for a, b in cons:
        f, g, h = logsumexp_bundle(a, b, y)
        u = -1.0 / f
        phi -= np.log(-f)
        grad = grad + u * g
        hess = hess + u * h + u * u * np.outer(g, g)
    return phi, grad, hess


class TestPackedBarrier:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
           obj_rows=st.sampled_from([1, 2, 7, 4096]),
           con_sizes=st.lists(st.integers(1, 5), max_size=8),
           t=st.floats(0.5, 50.0))
    @example(seed=1, n=3, obj_rows=4096, con_sizes=[], t=2.0)
    @example(seed=2, n=4, obj_rows=1, con_sizes=[1, 1, 1], t=10.0)
    @example(seed=3, n=5, obj_rows=4096, con_sizes=[1, 3, 1, 5], t=40.0)
    def test_matches_oracle_and_finite_differences(self, seed, n, obj_rows,
                                                    con_sizes, t):
        """Value, gradient and Hessian of the packed barrier against the
        per-block logsumexp_bundle oracle, and the gradient and Hessian
        against central differences of the value and the gradient.  Cases
        include no constraints, single-term blocks and a 4096-row
        objective."""
        barrier, y, obj, cons = barrier_case(seed, n, obj_rows, con_sizes)
        phi, grad, hess, f0 = barrier.bundle(y, t)
        want_phi, want_grad, want_hess = barrier_oracle(obj, cons, y, t)
        scale = 1.0 + np.abs(want_grad).max() + np.abs(want_hess).max()
        want_f0 = logsumexp_bundle(*obj, y)[0]
        assert f0 == pytest.approx(want_f0, rel=1e-12, abs=1e-12)
        assert phi == pytest.approx(want_phi, rel=1e-12, abs=1e-12)
        assert barrier.phi(barrier.evaluate(y).vals, t) == pytest.approx(
            phi, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-10, atol=1e-10 * scale)
        np.testing.assert_allclose(hess, want_hess, rtol=1e-10, atol=1e-10 * scale)

        h = 1e-5
        fd_grad = np.empty(n)
        fd_hess = np.empty((n, n))
        for i in range(n):
            step = np.zeros(n)
            step[i] = h
            fd_grad[i] = (barrier.phi(barrier.evaluate(y + step).vals, t)
                          - barrier.phi(barrier.evaluate(y - step).vals, t)) / (2 * h)
            fd_hess[:, i] = (barrier.bundle(y + step, t)[1]
                             - barrier.bundle(y - step, t)[1]) / (2 * h)
        np.testing.assert_allclose(grad, fd_grad, rtol=1e-5, atol=1e-5 * scale)
        np.testing.assert_allclose(hess, fd_hess, rtol=1e-5, atol=1e-5 * scale)

    def test_outside_domain(self):
        """A point where some f_s >= 0 has no value and no bundle."""
        barrier, y, _, cons = barrier_case(3, 2, 3, [2, 1])
        a, _ = cons[1]
        far = y + 50.0 * a[0] / np.linalg.norm(a[0])
        assert barrier.evaluate(far) is None
        with pytest.raises(FloatingPointError):
            barrier.bundle(far, 1.0)


class TestPointReuse:
    @pytest.mark.parametrize("obj_rows, con_sizes", [(4096, [1, 3, 1, 5]), (7, []),
                                                     (2, [2, 1])])
    def test_bundle_at_new_t_equals_fresh_barrier(self, obj_rows, con_sizes):
        """Bundles at t and then at 10 t from one evaluated point equal,
        bit for bit, the bundles of a fresh barrier at the same y."""
        barrier, y, _, _ = barrier_case(5, 4, obj_rows, con_sizes)
        point = barrier.evaluate(y)
        first = barrier.bundle(y, 3.0, point)
        assert point.parts is not None
        second = barrier.bundle(y, 30.0, point)
        for t, got in ((3.0, first), (30.0, second)):
            fresh = barrier_case(5, 4, obj_rows, con_sizes)[0].bundle(y, t)
            for a, b in zip(got, fresh):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_allocate_builds_each_hessian_once(self, monkeypatch):
        """In one J_D = 2 allocate, every bundled point builds its t-free
        parts once: centering boundaries (t -> BARRIER_MU t at the same y)
        and the warm-start pick that _center starts from add no build."""
        builds, bundled, reused_starts = [], {}, []
        real_parts, real_bundle, real_center = (gp._Barrier.parts, gp._Barrier.bundle,
                                                gp._center)

        def counting_parts(self, point):
            builds.append(point)
            return real_parts(self, point)

        def recording_bundle(self, y, t, point=None):
            if point is not None:
                bundled[id(point)] = point    # kept alive, so ids stay distinct
            return real_bundle(self, y, t, point)

        def recording_center(barrier, y, point, t, callback=None):
            reused_starts.append(point.parts is not None)
            return real_center(barrier, y, point, t, callback)

        monkeypatch.setattr(gp._Barrier, "parts", counting_parts)
        monkeypatch.setattr(gp._Barrier, "bundle", recording_bundle)
        monkeypatch.setattr(gp, "_center", recording_center)
        cfg, graph, ch, occ = make_scenario(seed=0, jd=2)
        trace = allocation.allocate(cfg, ch, graph, occ)

        assert len(builds) == len(bundled) == len({id(p) for p in builds})
        boundaries = sum(len(p.solver.path) - 1 for p in trace.points)
        warm_picks = sum(p.solver.path[0][0] > gp.INITIAL_T for p in trace.points)
        assert warm_picks > 0
        assert sum(reused_starts) >= boundaries + warm_picks


class TestRegularizedStep:
    @staticmethod
    def reference_step(hess, grad):
        """The regularization as specified: diagonal and trace of the
        original Hessian, 1e-12 * max(trace, 1) on the diagonal at the
        first Cholesky failure, ten times more at each further one."""
        hess = hess.copy()
        diagonal = hess.diagonal().copy()
        base = 1e-12 * max(np.trace(hess), 1.0)
        reg = 0.0
        while True:
            try:
                np.linalg.cholesky(hess)
            except np.linalg.LinAlgError:
                reg = base if reg == 0.0 else reg * 10.0
                hess.flat[::len(grad) + 1] = diagonal + reg
                continue
            return np.linalg.solve(hess, -grad), reg

    @pytest.mark.parametrize("hess", [
        np.zeros((3, 3)),
        np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
        np.diag([4.0, 0.0, 1.0, 2.0]),
    ], ids=["zero", "rank-1", "zero-eigenvalue"])
    def test_singular_psd_hessian(self, hess):
        """A singular PSD Hessian (integer entries, so the Cholesky test
        fails exactly) takes the regularization branch, and the direction
        and the regularized diagonal match the formula bit for bit."""
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(hess)
        grad = np.linspace(-1.0, 2.0, len(hess))
        want, reg = self.reference_step(hess, grad)
        work = hess.copy()
        got = gp._regularized_newton_step(work, grad)
        assert reg > 0
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(work.diagonal(), hess.diagonal() + reg)

    def test_positive_definite_takes_plain_solve(self):
        """An SPD system is solved once: the direction is numpy's solve,
        byte for byte, and hess is left as it was."""
        m = np.random.default_rng(4).normal(size=(5, 5))
        hess = m @ m.T + 0.1 * np.eye(5)
        grad = np.linspace(-1.0, 2.0, 5)
        work = hess.copy()
        got = gp._regularized_newton_step(work, grad)
        assert got.tobytes() == np.linalg.solve(hess, -grad).tobytes()
        assert work.tobytes() == hess.tobytes()

    def test_indefinite_ascent_direction_falls_back(self):
        """A nonsingular indefinite system whose solve points uphill
        (grad . d > 0) takes the regularization branch instead."""
        hess = np.diag([1.0, -1.0])
        grad = np.array([0.1, 1.0])
        plain = np.linalg.solve(hess, -grad)
        assert grad @ plain > 0
        want, reg = self.reference_step(hess, grad)
        work = hess.copy()
        got = gp._regularized_newton_step(work, grad)
        assert reg > 0
        assert got.tobytes() == want.tobytes()
        assert grad @ got < 0
        np.testing.assert_array_equal(work.diagonal(), hess.diagonal() + reg)


class TestOverflowSafety:
    def test_max_shift_leaves_values_unchanged(self):
        """Evaluations with exponents up to +-500 match the shifted form."""
        A = np.array([[1.0], [-1.0]])
        b = np.array([0.0, 0.0])
        for y0 in (-500.0, -250.0, 0.0, 250.0, 500.0):
            val, _, _ = logsumexp_bundle(A, b, np.array([y0]))
            # analytic: log(e^y + e^-y) = |y| + log(1 + e^(-2|y|))
            expected = abs(y0) + np.log1p(np.exp(-2 * abs(y0)))
            assert val == pytest.approx(expected, rel=1e-12)
            assert np.isfinite(val)


class TestFeasibility:
    def test_single_constraint(self):
        """y <= 0 yields some strictly negative point."""
        p = lse_problem(("y",), [[1.0]], [0.0], cons=[([[1.0]], [0.0])])
        res = find_feasible(p)
        assert res.feasible
        assert res.y[0] < -1e-6

    def test_contradictory_constraints(self):
        """y <= -1 and -y <= -1 have empty intersection."""
        p = lse_problem(("y",), [[1.0]], [0.0],
                        cons=[([[1.0]], [1.0]), ([[-1.0]], [1.0])])
        res = find_feasible(p)
        assert not res.feasible
        assert res.max_slack >= 0.0

    def test_generated_with_witness(self):
        """Problems built around a known interior point are solved with all
        slacks below -1e-6."""
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            witness = rng.normal(size=n)
            cons = []
            for _ in range(6):
                A = rng.normal(size=(3, n))
                b = rng.normal(size=3)
                z = A @ witness + b
                m = z.max()
                margin = rng.uniform(0.5, 2.0)
                # shift offsets so lse(witness) = -margin < 0
                b = b - (m + np.log(np.exp(z - m).sum())) - margin
                cons.append((A, b))
            p = lse_problem(tuple(f"v{i}" for i in range(n)),
                            np.zeros((1, n)), [0.0], cons=cons)
            res = find_feasible(p)
            assert res.feasible
            vals = [logsumexp_bundle(np.asarray(A, dtype=float),
                                     np.asarray(b, dtype=float), res.y)[0]
                    for A, b in cons]
            assert max(vals) < -1e-6

    def test_phase1_newton_cap_reported(self, monkeypatch):
        """A phase-1 centering that hits the Newton cap is reported as
        max_iterations, not as an infeasibility certificate."""
        monkeypatch.setattr(gp, "MAX_NEWTON", 1)
        p = lse_problem(("y",), [[1.0]], [0.0],
                        cons=[([[1.0]], [1.0]), ([[-1.0]], [1.0])])
        feas = find_feasible(p)
        assert not feas.feasible
        assert feas.status == MAX_ITERATIONS

    def test_solve_rejects_infeasible_y0(self):
        p = lse_problem(("y",), [[1.0]], [0.0], cons=[([[1.0]], [0.0])])
        with pytest.raises(ValueError):
            solve(p, y0=np.array([1.0]))


class TestSolverBehaviour:
    def test_descent_across_outer_iterations(self):
        """The true objective is non-increasing along the barrier path."""
        reg = ("x1", "x2")
        obj = Posynomial.from_monomials([
            Monomial.from_powers(reg, 1.0, {"x1": -1, "x2": -1}),
            Monomial.from_powers(reg, 0.5, {"x1": 1}),
        ])
        cons = [
            Monomial.from_powers(reg, 0.25, {"x1": 1}).as_posynomial(),
            Monomial.from_powers(reg, 0.25, {"x2": 1}).as_posynomial(),
        ]
        res = solve(to_convex_form(obj, constraints=cons), y0=np.zeros(2))
        assert res.status == OPTIMAL
        objs = [f0 for _, _, f0, _ in res.path]
        for prev, cur in zip(objs, objs[1:]):
            assert cur <= prev + 1e-10

    def test_feasible_result_has_slack(self):
        """Returned optima satisfy every constraint with slack >= -1e-8."""
        rng = np.random.default_rng(13)
        reg = ("a", "b", "c")
        # reciprocal terms bound the objective below inside the capped box
        obj = Posynomial(
            reg,
            np.concatenate([rng.uniform(0.5, 2.0, 3), np.ones(3)]),
            np.vstack([rng.uniform(-1, 1, (3, 3)), -np.eye(3)]),
        )
        cons = [Monomial.from_powers(reg, 0.5, {v: 1.0}).as_posynomial() for v in reg]
        cp = to_convex_form(obj, constraints=cons)
        res = solve(cp, y0=np.zeros(3))
        assert res.status == OPTIMAL
        for a, b in zip(cp.constraint_exponents, cp.constraint_offsets):
            val, _, _ = logsumexp_bundle(a, b, res.y)
            assert val <= 1e-8

    def test_grid_search_agreement_small_problem(self):
        """On a 2-variable problem the solver matches an exhaustive log-space
        grid scan to 1e-3 relative."""
        reg = ("x1", "x2")
        obj = Posynomial.from_monomials([
            Monomial.from_powers(reg, 1.0, {"x1": -1}),
            Monomial.from_powers(reg, 1.0, {"x2": -2}),
            Monomial.from_powers(reg, 2.0, {"x1": 1, "x2": 1}),
        ])
        res = solve(to_convex_form(obj), y0=np.zeros(2))
        ys = np.arange(-2.0, 2.0, 1e-3)
        g1, g2 = np.meshgrid(ys, ys, indexing="ij")
        vals = (np.exp(-g1) + np.exp(-2 * g2) + 2 * np.exp(g1 + g2))
        assert res.objective_value == pytest.approx(vals.min(), rel=1e-3)

    def test_newton_cap_reported(self, monkeypatch):
        """A starved Newton budget surfaces as max_iterations status."""
        monkeypatch.setattr(gp, "MAX_NEWTON", 1)
        reg = ("x1", "x2")
        obj = Posynomial.from_monomials([
            Monomial.from_powers(reg, 1.0, {"x1": -1, "x2": -1}),
            Monomial.from_powers(reg, 0.5, {"x1": 1}),
        ])
        cons = [Monomial.from_powers(reg, 0.25, {"x1": 1}).as_posynomial(),
                Monomial.from_powers(reg, 0.25, {"x2": 1}).as_posynomial()]
        res = solve(to_convex_form(obj, constraints=cons), y0=np.zeros(2))
        assert res.status == "max_iterations"


def witness_gp(seed, n, obj_rows, con_sizes):
    """A random GP with a strictly feasible witness point w: a box
    |y_i - w_i| <= c_i keeps the feasible set bounded, and each random
    LSE constraint has its offsets shifted so that lse_s(w) is in
    [-3, -0.2].  Returns (problem, w, objective block, constraint blocks)."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=n)
    cons = []
    for i, c in enumerate(rng.uniform(0.5, 3.0, size=n)):
        row = np.eye(n)[i:i + 1]
        cons += [(row, np.array([-w[i] - c])), (-row, np.array([w[i] - c]))]
    for size in con_sizes:
        a = rng.normal(size=(size, n))
        b = rng.normal(size=size)
        cons.append((a, b - logsumexp_bundle(a, b, w)[0] - rng.uniform(0.2, 3.0)))
    obj = (rng.normal(size=(obj_rows, n)), rng.normal(size=obj_rows))
    problem = lse_problem(tuple(f"v{i}" for i in range(n)), *obj, cons)
    return problem, w, obj, cons


def lse_fd_gradient(a, b, y, h=1e-6):
    """Central-difference gradient of lse(a y + b) from its values."""
    grad = np.empty(len(y))
    for i in range(len(y)):
        step = np.zeros(len(y))
        step[i] = h
        grad[i] = (logsumexp_bundle(a, b, y + step)[0]
                   - logsumexp_bundle(a, b, y - step)[0]) / (2 * h)
    return grad


class TestKkt:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
           obj_rows=st.integers(1, 6),
           con_sizes=st.lists(st.integers(1, 5), max_size=6))
    def test_optimum_satisfies_kkt(self, seed, n, obj_rows, con_sizes):
        """At res.y, the multipliers lambda_s = 1/(t (-f_s)) of the last
        centering's t are nonnegative, the point is primal feasible, the
        complementary slackness sum is the certified gap m/t, and
        grad f0 + sum_s lambda_s grad f_s vanishes.

        The tolerance on stationarity is the Newton decrement at which the
        last centering stops, max(NEWTON_TOL, sqrt(32 eps |phi|)) with phi
        the barrier value, times a bound on the gradients' size: an LSE
        gradient is a convex combination of its exponent rows."""
        problem, w, obj, cons = witness_gp(seed, n, obj_rows, con_sizes)
        res = solve(problem, y0=w)
        assert res.status == OPTIMAL
        t = res.path[-1][0]
        f = np.array([logsumexp_bundle(a, b, res.y)[0] for a, b in cons])
        assert f.max() < 0
        lam = 1.0 / (t * -f)
        assert lam.min() >= 0
        assert (lam * -f).sum() == pytest.approx(res.certified_gap, rel=1e-12)

        residual = lse_fd_gradient(*obj, res.y) + sum(
            l * lse_fd_gradient(a, b, res.y) for l, (a, b) in zip(lam, cons))
        scale = np.abs(obj[0]).max() + sum(
            l * np.abs(a).max() for l, (a, _) in zip(lam, cons))
        phi = t * logsumexp_bundle(*obj, res.y)[0] - np.log(-f).sum()
        decrement = max(gp.NEWTON_TOL, np.sqrt(32 * np.finfo(float).eps * abs(phi)))
        assert np.abs(residual).max() <= decrement * scale


def allocate_solves(monkeypatch, seed, jd):
    """(problem, y0, warm_path, result) of every GP solve inside allocate
    at the given scenario, in call order."""
    original = allocation.solve
    calls = []

    def capture(problem, y0=None, **kwargs):
        res = original(problem, y0=y0, **kwargs)
        calls.append((problem, y0, kwargs.get("warm_path"), res))
        return res

    cfg, graph, ch, occ = make_scenario(seed=seed, jd=jd)
    with monkeypatch.context() as patch:
        patch.setattr(allocation, "solve", capture)
        allocation.allocate(cfg, ch, graph, occ)
    return calls


class TestWarmStart:
    @pytest.mark.parametrize("jd", [1, 2, 4])
    def test_matches_cold_solve(self, monkeypatch, jd):
        """Every warm-started pass reaches the cold solve's optimum within
        the certified gap, at the same final t and gap, in no more Newton
        steps."""
        calls = allocate_solves(monkeypatch, seed=0, jd=jd)
        assert calls[0][2] is None
        assert all(warm_path is not None for _, _, warm_path, _ in calls[1:])
        starts = []
        for problem, y0, warm_path, warm in calls[1:]:
            cold = solve(problem, y0=y0)
            assert warm.status == cold.status == OPTIMAL
            assert warm.path[-1][0] == cold.path[-1][0]
            assert warm.certified_gap == cold.certified_gap <= gp.DUALITY_GAP_TOL
            assert abs(np.log(warm.objective_value / cold.objective_value)) \
                <= cold.certified_gap
            assert warm.newton_steps_used <= cold.newton_steps_used
            assert [t for t, _, _, _ in cold.path] == \
                [gp.INITIAL_T * gp.BARRIER_MU ** i for i in range(len(cold.path))]
            starts.append(warm.path[0][0])
        # the warm start was taken, not only offered
        assert max(starts) > gp.INITIAL_T

    def test_capped_warm_centering_restarts_cold(self, monkeypatch):
        """When the warm centering hits the Newton cap the solve restarts
        cold at t = INITIAL_T from y0: the cold result, with the capped
        attempt's steps added.  The pass taken is the one whose warm
        start has the largest t."""
        calls = allocate_solves(monkeypatch, seed=0, jd=1)
        problem, y0, warm_path, _ = max(calls[1:], key=lambda c: c[3].path[0][0])
        cold = solve(problem, y0=y0)
        real = gp._center
        centerings = []

        def capped_first(barrier, y, point, t, callback=None):
            y, point, centered, steps = real(barrier, y, point, t, callback)
            centerings.append((t, steps))
            return y, point, centered and len(centerings) > 1, steps

        monkeypatch.setattr(gp, "_center", capped_first)
        res = solve(problem, y0=y0, warm_path=warm_path)
        assert centerings[0][0] > gp.INITIAL_T
        assert centerings[1][0] == gp.INITIAL_T
        assert res.status == OPTIMAL
        np.testing.assert_array_equal(res.y, cold.y)
        assert res.objective_value == cold.objective_value
        assert res.certified_gap == cold.certified_gap
        assert [t for t, _, _, _ in res.path] == [t for t, _, _, _ in cold.path]
        assert res.newton_steps_used == cold.newton_steps_used + centerings[0][1]

    def test_unusable_path_runs_cold(self, monkeypatch):
        """A path whose first point is outside the domain gives the cold
        solve exactly."""
        problem, y0, _, _ = allocate_solves(monkeypatch, seed=0, jd=1)[1]
        cold = solve(problem, y0=y0)
        res = solve(problem, y0=y0, warm_path=[(gp.INITIAL_T, y0 + 50.0)])
        np.testing.assert_array_equal(res.y, cold.y)
        assert res.newton_steps_used == cold.newton_steps_used

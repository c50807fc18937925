"""Tests for the barrier interior-point GP solver."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from conftest import make_scenario, pack_blocks, unpack_blocks
from hypothesis import strategies as st

from scma_d2d import allocation, gp
from scma_d2d.gp import (
    MAX_ITERATIONS,
    OPTIMAL,
    STALLED,
    FeasibilityResult,
    find_feasible,
    logsumexp_bundle,
    solve,
)
from scma_d2d.posynomial import (
    ConvexFormProblem,
    Monomial,
    PackedConstraints,
    Posynomial,
    product,
    to_convex_form,
)

FIXTURES = Path(__file__).with_name("fixtures")


def lse_problem(registry, obj_a, obj_b, cons=()):
    """Assemble a ConvexFormProblem directly from exponent/offset arrays."""
    n = len(registry)
    return ConvexFormProblem(
        registry=tuple(registry),
        objective_exponents=np.asarray(obj_a, dtype=float).reshape(-1, n),
        objective_offsets=np.asarray(obj_b, dtype=float).reshape(-1),
        constraints=pack_blocks(n, cons),
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
    barrier = gp._Barrier(obj_a, obj_b, pack_blocks(n, cons))
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
        phi, grad, hess, f0 = barrier.bundle(barrier.evaluate(y), t)
        want_phi, want_grad, want_hess = barrier_oracle(obj, cons, y, t)
        scale = 1.0 + np.abs(want_grad).max() + np.abs(want_hess).max()
        want_f0 = logsumexp_bundle(*obj, y)[0]
        assert f0 == pytest.approx(want_f0, rel=1e-12, abs=1e-12)
        assert phi == pytest.approx(want_phi, rel=1e-12, abs=1e-12)
        assert barrier.evaluate(y).phi(t) == pytest.approx(phi, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-10, atol=1e-10 * scale)
        np.testing.assert_allclose(hess, want_hess, rtol=1e-10, atol=1e-10 * scale)

        h = 1e-5
        fd_grad = np.empty(n)
        fd_hess = np.empty((n, n))
        for i in range(n):
            step = np.zeros(n)
            step[i] = h
            fd_grad[i] = (barrier.evaluate(y + step).phi(t)
                          - barrier.evaluate(y - step).phi(t)) / (2 * h)
            fd_hess[:, i] = (barrier.bundle(barrier.evaluate(y + step), t)[1]
                             - barrier.bundle(barrier.evaluate(y - step), t)[1]) / (2 * h)
        np.testing.assert_allclose(grad, fd_grad, rtol=1e-5, atol=1e-5 * scale)
        np.testing.assert_allclose(hess, fd_hess, rtol=1e-5, atol=1e-5 * scale)

    def test_outside_domain(self):
        """A point where some f_s >= 0 has no value, so no bundle."""
        barrier, y, _, cons = barrier_case(3, 2, 3, [2, 1])
        a, _ = cons[1]
        far = y + 50.0 * a[0] / np.linalg.norm(a[0])
        assert barrier.evaluate(far) is None

    def test_outside_domain_reads_no_objective_row(self):
        """The constraints are evaluated first, and a point outside the
        domain is turned away before any objective row is read.  Every
        read of this objective's rows computes inf - inf, which raises
        under np.errstate(invalid="raise"); a point inside reads them."""
        _, y, (obj_a, _), cons = barrier_case(3, 2, 3, [2, 1])
        poisoned = gp._Barrier(obj_a, np.full(3, np.inf), pack_blocks(2, cons))
        a, _ = cons[1]
        far = y + 50.0 * a[0] / np.linalg.norm(a[0])
        with np.errstate(invalid="raise"):
            assert poisoned.evaluate(far) is None
            with pytest.raises(FloatingPointError):
                poisoned.evaluate(y)


class TestPointReuse:
    @pytest.mark.parametrize("obj_rows, con_sizes", [(4096, [1, 3, 1, 5]), (7, []),
                                                     (2, [2, 1])])
    def test_bundle_at_new_t_equals_fresh_barrier(self, obj_rows, con_sizes):
        """Bundles at t and then at 10 t from one evaluated point equal,
        bit for bit, the bundles of a fresh barrier at the same y."""
        barrier, y, _, _ = barrier_case(5, 4, obj_rows, con_sizes)
        point = barrier.evaluate(y)
        first = barrier.bundle(point, 3.0)
        assert point.parts is not None
        second = barrier.bundle(point, 30.0)
        for t, got in ((3.0, first), (30.0, second)):
            fresh_barrier = barrier_case(5, 4, obj_rows, con_sizes)[0]
            fresh = fresh_barrier.bundle(fresh_barrier.evaluate(y), t)
            for a, b in zip(got, fresh):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_allocate_builds_each_hessian_once(self, monkeypatch):
        """In one J_D = 2 allocate, every bundled point builds its t-free
        parts once.  The warm-start pick that _center starts from adds no
        build, and neither does _predict, which bundles the central point
        again at a centering boundary; the predicted start is a new point
        and builds its own parts once."""
        builds, bundled, center_starts, picks, predicted = [], {}, [], [], []
        real_parts, real_bundle, real_center = (gp._Barrier.parts, gp._Barrier.bundle,
                                                gp._center)
        real_warm_start, real_predict = gp._warm_start, gp._predict

        def counting_parts(self, point):
            builds.append(point)
            return real_parts(self, point)

        def recording_bundle(self, point, t):
            bundled[id(point)] = point    # kept alive, so ids stay distinct
            return real_bundle(self, point, t)

        def recording_center(barrier, y, point, t, callback=None):
            center_starts.append((point, point.parts is not None))
            return real_center(barrier, y, point, t, callback)

        def recording_warm_start(barrier, path):
            start = real_warm_start(barrier, path)
            picks.append(start and start[1])
            return start

        def counting_predict(barrier, y, point, t, t_next):
            before = len(builds)
            start = real_predict(barrier, y, point, t, t_next)
            predicted.append((start[1], len(builds) - before))
            return start

        monkeypatch.setattr(gp._Barrier, "parts", counting_parts)
        monkeypatch.setattr(gp._Barrier, "bundle", recording_bundle)
        monkeypatch.setattr(gp, "_center", recording_center)
        monkeypatch.setattr(gp, "_warm_start", recording_warm_start)
        monkeypatch.setattr(gp, "_predict", counting_predict)
        cfg, graph, ch, occ = make_scenario(seed=0, jd=2)
        trace = allocation.allocate(cfg, ch, graph, occ)

        assert len(builds) == len(bundled) == len({id(p) for p in builds})
        ready = {}    # whether a point's parts were built when _center first got it
        for point, parts in center_starts:
            ready.setdefault(id(point), parts)
        warm_picks = [point for point in picks if point is not None]
        assert warm_picks and all(ready[id(point)] for point in warm_picks)
        boundaries = sum(len(p.solver.path) - 1 for p in trace.points)
        assert len(predicted) >= boundaries > 0
        assert all(new == 0 for _, new in predicted)
        # each boundary's centering starts at the predicted point, which
        # no bundle had seen before
        assert all(not ready[id(point)] for point, _ in predicted)


class TestRegularizedStep:
    @staticmethod
    def reference_step(hess, grad):
        """The regularization as specified: diagonal and trace of the
        original Hessian, 1e-12 * max(trace, 1) on the diagonal, ten times
        more while Cholesky or the solve after it fails or the direction
        is not a finite descent."""
        hess = hess.copy()
        diagonal = hess.diagonal().copy()
        reg = 1e-12 * max(np.trace(hess), 1.0)
        while True:
            hess.flat[::len(grad) + 1] = diagonal + reg
            try:
                np.linalg.cholesky(hess)
                delta = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                reg *= 10.0
                continue
            if grad @ delta <= 0 and np.isfinite(grad @ delta):
                return delta, reg
            reg *= 10.0

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
        got, descent = gp._regularized_newton_step(work, grad)
        assert descent == float(grad @ got)
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
        got, descent = gp._regularized_newton_step(work, grad)
        assert descent == float(grad @ got)
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
        got, descent = gp._regularized_newton_step(work, grad)
        assert descent == float(grad @ got)
        assert reg > 0
        assert got.tobytes() == want.tobytes()
        assert grad @ got < 0
        np.testing.assert_array_equal(work.diagonal(), hess.diagonal() + reg)

    def test_solve_failing_after_cholesky_is_shifted(self):
        """A Hessian that Cholesky accepts but whose LU solve meets an
        exact zero pivot (tests/fixtures/newton_system_zero_pivot.json)
        is shifted like one Cholesky rejects, to a finite descent step."""
        data = json.loads((FIXTURES / "newton_system_zero_pivot.json").read_text())
        hess = np.array([[float.fromhex(v) for v in row] for row in data["hess"]])
        grad = np.array([float.fromhex(v) for v in data["grad"]])
        np.linalg.cholesky(hess)
        with pytest.raises(np.linalg.LinAlgError):
            gp._solve(hess, -grad)
        want, reg = self.reference_step(hess, grad)
        got, descent = gp._regularized_newton_step(hess.copy(), grad)
        assert reg > 0
        assert descent < 0 and np.isfinite(got).all()
        assert got.tobytes() == want.tobytes()


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

    def test_phase1_evaluates_each_point_once(self, monkeypatch):
        """On seed 0 at J_D = 2, phase-1 evaluates the original
        constraints at its start and at each accepted Newton step's point,
        once each."""
        cfg, graph, ch, occ = make_scenario(seed=0, jd=2)
        p2 = allocation.build_p2(cfg, ch, graph, occ)
        problem = to_convex_form(product(p2.numerator_factors), constraints=p2.constraints)
        evaluated, steps = [], []
        real_exp, real_center = PackedConstraints.shifted_exp, gp._center

        def recording_exp(self, y):
            if len(y) == problem.n_variables:
                evaluated.append(y.tobytes())
            return real_exp(self, y)

        def counting_center(*args, **kwargs):
            out = real_center(*args, **kwargs)
            steps.append(out[3])
            return out

        monkeypatch.setattr(PackedConstraints, "shifted_exp", recording_exp)
        monkeypatch.setattr(gp, "_center", counting_center)
        feas = find_feasible(problem)
        assert feas.feasible and sum(steps) > 0
        assert len(set(evaluated)) == len(evaluated) == 1 + sum(steps)

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
        for a, b in unpack_blocks(cp.constraints):
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


def allocate_solves(monkeypatch, seed, jd, **overrides):
    """(problem, y0, warm_path, result) of every GP solve inside allocate
    at the given scenario, in call order."""
    original = allocation.solve
    calls = []

    def capture(problem, y0=None, **kwargs):
        res = original(problem, y0=y0, **kwargs)
        calls.append((problem, y0, kwargs.get("warm_path"), res))
        return res

    cfg, graph, ch, occ = make_scenario(seed=seed, jd=jd, **overrides)
    with monkeypatch.context() as patch:
        patch.setattr(allocation, "solve", capture)
        allocation.allocate(cfg, ch, graph, occ)
    return calls


def pass_schedule(t, m):
    """The barrier weights a pass solve centers at from t: every second
    point of the grid t * BARRIER_MU**i up to its first point with gap
    m/t <= DUALITY_GAP_TOL, and that final point."""
    grid = [t]
    while m / grid[-1] > gp.DUALITY_GAP_TOL:
        grid.append(grid[-1] * gp.BARRIER_MU)
    return grid[::2] + grid[-1:] * (len(grid) % 2 == 0)


class TestBarrierSchedule:
    @pytest.mark.parametrize("start", [0, 1])
    def test_pass_path_ends_on_the_x10_grid(self, monkeypatch, start):
        """From t = 10**start, the x100 path of a pass ends at the final t
        and certified gap of the x10 path, centering only at points of
        it, and their optima agree within that gap.  The final t is 1e11
        here, so the last step from t = 1 is clamped to x10 and the one
        from t = 10 is not."""
        problem, y0, _, _ = allocate_solves(monkeypatch, seed=0, jd=1)[1]
        paths = {}
        for mu in (gp.BARRIER_MU, gp.PASS_BARRIER_MU):
            barrier = gp._Barrier(problem.objective_exponents, problem.objective_offsets,
                                  problem.constraints)
            paths[mu] = gp._central_path(barrier, y0, barrier.evaluate(y0),
                                         gp.INITIAL_T * gp.BARRIER_MU ** start, mu=mu)[:3]
        (slow_status, slow_steps, slow), (fast_status, fast_steps, fast) = paths.values()
        assert slow_status == fast_status == OPTIMAL
        slow_t, fast_t = [r[0] for r in slow], [r[0] for r in fast]
        assert slow_t == [10.0 ** i for i in range(start, 12)]
        assert fast_t == pass_schedule(slow_t[0], problem.constraints.count)
        assert fast_t[-1] / fast_t[-2] == (10.0 if start == 0 else 100.0)
        assert fast[-1][3] == slow[-1][3] <= gp.DUALITY_GAP_TOL
        assert abs(fast[-1][2] - slow[-1][2]) <= slow[-1][3]
        assert fast_steps < slow_steps

    def test_phase1_steps_tenfold(self, monkeypatch):
        """find_feasible centers at every point of INITIAL_T * BARRIER_MU**i:
        on seed 2 at J_D = 2, certified infeasible, from t = 1 to the
        first t whose gap is at most DUALITY_GAP_TOL.  Each centering
        starts where the last one ended: phase-1 never calls _predict."""
        cfg, graph, ch, occ = make_scenario(seed=2, jd=2)
        p2 = allocation.build_p2(cfg, ch, graph, occ)
        problem = to_convex_form(product(p2.numerator_factors), constraints=p2.constraints)
        weights, real_center = [], gp._center

        def recording_center(barrier, y, point, t, callback=None):
            weights.append(t)
            return real_center(barrier, y, point, t, callback)

        def no_predict(*args):
            raise AssertionError("phase-1 called _predict")

        monkeypatch.setattr(gp, "_center", recording_center)
        monkeypatch.setattr(gp, "_predict", no_predict)
        feas = find_feasible(problem)
        assert not feas.feasible and feas.status == OPTIMAL
        assert weights == [gp.INITIAL_T * gp.BARRIER_MU ** i for i in range(len(weights))]
        m = problem.constraints.count
        assert m / weights[-1] <= gp.DUALITY_GAP_TOL < m / weights[-2]


class TestWarmStart:
    @pytest.mark.parametrize("jd", [1, 2, 4])
    def test_matches_cold_solve(self, monkeypatch, jd):
        """On seeds 0-3 (seed 2 is certified infeasible at every J_D),
        every warm-started pass reaches the cold solve's optimum within
        the certified gap, at the same final t and gap, in no more Newton
        steps.  Some pass resumes from a point whose squared decrement
        exceeds 1, which a test of 1 would reject."""
        loose = []
        for seed in (0, 1, 3):
            calls = allocate_solves(monkeypatch, seed=seed, jd=jd)
            assert calls[0][2] is None
            assert all(warm_path is not None for _, _, warm_path, _ in calls[1:])
            for problem, y0, warm_path, warm in calls[1:]:
                cold = solve(problem, y0=y0)
                assert warm.status == cold.status == OPTIMAL
                assert warm.path[-1][0] == cold.path[-1][0]
                assert warm.certified_gap == cold.certified_gap <= gp.DUALITY_GAP_TOL
                assert abs(np.log(warm.objective_value / cold.objective_value)) \
                    <= cold.certified_gap
                assert warm.newton_steps_used <= cold.newton_steps_used
                m = problem.constraints.count
                assert cold.path[0][0] == gp.INITIAL_T
                for res in (warm, cold):
                    assert [t for t, _, _, _ in res.path] == pass_schedule(res.path[0][0], m)
                barrier = gp._Barrier(problem.objective_exponents, problem.objective_offsets,
                                      problem.constraints)
                start = gp._warm_start(barrier, warm_path)
                if start is not None:
                    _, point, t = start
                    assert warm.path[0][0] == t
                    loose.append(-barrier.newton(point, t)[2])
        # the warm start was taken, and past the old test of 1
        assert loose
        assert max(loose) <= gp.WARM_DECREMENT_SQ
        assert any(d > 1.0 for d in loose)

    def test_uphill_newton_direction_ends_no_centering(self, monkeypatch):
        """J_D = 1, seed 3, cellular cap 28 dBm: pass 3's warm centering
        at t = 1e11 meets a Hessian (condition ~1e16) that Cholesky
        accepts but whose solve points uphill.  Read as a zero decrement,
        that direction ended the centering about 4e6 certified gaps above
        the optimum, and allocate stopped after 3 passes.  Every pass must
        match its cold solve within the certified gap."""
        calls = allocate_solves(monkeypatch, seed=3, jd=1, cellular_power_cap_dbm=28.0)
        assert len(calls) > 3
        for problem, y0, _, warm in calls[1:]:
            cold = solve(problem, y0=y0)
            assert warm.status == cold.status == OPTIMAL
            assert warm.path[-1][0] == cold.path[-1][0]
            assert warm.certified_gap == cold.certified_gap
            assert abs(np.log(warm.objective_value / cold.objective_value)) \
                <= cold.certified_gap

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
            y, point, stop, steps = real(barrier, y, point, t, callback)
            centerings.append((t, steps))
            return y, point, stop if len(centerings) > 1 else MAX_ITERATIONS, steps

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

    def test_failing_first_record_scans_down_the_grid(self, monkeypatch):
        """A first record that fails the decrement test at its t is tried
        at t / BARRIER_MU, t / BARRIER_MU**2, ...: the solve resumes from
        it at the largest of those weights that passes.  The record here
        is the cold path's point centered at t = 1e4, labelled with the
        final t."""
        problem, y0, _, _ = allocate_solves(monkeypatch, seed=0, jd=1)[1]
        cold = solve(problem, y0=y0)
        t_final, y_mid = cold.path[-1][0], cold.path[2][1]
        assert cold.path[2][0] == 1e4
        barrier = gp._Barrier(problem.objective_exponents, problem.objective_offsets,
                              problem.constraints)
        y, point, t = gp._warm_start(barrier, [(t_final, y_mid)])
        assert y is y_mid
        assert t in [10.0 ** i for i in range(4, 11)]
        assert -barrier.newton(point, t)[2] <= gp.WARM_DECREMENT_SQ \
            < -barrier.newton(point, t * gp.BARRIER_MU)[2]
        res = solve(problem, y0=y0, warm_path=[(t_final, y_mid)])
        assert res.path[0][0] == t
        assert res.path[-1][0] == t_final
        assert res.certified_gap == cold.certified_gap
        assert res.newton_steps_used < cold.newton_steps_used

    def test_unusable_path_runs_cold(self, monkeypatch):
        """A path whose first point is outside the domain gives the cold
        solve exactly."""
        problem, y0, _, _ = allocate_solves(monkeypatch, seed=0, jd=1)[1]
        cold = solve(problem, y0=y0)
        res = solve(problem, y0=y0, warm_path=[(gp.INITIAL_T, y0 + 50.0)])
        np.testing.assert_array_equal(res.y, cold.y)
        assert res.newton_steps_used == cold.newton_steps_used


class TestPredictor:
    def test_predicted_start_is_nearer_the_path(self, monkeypatch):
        """On J_D = 2, seed 0, at every centering boundary of every pass,
        the predicted start's squared Newton decrement at the next weight
        is below the central point's."""
        pairs, real_predict = [], gp._predict

        def measuring_predict(barrier, y, point, t, t_next):
            start = real_predict(barrier, y, point, t, t_next)
            pairs.append((-barrier.newton(start[1], t_next)[2],
                          -barrier.newton(point, t_next)[2]))
            return start

        monkeypatch.setattr(gp, "_predict", measuring_predict)
        cfg, graph, ch, occ = make_scenario(seed=0, jd=2)
        trace = allocation.allocate(cfg, ch, graph, occ)
        assert len(pairs) >= sum(len(p.solver.path) - 1 for p in trace.points) > 0
        assert all(predicted < central for predicted, central in pairs)

    def test_failed_predicted_centering_falls_back(self, monkeypatch):
        """A centering from a predicted start that ends STALLED runs again
        from the central point the start was predicted from, at the same
        weight; the solve still ends OPTIMAL at the final t and gap of
        the unforced solve, and counts the failed attempt's steps."""
        problem, y0, _, _ = allocate_solves(monkeypatch, seed=0, jd=1)[1]
        plain = solve(problem, y0=y0)
        predicted, centerings = [], []
        real_predict, real_center = gp._predict, gp._center

        def recording_predict(barrier, y, point, t, t_next):
            start = real_predict(barrier, y, point, t, t_next)
            predicted.append((start[1], y))
            return start

        def stall_second(barrier, y, point, t, callback=None):
            y_end, point_end, stop, steps = real_center(barrier, y, point, t, callback)
            centerings.append((t, y, point, steps))
            return y_end, point_end, STALLED if len(centerings) == 2 else stop, steps

        monkeypatch.setattr(gp, "_predict", recording_predict)
        monkeypatch.setattr(gp, "_center", stall_second)
        res = solve(problem, y0=y0)
        (t1, _, _, _), (t2, _, start2, _), (t3, y3, _, _) = centerings[:3]
        assert t1 < t2 == t3
        assert start2 is predicted[0][0]      # the stalled centering began predicted
        assert y3 is predicted[0][1]          # and ran again from the central point at t1
        assert res.status == OPTIMAL
        assert [r[0] for r in res.path] == [r[0] for r in plain.path]
        assert res.certified_gap == plain.certified_gap
        assert abs(np.log(res.objective_value / plain.objective_value)) <= plain.certified_gap
        assert res.newton_steps_used == sum(c[3] for c in centerings)

    def test_failed_prediction_centers_once_from_the_central_point(self, monkeypatch):
        """When no halving of the predicted step passes, there is no
        predicted start: the next centering starts at the central point,
        and when it does not end CENTERED it is neither run again nor
        counted twice.  Every _predict candidate is made to fall outside
        the domain, and the second centering is reported capped."""
        problem, y0, _, _ = allocate_solves(monkeypatch, seed=0, jd=1)[1]
        in_predict, predicted, centerings = [False], [], []
        real_evaluate, real_predict, real_center = (gp._Barrier.evaluate, gp._predict,
                                                    gp._center)

        def outside_in_predict(self, y):
            return None if in_predict[0] else real_evaluate(self, y)

        def failing_predict(barrier, y, point, t, t_next):
            in_predict[0] = True
            try:
                predicted.append(real_predict(barrier, y, point, t, t_next))
            finally:
                in_predict[0] = False
            return predicted[-1]

        def capped_second(barrier, y, point, t, callback=None):
            y_end, point_end, stop, steps = real_center(barrier, y, point, t, callback)
            centerings.append((t, y, steps, y_end))
            return y_end, point_end, MAX_ITERATIONS if len(centerings) >= 2 else stop, steps

        monkeypatch.setattr(gp._Barrier, "evaluate", outside_in_predict)
        monkeypatch.setattr(gp, "_predict", failing_predict)
        monkeypatch.setattr(gp, "_center", capped_second)
        res = solve(problem, y0=y0)
        (t1, _, _, central), (t2, start, steps, _) = centerings
        assert t1 < t2 and start is central and steps > 0
        assert res.newton_steps_used == sum(c[2] for c in centerings)
        assert res.status == MAX_ITERATIONS
        assert [r[0] for r in res.path] == [t1, t2]
        assert predicted == [None]


# small-cell draws whose phase-1 ends at the rounding floor of its final
# t, each with the lower bound on min tau, rounded down, that its record
# at t = 1e10 proves
PHASE1_FLOOR_DRAWS = [
    (dict(jd=1, seed=806080, cell_radius_m=2.8173329437295007,
          cellular_power_cap_dbm=39.134327111422664, d2d_power_cap_dbm=12.447407924986223,
          cellular_sinr_floor_db=6.013643197097146, d2d_sinr_floor_db=1.0107078817533992,
          d2d_distance_range_m=(1.6588342710394002, 7.176889739826214)), 2.0163),
    (dict(jd=3, seed=520924, cell_radius_m=3.9501991380636103,
          cellular_power_cap_dbm=30.477809376654623, d2d_power_cap_dbm=36.87921460941281,
          cellular_sinr_floor_db=5.532440112657728, d2d_sinr_floor_db=19.177916361559166,
          d2d_distance_range_m=(10.12140059652777, 16.78248362807988)), 5.0622),
]


class TestRoundingFloor:
    @staticmethod
    def stored_pass():
        """(problem, y0, warm_path) of tests/fixtures/rounding_floor_exit.json."""
        data = json.loads((FIXTURES / "rounding_floor_exit.json").read_text())
        unhex = lambda v: np.array([float.fromhex(x) for x in v])
        n = len(data["registry"])
        problem = ConvexFormProblem(
            registry=tuple(data["registry"]),
            objective_exponents=unhex(data["objective_exponents"]).reshape(-1, n),
            objective_offsets=unhex(data["objective_offsets"]),
            constraints=PackedConstraints(unhex(data["constraint_exponents"]).reshape(-1, n),
                                          unhex(data["constraint_offsets"]),
                                          np.array(data["constraint_sizes"])))
        path = [(float.fromhex(r["t"]), unhex(r["y"])) for r in data["warm_path"]]
        return problem, unhex(data["y0"]), path

    def test_floor_exit_at_final_t_certifies_no_gap(self):
        """Pass 4 of J_D = 1, seed 3, D2D cap 28 dBm resumes at the final
        t = 1e11, where its line search meets a step that does not lower
        the barrier value while the decrement is 1.0, above the stop
        test's floor of 0.18.  Read as centered, that point certified a
        gap of 2.6e-10 at a log objective 2.6e-5 above the optimum.  The
        stop is ROUNDING_FLOOR, the path STALLED, and the solve restarts
        cold to the cold solve's optimum."""
        problem, y0, path = self.stored_pass()
        barrier = gp._Barrier(problem.objective_exponents, problem.objective_offsets,
                              problem.constraints)
        y, point, t = gp._warm_start(barrier, path)
        m = problem.constraints.count
        assert m / t <= gp.DUALITY_GAP_TOL < m / (t / gp.BARRIER_MU)
        assert gp._center(barrier, y, point, t)[2] == gp.ROUNDING_FLOOR
        assert gp._central_path(barrier, y, point, t, mu=gp.PASS_BARRIER_MU)[0] == STALLED
        cold = solve(problem, y0=y0)
        res = solve(problem, y0=y0, warm_path=path)
        assert res.status == cold.status == OPTIMAL
        assert res.path[-1][0] == cold.path[-1][0]
        assert res.certified_gap == cold.certified_gap
        assert abs(np.log(res.objective_value / cold.objective_value)) <= cold.certified_gap

    def test_floor_exit_before_final_t_hands_on(self, monkeypatch):
        """Phase-1 of a 5 m cell with 1 m D2D links, J_D = 2, seed 8, ends
        its centering at t = 1e7 at the rounding floor (decrement 9.4e-5
        against a floor of 5.8e-5).  No gap is read from that centering:
        the path goes on from its point and certifies the draw infeasible
        at the final t."""
        cfg, graph, ch, occ = make_scenario(seed=8, jd=2, cell_radius_m=5.0,
                                            d2d_distance_range_m=(1.0, 1.0))
        p2 = allocation.build_p2(cfg, ch, graph, occ)
        problem = to_convex_form(product(p2.numerator_factors), constraints=p2.constraints)
        stops, real_center = [], gp._center

        def recording_center(barrier, y, point, t, callback=None):
            out = real_center(barrier, y, point, t, callback)
            stops.append((t, out[2]))
            return out

        monkeypatch.setattr(gp, "_center", recording_center)
        feas = find_feasible(problem)
        assert (1e7, gp.ROUNDING_FLOOR) in stops
        assert stops[-1][1] == gp.CENTERED
        assert not feas.feasible and feas.status == OPTIMAL and feas.max_slack > 0

    @pytest.mark.parametrize("draw, bound", PHASE1_FLOOR_DRAWS, ids=["jd1", "jd3"])
    def test_phase1_floor_exit_at_final_t_certifies_from_last_centered(self, monkeypatch,
                                                                       draw, bound):
        """Phase-1 on these small-cell draws centers at t = 1e8 to 1e10,
        and its centering at the final t = 1e11 ends at the rounding
        floor.  That centering certifies no gap, but the record at 1e10
        ended CENTERED with tau - m/t >= bound > 0, so allocate reports
        the draw infeasible and does not raise "phase-1 returned
        stalled"."""
        stops, real_center = [], gp._center

        def recording_center(barrier, y, point, t, callback=None):
            out = real_center(barrier, y, point, t, callback)
            stops.append((t, out[2]))
            return out

        monkeypatch.setattr(gp, "_center", recording_center)
        cfg, graph, ch, occ = make_scenario(**draw)
        with pytest.raises(allocation.InfeasibleScenarioError) as err:
            allocation.allocate(cfg, ch, graph, occ)
        assert stops[-3:] == [(1e9, gp.CENTERED), (1e10, gp.CENTERED),
                              (1e11, gp.ROUNDING_FLOOR)]
        assert err.value.max_slack >= bound

    def test_phase1_certificate_skips_floor_hand_ons(self, monkeypatch):
        """A record handed on from the rounding floor is not centered: with
        the first draw's centering at t = 1e10 reported as a floor exit,
        phase-1's path names its record at 1e9 as the last centered one."""
        draw, _ = PHASE1_FLOOR_DRAWS[0]
        cfg, graph, ch, occ = make_scenario(**draw)
        p2 = allocation.build_p2(cfg, ch, graph, occ)
        problem = to_convex_form(product(p2.numerator_factors), constraints=p2.constraints)
        paths, real_center, real_path = [], gp._center, gp._central_path

        def floor_at_1e10(barrier, y, point, t, callback=None):
            y, point, stop, steps = real_center(barrier, y, point, t, callback)
            return y, point, gp.ROUNDING_FLOOR if t == 1e10 else stop, steps

        def recording_path(*args, **kwargs):
            paths.append(real_path(*args, **kwargs))
            return paths[-1]

        monkeypatch.setattr(gp, "_center", floor_at_1e10)
        monkeypatch.setattr(gp, "_central_path", recording_path)
        feas = find_feasible(problem)
        (status, _, rows, centered), = paths
        assert status == STALLED and [r[0] for r in rows[-3:]] == [1e9, 1e10, 1e11]
        assert centered is rows[-3]
        assert not feas.feasible and feas.status == OPTIMAL


def _solver_bytes(res):
    """Everything a SolverResult says about the iterates, as bytes."""
    path = [(t, y.tobytes(), float(f0), gap) for t, y, f0, gap in res.path]
    return repr((res.status, res.newton_steps_used, res.y.tobytes(), path))


def _trace_bytes(trace):
    return repr([trace.rates()] + [_solver_bytes(p.solver) for p in trace.points])


def _wrapped_newton_step(hess, grad):
    """gp._regularized_newton_step with every system solved by
    np.linalg.solve, wrapper and all: the reference the direct LAPACK
    solve must match bit for bit."""
    try:
        delta = np.linalg.solve(hess, -grad)
    except np.linalg.LinAlgError:
        pass
    else:
        descent = float(grad.dot(delta))
        if descent < 0 and np.isfinite(descent):
            return delta, descent
    diagonal = hess.diagonal().copy()
    reg = 1e-12 * max(np.trace(hess), 1.0)
    for _ in range(60):
        hess.flat[::len(grad) + 1] = diagonal + reg
        reg *= 10.0
        try:
            np.linalg.cholesky(hess)
            delta = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            continue
        descent = float(grad.dot(delta))
        if descent <= 0 and np.isfinite(descent):
            return delta, descent
    raise np.linalg.LinAlgError("Newton system could not be regularized")


def assert_direct_solve_exact(run, fingerprint):
    """run() gives the same fingerprint, and evaluates the barrier at the
    same points in the same order, with gp's Newton step as with
    _wrapped_newton_step."""
    results = []
    for step in (_wrapped_newton_step, gp._regularized_newton_step):
        calls = []
        real = gp._Barrier.evaluate

        def recording(self, y):
            calls.append(y.tobytes())
            return real(self, y)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gp._Barrier, "evaluate", recording)
            patch.setattr(gp, "_regularized_newton_step", step)
            results.append((fingerprint(run()), calls))
    assert results[0][1]
    assert results[0] == results[1]


class TestDirectSolve:
    @pytest.mark.parametrize("n", [1, 4, 14, 16])
    def test_matches_numpy_solve(self, n):
        """gp._solve returns np.linalg.solve's bytes on SPD, indefinite
        and badly scaled systems."""
        rng = np.random.default_rng(n)
        for scale in (1e-12, 1.0, 1e9):
            m = rng.normal(size=(n, n))
            for a in (m @ m.T + 1e-3 * np.eye(n), m, m * scale):
                b = rng.normal(size=n) * scale
                assert gp._solve(a, b).tobytes() == np.linalg.solve(a, b).tobytes()

    @pytest.mark.parametrize("hess", [
        np.zeros((3, 3)),
        np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
        np.diag([4.0, 0.0, 1.0, 2.0]),
    ], ids=["zero", "rank-1", "zero-eigenvalue"])
    def test_singular_raises_without_warning(self, hess):
        """A singular system raises LinAlgError, as np.linalg.solve does,
        with no RuntimeWarning (those fail every test), so the Newton
        step takes the Cholesky branch: its result is the reference's."""
        grad = np.linspace(-1.0, 2.0, len(hess))
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            gp._solve(hess, -grad)
        want = _wrapped_newton_step(hess.copy(), grad)
        got = gp._regularized_newton_step(hess.copy(), grad)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1] == want[1]

    @pytest.mark.parametrize("jd", [1, 2, 4])
    def test_allocate_matches_wrapped_solve(self, jd):
        """Every pass and the phase-1 start of allocate on seeds 0-2, bit
        for bit: rates, y, path and Newton steps, or the best slack of a
        draw certified infeasible."""
        def run():
            try:
                return _trace_bytes(allocation.allocate(cfg, ch, graph, occ))
            except allocation.InfeasibleScenarioError as err:
                return repr(err.max_slack)

        for seed in range(3):
            cfg, graph, ch, occ = make_scenario(seed=seed, jd=jd)
            assert_direct_solve_exact(run, str)

    @pytest.mark.parametrize("seed", [2, 40])
    def test_phase1_on_infeasible_draws_matches_wrapped_solve(self, seed):
        cfg, graph, ch, occ = make_scenario(seed=seed, jd=2)
        p2 = allocation.build_p2(cfg, ch, graph, occ)
        problem = to_convex_form(product(p2.numerator_factors), constraints=p2.constraints)

        def fingerprint(feas):
            assert not feas.feasible
            return repr((feas.status, feas.max_slack))

        assert_direct_solve_exact(lambda: find_feasible(problem), fingerprint)


class TestStalledLineSearch:
    @staticmethod
    def reject_after_start(monkeypatch):
        """Make every barrier evaluate None after its first (the start)."""
        real = gp._Barrier.evaluate

        def first_only(self, y):
            point = real(self, y)
            return point if self.evaluations == 1 else None

        monkeypatch.setattr(gp._Barrier, "evaluate", first_only)

    def test_solve_reports_stalled(self, monkeypatch):
        """A line search that accepts no step ends the solve STALLED, with
        no step taken: after y0, each of the 60 steps from 1 halved down
        to 1e-18 is evaluated."""
        problem, w, _, _ = witness_gp(3, 3, 4, [2, 3])
        self.reject_after_start(monkeypatch)
        res = solve(problem, y0=w)
        assert res.status == STALLED
        assert res.newton_steps_used == 0
        assert len(res.path) == 1
        assert res.evaluations == 1 + 60

    def test_allocate_raises_on_stalled_pass(self, monkeypatch):
        """Seed 1 at J_D = 1 starts from the half-cap point, so the stall
        comes from pass 1's solve, and allocate raises for it."""
        cfg, graph, ch, occ = make_scenario(seed=1, jd=1)
        self.reject_after_start(monkeypatch)
        with pytest.raises(allocation.AllocationSolverError, match="stalled") as err:
            allocation.allocate(cfg, ch, graph, occ)
        assert err.value.result.status == STALLED


class TestEvaluationCount:
    def test_counts_every_barrier_evaluation(self, monkeypatch):
        """evaluations counts y0's, the warm-start scan's and every line
        search candidate's evaluation of the solve's barrier."""
        calls = allocate_solves(monkeypatch, seed=0, jd=1)
        problem, y0, warm_path, _ = calls[2]
        counted = []
        real = gp._Barrier.evaluate

        def counting(self, y):
            counted.append(y)
            return real(self, y)

        monkeypatch.setattr(gp._Barrier, "evaluate", counting)
        res = solve(problem, y0=y0, warm_path=warm_path)
        assert res.evaluations == len(counted) > res.newton_steps_used

    def test_jd4_allocate_evaluates_little_more_than_once_per_step(self, monkeypatch):
        """Apart from _predict's, the pass solves' evaluations that reach
        the objective's rows (those inside the domain) number fewer than
        1.2 per Newton step, and _predict makes at most 1.5 of them per
        centering boundary.  Counted with the candidates outside the
        domain, which read only the constraint rows, the first figure is
        about 2.4."""
        in_solve, reached, predicted = [False], [0], []
        real_evaluate, real_predict, real_solve = (gp._Barrier.evaluate, gp._predict,
                                                   allocation.solve)

        def counting_evaluate(self, y):
            point = real_evaluate(self, y)
            reached[0] += in_solve[0] and point is not None
            return point

        def counting_predict(barrier, y, point, t, t_next):
            before = reached[0]
            start = real_predict(barrier, y, point, t, t_next)
            predicted.append(reached[0] - before)
            return start

        def flagged_solve(*args, **kwargs):
            in_solve[0] = True
            try:
                return real_solve(*args, **kwargs)
            finally:
                in_solve[0] = False

        monkeypatch.setattr(gp._Barrier, "evaluate", counting_evaluate)
        monkeypatch.setattr(gp, "_predict", counting_predict)
        monkeypatch.setattr(allocation, "solve", flagged_solve)
        cfg, graph, ch, occ = make_scenario(seed=0, jd=4)
        trace = allocation.allocate(cfg, ch, graph, occ)
        steps = sum(p.solver.newton_steps_used for p in trace.points)
        assert reached[0] - sum(predicted) < 1.2 * steps
        assert predicted and sum(predicted) <= 1.5 * len(predicted)

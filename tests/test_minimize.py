"""The library's own minimisers, and the Poisson tail against gammainc."""

import inspect
import math

import numpy as np
import pytest
from scipy import special

from oracles import bfgs_update
from phasecomm._minimize import (
    _EPS,
    _NOISE_ULPS,
    _bfgs_update,
    _line_search,
    bfgs,
    bfgs_search,
    drive,
    newton_search,
)
from phasecomm.config import TAIL
from phasecomm.fock import default_cutoff, poisson_tail


def rosenbrock(x):
    a, b = x[:-1], x[1:]
    f = np.sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2)
    g = np.zeros_like(x)
    g[:-1] = -400.0 * a * (b - a * a) - 2.0 * (1.0 - a)
    g[1:] += 200.0 * (b - a * a)
    return float(f), g


def box_quadratic(x):
    # (f, gradient, Hessian) for `newton_search`; the unconstrained minimum
    # (10/3, -8/3) lies outside x0 <= 1, and the minimum over x1 at x0 = 1 is -1.5
    x0, x1 = x
    return (x0 - 2.0) ** 2 + (x1 + 1.0) ** 2 + x0 * x1, (2.0 * (x0 - 2.0) + x1, 2.0 * (x1 + 1.0) + x0), (2.0, 1.0, 2.0)


def rosenbrock_newton(x):
    # 1 + Rosenbrock, so that the rounding noise of f at the minimum is that of 1
    a, b = x
    return (
        1.0 + 100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2,
        (-400.0 * a * (b - a * a) - 2.0 * (1.0 - a), 200.0 * (b - a * a)),
        (1200.0 * a * a - 400.0 * b + 2.0, -400.0 * a, 200.0),
    )


FREE = ((-math.inf, math.inf), (-math.inf, math.inf))


def shifted_square(x):
    # (f, gradient, Hessian) of one variable for `newton_search`
    (v,) = x
    return (v - 0.3) ** 2, (2.0 * (v - 0.3),), (2.0,)


def tilted_cosine(x):
    (v,) = x
    return math.cos(3.0 * v) + 0.1 * v, (0.1 - 3.0 * math.sin(3.0 * v),), (-9.0 * math.cos(3.0 * v),)


def double_well(x):
    # minima at +-1, a maximum at 0; the Hessian is negative for |v| < 1 / sqrt(3)
    (v,) = x
    return v**4 / 4 - v**2 / 2, (v**3 - v,), (3.0 * v * v - 1.0,)


def cosh_bowl(x):
    # 1 + cosh, so that the rounding noise of f at the minimum 0 is that of 2
    (v,) = x
    return 1.0 + math.cosh(v), (math.sinh(v),), (math.cosh(v),)


class TestBfgs:
    def test_convex_quadratic(self):
        # written about its minimiser, so that f keeps its relative precision there
        rng = np.random.default_rng(3)
        q = rng.standard_normal((40, 40))
        a = q @ q.T + 0.5 * np.eye(40)
        x_min = rng.standard_normal(40)

        def fun(x):
            g = a @ (x - x_min)
            return 0.5 * float((x - x_min) @ g), g

        x, _, iterations = bfgs(fun, np.zeros(40), 1000)
        assert iterations < 1000
        assert np.max(np.abs(x - x_min)) <= 1e-8

    @pytest.mark.parametrize("n", [2, 10])
    def test_rosenbrock(self, n):
        x0 = np.full(n, -1.2)
        x0[1::2] = 1.0
        x, f, iterations = bfgs(rosenbrock, x0, 2000)
        assert iterations < 2000
        assert np.max(np.abs(x - 1.0)) <= 1e-8

    def test_respects_max_iter_and_evaluations(self):
        calls = []

        def counted(x):
            calls.append(x)
            return rosenbrock(x)

        x, f, iterations = bfgs(counted, np.array([-1.2, 1.0]), 7)
        assert iterations == 7
        assert len(calls) <= 2 * 7
        assert f == rosenbrock(x)[0]

    def test_stops_when_stop_is_true(self):
        seen = []

        def stop(x, iterations):
            seen.append((x.copy(), iterations))
            return iterations == 4

        x, _, iterations = bfgs(rosenbrock, np.array([-1.2, 1.0]), 1000, stop=stop)
        assert iterations == 4
        assert [i for _, i in seen] == [1, 2, 3, 4]
        assert np.array_equal(x, seen[-1][0])

    def test_takes_no_box(self):
        # the box belongs to `newton_search`, the atomic polish
        assert list(inspect.signature(bfgs_search).parameters) == ["x0", "max_iter", "stop"]

    def test_each_update_meets_the_secant_condition(self):
        # H y = s for the newest pair, and H stays symmetric positive definite
        rng = np.random.default_rng(5)
        n = 12
        q = rng.standard_normal((n, n))
        a = q @ q.T + np.eye(n)
        h = None
        for _ in range(30):
            s = rng.standard_normal(n)
            y = a @ s
            h = _bfgs_update(h, s, y)
            assert np.linalg.norm(h @ y - s) <= 1e-10 * np.linalg.norm(s)
            assert np.max(np.abs(h - h.T)) <= 1e-12 * np.max(np.abs(h))
            assert np.linalg.eigvalsh(0.5 * (h + h.T)).min() > 0.0

    @pytest.mark.parametrize("n", [1, 2, 91, 465])
    def test_update_equals_its_stacked_form_bit_for_bit(self, n):
        # the first pair starts H as gamma I; the fourth has no curvature and is skipped
        rng = np.random.default_rng(n)
        q = rng.standard_normal((n, n))
        a = q @ q.T / n + np.eye(n)
        h = expected = None
        for k in range(6):
            s = rng.standard_normal(n)
            y = -s if k == 3 else a @ s
            expected = bfgs_update(expected, s, y)
            h = _bfgs_update(h, s, y)
            assert np.array_equal(h, expected)

    @pytest.mark.parametrize("ratio", [0.9, 1.1])
    def test_stops_when_the_predicted_decrease_is_below_the_noise_of_f(self, ratio):
        # f = 1 + 1e-9 |x|^2: the first step is steepest descent, whose model
        # predicts a decrease of -slope / 2 = |g|^2 / 2 = 2e-18 x^2; the start
        # puts it at `ratio` times _NOISE_ULPS units in the last place of f
        def fun(x):
            return 1.0 + 1e-9 * float(x @ x), 2e-9 * x

        x0 = np.array([math.sqrt(ratio * _NOISE_ULPS * _EPS / 2e-18)])
        f0, g0 = fun(x0)
        assert float(g0 @ g0) > _EPS * f0  # -slope is above one unit in the last place
        trials = []

        def evaluate(_, points):
            trials.append(points[0])
            return [fun(points[0])]

        [(x, f, iterations)] = drive([bfgs_search(x0, 100)], evaluate)
        if ratio < 1.0:
            # no line search: the start is returned after its one evaluation
            assert len(trials) == 1 and iterations == 0
            assert np.array_equal(x, x0) and f == f0
        else:
            assert len(trials) > 1 and iterations >= 1
            assert f < f0

    def test_skips_a_pair_without_curvature(self):
        s, y = np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0])
        assert _bfgs_update(None, s, y) is None
        h = np.eye(3)
        assert _bfgs_update(h, s, y) is h


def cosh_valley(x):
    # steep enough that line searches backtrack: from (3, -2) a run with
    # max_iter 5 spends its 2 max_iter evaluations in 2 iterations
    return float(np.sum(np.cosh(10.0 * x))), 10.0 * np.sinh(10.0 * x)


def flat_line_search():
    # f is flat along d = 1e-13 from x = 1; from the 11th halving of the
    # unit step on, every trial rounds back to x
    x, g, d = np.array([1.0]), np.array([-1.0]), np.array([1e-13])
    return _line_search(x, 0.0, g, d, float(g @ d), 1.0, 100)


class TestDrive:
    """Searches in lock-step see the values they see alone."""

    # (a fresh search, its objective)
    CASES = [
        (lambda: newton_search((0.0,), ((-1.0, 2.0),)), shifted_square),
        (lambda: newton_search((0.1,), ((-2.0, 2.0),)), double_well),
        (lambda: newton_search((2.0,), ((-math.inf, 0.0),)), shifted_square),
        (lambda: bfgs_search(np.array([-1.2, 1.0]), 1000), rosenbrock),
        (lambda: newton_search((0.0, 0.0), ((-math.inf, 1.0), (-math.inf, math.inf))), box_quadratic),
        (lambda: bfgs_search(np.array([3.0, -2.0]), 5), cosh_valley),
        (flat_line_search, lambda x: (0.0, np.array([-1.0]))),
        (lambda: newton_search((-1.2, 1.0), FREE), rosenbrock_newton),
    ]
    BUDGET_SPENT = 5

    def test_lock_step_returns_what_each_search_returns_alone(self):
        alone = [drive([search()], lambda _, points, f=f: [f(points[0])])[0] for search, f in self.CASES]
        rounds = []

        def evaluate(which, points):
            rounds.append(list(which))
            return [self.CASES[i][1](point) for i, point in zip(which, points)]

        together = drive([search() for search, _ in self.CASES], evaluate)
        for one, lock_step in zip(alone, together):
            assert len(one) == len(lock_step)
            for a, b in zip(one, lock_step):
                assert np.array_equal(a, b)
        # a search leaves the rounds when it returns, and the rounds number
        # the evaluations of the longest search
        for before, after in zip(rounds, rounds[1:]):
            assert set(after) <= set(before)
        evaluations = [sum(i in r for r in rounds) for i in range(len(self.CASES))]
        assert len(rounds) == max(evaluations)
        assert len(set(evaluations)) > 1
        # the cosh start ends on its evaluation budget, well before max_iter
        assert evaluations[self.BUDGET_SPENT] == 2 * 5
        assert alone[self.BUDGET_SPENT][2] < 5
        # the boxed starts hold x0 on their bounds
        assert together[2][0] == (0.0,) and together[4][0][0] == 1.0


class TestLineSearch:
    def test_gives_up_at_the_first_trial_that_rounds_to_x(self):
        trials = []

        def evaluate(_, points):
            trials.append(points[0])
            return [(0.0, np.array([-1.0]))]

        [(found, *_)] = drive([flat_line_search()], evaluate)
        assert not found
        assert len(trials) == 10
        assert not any(np.array_equal(t, [1.0]) for t in trials)


def newton_trials(x0, fun, box) -> tuple:
    """(trial points, (x, f, iterations)) of one `newton_search` run."""
    trials = []

    def evaluate(_, points):
        trials.append(points[0])
        return [fun(points[0])]

    [result] = drive([newton_search(x0, box)], evaluate)
    return trials, result


class TestNewton:
    def test_box_holds_a_variable_on_its_bound(self):
        # the Newton step from 0 lands on (10/3, -8/3), projected onto x0 = 1;
        # there the gradient pushes x0 outward, so x0 is held and x1 takes its
        # own Newton step to the minimum over x1
        trials, (x, f, iterations) = newton_trials((0.0, 0.0), box_quadratic, ((-math.inf, 1.0), (-math.inf, math.inf)))
        assert trials[1][0] == 1.0 and trials[1][1] == pytest.approx(-8.0 / 3.0, abs=1e-15)
        assert all(t[0] == 1.0 for t in trials[1:])
        assert x[0] == 1.0 and x[1] == pytest.approx(-1.5, abs=1e-15)
        assert f == box_quadratic(x)[0] and iterations == 2

    @pytest.mark.parametrize("turn", [0.0, 0.3])
    def test_an_indefinite_hessian_takes_the_absolute_eigenvalue_step(self, turn):
        # f(R x) with f(y) = y0^4 / 4 - y0^2 / 2 + y1^2, saddle at y = 0 and
        # minima at y = (+-1, 0); at y = (0.1, 0.5) the Hessian is
        # diag(-0.97, 2), whose plain Newton step would climb towards the saddle
        c, s = math.cos(turn), math.sin(turn)

        def fun(x):
            y0, y1 = c * x[0] - s * x[1], s * x[0] + c * x[1]
            gy, hy = (y0**3 - y0, 2.0 * y1), (3.0 * y0 * y0 - 1.0, 2.0)
            return (
                y0**4 / 4 - y0**2 / 2 + y1**2,
                (c * gy[0] + s * gy[1], -s * gy[0] + c * gy[1]),
                (c * c * hy[0] + s * s * hy[1], s * c * (hy[1] - hy[0]), s * s * hy[0] + c * c * hy[1]),
            )

        x0 = (c * 0.1 + s * 0.5, -s * 0.1 + c * 0.5)
        _, g, h = fun(x0)
        w, v = np.linalg.eigh(np.array([[h[0], h[1]], [h[1], h[2]]]))
        assert w[0] < 0.0 < w[1]
        step = -(v / np.abs(w)) @ (v.T @ np.array(g))
        trials, (x, f, _) = newton_trials(x0, fun, FREE)
        assert np.allclose(np.subtract(trials[1], trials[0]), step, rtol=0.0, atol=1e-14)
        assert fun(trials[1])[0] < fun(x0)[0]
        # it descends into the minimum on the side it started
        assert np.allclose(x, (c, -s), rtol=0.0, atol=1e-8) and f == pytest.approx(-0.25, abs=1e-15)

    def test_rosenbrock_ends_at_the_rounding_noise_of_f(self):
        trials, (x, f, iterations) = newton_trials((-1.2, 1.0), rosenbrock_newton, FREE)
        assert iterations < 100 and len(trials) < 100
        assert np.max(np.abs(np.subtract(x, 1.0))) <= 1e-7
        # the run ends without a line search: its last trial is x, and the
        # full Newton step's predicted decrease is below the noise of f
        assert trials[-1] == x
        _, g, h = rosenbrock_newton(x)
        a, b, c = h
        g_h_g = (c * g[0] * g[0] - 2.0 * b * g[0] * g[1] + a * g[1] * g[1]) / (a * c - b * b)
        assert 0.5 * g_h_g <= _NOISE_ULPS * _EPS * abs(f)

    def test_holds_both_variables_on_their_bounds(self):
        # a corner the gradient pushes out of on both axes: no step, one evaluation
        trials, (x, f, iterations) = newton_trials((2.0, 3.0), box_quadratic, ((-math.inf, 1.0), (-math.inf, -2.0)))
        assert trials == [(1.0, -2.0)] and x == (1.0, -2.0) and iterations == 0

    def test_the_iteration_cap_is_the_module_constant(self, monkeypatch):
        # every polish shares one cap, so the search takes none as an argument
        assert list(inspect.signature(newton_search).parameters) == ["x0", "box"]
        monkeypatch.setattr("phasecomm._minimize._POLISH_ITER", 3)
        _, (x, f, iterations) = newton_trials((-1.2, 1.0), rosenbrock_newton, FREE)
        assert iterations == 3 and f == rosenbrock_newton(x)[0] and f < rosenbrock_newton((-1.2, 1.0))[0]


class TestNewtonOneVariable:
    """`newton_search` in one variable: the step -g / |h| on a box."""

    def test_box_holds_the_variable_on_its_bound(self):
        # from 2 the Newton step lands on 0.3, projected onto the box's 1; there
        # the gradient pushes outward, so the run stops without another trial
        trials, (x, f, iterations) = newton_trials((2.0,), shifted_square, ((1.0, 3.0),))
        assert trials == [(2.0,), (1.0,)]
        assert x == (1.0,) and f == shifted_square(x)[0] and iterations == 1

    def test_an_indefinite_start_steps_downhill(self):
        # at 0.1 the Hessian is -0.97: the plain step -g / h climbs to the
        # maximum at 0, the step -g / |h| descends towards the minimum at 1
        _, (g,), (h,) = double_well((0.1,))
        assert h < 0.0 and -g / h < 0.0 < -g / abs(h)
        trials, (x, f, _) = newton_trials((0.1,), double_well, ((-2.0, 2.0),))
        assert trials[1] == (0.1 - g / abs(h),)
        assert double_well(trials[1])[0] < double_well((0.1,))[0]
        assert x[0] == pytest.approx(1.0, abs=1e-8) and f == pytest.approx(-0.25, abs=1e-15)

    def test_stops_at_the_rounding_noise_of_f(self):
        trials, (x, f, iterations) = newton_trials((1.0,), cosh_bowl, ((-math.inf, math.inf),))
        assert iterations < 10 and abs(x[0]) <= 1e-7
        # the run ends without a line search: its last trial is x, and the
        # full Newton step's predicted decrease is below the noise of f
        assert trials[-1] == x
        _, (g,), (h,) = cosh_bowl(x)
        assert 0.5 * g * g / abs(h) <= _NOISE_ULPS * _EPS * abs(f)

    def test_each_end_is_at_or_below_its_start(self):
        for start in np.linspace(-1.9, 1.9, 39).tolist():
            trials, (x, f, _) = newton_trials((start,), double_well, ((-2.0, 2.0),))
            assert trials[0] == (start,) and f <= double_well((start,))[0]


class TestPoissonTail:
    def test_matches_regularized_gamma(self):
        worst = 0.0
        for alpha in np.linspace(0.0, 12.0, 121):
            for cutoff in (1, 5, 30, 45, 60, 100, 200, 400):
                ref = float(special.gammainc(cutoff + 1, alpha * alpha))
                got = poisson_tail(alpha, cutoff)
                assert got <= 1.0
                if ref > 1e-300:
                    worst = max(worst, abs(got - ref) / ref)
        assert worst <= 1e-12

    def test_mode_far_beyond_the_cutoff(self):
        # the pmf at cutoff + 1 underflows; the tail is all the mass
        assert poisson_tail(100.0, 400) == pytest.approx(1.0, abs=1e-12)

    def test_default_cutoff_unchanged(self):
        def reference(a):
            n = 30
            while float(special.gammainc(n + 1, a * a)) >= TAIL:
                n += 1
            return n

        for a in np.linspace(0.0, 10.0, 401):
            assert default_cutoff([a]) == reference(a)

"""The library's two minimisers, in numpy and `math` only: ask-and-tell
generators that yield a trial point and are sent back its value. `drive`
runs several in lock-step, one batched evaluation per round; `bfgs` runs one.

`bfgs_search` is BFGS with the full inverse Hessian (Nocedal and Wright,
Numerical Optimization, 2nd ed., ch. 6) and an Armijo line search with
weak-Wolfe expansion; `newton_search` is Newton's method in one or two
variables with a modified exact Hessian (ibid., section 3.4) on a box. In
place of a gradient tolerance, both stop at the rounding noise of f.
"""

import math

import numpy as np

_EPS = np.finfo(float).eps

# sufficient decrease and curvature constants of the line search
_ARMIJO = 1e-4
_WOLFE = 0.9
# units in the last place of f that a step's predicted decrease must reach
_NOISE_ULPS = 4
# trial steps per line search
_MAX_TRIALS = 20
# iterations of one Newton polish
_POLISH_ITER = 200


def drive(searches: list, evaluate) -> list:
    """Run the generators `searches` in lock-step; returns the value each returns.
    A round sends every running search the value of its pending trial from
    one call `evaluate(which, points)`, `which` the running searches' indices
    and `points` their trials, one value per point. A search leaves when it
    returns, so the rounds number the evaluations of the longest, and each
    sees the values it would see alone. `evaluate` must not keep or change
    the two lists: a round refills them."""
    results = [None] * len(searches)
    running, live = list(range(len(searches))), list(searches)
    points = [next(search) for search in searches]
    while running:
        values = evaluate(running, points)
        ended = False
        for k, search in enumerate(live):
            try:
                points[k] = search.send(values[k])
            except StopIteration as done:
                results[running[k]] = done.value
                live[k], ended = None, True
        if ended:
            keep = [k for k, search in enumerate(live) if search is not None]
            running, live, points = ([part[k] for k in keep] for part in (running, live, points))
    return results


def bfgs(fun, x0: np.ndarray, max_iter: int, stop=None) -> tuple:
    """Minimise `fun`, which returns (f(x), gradient), from `x0`; returns
    (x, f, iterations). The settings are those of `bfgs_search`."""
    return drive([bfgs_search(x0, max_iter, stop)], lambda _, points: [fun(*points)])[0]


def bfgs_search(x0: np.ndarray, max_iter: int, stop=None):
    """Minimise f from `x0`, sent (f, gradient) at each trial; returns (x, f, iterations).

    A run ends after `max_iter` iterations or 2 `max_iter` evaluations, when
    `stop(x, iterations)` is true after an iteration, when the step's
    predicted decrease, -slope / 2, is below `_NOISE_ULPS` units in the last
    place of f, or when a line search fails (f is then at its rounding noise).
    """
    x = np.asarray(x0, dtype=float)
    f, g = yield x
    evals, budget = 1, 2 * max_iter
    h = None  # the inverse Hessian, from the first pair with curvature on
    for it in range(max_iter):
        if h is None:
            d = -g
            t = 1.0 / max(float(np.linalg.norm(d)), 1e-300)
        else:
            d = -(h @ g)
            t = 1.0
        slope = float(g @ d)
        # the decrease the quadratic model predicts for the step, against the
        # rounding noise of f: below it, a line search only chases noise
        if not -0.5 * slope > _NOISE_ULPS * _EPS * abs(f):
            return x, f, it
        found, x_new, f_new, g_new, used = yield from _line_search(x, f, g, d, slope, t, budget - evals)
        evals += used
        if not found:
            return x, f, it
        h = _bfgs_update(h, x_new - x, g_new - g)
        x, f, g = x_new, f_new, g_new
        if (stop is not None and stop(x, it + 1)) or evals >= budget:
            return x, f, it + 1
    return x, f, max_iter


def _bfgs_update(h, s: np.ndarray, y: np.ndarray):
    """The inverse Hessian after the step `s` changed the gradient by `y`,
    updated in place; `h` is None before the first pair, and H then starts
    as gamma I, gamma = s^T y / y^T y (Nocedal and Wright, eq. 6.20). The
    update (eq. 6.17), H + c s s^T - rho (s h^T + h s^T) with h = H y,
    rho = 1 / s^T y and c = rho + rho^2 y^T h, is one (n, 2) @ (2, n) product
    of C-ordered `np.empty` buffers: columns s, h; rows c s - rho h, -rho s."""
    s_y, y_y = float(s @ y), float(y @ y)
    if not s_y > _EPS * y_y:  # curvature too weak to keep the update positive definite
        return h
    if h is None:
        h = np.diag(np.full(s.size, s_y / y_y))
    rho = 1.0 / s_y
    h_y = h @ y
    c = rho + rho * rho * float(y @ h_y)
    left, right = np.empty((s.size, 2)), np.empty((2, s.size))
    left[:, 0], left[:, 1] = s, h_y
    right[0], right[1] = c * s - rho * h_y, -rho * s
    h += left @ right
    return h


def _line_search(x, f, g, d, slope, t, budget):
    """A step along d with Armijo's decrease and, where the trials allow,
    the weak Wolfe curvature; sent (f, gradient) at each trial, returns
    (found, x, f, g, evaluations). Doubles the step while the decrease is
    sufficient and the slope steep; after a step falls short, backtracks
    (`_backtrack`, or bisection after an expansion) to the first with
    sufficient decrease, and gives up at the first trial that rounds to x."""
    lo, hi = 0.0, math.inf
    best, used = None, 0
    x_bytes = x.tobytes()
    for _ in range(min(_MAX_TRIALS, budget)):
        x_t = x + (d if t == 1.0 else t * d)  # 1.0 d is d bit for bit
        # x bit for bit (compared as bytes, the cheapest test): every
        # shorter step rounds to x too, so no decrease is left
        if x_t.tobytes() == x_bytes:
            break
        f_t, g_t = yield x_t
        used += 1
        if not (f_t < f and f_t <= f + _ARMIJO * (t * slope)):
            hi = t
            t = 0.5 * (lo + hi) if lo > 0.0 else _backtrack(f_t - f, slope, t)
            continue
        best = (x_t, f_t, g_t)
        if hi < math.inf or float(g_t @ d) >= _WOLFE * slope:
            break
        lo, t = t, 2.0 * t
    if best is None:
        return False, x, f, g, used
    return (True, *best, used)


def _backtrack(rise: float, slope: float, t: float) -> float:
    """The step after t raised f by `rise` along `slope`: the quadratic's
    minimum, within [0.1 t, 0.5 t]."""
    excess = rise - slope * t
    guess = -0.5 * slope * t * t / excess if excess > 0.0 and math.isfinite(excess) else 0.5 * t
    return min(max(guess, 0.1 * t), 0.5 * t)


def newton_search(x0: tuple, max_iter: int, box: tuple):
    """Minimise f of one or two variables on `box`, a (lo, hi) each, from `x0`,
    sent floats (f, (g0,), (h00,)) or (f, (g0, g1), (h00, h01, h11)) at each
    trial; returns (x, f, iterations). The step d, `_newton_step`'s with a
    variable held on a bound that the gradient pushes outward, is backtracked
    by safeguarded quadratic interpolation to Armijo's decrease, each trial
    projected into the box. A run ends after `max_iter` iterations, at a trial
    that rounds to x, after `_MAX_TRIALS` failed trials, or when the model's
    decrease -slope t (1 - t/2) for the trial t d is below `_NOISE_ULPS` ulps of f."""
    x = tuple(min(max(v, lo), hi) for v, (lo, hi) in zip(x0, box))
    f, g, h = yield x
    for it in range(max_iter):
        held = [(v <= lo and gv > 0.0) or (v >= hi and gv < 0.0) for v, gv, (lo, hi) in zip(x, g, box)]
        d = _newton_step(g, h, held)
        slope, noise, t = sum(gv * dv for gv, dv in zip(g, d)), _NOISE_ULPS * _EPS * abs(f), 1.0
        for _ in range(_MAX_TRIALS):
            x_t = tuple(min(max(v + t * dv, lo), hi) for v, dv, (lo, hi) in zip(x, d, box))
            # below the rounding noise of f, a trial only chases noise
            if x_t == x or not -slope * t * (1.0 - 0.5 * t) > noise:
                return x, f, it
            f_t, g_t, h_t = yield x_t
            if f_t < f and f_t <= f + _ARMIJO * sum(gv * (a - b) for gv, a, b in zip(g, x_t, x)):
                break
            t = _backtrack(f_t - f, slope, t)
        else:
            return x, f, it
        x, f, g, h = x_t, f_t, g_t, h_t
    return x, f, max_iter


def _newton_step(g: tuple, h: tuple, held: list) -> tuple:
    """-|H|^+ g over the variables not `held`, |H| with the eigenvalues of H,
    (h00,) or ((h00, h01), (h01, h11)), made absolute and ^+ its pseudo-inverse
    (an eigenvalue 0 divides as inf): the Newton step where H is positive
    definite, and with a variable held, the other's diagonal step."""
    if len(g) == 1 or held[0] or held[1]:
        return tuple(0.0 if hold else -gv / (abs(hv) or math.inf) for gv, hv, hold in zip(g, h[::2], held))
    a, b, c = h
    # the eigenpairs (m + r, (cos u, sin u)) and (m - r, (-sin u, cos u))
    m, r, u = 0.5 * (a + c), math.hypot(0.5 * (a - c), b), 0.5 * math.atan2(2.0 * b, a - c)
    cos_u, sin_u = math.cos(u), math.sin(u)
    along = (cos_u * g[0] + sin_u * g[1]) / (abs(m + r) or math.inf)
    across = (cos_u * g[1] - sin_u * g[0]) / (abs(m - r) or math.inf)
    return sin_u * across - cos_u * along, -sin_u * along - cos_u * across

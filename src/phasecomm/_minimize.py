"""The library's two minimisers, in numpy and `math` only.

Both are ask-and-tell searches: a generator that yields a trial point and
is sent back its value. `drive` runs several searches in lock-step, so
that one batched evaluation serves the trials of every running search in
a round; `bfgs` runs one search through it.

`brent_search` is Brent's bounded scalar minimisation, step for step as
scipy's `minimize_scalar(method="bounded")` takes it, so it returns the
same point bit for bit. `bfgs_search` is BFGS with the full inverse
Hessian (Nocedal and Wright, Numerical Optimization, 2nd ed., ch. 6), an
Armijo backtracking line search with weak-Wolfe expansion, and an
optional box onto which every trial point is projected; in place of a
gradient tolerance, it stops at the rounding noise of f.
"""

import math

import numpy as np

_EPS = np.finfo(float).eps
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)

# sufficient decrease and curvature constants of the line search
_ARMIJO = 1e-4
_WOLFE = 0.9
# units in the last place of f that a step's predicted decrease must reach
_NOISE_ULPS = 4
# trial steps per line search
_MAX_TRIALS = 20
# evaluations of one bounded Brent search, scipy's default
_BRENT_EVALS = 500


def drive(searches: list, evaluate) -> list:
    """Run the generators `searches` in lock-step; returns the value each returns.

    A round sends every running search the value of its pending trial
    point, all of them from one call `evaluate(which, points)`: `which`
    lists the running searches' indices in `searches`, `points` their
    trials, and the call returns one value per point. A search leaves the
    rounds when it returns, so the rounds number the evaluations of the
    longest search. Each search sees the values it would see alone.
    `evaluate` must not keep or change the two lists: a round refills them.
    """
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
    """Minimise `fun`, which returns (f(x), gradient), from `x0` without a
    box; returns (x, f, iterations). The settings are those of `bfgs_search`."""
    return drive([bfgs_search(x0, max_iter, stop)], lambda _, points: [fun(*points)])[0]


def brent_search(lo: float, hi: float, xatol: float):
    """Search for a minimum on [lo, hi] to `xatol`, sent f at each trial;
    returns (x, f(x)).

    Golden-section steps, and parabolic steps where the parabola through
    the three best points is acceptable; at most _BRENT_EVALS evaluations.
    """
    a, b = lo, hi
    fulc = nfc = xf = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = yield xf
    num = 1
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through (xf, nfc, fulc)
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm - xf >= 0 else -tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        x = xf + (1.0 if rat >= 0 else -1.0) * max(abs(rat), tol1)
        fu = yield x
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _BRENT_EVALS:
            break
    return xf, fx


def bfgs_search(x0: np.ndarray, max_iter: int, stop=None, lower=None, upper=None):
    """Minimise f from `x0`, sent (f, gradient) at each trial; returns (x, f, iterations).

    A run ends after `max_iter` iterations or 2 `max_iter` evaluations,
    when `stop(x, iterations)` is true after an iteration, when the step's
    predicted decrease, -slope / 2, is below `_NOISE_ULPS` units in the last
    place of f, or when a line search finds no step that decreases f
    enough (f is then at its rounding noise).
    `lower` and `upper` (arrays) make a box: a variable on a bound that
    the gradient pushes outward is held there, and every trial point is
    projected into the box.
    """
    box = None if lower is None and upper is None else (lower, upper)
    x = np.asarray(x0, dtype=float)
    # np.clip's own arithmetic, a maximum then a minimum, in two plain calls
    x = x if box is None else np.minimum(np.maximum(x, lower), upper)
    f, g = yield x
    evals, budget = 1, 2 * max_iter
    h = None  # the inverse Hessian, from the first pair with curvature on
    for it in range(max_iter):
        held = None if box is None else ((x <= box[0]) & (g > 0)) | ((x >= box[1]) & (g < 0))
        g_free = g if held is None or not held.any() else np.where(held, 0.0, g)
        if h is None:
            d = -g_free
            t = 1.0 / max(float(np.linalg.norm(d)), 1e-300)
        else:
            d = -(h @ g_free)
            t = 1.0
        if held is not None:
            d[held] = 0.0
        slope = float(g @ d)
        # the decrease the quadratic model predicts for the step, against the
        # rounding noise of f: below it, a line search only chases noise
        if not -0.5 * slope > _NOISE_ULPS * _EPS * abs(f):
            return x, f, it
        found, x_new, f_new, g_new, used = yield from _line_search(x, f, g, d, slope, t, box, budget - evals)
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
    updated in place.

    `h` is None before the first pair; H then starts as gamma I with
    gamma = s^T y / y^T y (Nocedal and Wright, eq. 6.20). The update
    (eq. 6.17), H + c s s^T - rho (s h^T + h s^T) with h = H y,
    rho = 1 / s^T y and c = rho + rho^2 y^T h, is one (n, 2) @ (2, n)
    product of two C-ordered `np.empty` buffers, filled with the columns
    s and h and the rows c s - rho h and -rho s.
    """
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


def _line_search(x, f, g, d, slope, t, box, budget):
    """A step along d that satisfies Armijo's condition and, where the
    trials allow, the weak Wolfe curvature condition.

    Doubles the step while the decrease is sufficient and the slope stays
    steep; once a step has fallen short, backtracks (by safeguarded
    quadratic interpolation, or bisection after an expansion) to the first
    step with sufficient decrease, and gives up at the first trial point
    that rounds to x. Sent (f, gradient) at each trial; returns
    (found, x, f, g, evaluations).
    """
    lo, hi = 0.0, math.inf
    best, used = None, 0
    x_bytes = x.tobytes()
    for _ in range(min(_MAX_TRIALS, budget)):
        x_t = x + (d if t == 1.0 else t * d)  # 1.0 d is d bit for bit
        if box is None:
            decrease = t * slope
        else:
            x_t = np.minimum(np.maximum(x_t, box[0]), box[1])
            decrease = float(g @ (x_t - x))
        # x bit for bit (compared as bytes, the cheapest test): every
        # shorter step rounds to x too, so no decrease is left
        if x_t.tobytes() == x_bytes:
            break
        f_t, g_t = yield x_t
        used += 1
        if not (f_t < f and f_t <= f + _ARMIJO * decrease):
            hi = t
            if lo > 0.0:
                t = 0.5 * (lo + hi)
            else:
                excess = f_t - f - slope * t
                guess = -0.5 * slope * t * t / excess if excess > 0.0 and math.isfinite(excess) else 0.5 * t
                t = min(max(guess, 0.1 * t), 0.5 * t)
            continue
        best = (x_t, f_t, g_t)
        if hi < math.inf or float(g_t @ d) >= _WOLFE * slope:
            break
        lo, t = t, 2.0 * t
    if best is None:
        return False, x, f, g, used
    return (True, *best, used)

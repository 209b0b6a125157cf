"""The library's two minimisers, in numpy and `math` only.

Both are ask-and-tell searches: a generator that yields a trial point and
is sent back its value. `drive` runs several searches in lock-step, so
that one batched evaluation serves the trials of every running search in
a round; `bounded_brent` and `lbfgs` run one search through it.

`brent_search` is Brent's bounded scalar minimisation, step for step as
scipy's `minimize_scalar(method="bounded")` takes it, so it returns the
same point bit for bit. `lbfgs_search` is limited-memory BFGS (Liu and
Nocedal, Math. Prog. 45, 503, 1989) with the direction in the compact
form of Byrd, Nocedal and Schnabel (Math. Prog. 63, 129, 1994), an
Armijo backtracking line search with weak-Wolfe expansion, and an
optional box onto which every trial point is projected. With `dense`,
it keeps the full inverse-BFGS matrix in place of the correction pairs
(Nocedal and Wright, Numerical Optimization, 2nd ed., ch. 6).
"""

import math

import numpy as np

_EPS = np.finfo(float).eps
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)

# sufficient decrease and curvature constants of the line search
_ARMIJO = 1e-4
_WOLFE = 0.9
# trial steps per line search
_MAX_TRIALS = 20
# L-BFGS correction pairs
_MEMORY = 30
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


def _alone(search, func):
    """What `search` returns when each trial's value is func(trial)."""
    return drive([search], lambda _, points: [func(*points)])[0]


def bounded_brent(func, lo: float, hi: float, xatol: float) -> tuple:
    """(x, func(x)) at a minimum of the scalar `func` on [lo, hi], to `xatol`."""
    return _alone(brent_search(lo, hi, xatol), func)


def lbfgs(fun, x0: np.ndarray, max_iter: int, stop=None, lower=None, upper=None, dense=False) -> tuple:
    """Minimise `fun`, which returns (f(x), gradient), from `x0`; returns
    (x, f, iterations). The settings are those of `lbfgs_search`."""
    return _alone(lbfgs_search(x0, max_iter, stop, lower, upper, dense), fun)


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


def lbfgs_search(x0: np.ndarray, max_iter: int, stop=None, lower=None, upper=None, dense=False):
    """Minimise f from `x0`, sent (f, gradient) at each trial; returns (x, f, iterations).

    A run ends after `max_iter` iterations or 2 `max_iter` evaluations,
    when `stop(x)` is true after an iteration, when the step's predicted
    decrease is below the rounding of f, or when a line search finds no
    step that decreases f enough (f is then at its rounding noise).
    `lower` and `upper` (arrays) make a box: a variable on a bound that
    the gradient pushes outward is held there, and every trial point is
    projected into the box. `dense` keeps the n x n inverse Hessian
    (`_DenseInverse`) in place of the newest _MEMORY pairs.
    """
    box = None if lower is None and upper is None else (lower, upper)
    x = np.asarray(x0, dtype=float)
    x = x if box is None else np.clip(x, *box)
    f, g = yield x
    evals = 1
    pairs = _DenseInverse(x.size) if dense else _Pairs(_MEMORY, x.size)
    for it in range(max_iter):
        held = None if box is None else ((x <= box[0]) & (g > 0)) | ((x >= box[1]) & (g < 0))
        g_free = g if held is None or not held.any() else np.where(held, 0.0, g)
        if pairs.count == 0:
            d = -g_free
            t = 1.0 / max(float(np.linalg.norm(d)), 1e-300)
        else:
            d = -pairs.inverse_hessian_product(g_free)
            t = 1.0
        if held is not None:
            d[held] = 0.0
        slope = float(g @ d)
        if not -slope > _EPS * abs(f):  # no decrease that f could resolve
            return x, f, it
        found, x_new, f_new, g_new, used = yield from _line_search(x, f, g, d, slope, t, box, 2 * max_iter - evals)
        evals += used
        if not found:
            return x, f, it
        pairs.add(x_new - x, g_new - g)
        x, f, g = x_new, f_new, g_new
        if (stop is not None and stop(x)) or evals >= 2 * max_iter:
            return x, f, it + 1
    return x, f, max_iter


class _Pairs:
    """The newest `memory` correction pairs (s_i, y_i) and the small matrices
    of the compact form, kept up to date one pair at a time.

    The pairs sit in the rows of `w` = [S; Y] in a ring; `order` lists the
    ring slots oldest first, the order of the small matrices: the inverse of
    R, the upper triangle of S^T Y, the diagonal D of S^T Y, and Y^T Y.
    Dropping the oldest pair leaves the trailing block of R^-1, which is the
    inverse of R's trailing block because R is triangular.
    """

    def __init__(self, memory: int, n: int):
        self.memory, self.count = memory, 0
        self.w = np.zeros((2 * memory, n))
        self.order = np.zeros(memory, dtype=int)
        self.r_inv, self.yy = np.zeros((memory, memory)), np.zeros((memory, memory))
        self.d = np.zeros(memory)

    def add(self, s: np.ndarray, y: np.ndarray) -> None:
        s_y = float(s @ y)
        if not s_y > _EPS * float(y @ y):  # curvature too weak to keep the update positive definite
            return
        m, k = self.memory, self.count
        if k == m:  # drop the oldest pair and reuse its slot
            slot = self.order[0]
            for a in (self.r_inv, self.yy):
                a[:-1, :-1] = a[1:, 1:]
                a[-1], a[:, -1] = 0.0, 0.0
            self.order[:-1], self.d[:-1] = self.order[1:], self.d[1:]
            k -= 1
        else:
            slot = k
        self.w[slot], self.w[m + slot] = s, y
        self.order[k], self.d[k] = slot, s_y
        order = self.order[: k + 1]
        with_y = self.w @ y
        self.r_inv[:k, k] = -(self.r_inv[:k, :k] @ with_y[order[:k]]) / s_y  # column s_i^T y of R
        self.r_inv[k, k] = 1.0 / s_y
        self.yy[k, : k + 1] = self.yy[: k + 1, k] = with_y[m + order]
        self.count = k + 1

    def inverse_hessian_product(self, g: np.ndarray) -> np.ndarray:
        """H g in the compact form (Byrd, Nocedal and Schnabel 1994, eq. 3.1):
        H = gamma I + [S gamma Y] M [S gamma Y]^T with
        M = [[R^-T (D + gamma Y^T Y) R^-1, -R^-T], [-R^-1, 0]] and
        gamma = s^T y / y^T y of the newest pair."""
        m, k = self.memory, self.count
        order, r_inv, yy, d = self.order[:k], self.r_inv[:k, :k], self.yy[:k, :k], self.d[:k]
        gamma = d[-1] / yy[-1, -1]
        with_g = self.w @ g
        u = r_inv @ with_g[order]
        v = (d * u + gamma * (yy @ u - with_g[m + order])) @ r_inv
        coeffs = np.zeros(2 * m)
        coeffs[order] = v
        coeffs[m + order] = -gamma * u
        return gamma * g + coeffs @ self.w


class _DenseInverse:
    """The full BFGS inverse Hessian H, with the interface of `_Pairs`.

    H starts as gamma I with gamma = s^T y / y^T y of the first pair
    (Nocedal and Wright, eq. 6.20). The update (eq. 6.17),
    H + c s s^T - rho (s h^T + h s^T) with h = H y, rho = 1 / s^T y and
    c = rho + rho^2 y^T h, is one (n, 2) @ (2, n) product.
    """

    def __init__(self, n: int):
        self.count = 0
        self.h = np.zeros((n, n))

    def add(self, s: np.ndarray, y: np.ndarray) -> None:
        s_y = float(s @ y)
        if not s_y > _EPS * float(y @ y):  # curvature too weak to keep the update positive definite
            return
        if self.count == 0:
            np.fill_diagonal(self.h, s_y / float(y @ y))
        rho = 1.0 / s_y
        h_y = self.h @ y
        c = rho + rho * rho * float(y @ h_y)
        self.h += np.stack((s, h_y), axis=1) @ np.stack((c * s - rho * h_y, -rho * s))
        self.count += 1

    def inverse_hessian_product(self, g: np.ndarray) -> np.ndarray:
        return self.h @ g


def _line_search(x, f, g, d, slope, t, box, budget):
    """A step along d that satisfies Armijo's condition and, where the
    trials allow, the weak Wolfe curvature condition.

    Doubles the step while the decrease is sufficient and the slope stays
    steep; once a step has fallen short, backtracks (by safeguarded
    quadratic interpolation, or bisection after an expansion) to the first
    step with sufficient decrease. Sent (f, gradient) at each trial; returns
    (found, x, f, g, evaluations).
    """
    lo, hi = 0.0, math.inf
    best, used = None, 0
    for _ in range(min(_MAX_TRIALS, budget)):
        x_t = x + t * d
        if box is None:
            decrease = t * slope
        else:
            x_t = np.clip(x_t, *box)
            decrease = float(g @ (x_t - x))
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

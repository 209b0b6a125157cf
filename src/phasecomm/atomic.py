"""Atomic indirect receiver: a two-level probe coupled to the light mode.

The measurement is parameterized by a projection angle pair (xi, theta) on
the probe and the accumulated coupling Phi of the interaction. Its action
on the light mode is a pair of Kraus operators that are tridiagonal in the
number basis (diagonal plus one superdiagonal), which gives closed-form
photon-number series for the error probability and the joint outcome
probabilities; their length is derived from the amplitudes, never set.
The matrix path through the Kraus POVM is kept as an independent
cross-check.

Every outcome probability depends on xi only through sin(xi). The error is
linear in it and the mutual information is convex in the channel, so both
optima lie at |sin xi| = 1. There the joint table is affine in
(cos 2theta, sin 2theta), which `optimize` exploits: the minimum error over
theta has a closed form, and only Phi (and 2theta, for the information)
remains to be searched. The table's Phi derivatives are series of the same
form (`_series_sums`), so the information has an exact gradient in
(Phi, 2theta), which its polish by BFGS follows.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._minimize import bfgs_search, brent_search, drive
from .config import SERIES_TAIL
from .discrimination import BinaryPovm, _log_ratio, mutual_information_from_joint
from .errors import SeriesTruncationError
from .fock import FockDim
from .signals import SignalParams

__all__ = [
    "AtomicParams",
    "OptimizeConfig",
    "OptimizeResult",
    "PHI_MAX",
    "kraus_operators",
    "povm_from_kraus",
    "error_probability_series",
    "joint_probabilities_series",
    "mutual_information_series",
    "optimize",
    "optimize_block",
]

# The receiver family's coupling range: `optimize` searches Phi in [0, PHI_MAX].
PHI_MAX = 25.0
# Grid of the search: Phi step 0.01 for the error. The information ranks its
# Phi basins on every second row (step 0.02) and 8 angles (2theta step 22.5
# degrees); its polish refines both.
_PHI_GRID = np.linspace(0.0, PHI_MAX, 2501)
_INFORMATION_STRIDE = 2
_TWO_THETA_GRID = np.linspace(0.0, np.pi, 8, endpoint=False)
# Phi rows per block of the grid: each (Phi, 2theta, x, y) information
# temporary is 32 kB, and each (x, Phi, n) series temporary 2 (n + 1) kB.
_BLOCK_ROWS = 128
# Local optima of the grid that are polished.
_POLISHED = 3
# Iterations of one polish of the information, and its box in (Phi, 2theta).
_POLISH_ITER = 200
_POLISH_LOWER, _POLISH_UPPER = np.array([0.0, -np.inf]), np.array([PHI_MAX, np.inf])


@dataclass(frozen=True)
class AtomicParams:
    """Receiver parameters: probe projection phase/angle and coupling."""

    xi: float
    theta: float
    phi_pulse: float


@functools.lru_cache(maxsize=64)
def _series_length(amplitudes: tuple) -> int:
    """The shortest series the truncation guard accepts at every setting.

    With Poisson weights p_n of mean alpha^2, the guard's last term is
    at most e^{alpha^2} (sqrt(p_N) + sqrt(p_{N+1}))^2 whatever
    (xi, theta, Phi), and its scale, half of diag + raised, is at least
    half of e^{alpha^2} sum_{n<=N} p_n. N is the smallest
    count past the Poisson mode for which the one bound stays below
    SERIES_TAIL times the other, over all amplitudes. Every table of a
    sigma point asks again, hence the cache.
    """
    n_terms = 1
    for alpha in amplitudes:
        a2 = float(alpha) ** 2
        n, p_n = 0, math.exp(-a2)
        cdf = p_n
        while True:
            p_next = p_n * a2 / (n + 1)
            if n > a2 and (math.sqrt(p_n) + math.sqrt(p_next)) ** 2 <= 0.5 * SERIES_TAIL * cdf:
                break
            n, p_n = n + 1, p_next
            cdf += p_n
        n_terms = max(n_terms, n)
    return n_terms


def kraus_operators(p: AtomicParams, dim: FockDim) -> tuple:
    """Kraus pair of the probe measurement, entrywise in the number basis.

    Only the diagonal and first superdiagonal are nonzero:
    <n|K1|n> = cos(theta) cos(Phi sqrt(n)),
    <n-1|K1|n> = -i e^{-i xi} sin(theta) sin(Phi sqrt(n)),
    and K2 with sin(theta)/+i e^{-i xi} cos(theta) in their place.
    """
    size = dim.size
    n = np.arange(size)
    cos_n = np.cos(p.phi_pulse * np.sqrt(n))
    sin_n = np.sin(p.phi_pulse * np.sqrt(n))
    phase = np.exp(-1j * p.xi)
    k1 = np.diag(np.cos(p.theta) * cos_n.astype(complex))
    k2 = np.diag(np.sin(p.theta) * cos_n.astype(complex))
    idx = np.arange(1, size)
    k1[idx - 1, idx] = -1j * phase * np.sin(p.theta) * sin_n[idx]
    k2[idx - 1, idx] = 1j * phase * np.cos(p.theta) * sin_n[idx]
    return k1, k2


def povm_from_kraus(k1: np.ndarray, k2: np.ndarray) -> BinaryPovm:
    m1 = k1.conj().T @ k1
    m2 = k2.conj().T @ k2
    return BinaryPovm((0.5 * (m1 + m1.conj().T), 0.5 * (m2 + m2.conj().T)))


def _series_weights(alpha: float, n_terms: int) -> np.ndarray:
    """Rows w0[n] = alpha^{2n}/n!, w1[n] = w0[n+1], wc[n] = alpha^{2n+1}/sqrt(n!(n+1)!)."""
    n = np.arange(n_terms + 1)
    a2 = alpha * alpha
    # alpha^{2n}/n! via cumulative products (stable for the amplitudes used here)
    w0 = np.ones(n_terms + 1)
    w0[1:] = np.cumprod(a2 / n[1:])
    w1 = w0 * a2 / (n + 1)
    return np.stack([w0, w1, np.sign(alpha) * np.sqrt(w0 * w1)])


def _series_sums(weights: np.ndarray, phi: np.ndarray, slopes: bool = False) -> tuple:
    """Diagonal, raised and cross sums at each coupling, of one amplitude or
    of a stack of them.

    With the rows (w0, w1, wc) of `_series_weights` (shape (3, n_terms + 1),
    or (..., 3, n_terms + 1) for a stack), over n = 0..n_terms:
    diag = sum w0 cos^2(Phi sqrt n), raised = sum w1 sin^2(Phi sqrt(n+1)),
    cross = sum wc cos(Phi sqrt n) sin(Phi sqrt(n+1)).
    Returns (sums, last), each of shape (..., 3, len(phi)): the three sums and
    their n = n_terms terms. With `slopes`, also their Phi derivatives:
    d diag = -sum w0 sqrt(n) sin(2 Phi sqrt n),
    d raised = sum w1 sqrt(n+1) sin(2 Phi sqrt(n+1)),
    d cross = sum wc [sqrt(n+1) cos(Phi sqrt n) cos(Phi sqrt(n+1))
                      - sqrt(n) sin(Phi sqrt n) sin(Phi sqrt(n+1))].
    """
    root = np.sqrt(np.arange(weights.shape[-1] + 1))
    arg = np.multiply.outer(phi, root)
    cos_n = np.cos(arg[:, :-1])
    sin_n1 = np.sin(arg[:, 1:])
    weights = weights[..., None, :]
    terms = weights * np.array([cos_n**2, sin_n1**2, cos_n * sin_n1])
    if not slopes:
        return terms.sum(axis=-1), terms[..., -1]
    sin_n, cos_n1 = np.sin(arg[:, :-1]), np.cos(arg[:, 1:])
    r0, r1 = root[:-1], root[1:]
    derivatives = np.array([
        -2 * r0 * sin_n * cos_n,
        2 * r1 * sin_n1 * cos_n1,
        r1 * cos_n * cos_n1 - r0 * sin_n * sin_n1,
    ])
    return terms.sum(axis=-1), terms[..., -1], (weights * derivatives).sum(axis=-1)


@functools.lru_cache(maxsize=8)
def _grid_sums(amplitudes: tuple, n_terms: int) -> tuple:
    """`_series_sums` of an amplitude pair at every Phi of `_PHI_GRID`, as
    read-only (sums, last) of shape (2, 3, len(_PHI_GRID)), evaluated in
    blocks of rows, each one stacked call that shares the trigonometry
    between the amplitudes.

    They depend on nothing else, so every sigma point and prior of a sweep,
    and both searches, share one evaluation per amplitude pair.
    """
    weights = np.stack([_series_weights(alpha, n_terms) for alpha in amplitudes])
    sums, last = np.empty((2, 2, 3, _PHI_GRID.size))
    for i in range(0, _PHI_GRID.size, _BLOCK_ROWS):
        # copied out, since a block's `last` is a view of all its terms
        sums[..., i:i + _BLOCK_ROWS], last[..., i:i + _BLOCK_ROWS] = _series_sums(weights, _PHI_GRID[i:i + _BLOCK_ROWS])
    sums.flags.writeable = last.flags.writeable = False
    return sums, last


class _TableCoefficients:
    """The joint tables over couplings at xi = pi/2 of a block of sigma points,
    as (mean, swing, inter), each of shape (2, len(phi)) with a row per
    hypothesis x:
    Pr(x, 0) = mean + swing cos(2theta) + inter sin(2theta) and
    Pr(x, 1) = mean - swing cos(2theta) - inter sin(2theta).

    The points share their amplitudes and priors and differ in sigma only,
    which enters through the damping of inter; so one series evaluation
    serves the couplings of every point, each damped by its own point's
    factor. At any xi the interference term inter carries a factor
    sin(xi). The truncation guard checks the series length at each Phi in
    its worst case over (xi, theta), so it holds at every angle; it runs on
    every call, on the grid too, and its error names the sigma of the point
    that fails.
    """

    def __init__(self, *points: SignalParams):
        self.alphas = (points[0].alpha1, points[0].alpha2)
        self.n_terms = _series_length(self.alphas)
        self.sigmas = [p.sigma for p in points]
        # each point's factor as a lone point computes it, scalar by scalar
        self.damping = np.array([np.exp(-0.5 * sigma**2) for sigma in self.sigmas])
        q = (points[0].q1, points[0].q2)
        scale = np.array([[q_x * np.exp(-alpha * alpha)] for q_x, alpha in zip(q, self.alphas)])
        self.half, self.neg_scale = 0.5 * scale, -scale
        self.weights = np.stack([_series_weights(alpha, self.n_terms) for alpha in self.alphas])

    def __call__(self, phi: np.ndarray | None = None, point=0, slopes: bool = False) -> tuple:
        """(mean, swing, inter) at each coupling; with `slopes`, also their Phi
        derivatives. `point` is the index in the block of the point the
        couplings belong to, or an array with the point of each coupling.
        Without `phi`, the table at every Phi of `_PHI_GRID`, from
        `_grid_sums`."""
        damping = self.damping[point]
        if phi is None:
            sums, last = _grid_sums(self.alphas, self.n_terms)
        else:
            sums, last, *derivatives = _series_sums(self.weights, phi, slopes)
        diag, raised, d, r, x_last = sums[:, 0], sums[:, 1], last[:, 0], last[:, 1], last[:, 2]
        # the last terms at their worst over (xi, theta), against half of the two
        # outcome sums' total diag + raised, which the larger of them reaches
        ratio = np.max((d + r + 2 * damping * np.abs(x_last)) / np.maximum(0.5 * (diag + raised), 1e-300), axis=0)
        failed = ratio > SERIES_TAIL
        if failed.any():
            owner = np.broadcast_to(point, ratio.shape)
            first = owner[failed].min()
            raise SeriesTruncationError(
                f"sigma={self.sigmas[first]:g}: last series term is {ratio[owner == first].max():.3e} of the sum "
                f"at {self.n_terms} terms, above {SERIES_TAIL:.0e}"
            )
        table = self._table(sums, damping)
        return (table, self._table(derivatives[0], damping)) if slopes else table

    def _table(self, sums: np.ndarray, damping) -> tuple:
        """(mean, swing, inter) from the hypotheses' (diag, raised, cross), shape
        (2, 3, len(phi)), at the damping of each coupling's point. The map is
        linear, so it takes their Phi derivatives to the table's."""
        diag, raised, cross = sums[:, 0], sums[:, 1], sums[:, 2]
        # Gaussian phase average of the interference term: the minus sign follows
        # from <n|K|n> real and <n-1|K|n> proportional to -i e^{-i xi}
        return self.half * (diag + raised), self.half * (diag - raised), self.neg_scale * damping * cross


def _joint(mean, swing, inter, cos_t, sin_t) -> np.ndarray:
    """The (x, y) table of one coupling from its (mean, swing, inter), rows (2,),
    or a stack of them, (..., 2, 2) from rows (..., 2)."""
    along, across = swing * cos_t, inter * sin_t
    joint = np.empty(along.shape + (2,))
    joint[..., 0], joint[..., 1] = mean + along + across, mean - along - across
    return joint


def joint_probabilities_series(params: SignalParams, p: AtomicParams) -> np.ndarray:
    """2x2 table Pr(x, y) from the closed-form series.

    The table at xi = pi/2 (`_TableCoefficients`) with its interference
    term scaled by sin(xi), which is how xi enters.
    """
    mean, swing, inter = (v[:, 0] for v in _TableCoefficients(params)(np.array([p.phi_pulse])))
    return _joint(mean, swing, np.sin(p.xi) * inter, np.cos(2 * p.theta), np.sin(2 * p.theta))


def error_probability_series(params: SignalParams, p: AtomicParams) -> float:
    """Closed-form error probability; outcome y=1 decides hypothesis 1."""
    table = joint_probabilities_series(params, p)
    return float(1.0 - table[0, 0] - table[1, 1])


def mutual_information_series(params: SignalParams, p: AtomicParams) -> float:
    table = joint_probabilities_series(params, p)
    return float(mutual_information_from_joint(table, (params.q1, params.q2)))


def _min_error_over_theta(coeffs: tuple) -> tuple:
    """Minimum over theta of the error at each Phi, and the minimizing 2theta."""
    mean, swing, inter = coeffs
    # error = 1 - Pr(0, 0) - Pr(1, 1) = e_a + e_b cos(2theta) + e_c sin(2theta)
    e_a = 1.0 - mean[0] - mean[1]
    e_b = swing[1] - swing[0]
    e_c = inter[1] - inter[0]
    return e_a - np.hypot(e_b, e_c), np.arctan2(-e_c, -e_b)


def _best_local(values: np.ndarray, count: int) -> np.ndarray:
    """Indices of the `count` lowest local minima of a sampled curve."""
    padded = np.concatenate([[np.inf], values, [np.inf]])
    is_min = (values <= padded[:-2]) & (values <= padded[2:])
    idx = np.flatnonzero(is_min)
    return idx[np.argsort(values[idx], kind="stable")][:count]


def _canonical(phi: float, two_theta: float) -> AtomicParams:
    """Parameters at |sin xi| = 1 with theta in [0, pi/2]: 2theta past pi
    becomes xi = 3pi/2, which flips the sign of sin(2theta) sin(xi)."""
    t = float(two_theta) % (2 * np.pi)
    if t <= np.pi:
        return AtomicParams(xi=np.pi / 2, theta=t / 2, phi_pulse=float(phi))
    return AtomicParams(xi=3 * np.pi / 2, theta=np.pi - t / 2, phi_pulse=float(phi))


def _grid_profile(table: tuple, over_theta) -> tuple:
    """`over_theta` (best value to minimize, its 2theta) at each Phi of a
    grid's table, evaluated in blocks of its rows."""
    parts = [
        over_theta(tuple(v[:, i:i + _BLOCK_ROWS] for v in table))
        for i in range(0, table[0].shape[1], _BLOCK_ROWS)
    ]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _search_min_error(coefficients: _TableCoefficients) -> list:
    """Per point of the block, (error, params) of each of its best grid
    minima, polished by bounded Brent in Phi. The polishes of every point run
    in lock-step: each round is one table call at every running polish's
    trial Phi."""
    grid = _PHI_GRID
    starts, polishes = [], []
    for k in range(len(coefficients.sigmas)):
        curve, _ = _min_error_over_theta(coefficients(point=k))
        for i in _best_local(curve, _POLISHED):
            starts.append((k, i, curve[i]))
            polishes.append(brent_search(max(grid[i] - grid[1], 0.0), min(grid[i] + grid[1], PHI_MAX), 1e-10))
    owner = np.array([k for k, _, _ in starts])
    ends = drive(polishes, lambda which, phis: _min_error_over_theta(coefficients(np.array(phis), owner[which]))[0])
    phis = [phi if value < at_grid else grid[i] for (_, i, at_grid), (phi, value) in zip(starts, ends)]
    values, two_theta = _min_error_over_theta(coefficients(np.array(phis), owner))
    found = [[] for _ in coefficients.sigmas]
    for k, value, phi, t in zip(owner, values, phis, two_theta):
        found[k].append((float(value), _canonical(phi, t)))
    return found


def _neg_information(xs: list, coefficients: _TableCoefficients, q: np.ndarray, point=0) -> list:
    """Minus the information at each x = (Phi, 2theta) of `xs`, and its
    gradient, from one table call; `point` is the point in the block of
    each x, or one point for all. A round of the information polishes asks it
    for every running polish's trial at once.

    dI/dPr(x, y) is the log ratio log2 Pr(x, y) / (q_x Pr(y)), and
    Pr(x, 0) = mean + swing cos(2theta) + inter sin(2theta), so dI/dPhi =
    sum log_ratio dPr/dPhi with the slopes of `_TableCoefficients`, and
    dI/d2theta = sum log_ratio dPr/d2theta with dPr(x, 0)/d2theta =
    inter cos - swing sin = -dPr(x, 1)/d2theta. The joint tables, log
    ratios and both gradient components of all points are (k, 2, 2) arrays,
    each point's entries computed as alone.
    """
    phi, two_theta = np.array(xs).T
    table, slopes = coefficients(phi, point, slopes=True)
    # rows (point, x) of the table and its slopes, and each point's angle
    (mean, swing, inter), slope = ([v.T for v in part] for part in (table, slopes))
    cos_t, sin_t = np.cos(two_theta)[:, None], np.sin(two_theta)[:, None]
    joint = _joint(mean, swing, inter, cos_t, sin_t)
    log_ratio = _log_ratio(q, joint)
    # (turn, -turn) as turn times (1, -1), which is exact
    turn = np.multiply.outer(inter * cos_t - swing * sin_t, (1.0, -1.0))
    gradient = np.empty((len(phi), 2))
    gradient[:, 0] = (log_ratio * _joint(*slope, cos_t, sin_t)).sum(axis=(1, 2))
    gradient[:, 1] = (log_ratio * turn).sum(axis=(1, 2))
    return list(zip(-(joint * log_ratio).sum(axis=(1, 2)), -gradient))


def _search_max_information(coefficients: _TableCoefficients, q: np.ndarray) -> list:
    """Per point of the block, (information, params) of each of its best grid
    maxima, polished by BFGS in (Phi, 2theta). The polishes of every point
    run in lock-step: each round is one table call at every running polish's
    trial point.

    The grid's tables follow `_joint`'s arithmetic and are scored by the
    polish's kernel, `mutual_information_from_joint`. They are stacked as
    (y, x, Phi, 2theta) and read as (Phi, 2theta, x, y), which keeps the
    angles innermost in memory.

    Swapping the outcome labels leaves the information unchanged and maps
    2theta to 2theta + pi, so 2theta runs over [0, pi) only."""
    grid, two_theta = _PHI_GRID[::_INFORMATION_STRIDE], _TWO_THETA_GRID
    cos_t, sin_t = np.cos(two_theta), np.sin(two_theta)

    def over_theta(coeffs):
        mean, swing, inter = (v[:, :, None] for v in coeffs)
        along, across = swing * cos_t, inter * sin_t
        joint = np.stack([mean + along + across, mean - along - across]).transpose(2, 3, 1, 0)
        info = mutual_information_from_joint(joint, q)
        j = info.argmax(axis=1)
        return -info[np.arange(len(j)), j], two_theta[j]

    starts, polishes = [], []
    for k in range(len(coefficients.sigmas)):
        profile, best_t = _grid_profile(tuple(v[:, ::_INFORMATION_STRIDE] for v in coefficients(point=k)), over_theta)
        for i in _best_local(profile, _POLISHED):
            x0 = np.array([grid[i], best_t[i]])
            starts.append((k, x0, profile[i]))
            polishes.append(bfgs_search(x0, _POLISH_ITER, lower=_POLISH_LOWER, upper=_POLISH_UPPER))
    owner = np.array([k for k, _, _ in starts])
    ends = drive(polishes, lambda which, xs: _neg_information(xs, coefficients, q, owner[which]))
    found = [[] for _ in coefficients.sigmas]
    for (k, x0, at_grid), (x, fun, _) in zip(starts, ends):
        (phi, t), value = (x, -fun) if fun < at_grid else (x0, -at_grid)
        found[k].append((float(value), _canonical(phi, t % np.pi)))
    return found


@dataclass(frozen=True)
class OptimizeConfig:
    """Settings of the atomic search; the search has none left to set.

    Its series length is derived from the amplitudes (`_series_length`).
    """


@dataclass
class OptimizeResult:
    params: AtomicParams
    value: float
    # (value, params) of each polished local optimum, best first
    per_start: list


def optimize(objective: str, params: SignalParams, cfg: OptimizeConfig = OptimizeConfig()) -> OptimizeResult:
    """Best receiver setting for 'min-error' or 'max-information': the
    search of `optimize_block` over a block of this one point."""
    [result] = optimize_block(objective, [params])
    return result


def optimize_block(objective: str, points: list) -> list:
    """Best receiver setting for 'min-error' or 'max-information' at each
    point of a block: sigma points (`SignalParams`) that share their
    amplitudes and priors; returns one `OptimizeResult` per point, in order.

    The search runs at |sin xi| = 1 over Phi in [0, PHI_MAX], on a grid of
    step 0.01, whose series are computed once per amplitude pair in a
    process and shared by both objectives and every sigma and prior. For
    the error, the minimum over theta at each Phi is closed-form; the
    information is ranked on every second row of the same table (step
    0.02) and 8 values of 2theta in [0, pi), which only rank the Phi
    basins. Each point's best three local optima of the grid are polished
    (bounded Brent in Phi for the error; BFGS in (Phi, 2theta) with the
    exact gradient of the information, from the Phi derivatives of the
    series, projected onto Phi in [0, PHI_MAX], until a line search finds
    no lower value or the step's predicted gain is below a few units in
    the last place of the value). The polishes of every point of the block
    run in lock-step rounds, each one series evaluation, as (mean, swing,
    inter), at the trial Phi of every polish still running, damped by its
    own point's sigma; each polish sees the values it would see alone, so
    a point's result does not depend on the block it is searched in, and
    the rounds number the evaluations of the slowest. A polish that ends
    no better than its grid point keeps the grid point. Each candidate's
    value is the search's own: the closed-form minimum over theta at its
    Phi, or the information the polish or the grid found there. It equals
    `error_probability_series` / `mutual_information_series` at its
    parameters to a few units in the last place. The returned parameters
    have xi in {pi/2, 3pi/2}, theta in [0, pi/2] and Phi in [0, PHI_MAX];
    ties go to the lexicographically smallest.
    """
    if objective not in ("min-error", "max-information"):
        raise ValueError(f"unknown objective {objective!r}")
    first = points[0]
    if any((p.q1, p.alpha1, p.alpha2) != (first.q1, first.alpha1, first.alpha2) for p in points):
        raise ValueError("the points of a block must differ in sigma only")
    coefficients = _TableCoefficients(*points)
    if objective == "min-error":
        runs, sign = _search_min_error(coefficients), 1.0
    else:
        runs, sign = _search_max_information(coefficients, np.array([first.q1, first.q2])), -1.0
    results = []
    for found in runs:
        per_start = sorted(found, key=lambda run: (sign * run[0], run[1].xi, run[1].theta, run[1].phi_pulse))
        best_value, best_params = per_start[0]
        results.append(OptimizeResult(params=best_params, value=best_value, per_start=per_start))
    return results

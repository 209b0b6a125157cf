"""Atomic indirect receiver: a two-level probe coupled to the light mode.

The measurement has a projection angle pair (xi, theta) on the probe and
the coupling Phi of the interaction. Its Kraus pair is tridiagonal in the
number basis, which gives closed-form photon-number series for the joint
outcome table, their length derived from the amplitudes; the matrix path
through the Kraus POVM is kept as an independent cross-check.

Every outcome probability depends on xi only through sin(xi); the error is
linear in it and the information convex in the channel, so both optima lie
at |sin xi| = 1. There the table is affine in (cos 2theta, sin 2theta): the
error's minimum over theta is closed-form and polished by Newton's method
in Phi, and the information by Newton's method in (Phi, 2theta), each with
its exact derivatives from the series' Phi derivatives (`_series_sums`).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._minimize import drive, newton_search
from .config import PROB_GUARD, SERIES_TAIL
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
# Grid of both searches: Phi step 0.04, and for the information 8 angles
# (2theta step 22.5 degrees); the polishes refine both.
_PHI_GRID = np.linspace(0.0, PHI_MAX, 626)
_TWO_THETA_GRID = np.linspace(0.0, np.pi, 8, endpoint=False)
# Phi rows per block of the grid: each (Phi, 2theta, x, y) information
# temporary is 32 kB, and each (x, Phi, n) series temporary 2 (n + 1) kB.
_BLOCK_ROWS = 128
# Local optima of the grid that are polished.
_POLISHED = 3


@dataclass(frozen=True)
class AtomicParams:
    """Receiver parameters: probe projection phase/angle and coupling."""

    xi: float
    theta: float
    phi_pulse: float


@functools.lru_cache(maxsize=64)
def _series_length(amplitudes: tuple) -> int:
    """The shortest series the truncation guard accepts at every setting.

    With Poisson weights p_n of mean alpha^2, the guard's last term is at
    most e^{alpha^2} (sqrt(p_N) + sqrt(p_{N+1}))^2 whatever (xi, theta, Phi),
    and its scale, half of diag + raised, at least half of e^{alpha^2}
    sum_{n<=N} p_n; N is the smallest count past the Poisson mode where the
    one stays below SERIES_TAIL times the other, over all amplitudes. Every
    table asks again, hence the cache.
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
    """Kraus pair of the probe measurement, entrywise in the number basis;
    only the diagonal and first superdiagonal are nonzero:
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
    their n = n_terms terms. With `slopes`, also their first and second Phi
    derivatives; with c_n = cos(Phi sqrt n) and s_n = sin(Phi sqrt n):
    d diag = -sum w0 sqrt(n) sin(2 Phi sqrt n), d2 diag = -2 sum w0 n cos(2 Phi sqrt n),
    d raised = sum w1 sqrt(n+1) sin(2 Phi sqrt(n+1)), d2 raised = 2 sum w1 (n+1) cos(2 Phi sqrt(n+1)),
    d cross = sum wc [sqrt(n+1) c_n c_{n+1} - sqrt(n) s_n s_{n+1}],
    d2 cross = -sum wc [(2n+1) c_n s_{n+1} + 2 sqrt(n(n+1)) s_n c_{n+1}].
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
    n = np.arange(weights.shape[-1])
    double = np.cos(2 * arg)
    curvatures = np.array([
        -2 * n * double[:, :-1],
        2 * (n + 1) * double[:, 1:],
        -((2 * n + 1) * cos_n * sin_n1 + 2 * r0 * r1 * sin_n * cos_n1),
    ])
    return terms.sum(axis=-1), terms[..., -1], (weights * derivatives).sum(axis=-1), (weights * curvatures).sum(axis=-1)


@functools.lru_cache(maxsize=8)
def _grid_sums(amplitudes: tuple, n_terms: int) -> tuple:
    """`_series_sums` of an amplitude pair at every Phi of `_PHI_GRID`, as
    read-only (sums, last) of shape (2, 3, len(_PHI_GRID)), in blocks of rows,
    each one stacked call sharing the trigonometry between the amplitudes.
    They depend on nothing else, so every sigma point and prior of a sweep,
    and both searches, share one evaluation per amplitude pair."""
    weights = np.stack([_series_weights(alpha, n_terms) for alpha in amplitudes])
    sums, last = np.empty((2, 2, 3, _PHI_GRID.size))
    for i in range(0, _PHI_GRID.size, _BLOCK_ROWS):
        # copied out, since a block's `last` is a view of all its terms
        sums[..., i:i + _BLOCK_ROWS], last[..., i:i + _BLOCK_ROWS] = _series_sums(weights, _PHI_GRID[i:i + _BLOCK_ROWS])
    sums.flags.writeable = last.flags.writeable = False
    return sums, last


class _TableCoefficients:
    """The joint tables over couplings at xi = pi/2 of a block of sigma points,
    as (mean, swing, inter), each (2, len(phi)), a row per hypothesis x:
    Pr(x, 0) = mean + swing cos(2theta) + inter sin(2theta) and
    Pr(x, 1) = mean - swing cos(2theta) - inter sin(2theta); at any xi, inter
    carries a factor sin(xi). The points differ in sigma only, which damps
    inter, so one series evaluation serves every point's couplings, each
    damped by its own point's factor. The truncation guard checks the series
    at each Phi in its worst case over (xi, theta), on every call, the grid's
    too, and its error names the sigma of the point that fails.
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
        """(mean, swing, inter) at each coupling, with `slopes` also their first and
        second Phi derivatives, of the point `point` in the block or of each one's
        point (an array); without `phi`, at every Phi of `_PHI_GRID` (`_grid_sums`)."""
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
        return (table, *(self._table(part, damping) for part in derivatives)) if slopes else table

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
    """2x2 table Pr(x, y) from the closed-form series: the table at xi = pi/2
    (`_TableCoefficients`), its interference term scaled by sin(xi)."""
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


def _best_local(values: np.ndarray) -> np.ndarray:
    """Indices of the `_POLISHED` local minima of a sampled curve lowest at the
    vertex of the parabola through each and its two neighbours (at an end, at
    the sample): near-equal basins can be narrower than the grid step."""
    padded = np.concatenate([[np.inf], values, [np.inf]])
    idx = np.flatnonzero((values <= padded[:-2]) & (values <= padded[2:]))
    below, above = values[:-2], values[2:]
    bend = np.maximum(below - 2.0 * values[1:-1] + above, 0.0)
    depth = np.divide((below - above) ** 2, 8.0 * bend, out=np.zeros_like(bend), where=bend > 0.0)
    return idx[np.argsort((values - np.pad(depth, 1))[idx], kind="stable")][:_POLISHED]


def _canonical(phi: float, two_theta: float) -> AtomicParams:
    """Parameters at |sin xi| = 1 with theta in [0, pi/2]: 2theta past pi
    becomes xi = 3pi/2, which flips the sign of sin(2theta) sin(xi)."""
    t = float(two_theta) % (2 * np.pi)
    if t <= np.pi:
        return AtomicParams(xi=np.pi / 2, theta=t / 2, phi_pulse=float(phi))
    return AtomicParams(xi=3 * np.pi / 2, theta=np.pi - t / 2, phi_pulse=float(phi))


def _grid_profile(table: tuple, over_theta) -> tuple:
    """`over_theta`'s outputs (first the value to minimize) at each Phi of a
    grid's table, evaluated in blocks of its rows."""
    parts = [
        over_theta(tuple(v[:, i:i + _BLOCK_ROWS] for v in table))
        for i in range(0, table[0].shape[1], _BLOCK_ROWS)
    ]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _search_min_error(coefficients: _TableCoefficients) -> list:
    """Per point of the block, (error, params) of each of its best grid
    minima, polished in lock-step by Newton's method in Phi within the grid's
    neighbours (`_min_error_round`) from its grid parabola's `_grid_vertex`."""
    grid = _PHI_GRID
    owners, polishes = [], []
    for k in range(len(coefficients.sigmas)):
        curve, _ = _min_error_over_theta(coefficients(point=k))
        for i in _best_local(curve):
            owners.append(k)
            cell = (max(grid[i] - grid[1], 0.0), min(grid[i] + grid[1], PHI_MAX))
            polishes.append(newton_search((_grid_vertex(curve, i),), (cell,)))
    owner = np.array(owners)
    ends = drive(polishes, lambda which, xs: _min_error_round(xs, coefficients, owner[which]))
    phis = [phi for (phi,), _, _ in ends]
    values, two_theta = _min_error_over_theta(coefficients(np.array(phis), owner))
    found = [[] for _ in coefficients.sigmas]
    for k, value, phi, t in zip(owners, values, phis, two_theta):
        found[k].append((float(value), _canonical(phi, t)))
    return found


def _grid_vertex(curve: np.ndarray, i: int) -> float:
    """The Phi of the vertex of the parabola through row i of a grid curve and
    its neighbours, or row i's if it has no minimum; the curve is even in Phi,
    so row 0's neighbours are both row 1. At PHI_MAX it is the row before's."""
    j = min(i, curve.size - 2)
    left, mid, right = curve[abs(j - 1)], curve[j], curve[j + 1]
    bend = left - 2.0 * mid + right
    return float(_PHI_GRID[j] + 0.5 * _PHI_GRID[1] * (left - right) / bend) if bend > 0.0 else float(_PHI_GRID[i])


def _min_error_round(xs: list, coefficients: _TableCoefficients, point=0) -> list:
    """The error's minimum over theta, e = e_a - r with r = hypot(e_b, e_c), at
    each x = (Phi,) of `xs` (of the block's point `point`, one or one per x),
    as floats (e, (e',), (e'',)) from one table call: with u = (e_b, e_c) / r,
    e' = e_a' - u . (e_b', e_c') and e'' = e_a'' - u . (e_b'', e_c'') - (u_b
    e_c' - u_c e_b')^2 / r, whose r terms drop at r = 0."""
    table, slopes, curvatures = coefficients(np.array(xs)[:, 0], point, slopes=True)
    values, _ = _min_error_over_theta(table)
    _, swing, inter = table
    (a1, b1, c1), (a2, b2, c2) = ((-mean[0] - mean[1], s[1] - s[0], i[1] - i[0]) for mean, s, i in (slopes, curvatures))
    e_b, e_c = swing[1] - swing[0], inter[1] - inter[0]
    radius = np.hypot(e_b, e_c)
    u_b, u_c = (np.divide(e, radius, out=np.zeros(radius.shape), where=radius > 0.0) for e in (e_b, e_c))
    turn, first = u_b * c1 - u_c * b1, a1 - (u_b * b1 + u_c * c1)
    with np.errstate(over="ignore"):
        bend = np.divide(turn * turn, radius, out=np.zeros(radius.shape), where=radius > 0.0)
    second = a2 - (u_b * b2 + u_c * c2) - bend
    return [(e, (g,), (h,)) for e, g, h in zip(values.tolist(), first.tolist(), second.tolist())]


def _information_round(xs: list, coefficients: _TableCoefficients, q: np.ndarray, point=0) -> list:
    """Minus the information at each x = (Phi, 2theta) of `xs`, its gradient
    and Hessian, as floats (f, (g0, g1), (h00, h01, h11)), from one table call;
    `point` is the point in the block of each x, or one for all. With dP, d2P
    the table's derivatives and dI/dP the log ratio, I_ab = sum log_ratio d2P_ab
    + (sum_xy dP_a dP_b / P - sum_y dP(y)_a dP(y)_b / P(y)) / ln 2, entries and
    columns below PROB_GUARD left out. In 2theta, P(x, 0)' = inter cos - swing
    sin, P(x, 0)'' = -swing cos - inter sin, and P(x, 1)'s are minus P(x, 0)'s.
    Elementwise products and sums over fixed axes only: each trial's numbers
    are those it gets alone."""
    phi, two_theta = np.array(xs).T
    table, slopes, curvatures = coefficients(phi, point, slopes=True)
    # rows (point, x) of the table and its derivatives, and each point's angle
    (mean, swing, inter), slope, curve = ([v.T for v in part] for part in (table, slopes, curvatures))
    cos_t, sin_t = np.cos(two_theta)[:, None], np.sin(two_theta)[:, None]
    joint = _joint(mean, swing, inter, cos_t, sin_t)
    log_ratio = _log_ratio(q, joint)
    # dP in (Phi, 2theta) and d2P in (Phi Phi, Phi 2theta, 2theta 2theta), each
    # (., k, x, y), with (v, -v) as v times (1, -1), which is exact
    sign = (1.0, -1.0)
    first = np.array([_joint(*slope, cos_t, sin_t), np.multiply.outer(inter * cos_t - swing * sin_t, sign)])
    second = np.array([_joint(*curve, cos_t, sin_t), np.multiply.outer(slope[2] * cos_t - slope[1] * sin_t, sign),
                       np.multiply.outer(-(swing * cos_t + inter * sin_t), sign)])
    inverse, p_y = 1.0 / np.where(joint >= PROB_GUARD, joint, np.inf), joint.sum(axis=1)
    column = first.sum(axis=2)
    fisher = (first[:, None] * first * inverse).sum(axis=(3, 4))
    fisher -= (column[:, None] * column / np.where(p_y >= PROB_GUARD, p_y, np.inf)).sum(axis=-1)
    fisher /= np.log(2.0)
    out = np.empty((6, len(phi)))
    out[0] = (joint * log_ratio).sum(axis=(1, 2))
    out[1:3] = (log_ratio * first).sum(axis=(2, 3))
    out[3:] = (log_ratio * second).sum(axis=(2, 3)) + fisher.reshape(4, -1)[[0, 1, 3]]
    return [(f, (g0, g1), (h00, h01, h11)) for f, g0, g1, h00, h01, h11 in zip(*(-out).tolist())]


def _search_max_information(coefficients: _TableCoefficients, q: np.ndarray) -> list:
    """Per point of the block, (information, params) of each of its best grid
    maxima, polished by Newton's method in (Phi, 2theta) in lock-step: each
    round is one table call at every running polish's trial point. The grid's
    tables follow `_joint`'s arithmetic, stacked (y, x, Phi, 2theta) and read
    (Phi, 2theta, x, y), scored by `mutual_information_from_joint`. A polish
    starts at its row's best angle moved to the vertex of the parabola through
    its neighbours on the ring of angles, 2theta in [0, pi) (swapping the
    outcome labels adds pi); one that ends no better keeps the grid point."""
    grid, two_theta = _PHI_GRID.tolist(), _TWO_THETA_GRID
    cos_t, sin_t, angles = np.cos(two_theta), np.sin(two_theta), two_theta.tolist()

    def over_theta(coeffs):
        mean, swing, inter = (v[:, :, None] for v in coeffs)
        along, across = swing * cos_t, inter * sin_t
        joint = np.stack([mean + along + across, mean - along - across]).transpose(2, 3, 1, 0)
        info = mutual_information_from_joint(joint, q)
        return -info.max(axis=1), info

    starts, polishes = [], []
    for k in range(len(coefficients.sigmas)):
        profile, info = _grid_profile(coefficients(point=k), over_theta)
        for i in _best_local(profile):
            row = info[i].tolist()
            j = row.index(max(row))
            before, after = row[j - 1], row[(j + 1) % len(row)]
            curvature = before - 2.0 * row[j] + after
            t0 = angles[j] + (0.5 * angles[1] * (before - after) / curvature if curvature < 0.0 else 0.0)
            starts.append((k, (grid[i], angles[j]), profile[i]))
            polishes.append(newton_search((grid[i], t0), ((0.0, PHI_MAX), (-math.inf, math.inf))))
    owner = np.array([k for k, _, _ in starts])
    ends = drive(polishes, lambda which, xs: _information_round(xs, coefficients, q, owner[which]))
    found = [[] for _ in coefficients.sigmas]
    for (k, at, at_grid), (x, fun, _) in zip(starts, ends):
        (phi, t), value = (x, -fun) if fun < at_grid else (at, -at_grid)
        found[k].append((float(value), _canonical(phi, t % np.pi)))
    return found


@dataclass(frozen=True)
class OptimizeConfig:
    """Settings of the atomic search: none left; the series length is derived
    from the amplitudes (`_series_length`)."""


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

    The search runs at |sin xi| = 1 on one Phi grid of step 0.04 whose
    series are computed once per amplitude pair in a process: the error's
    minimum over theta is closed-form at each Phi, and the information is
    scored at 8 angles 2theta. Each point's best three grid optima, ranked at
    their parabola's vertex (`_best_local`), are polished by Newton's method
    (in Phi; in (Phi, 2theta)), a block's in lock-step rounds of one series
    evaluation, so a point's result does not depend on its block. Each value
    is the search's own and equals `error_probability_series` /
    `mutual_information_series` at its parameters to a few units in the last
    place; they have xi in {pi/2, 3pi/2}, theta in [0, pi/2] and Phi in
    [0, PHI_MAX], ties going to the lexicographically smallest."""
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

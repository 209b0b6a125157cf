"""Displaced photon-number-resolving baseline receiver.

Surrogate for a feedback-excluded receiver: the signal interferes with a
local displacement of amplitude beta at visibility v, a finite-resolution
photon counter distinguishes counts 0..m-1 and merges everything above,
and a maximum-a-posteriori rule decides the hypothesis. The count pmf is
2 pi-periodic in the channel phase, and the Gaussian phase average is
taken exactly: an equispaced rule whose weights damp Fourier mode k by
exp(-sigma^2 k^2 / 2), with the node count derived from each pair's
bandwidth. One batched kernel evaluates every (amplitude, displacement)
pair of a call, with the displacement derivatives for the Newton search.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._minimize import drive, newton_search
from .config import PROB_GUARD
from .discrimination import _log_ratio
from .signals import SignalParams

__all__ = [
    "PnrConfig",
    "outcome_distribution",
    "map_error_probability",
    "map_mutual_information",
    "evaluate_displacement",
    "optimize_displacement",
    "optimize_displacement_block",
]


# points of the coarse displacement grid of `optimize_displacement`
_GRID_POINTS = 81
# the displacement search minimises sign * objective
_SIGNS = {"min-error": 1.0, "max-information": -1.0}


@dataclass(frozen=True)
class PnrConfig:
    resolution: int = 1
    visibility: float = 0.998
    displacement: float = 0.0

    def validate(self) -> None:
        if type(self.resolution) is not int or self.resolution < 1:
            raise ValueError(f"resolution must be an integer >= 1, got {self.resolution!r}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must be in [0, 1], got {self.visibility}")
        if not math.isfinite(self.displacement):
            raise ValueError(f"displacement must be finite, got {self.displacement}")


@functools.lru_cache(maxsize=64)
def _phase_rule(sigma: float, n: int) -> tuple:
    """Weights of the exact Gaussian phase average at the nodes 2 pi j / n,
    j = 0..n/2, and sin^2 and cos^2 of the half node angles, read-only.

    The wrapped normal damps Fourier mode k by exp(-sigma^2 k^2 / 2); the
    weights are the inverse real FFT of those factors, with nodes j and
    n - j folded since the count pmf is even in phi. A displacement search
    asks for the same rule at every trial, hence the cache.
    """
    j = np.arange(n // 2 + 1)
    weights = np.fft.irfft(np.exp(-0.5 * sigma * sigma * j**2), n=n)[: n // 2 + 1]
    weights[1:-1] *= 2.0
    half = np.pi * j / n
    rule = (weights, np.sin(half) ** 2, np.cos(half) ** 2)
    for part in rule:
        part.flags.writeable = False
    return rule


@functools.lru_cache(maxsize=8)
def _counts(top: int) -> tuple:
    """Counts k = 0..top-1 and log(k!) as columns, and the pmf of a zero count
    mean as a row, read-only."""
    k = np.arange(top)
    rows = (k[:, None], np.array([[math.log(math.factorial(j))] for j in range(top)]), np.where(k == 0, 1.0, 0.0))
    for part in rows:
        part.flags.writeable = False
    return rows


def _outcome_stack(alphas, sigma, betas, visibility: float, resolutions, slopes: bool = False) -> np.ndarray:
    """Outcome distributions (counts 0..m-1, the merged '>= m' outcome, then
    zeros) at every displacement, m of `resolutions` and amplitude, a (B, M,
    A, max(m) + 1) stack; with `slopes`, (3, ...) with the first and second
    beta derivatives. `sigma` is one phase width or one per displacement.

    Each entry's phase average of its Poisson pmf, (entry, count, node), is its
    own node sum with its own width's rule: `outcome_distribution` at that pair
    bit for bit, whatever the call. The derivatives are node sums of P mu' and
    P mu'^2 differenced over k: dP_k/dmu = P_{k-1} - P_k, mu' = 2 (beta - v alpha cos(phi)), mu'' = 2.
    """
    top = max(resolutions)
    a = np.array(alphas, dtype=float)[None, :]
    b = np.array(betas, dtype=float)[:, None]
    cross = 2 * visibility * a * b
    # the count mean a^2 + b^2 - 2 v a b cos(phi) as a sum of nonnegative terms,
    # (|a| - |b|)^2 + 2 |ab| (1 - v) + 4 v |ab| h(phi) with h = sin^2(phi / 2)
    # for ab >= 0 and cos^2(phi / 2) for ab < 0, which does not cancel near nulling
    ab = a * b
    up = ab >= 0
    # per entry offset, swing and with `slopes` mu' as lean + pull h (cos(phi) = +-(1 - 2h))
    terms, size = np.empty((2 + 2 * slopes,) + ab.shape), np.abs(ab)
    terms[0], terms[1] = (np.abs(a) - np.abs(b)) ** 2 + 2.0 * (1.0 - visibility) * size, 4.0 * visibility * size
    if slopes:
        turned = np.where(up, 2.0 * visibility, -2.0 * visibility) * a
        terms[2], terms[3] = 2.0 * b - turned, 2.0 * turned
    # the smallest power of two N >= 64 with N/2 >= 9 sqrt(d) + 16, d = |cross|:
    # Fourier mode k of the count pmf falls off like exp(-k^2 / 2d)
    sizes = 2 ** np.ceil(np.log2(np.maximum(18.0 * np.sqrt(np.abs(cross)) + 32.0, 64.0))).astype(int)
    widths = np.empty(sizes.shape)
    widths[...] = np.reshape(sigma, (-1, 1))
    k, log_factorial, zero_mean = _counts(top)
    # per part and entry: counts 0..top-1, each m's merged outcome at top + m - 1, a zero
    source = np.zeros((1 + 2 * slopes,) + sizes.shape + (2 * top + 1,))
    average, moments = source[0, ..., :top], np.empty((2 * slopes,) + sizes.shape + (top,))
    for n in set(sizes.ravel().tolist()):
        sel = sizes == n
        at = widths[sel]
        levels = sorted(set(at.tolist()))
        rules = [_phase_rule(width, n) for width in levels]
        # the half node angles depend on n alone, so any width's rule has them
        _, sin2, cos2 = rules[0]
        h = np.where(up[sel][:, None], sin2, cos2)
        part = terms[:, sel, None]
        n_eff = part[0] + part[1] * h
        # Poisson pmf as (entry, count, node), times the weights of each entry's own width
        log_pmf = -n_eff[:, None] + k * np.log(np.maximum(n_eff, 1e-300))[:, None] - log_factorial
        pmf = np.exp(log_pmf, out=log_pmf)
        pmf.transpose(0, 2, 1)[n_eff == 0.0] = zero_mean
        weights = np.array([rule[0] for rule in rules]).take(np.array(levels).searchsorted(at), axis=0)
        pmf *= weights[:, None]
        # the weights oscillate at small sigma, so a vanishing average can round below 0
        average[sel] = np.maximum(pmf.sum(axis=-1), 0.0)
        if slopes:
            rise = (part[2] + part[3] * h)[:, None]
            for moment in moments:
                pmf *= rise
                moment[sel] = pmf.sum(axis=-1)
    for m in resolutions:
        np.maximum(1.0 - average[..., :m].sum(axis=-1), 0.0, out=source[0, ..., top + m - 1])
    if slopes:
        # dA_k = S1_{k-1} - S1_k, and d2A_k = D_{k-1} - D_k with D_k = S2_{k-1} - S2_k + 2 A_k;
        # the merged outcome's are S1_{m-1} and D_{m-1}
        rows, ends = source[1:, ..., :top], source[1:, ..., top:-1]
        ends[0], ends[1] = moments[0], 2.0 * average - moments[1]
        ends[1, ..., 1:] += moments[1, ..., :-1]
        np.negative(ends, out=rows)
        rows[..., 1:] += ends[..., :-1]
    stack = source.take(_columns(tuple(resolutions)), axis=-1).swapaxes(-3, -2)
    return stack if slopes else stack[0]


@functools.lru_cache(maxsize=8)
def _columns(resolutions: tuple) -> np.ndarray:
    """Indices of each m's row, (M, max(m) + 1), in `_outcome_stack`'s source:
    its counts, its merged outcome, then the zero."""
    top, c = max(resolutions), np.arange(max(resolutions) + 1)
    return np.array([np.where(c < m, c, np.where(c == m, top + m - 1, 2 * top)) for m in resolutions])


def outcome_distribution(alpha: float, sigma: float, cfg: PnrConfig) -> np.ndarray:
    """Probabilities of counts 0..m-1 and the merged '>= m' outcome.

    After imperfect interference with the displacement the detector sees a
    Poisson count at mean alpha^2 + beta^2 - 2 v alpha beta cos(phi),
    averaged over the Gaussian channel phase.
    """
    cfg.validate()
    return _outcome_stack([alpha], sigma, [cfg.displacement], cfg.visibility, [cfg.resolution])[0, 0, 0]


def map_error_probability(params: SignalParams, cfg: PnrConfig) -> float:
    """Error of the maximum-a-posteriori decision over the count outcomes."""
    [[(_, error), _]] = evaluate_displacement(params, cfg.visibility, [cfg.resolution], cfg.displacement)
    return error


def map_mutual_information(params: SignalParams, cfg: PnrConfig) -> float:
    """Mutual information of the full (m+1)-outcome channel, in bits."""
    [[_, (_, information)]] = evaluate_displacement(params, cfg.visibility, [cfg.resolution], cfg.displacement)
    return information


def _scores(params: SignalParams, betas, visibility: float, keys: list, sigma=None, slopes: bool = False) -> dict:
    """sign * objective, the MAP error ('min-error') or minus the information in
    bits ('max-information'), at each displacement of `betas` (widths `sigma`,
    by default `params.sigma`) for each (m, objective) of `keys`, in one kernel
    call, bit for bit as in lone calls. With `slopes`, (scores, first, second):
    the error's minus the arg-max entries', the information's sum log_ratio dP
    and sum log_ratio d2P + (sum dP^2 / P - sum_k dP(k)^2 / P(k)) / ln 2 above PROB_GUARD."""
    resolutions = list(dict.fromkeys(m for m, _ in keys))
    q = np.array([params.q1, params.q2])
    stack = _outcome_stack([params.alpha1, params.alpha2], params.sigma if sigma is None else sigma, betas,
                           visibility, resolutions, slopes)
    # (displacement, resolution, x, count) joint tables, and their derivatives
    joints = np.multiply(q[:, None], stack, order="C")
    joint = joints[0] if slopes else joints
    log_ratio = _log_ratio(q, joint)
    terms, best = joint * log_ratio, np.maximum(joint[..., 0, :], joint[..., 1, :])
    # each m sums its own outcomes as its own table did: the information's (x, count) entries as one row
    scores = {
        (m, o): 1.0 - best[:, i, :m + 1].sum(axis=-1) if o == "min-error"
        else -terms[:, i, :, :m + 1].reshape(len(betas), -1).sum(axis=-1)
        for (m, o), i in ((key, resolutions.index(key[0])) for key in keys)
    }
    if not slopes:
        return scores
    # sums along the counts, then over x in pairs, so that each entry's are those of its lone call
    first = joints[1]
    error = -np.where(joint[..., 0, :] >= joint[..., 1, :], joints[1:, ..., 0, :], joints[1:, ..., 1, :]).sum(axis=-1)
    information = (log_ratio * joints[1:]).sum(axis=-1)
    information = -(information[..., 0] + information[..., 1])
    p_k, dp_k = joint[..., 0, :] + joint[..., 1, :], first[..., 0, :] + first[..., 1, :]
    fisher = (first * first / np.where(joint >= PROB_GUARD, joint, np.inf)).sum(axis=-1)
    fisher = fisher[..., 0] + fisher[..., 1] - (dp_k * dp_k / np.where(p_k >= PROB_GUARD, p_k, np.inf)).sum(axis=-1)
    information[1] -= fisher / np.log(2.0)
    slope = {"min-error": error, "max-information": information}
    return {(m, o): (value, *slope[o][..., resolutions.index(m)]) for (m, o), value in scores.items()}


def _distinct(visibility: float, resolutions) -> list:
    """The distinct resolutions, in order, once each setting is valid."""
    distinct = list(dict.fromkeys(resolutions))
    for m in distinct:
        PnrConfig(m, visibility).validate()
    return distinct


def evaluate_displacement(params: SignalParams, visibility: float, resolutions, beta: float) -> list:
    """The MAP error and information at the displacement `beta` for each m
    of `resolutions`, from one kernel call; returns, per m in the order of
    `resolutions`, [(beta, error), (beta, information)]."""
    distinct = _distinct(visibility, resolutions)
    PnrConfig(displacement=beta).validate()
    scores = _scores(params, [beta], visibility, [(m, objective) for m in distinct for objective in _SIGNS])
    return [[(float(beta), _SIGNS[o] * float(scores[m, o][0])) for o in _SIGNS] for m in resolutions]


def optimize_displacement(params: SignalParams, visibility: float, resolutions) -> list:
    """Scalar search over the displacement for each m of `resolutions`, once
    for the MAP error and once for the information: the search of
    `optimize_displacement_block` over a block of this one point. Returns,
    per m in the order of `resolutions`, [(beta, error), (beta, information)]
    at the displacement each search found."""
    [found] = optimize_displacement_block([params], visibility, resolutions)
    return found


def optimize_displacement_block(points: list, visibility: float, resolutions) -> list:
    """Scalar search over the displacement at each point of a block, sigma
    points (`SignalParams`) that share their amplitudes and priors, for each
    m of `resolutions`, once for the MAP error and once for the information;
    returns, per point in order and per m in the order of `resolutions`,
    [(beta, error), (beta, information)] at the displacement each search
    found.

    A point's 81-point grid over a symmetric range is one kernel call at
    max(m). Newton's method in beta (`newton_search`, the derivatives of
    `_scores`) then refines each (m, objective)'s best cell within its two
    neighbours, taking only decreases; the block's refinements run in
    lock-step, one kernel call per round. Every value equals the one
    `evaluate_displacement` gives at its beta, bit for bit, whatever the block.
    """
    distinct = _distinct(visibility, resolutions)
    params = points[0]
    if any((p.q1, p.alpha1, p.alpha2) != (params.q1, params.alpha1, params.alpha2) for p in points):
        raise ValueError("the points of a block must differ in sigma only")
    searches = [(m, objective) for m in distinct for objective in _SIGNS]
    span = 2.0 * max(abs(params.alpha1), abs(params.alpha2)) + 1.0
    grid = np.linspace(-span, span, _GRID_POINTS).tolist()
    # (point, key) of each refinement
    trials, refinements = [], []
    for k, point in enumerate(points):
        scores = _scores(point, grid, visibility, searches)
        for key in searches:
            i = int(np.argmin(scores[key]))
            trials.append((k, key))
            cell = (grid[max(i - 1, 0)], grid[min(i + 1, _GRID_POINTS - 1)])
            refinements.append(newton_search((grid[i],), (cell,)))

    def score(trials, betas, slopes=False):
        """sign * objective of each (point, key) of `trials`; with `slopes`, (value, (first,), (second,))."""
        keys = list(dict.fromkeys(key for _, key in trials))
        scores = _scores(params, betas, visibility, keys, [points[k].sigma for k, _ in trials], slopes)
        rows = {key: np.transpose(scores[key]).tolist() for key in keys}
        found = [rows[key][r] for r, (_, key) in enumerate(trials)]
        return [(v, (g,), (h,)) for v, g, h in found] if slopes else found

    ends = drive(refinements, lambda which, xs: score([trials[j] for j in which], [x for (x,) in xs], slopes=True))
    best = {trial: (beta, value) for trial, ((beta,), value, _) in zip(trials, ends)}
    if params.q1 == params.q2 and params.alpha2 == -params.alpha1:
        # BPSK with equal priors: the value is even in beta, so report each
        # optimum at |beta|, its value evaluated there, in one kernel call
        flips = [trial for trial, (beta, _) in best.items() if beta < 0]
        if flips:
            betas = [-best[trial][0] for trial in flips]
            for trial, beta, value in zip(flips, betas, score(flips, betas)):
                best[trial] = (beta, value)
    return [
        [[(best[k, (m, o)][0], _SIGNS[o] * best[k, (m, o)][1]) for o in _SIGNS] for m in resolutions]
        for k in range(len(points))
    ]

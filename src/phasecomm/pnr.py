"""Displaced photon-number-resolving baseline receiver.

Surrogate for a feedback-excluded receiver: the signal interferes with a
local displacement of amplitude beta at visibility v, a finite-resolution
photon counter distinguishes counts 0..m-1 and merges everything above,
and a maximum-a-posteriori rule decides the hypothesis. The count pmf is
2 pi-periodic in the channel phase, and the Gaussian phase average is
taken exactly: an equispaced rule whose weights damp Fourier mode k by
exp(-sigma^2 k^2 / 2), with the node count derived from each pair's
bandwidth. One batched kernel evaluates every (amplitude, displacement)
pair of a call.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._minimize import brent_search, drive
from .discrimination import mutual_information_from_joint
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


def _outcome_table(alphas, sigma, betas, visibility: float, resolutions) -> list:
    """Outcome distributions for every amplitude and displacement at each
    resolution m of `resolutions`: a list of arrays of shape (A, B, m+1), in
    the order of `resolutions`.

    `alphas` and `betas` are sequences of scalars; `sigma` is one phase
    width, or a sequence with the width of each displacement. Entries are
    grouped by their own node count, and the Poisson pmf of a group's counts
    0..max(m)-1 is laid out as (entry, count, node). Each entry's phase
    average is its own sum over its nodes, weighted by its own width's rule,
    which no other entry of the call enters, and each m takes the first m
    of those averages. So every entry equals `outcome_distribution` at that
    pair, bit for bit, whatever else the call holds.
    """
    top = max(resolutions)
    a = np.array(alphas, dtype=float)[:, None]
    b = np.array(betas, dtype=float)[None, :]
    cross = 2 * visibility * a * b
    # the count mean a^2 + b^2 - 2 v a b cos(phi) as a sum of nonnegative terms,
    # (|a| - |b|)^2 + 2 |ab| (1 - v) + 4 v |ab| h(phi) with h = sin^2(phi / 2)
    # for ab >= 0 and cos^2(phi / 2) for ab < 0, which does not cancel near nulling
    ab = a * b
    offset = (np.abs(a) - np.abs(b)) ** 2 + 2.0 * (1.0 - visibility) * np.abs(ab)
    swing = 4.0 * visibility * np.abs(ab)
    # the smallest power of two N >= 64 with N/2 >= 9 sqrt(d) + 16, d = |cross|:
    # Fourier mode k of the count pmf falls off like exp(-k^2 / 2d)
    sizes = 2 ** np.ceil(np.log2(np.maximum(18.0 * np.sqrt(np.abs(cross)) + 32.0, 64.0))).astype(int)
    widths = np.empty(sizes.shape)
    widths[...] = sigma
    k, log_factorial, zero_mean = _counts(top)
    average = np.empty(sizes.shape + (top,))
    for n in set(sizes.ravel().tolist()):
        sel = sizes == n
        at = widths[sel]
        levels = sorted(set(at.tolist()))
        rules = [_phase_rule(width, n) for width in levels]
        # the half node angles depend on n alone, so any width's rule has them
        _, sin2, cos2 = rules[0]
        h = np.where((ab >= 0)[sel][:, None], sin2, cos2)
        n_eff = offset[sel][:, None] + swing[sel][:, None] * h
        # Poisson pmf as (entry, count, node), times the weights of each entry's own width
        log_pmf = -n_eff[:, None] + k * np.log(np.maximum(n_eff, 1e-300))[:, None] - log_factorial
        pmf = np.exp(log_pmf, out=log_pmf)
        pmf.transpose(0, 2, 1)[n_eff == 0.0] = zero_mean
        weights = np.array([rule[0] for rule in rules]).take(np.array(levels).searchsorted(at), axis=0)
        pmf *= weights[:, None]
        # the weights oscillate at small sigma, so a vanishing average can round below 0
        average[sel] = np.maximum(pmf.sum(axis=-1), 0.0)
    tables = [np.empty(sizes.shape + (m + 1,)) for m in resolutions]
    for m, probs in zip(resolutions, tables):
        probs[..., :m] = average[..., :m]
        np.maximum(1.0 - probs[..., :m].sum(axis=-1), 0.0, out=probs[..., m])
    return tables


def outcome_distribution(alpha: float, sigma: float, cfg: PnrConfig) -> np.ndarray:
    """Probabilities of counts 0..m-1 and the merged '>= m' outcome.

    After imperfect interference with the displacement the detector sees a
    Poisson count at mean alpha^2 + beta^2 - 2 v alpha beta cos(phi),
    averaged over the Gaussian channel phase.
    """
    cfg.validate()
    [table] = _outcome_table([alpha], sigma, [cfg.displacement], cfg.visibility, [cfg.resolution])
    return table[0, 0]


def map_error_probability(params: SignalParams, cfg: PnrConfig) -> float:
    """Error of the maximum-a-posteriori decision over the count outcomes."""
    [[(_, error), _]] = evaluate_displacement(params, cfg.visibility, [cfg.resolution], cfg.displacement)
    return error


def map_mutual_information(params: SignalParams, cfg: PnrConfig) -> float:
    """Mutual information of the full (m+1)-outcome channel, in bits."""
    [[_, (_, information)]] = evaluate_displacement(params, cfg.visibility, [cfg.resolution], cfg.displacement)
    return information


def _scores(params: SignalParams, betas, visibility: float, keys: list, sigma=None) -> dict:
    """sign * objective at every displacement of `betas` for each (m, objective)
    of `keys`, from one kernel call: the MAP error ('min-error') or minus the
    information in bits ('max-information'); each key scores all
    displacements at once. `sigma` gives the phase width of each
    displacement (a block's points share amplitudes and priors); by default
    every displacement takes `params.sigma`. Each displacement's scores are
    those of its lone call, bit for bit."""
    resolutions = list(dict.fromkeys(m for m, _ in keys))
    alphas, q = [params.alpha1, params.alpha2], np.array([params.q1, params.q2])
    tables = _outcome_table(alphas, params.sigma if sigma is None else sigma, betas, visibility, resolutions)
    # (displacement, x, count) joint tables, one per resolution
    joints = {m: (q[:, None, None] * table).transpose(1, 0, 2) for m, table in zip(resolutions, tables)}
    return {
        (m, o): 1.0 - joints[m].max(axis=-2).sum(axis=-1) if o == "min-error"
        else -mutual_information_from_joint(joints[m], q)
        for m, o in keys
    }


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

    A point's search covers every resolution and both quantities. A coarse
    grid over a symmetric range is evaluated per point in one kernel call
    that all of them share: one table at max(m), whose counts 0..m-1 serve
    each m. A bounded Brent refinement then runs around each (m,
    objective)'s best cell. The refinements of every point of the block run
    in lock-step: each round is one kernel call at the trial displacement of
    every running refinement, each averaged over its own point's sigma, and
    each (m, objective) scores all of the round's displacements at once.
    Every value equals the one `evaluate_displacement` gives at its beta,
    bit for bit, whatever the block. Deterministic.
    """
    distinct = _distinct(visibility, resolutions)
    params = points[0]
    if any((p.q1, p.alpha1, p.alpha2) != (params.q1, params.alpha1, params.alpha2) for p in points):
        raise ValueError("the points of a block must differ in sigma only")
    searches = [(m, objective) for m in distinct for objective in _SIGNS]
    span = 2.0 * max(abs(params.alpha1), abs(params.alpha2)) + 1.0
    grid = np.linspace(-span, span, _GRID_POINTS)
    # (point, key, best cell, its value) of each refinement
    starts, refinements = [], []
    for k, point in enumerate(points):
        scores = _scores(point, grid, visibility, searches)
        for key in searches:
            i = int(np.argmin(scores[key]))
            starts.append((k, key, i, scores[key][i]))
            refinements.append(brent_search(grid[max(i - 1, 0)], grid[min(i + 1, _GRID_POINTS - 1)], 1e-9))

    def score(trials, betas):
        """sign * objective of each (point, key) of `trials` at its displacement."""
        keys = list(dict.fromkeys(key for _, key in trials))
        scores = _scores(params, betas, visibility, keys, [points[k].sigma for k, _ in trials])
        return [scores[key][r] for r, (_, key) in enumerate(trials)]

    best = {}
    ends = drive(refinements, lambda which, betas: score([starts[j][:2] for j in which], betas))
    for (k, key, i, grid_value), (beta, value) in zip(starts, ends):
        best[k, key] = (float(beta) if value <= grid_value else float(grid[i]), min(float(value), float(grid_value)))
    if params.q1 == params.q2 and params.alpha2 == -params.alpha1:
        # BPSK with equal priors: the value is even in beta, so report each
        # optimum at |beta|, its value evaluated there, in one kernel call
        flips = [trial for trial, (beta, _) in best.items() if beta < 0]
        if flips:
            betas = [-best[trial][0] for trial in flips]
            for trial, beta, value in zip(flips, betas, score(flips, betas)):
                best[trial] = (beta, float(value))
    return [
        [[(best[k, (m, o)][0], _SIGNS[o] * best[k, (m, o)][1]) for o in _SIGNS] for m in resolutions]
        for k in range(len(points))
    ]

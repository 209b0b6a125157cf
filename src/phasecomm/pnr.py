"""Displaced photon-number-resolving baseline receiver.

Surrogate for a feedback-excluded receiver: the signal interferes with a
local displacement of amplitude beta at visibility v, a finite-resolution
photon counter distinguishes counts 0..m-1 and merges everything above,
and a maximum-a-posteriori rule decides the hypothesis. The Gaussian
phase of the channel is averaged by Gauss-Hermite quadrature; the rule is
built once per order, and one batched kernel evaluates every
(amplitude, displacement) pair of a call.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy import optimize as sciopt
from scipy import special

from .config import DEFAULT_TOL, Tolerances
from .discrimination import mutual_information_from_joint
from .errors import QuadratureUnderflow
from .signals import SignalParams

__all__ = [
    "PnrConfig",
    "outcome_distribution",
    "map_error_probability",
    "map_mutual_information",
    "optimize_displacement",
]


@dataclass(frozen=True)
class PnrConfig:
    resolution: int = 1
    visibility: float = 0.998
    displacement: float = 0.0
    quadrature_points: int = 64

    def validate(self) -> None:
        if self.resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {self.resolution}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must be in [0, 1], got {self.visibility}")
        if not math.isfinite(self.displacement):
            raise ValueError(f"displacement must be finite, got {self.displacement}")
        if self.quadrature_points < 16:
            raise ValueError("quadrature_points must be >= 16")


@lru_cache(maxsize=None)
def _gauss_hermite(order: int) -> tuple:
    """Nodes and probability weights (summing to 1) of the Gauss-Hermite rule; read-only."""
    nodes, w = np.polynomial.hermite.hermgauss(order)
    weights = w / np.sqrt(np.pi)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _outcome_table(alphas, sigma: float, betas, cfg: PnrConfig, tol: Tolerances) -> np.ndarray:
    """Outcome distributions for every amplitude and displacement, shape (A, B, m+1).

    `alphas` and `betas` are sequences of scalars; each (alpha, beta) entry
    equals `outcome_distribution` at that pair bit for bit.
    """
    cfg.validate()
    m = cfg.resolution
    if sigma == 0.0:
        phis = np.array([0.0])
        weights = np.array([1.0])
    else:
        nodes, weights = _gauss_hermite(cfg.quadrature_points)
        norm = float(weights.sum())
        if abs(norm - 1.0) > tol.quadrature_norm:
            raise QuadratureUnderflow(
                f"Gauss-Hermite weights sum to {norm}, off by more than "
                f"{tol.quadrature_norm:.0e}"
            )
        phis = np.sqrt(2.0) * sigma * nodes

    # squares of the scalars as given: numpy's square and libm's pow differ in the last bit
    a = np.array(alphas, dtype=float)[:, None, None]
    b = np.array(betas, dtype=float)[None, :, None]
    a2 = np.array([x**2 for x in alphas], dtype=float)[:, None, None]
    b2 = np.array([x**2 for x in betas], dtype=float)[None, :, None]
    n_eff = a2 + b2 - 2 * cfg.visibility * a * b * np.cos(phis)
    n_eff = np.clip(n_eff, 0.0, None)
    k = np.arange(m)
    # Poisson pmf per node, averaged with the quadrature weights
    log_pmf = -n_eff[..., None] + k * np.log(np.clip(n_eff, 1e-300, None))[..., None] - special.gammaln(k + 1)
    pmf = np.exp(log_pmf)
    pmf[n_eff == 0.0] = np.where(k == 0, 1.0, 0.0)
    probs = np.empty(n_eff.shape[:2] + (m + 1,))
    probs[..., :m] = weights @ pmf
    probs[..., m] = np.maximum(1.0 - probs[..., :m].sum(axis=-1), 0.0)
    return probs


def outcome_distribution(
    alpha: float, sigma: float, cfg: PnrConfig, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Probabilities of counts 0..m-1 and the merged '>= m' outcome.

    After imperfect interference with the displacement the detector sees a
    Poisson count at mean alpha^2 + beta^2 - 2 v alpha beta cos(phi),
    averaged over the Gaussian channel phase.
    """
    return _outcome_table([alpha], sigma, [cfg.displacement], cfg, tol)[0, 0]


def _conditional_table(params: SignalParams, cfg: PnrConfig, tol: Tolerances) -> np.ndarray:
    return _outcome_table([params.alpha1, params.alpha2], params.sigma, [cfg.displacement], cfg, tol)[:, 0]


def _map_error(params: SignalParams, cond: np.ndarray) -> float:
    weighted = np.vstack([params.q1 * cond[0], params.q2 * cond[1]])
    return float(1.0 - weighted.max(axis=0).sum())


def _map_information(params: SignalParams, cond: np.ndarray, tol: Tolerances) -> float:
    joint = np.vstack([params.q1 * cond[0], params.q2 * cond[1]])
    return mutual_information_from_joint(joint, (params.q1, params.q2), tol.prob_guard)


def map_error_probability(
    params: SignalParams, cfg: PnrConfig, tol: Tolerances = DEFAULT_TOL
) -> float:
    """Error of the maximum-a-posteriori decision over the count outcomes."""
    return _map_error(params, _conditional_table(params, cfg, tol))


def map_mutual_information(
    params: SignalParams, cfg: PnrConfig, tol: Tolerances = DEFAULT_TOL
) -> float:
    """Mutual information of the full (m+1)-outcome channel, in bits."""
    return _map_information(params, _conditional_table(params, cfg, tol), tol)


def _grid_values(params: SignalParams, cfg: PnrConfig, objective: str, tol: Tolerances, grid) -> list:
    """The objective to minimise at every displacement of the grid, from one kernel call."""
    table = _outcome_table([params.alpha1, params.alpha2], params.sigma, grid, cfg, tol)
    if objective == "min-error":
        return [_map_error(params, table[:, j]) for j in range(len(grid))]
    return [-_map_information(params, table[:, j], tol) for j in range(len(grid))]


def optimize_displacement(
    params: SignalParams,
    cfg: PnrConfig,
    objective: str = "min-error",
    tol: Tolerances = DEFAULT_TOL,
    grid_points: int = 81,
) -> tuple:
    """Scalar search over the displacement; returns (best_cfg, best_value).

    Coarse grid over a symmetric range, evaluated in one kernel call, then
    bounded refinement around the best cell. Deterministic.
    """
    if objective == "min-error":
        def fun(beta):
            return map_error_probability(params, replace(cfg, displacement=float(beta)), tol)
    elif objective == "max-information":
        def fun(beta):
            return -map_mutual_information(params, replace(cfg, displacement=float(beta)), tol)
    else:
        raise ValueError(f"unknown objective {objective!r}")

    span = 2.0 * max(abs(params.alpha1), abs(params.alpha2)) + 1.0
    grid = np.linspace(-span, span, grid_points)
    values = _grid_values(params, cfg, objective, tol, grid.tolist())
    i = int(np.argmin(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid_points - 1)]
    res = sciopt.minimize_scalar(fun, bounds=(lo, hi), method="bounded", options={"xatol": 1e-9})
    best_beta = float(res.x) if res.fun <= values[i] else float(grid[i])
    best_val = min(float(res.fun), values[i])
    if objective == "max-information":
        best_val = -best_val
    return replace(cfg, displacement=best_beta), best_val

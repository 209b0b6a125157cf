"""Binary signal sets and the ensembles they induce after phase diffusion."""

from dataclasses import dataclass

import numpy as np

from .channel import phase_diffused_coherent
from .discrimination import BinaryEnsemble
from .fock import FockDim

__all__ = ["SignalParams", "bpsk", "ook", "build_ensemble"]


@dataclass(frozen=True)
class SignalParams:
    """Priors, real amplitudes, and channel noise of one transmission setup."""

    q1: float
    alpha1: float
    alpha2: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma < 0 or not np.isfinite(self.sigma):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")

    @property
    def q2(self) -> float:
        return 1.0 - self.q1


def bpsk(mean_photons: float, sigma: float, q1: float = 0.5) -> SignalParams:
    """Antipodal amplitudes +/- sqrt(n_bar)."""
    a = float(np.sqrt(mean_photons))
    return SignalParams(q1=q1, alpha1=a, alpha2=-a, sigma=sigma)


def ook(mean_photons: float, sigma: float, q1: float = 0.5) -> SignalParams:
    """On-off keying: vacuum vs sqrt(n_bar / q2)."""
    q2 = 1.0 - q1
    if q2 <= 0:
        raise ValueError("OOK needs q2 > 0")
    return SignalParams(q1=q1, alpha1=0.0, alpha2=float(np.sqrt(mean_photons / q2)), sigma=sigma)


def build_ensemble(params: SignalParams, dim: FockDim) -> BinaryEnsemble:
    tau1 = phase_diffused_coherent(params.alpha1, params.sigma, dim)
    tau2 = phase_diffused_coherent(params.alpha2, params.sigma, dim)
    return BinaryEnsemble(priors=(params.q1, params.q2), states=(tau1, tau2))

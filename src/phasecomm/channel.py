"""Gaussian phase-diffusion channel on the truncated Fock space.

The channel averages U(phi) = exp(i phi a^dag a) over a Gaussian phase with
standard deviation sigma. Off-diagonals in the number basis pick up the
exact factor exp(-sigma^2 (n-m)^2 / 2), so the map is applied entrywise in
closed form rather than by quadrature.
"""

import numpy as np

from .fock import FockDim, coherent_ket

__all__ = [
    "dephasing_kernel",
    "phase_diffused_coherent",
    "dephase",
]


def dephasing_kernel(sigma: float, size: int) -> np.ndarray:
    """Entrywise factors exp(-sigma^2 (n-m)^2 / 2)."""
    if sigma < 0 or not np.isfinite(sigma):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    n = np.arange(size)
    d = n[:, None] - n[None, :]
    return np.exp(-0.5 * sigma * sigma * d.astype(float) ** 2)


def phase_diffused_coherent(alpha: float, sigma: float, dim: FockDim) -> np.ndarray:
    """Phase-diffused coherent state, entrywise closed form.

    <n|tau|m> = exp(-alpha^2) exp(-sigma^2 (n-m)^2/2) alpha^(n+m)/sqrt(n! m!)
    """
    c = coherent_ket(alpha, dim)
    return np.outer(c, c) * dephasing_kernel(sigma, dim.size)


def dephase(rho: np.ndarray, sigma: float) -> np.ndarray:
    """Apply the dephasing map to an arbitrary state; diagonal is invariant."""
    return rho * dephasing_kernel(sigma, rho.shape[0])


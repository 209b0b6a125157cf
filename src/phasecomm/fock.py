"""Dense linear algebra on a truncated Fock space.

Everything here works on plain numpy arrays of shape (cutoff+1, cutoff+1),
real for the program's own states; `FockDim` carries the cutoff and the
validation helpers enforce hermiticity / positivity / trace invariants.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import EIG_RECONSTRUCTION, HERMITICITY, PINV_REL, TAIL
from .errors import ConvergenceFailure, TailTooHeavy

__all__ = [
    "FockDim",
    "default_cutoff",
    "poisson_tail",
    "coherent_ket",
    "hermitian_eig",
    "matrix_function_sqrt_inv",
    "check_hermitian",
]


# smallest cutoff `default_cutoff` returns
_CUTOFF_FLOOR = 30


@dataclass(frozen=True)
class FockDim:
    """Truncated Fock space with basis {|0>, ..., |cutoff>}."""

    cutoff: int

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")

    @property
    def size(self) -> int:
        return self.cutoff + 1


def poisson_tail(alpha: float, cutoff: int) -> float:
    """Poisson mass of a coherent state with amplitude alpha beyond the cutoff."""
    # P(X > cutoff) for X ~ Poisson(alpha^2): the pmf summed outward from the
    # later of cutoff + 1 and the mode, where it cannot underflow, until its
    # terms no longer change the sum
    mean = alpha * alpha
    if mean == 0.0:
        return 0.0
    start = max(cutoff + 1, math.floor(mean))
    peak = math.exp(start * math.log(mean) - mean - math.lgamma(start + 1))
    total, term, n = 0.0, peak, start
    while total + term != total:
        total += term
        n += 1
        term *= mean / n
    term, n = peak, start
    while n > cutoff + 1:
        term *= n / mean
        n -= 1
        if total + term == total:
            break
        total += term
    return min(total, 1.0)


def default_cutoff(amplitudes) -> int:
    """Smallest cutoff, at least _CUTOFF_FLOOR, keeping every amplitude's Poisson tail below TAIL."""
    amplitudes = [abs(float(a)) for a in amplitudes]
    if not all(math.isfinite(a) for a in amplitudes):
        raise ValueError(f"amplitudes must be finite, got {amplitudes}")
    a_max = max(amplitudes) if amplitudes else 0.0
    n = _CUTOFF_FLOOR
    while poisson_tail(a_max, n) >= TAIL:
        n += 1
    return n


def coherent_ket(alpha: float, dim: FockDim) -> np.ndarray:
    """Truncated coherent state |alpha> with real amplitude, a real float64 vector.

    Raises TailTooHeavy when the cutoff discards Poisson mass of TAIL or more.
    """
    tail = poisson_tail(alpha, dim.cutoff)
    if tail >= TAIL:
        raise TailTooHeavy(
            f"alpha={alpha} at cutoff {dim.cutoff} discards mass {tail:.3e} "
            f">= {TAIL:.1e}"
        )
    amps = [float(np.exp(-0.5 * alpha * alpha))]
    for n in range(1, dim.size):
        amps.append(amps[-1] * alpha / math.sqrt(n))
    return np.array(amps)


def check_hermitian(op: np.ndarray) -> None:
    """Raise unless op (one matrix or a stack of them) is Hermitian within HERMITICITY."""
    dev = np.max(np.abs(op - op.conj().swapaxes(-1, -2)))
    if dev > HERMITICITY:
        raise ValueError(f"operator deviates from hermiticity by {dev:.3e}")


def hermitian_eig(op: np.ndarray):
    """Eigendecomposition of a Hermitian matrix; eigenvalues ascending.

    The reconstruction ||A - V D V^dagger||_max is checked against a
    relative bound; failure of the underlying solver raises
    ConvergenceFailure.
    """
    check_hermitian(op)
    try:
        w, v = np.linalg.eigh(op)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    scale = max(np.max(np.abs(op)), 1.0)
    recon = (v * w) @ v.conj().T
    err = np.max(np.abs(op - recon))
    if err > EIG_RECONSTRUCTION * scale:
        raise ConvergenceFailure(f"reconstruction error {err:.3e} exceeds bound")
    return w, v


def matrix_function_sqrt_inv(op: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root of a PSD matrix.

    Eigenvalues below PINV_REL * lambda_max map to zero; everything else
    to lambda^{-1/2}.
    """
    w, v = hermitian_eig(op)
    lam_max = max(float(w.max()), 0.0)
    thr = PINV_REL * lam_max
    f = np.where(w > thr, 1.0 / np.sqrt(np.clip(w, 1e-300, None)), 0.0)
    return (v * f) @ v.conj().T

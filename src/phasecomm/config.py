"""Centralized numerical tolerances.

Every magic threshold used by the library lives here so that tests and the
CLI agree on one set of defaults.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # Poisson mass allowed beyond the Fock cutoff
    tail: float = 1e-12
    # max-norm deviation from A = A^dagger
    hermiticity: float = 1e-12
    # eigenvalues above -psd_floor count as nonnegative
    psd_floor: float = 1e-10
    # relative reconstruction error allowed for the eigensolver
    eig_reconstruction: float = 1e-9
    # eigenvalues below pinv_rel * lambda_max are zeroed in S^{-1/2}
    pinv_rel: float = 1e-10
    # entrywise deviation from M1 + M2 = I
    povm_completeness: float = 1e-9
    # joint probabilities below this contribute nothing to information sums
    prob_guard: float = 1e-15
    # last retained series term must stay below this fraction of the sum
    series_tail: float = 1e-14


DEFAULT_TOL = Tolerances()

"""The library's fixed numerical thresholds.

Every threshold lives here as a module constant, so that every layer,
the tests and the CLI check against one set of values.
"""

# Poisson mass allowed beyond the Fock cutoff
TAIL = 1e-12
# max-norm deviation from A = A^dagger
HERMITICITY = 1e-12
# eigenvalues above -PSD_FLOOR count as nonnegative
PSD_FLOOR = 1e-10
# relative reconstruction error allowed for the eigensolver
EIG_RECONSTRUCTION = 1e-9
# eigenvalues below PINV_REL * lambda_max are zeroed in S^{-1/2}
PINV_REL = 1e-10
# entrywise deviation from M1 + M2 = I
POVM_COMPLETENESS = 1e-9
# joint probabilities below this contribute nothing to information sums
PROB_GUARD = 1e-15
# last retained series term must stay below this fraction of the sum
SERIES_TAIL = 1e-14
# deviation of q1 + q2 from 1 that still counts as a distribution
PRIORS_SUM = 1e-12

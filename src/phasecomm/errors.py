"""Exception types shared across the package."""


class PhasecommError(Exception):
    """Base class for all package-specific errors."""


class TailTooHeavy(PhasecommError):
    """The Fock cutoff discards more Poisson mass than the tail tolerance allows."""


class ConvergenceFailure(PhasecommError):
    """The dense Hermitian eigensolver failed to converge."""


class DimensionMismatch(PhasecommError):
    """Operators or states live on different truncated Fock spaces."""


class SeriesTruncationError(PhasecommError):
    """The closed-form photon-number series was cut before its tail was negligible."""


class ConfigError(PhasecommError):
    """Sweep configuration violates the documented schema."""


class GridMismatch(PhasecommError):
    """Two sampled curves were not evaluated on the same grid."""

"""Binary coherent-state communication under Gaussian phase diffusion.

Figures of merit for discriminating two phase-diffused coherent states:
the Helstrom bound, the accessible information, and the error probability
and mutual information of an atomic indirect receiver and of a displaced
photon-counting baseline, plus a sigma-sweep experiment runner.
"""

from .atomic import (
    AtomicParams,
    OptimizeConfig,
    error_probability_series,
    joint_probabilities_series,
    mutual_information_series,
    optimize,
)
from .channel import dephase, phase_diffused_coherent
from .discrimination import (
    AscentConfig,
    AscentReport,
    BinaryEnsemble,
    Povm,
    accessible_information,
    binary_entropy,
    error_probability,
    helstrom_bound,
    helstrom_measurement,
    mutual_information,
)
from .errors import (
    ConfigError,
    ConvergenceFailure,
    DimensionMismatch,
    GridMismatch,
    PhasecommError,
    SeriesTruncationError,
    TailTooHeavy,
)
from .fock import (
    FockDim,
    coherent_ket,
    default_cutoff,
    hermitian_eig,
    matrix_function_sqrt_inv,
)
from .pnr import (
    PnrConfig,
    map_error_probability,
    map_mutual_information,
    optimize_displacement,
    outcome_distribution,
)
from .signals import SignalParams, bpsk, build_ensemble, ook
from .sweep import SweepConfig, find_crossing, run_sweep

__version__ = "0.1.0"

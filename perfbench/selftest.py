"""Quick self-test of the benchmark's checkers (about ten seconds).

Usage (from the repository root): python3 perfbench/selftest.py

Each checker must accept the program's own value at a cheap point and
reject a value known to be wrong, and a known fault must account only for
misses of its own kind and size. Exits 1 if any case goes the wrong way.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from phasecomm.atomic import OptimizeConfig, optimize  # noqa: E402
from phasecomm.discrimination import AscentConfig, accessible_information, helstrom_bound  # noqa: E402
from phasecomm.fock import FockDim, default_cutoff  # noqa: E402
from phasecomm.pnr import PnrConfig, map_error_probability, map_mutual_information  # noqa: E402
from phasecomm.signals import bpsk, build_ensemble  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

NULL_FIRST = {"type": "pnr", "resolution": 3, "visibility": 0.998, "beta_mode": "null-first"}


def helstrom_row(sigma: float) -> dict:
    params = bpsk(0.5, sigma)
    cutoff = default_cutoff([params.alpha1, params.alpha2])
    return {"cutoff": cutoff, "p_helstrom": helstrom_bound(build_ensemble(params, FockDim(cutoff)))}


def pnr_row(sigma: float, nodes: int) -> dict:
    beta = -1.21
    cfg = PnrConfig(resolution=3, visibility=0.998, displacement=beta, quadrature_points=nodes)
    params = bpsk(1.0, sigma)
    return {
        "p_pnr_m3": map_error_probability(params, cfg),
        "i_pnr_m3": map_mutual_information(params, cfg),
        "pnr_beta_err_m3": beta,
        "pnr_beta_info_m3": beta,
    }


def accinfo_row(sigma: float) -> dict:
    params = bpsk(0.5, sigma)
    cutoff = default_cutoff([params.alpha1, params.alpha2])
    cfg = AscentConfig(restarts=4, outcomes=4, polish_max=300, max_iter=2500, lam_max=2.0)
    rep = accessible_information(build_ensemble(params, FockDim(cutoff)), cfg)
    return {
        "cutoff": cutoff,
        "i_accessible": rep.mutual_information,
        "accinfo_residual": rep.stationarity_residual,
        "accinfo_converged": int(rep.converged),
    }


def holevo(point: checks.Point, dim: int) -> float:
    t1, t2 = point.states(dim)
    q1, q2 = point.priors
    return checks.entropy_bits(q1 * t1 + q2 * t2) - q1 * checks.entropy_bits(t1) - q2 * checks.entropy_bits(t2)


def helstrom_information(p_error: float) -> float:
    """Information of the Helstrom measurement of two states related by parity (BPSK)."""
    return 1.0 - checks.binary_entropy(p_error)


def main() -> int:
    bpsk05 = {s: checks.Point("BPSK", 0.5, 0.5, s) for s in (0.0, 0.6)}
    bpsk10 = {s: checks.Point("BPSK", 1.0, 0.5, s) for s in (1.2, 2.0)}
    row = helstrom_row(0.6)
    bumped = dict(row, p_helstrom=row["p_helstrom"] + 1e-7)
    acc = accinfo_row(0.0)
    dim = row["cutoff"] + checks.HELSTROM_EXTRA_LEVELS
    above = dict(row, i_accessible=holevo(bpsk05[0.6], dim) + 1e-6, accinfo_converged=1)
    helstrom_only = dict(row, i_accessible=helstrom_information(row["p_helstrom"]), accinfo_converged=1)
    atomic = {"p_atomic": optimize("min-error", bpsk(0.5, 0.6), OptimizeConfig()).value}
    pnr_key = ("BPSK", 0.75, 2.0, "pnr-m3")
    small, large = checks.Miss("p_pnr_m3", 5e-5, ""), checks.Miss("p_pnr_m3", 1e-3, "")
    displacement = checks.Miss("p_pnr_m3.displacement", 1e-6, "")
    cases = [
        ("helstrom, program value, BPSK 0.5 sigma 0.6", not checks.check_helstrom(row, bpsk05[0.6]), True),
        ("helstrom, p_helstrom + 1e-7", not checks.check_helstrom(bumped, bpsk05[0.6]), False),
        ("accinfo, program value, BPSK 0.5 sigma 0", not checks.check_accinfo(acc, bpsk05[0.0]), True),
        ("accinfo, 1e-6 above Holevo chi at sigma 0.6", not checks.check_accinfo(above, bpsk05[0.6]), False),
        ("accinfo, Helstrom measurement's information at sigma 0.6",
         not checks.check_accinfo(helstrom_only, bpsk05[0.6]), False),
        ("pnr, 64-node value, BPSK 1.0 sigma 1.2", not checks.check_pnr(pnr_row(1.2, 64), bpsk10[1.2], NULL_FIRST),
         True),
        ("pnr, 16-node value at sigma 1.2", not checks.check_pnr(pnr_row(1.2, 16), bpsk10[1.2], NULL_FIRST), False),
        ("pnr, 16-node value at sigma 2.0", not checks.check_pnr(pnr_row(2.0, 16), bpsk10[2.0], NULL_FIRST), False),
        ("atomic, program value, BPSK 0.5 sigma 0.6", not checks.check_atomic_error(atomic, bpsk05[0.6]), True),
        ("atomic, p_atomic - 1e-7", not checks.check_atomic_error({"p_atomic": atomic["p_atomic"] - 1e-7},
                                                                  bpsk05[0.6]), False),
        ("known fault, PNR miss 5e-5 at BPSK 0.75 sigma 2.0",
         workloads.known_fault(pnr_key, [small]) is not None, True),
        ("known fault, PNR miss 1e-3 at BPSK 0.75 sigma 2.0",
         workloads.known_fault(pnr_key, [small, large]) is not None, False),
        ("known fault, suboptimal displacement at BPSK 0.75 sigma 2.0",
         workloads.known_fault(pnr_key, [small, displacement]) is not None, False),
    ]
    bad = 0
    for name, passed, should_pass in cases:
        ok = passed == should_pass
        bad += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {'accepted' if passed else 'rejected'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

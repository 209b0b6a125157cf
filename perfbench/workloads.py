"""The benchmark's workloads: sweep configs, operations and known faults.

A workload is a list of sweeps. Each sweep is one `phasecomm` sweep config
(the README's schema) and is run either through `sweep.run_sweep` in one
process or through the `phasecomm sweep` CLI with a worker pool.

One operation is one receiver evaluation at one sigma point: `helstrom`,
`accinfo`, `atomic-error`, `atomic-information` or `pnr-m<m>`.
"""

import random

import numpy as np

HELSTROM = {"type": "helstrom"}
# the acceptance settings of the accessible-information ascent
ACCINFO = {
    "type": "accinfo",
    "restarts": 4,
    "outcomes": 4,
    "polish_max": 300,
    "max_iter": 2500,
    "lam_max": 2.0,
}
ATOMIC = {"type": "atomic", "objectives": ["error", "information"]}


def _pnr(beta_mode):
    # 0.998 is the program's default visibility; it is spelled out because
    # the PNR check recomputes the receiver and must use the same value
    return [
        {"type": "pnr", "resolution": m, "visibility": 0.998, "beta_mode": beta_mode}
        for m in (1, 2, 3)
    ]


def _sweep(signal, mean_photons, start, stop, steps, receivers):
    return {
        "signal": signal,
        "mean_photons": mean_photons,
        "priors": [0.5, 0.5],
        "sigma_grid": {"start": start, "stop": stop, "steps": steps},
        "receivers": receivers,
        "seed": 0,
    }


WORKLOADS = {
    "accinfo-ascent": {
        "mode": "library",
        "workers": 1,
        "sweeps": [
            _sweep("BPSK", 0.5, 0.0, 1.2, 3, [HELSTROM, ACCINFO]),
            _sweep("OOK", 0.5, 0.6, 0.6, 1, [HELSTROM, ACCINFO]),
        ],
    },
    "receivers-mixed": {
        "mode": "library",
        "workers": 1,
        "sweeps": [
            _sweep(signal, nbar, start, stop, steps, [HELSTROM, ATOMIC] + _pnr("optimized"))
            for signal, nbar in (("BPSK", 0.75), ("OOK", 0.5))
            for start, stop, steps in ((0.0, 1.2, 3), (2.0, 2.0, 1))
        ],
    },
    "cli-sweep-2w": {
        "mode": "cli",
        "workers": 2,
        "sweeps": [_sweep("OOK", 1.5, 0.0, 3.0, 12, [HELSTROM, ATOMIC] + _pnr("null-first"))],
    },
}

# Operations that fail on the current program, each for a known fault.
# Keyed by (signal, mean_photons, sigma, operation). Each entry names the
# fault and, for every kind of miss it causes (`checks.Miss.kind`), the
# largest size it may have. A miss of another kind on these operations, or
# a larger one, is a new failure.
_ASCENT_STOPS = "the ascent stops at max_iter with a residual above its 1e-6 tolerance"
_ASCENT_SHORT = _ASCENT_STOPS + ", below the information of a POVM the benchmark's ascent finds"
_GAUSS_HERMITE = "the 64-node Gauss-Hermite phase average misses the integral"
EXPECTED_FAILURES = {
    # misses: the stationarity residual; the bits short of the benchmark's POVM
    ("BPSK", 0.5, 0.6, "accinfo"): (_ASCENT_SHORT, {"accinfo_converged": 1e-4, "i_accessible.lower": 5e-4}),
    ("BPSK", 0.5, 1.2, "accinfo"): (_ASCENT_SHORT, {"accinfo_converged": 1e-4, "i_accessible.lower": 5e-4}),
    ("OOK", 0.5, 0.6, "accinfo"): (_ASCENT_STOPS, {"accinfo_converged": 1e-4}),
    # misses: the values at the reported displacement; the displacement itself must pass
    **{
        ("BPSK", 0.75, 2.0, f"pnr-m{m}"): (_GAUSS_HERMITE, {f"p_pnr_m{m}": 1e-4, f"i_pnr_m{m}": 1e-4})
        for m in (1, 2, 3)
    },
}


def known_fault(key: tuple, misses: list):
    """The known fault that accounts for every miss of an operation, or None."""
    if key not in EXPECTED_FAILURES:
        return None
    fault, limits = EXPECTED_FAILURES[key]
    if all(m.kind in limits and m.size <= limits[m.kind] for m in misses):
        return fault
    return None


def operations(receivers) -> list:
    """Names of the operations one sigma point of a sweep performs."""
    ops = []
    for rec in receivers:
        kind = rec["type"]
        if kind == "atomic":
            ops.extend(f"atomic-{obj}" for obj in rec["objectives"])
        elif kind == "pnr":
            ops.append(f"pnr-m{rec['resolution']}")
        else:
            ops.append(kind)
    return ops


def sigma_grid(sweep) -> list:
    g = sweep["sigma_grid"]
    return [float(s) for s in np.linspace(g["start"], g["stop"], g["steps"])]


def op_key(sweep, sigma, op) -> tuple:
    return (sweep["signal"], sweep["mean_photons"], round(sigma, 9), op)


def build(name: str, seed: int) -> dict:
    """The workload's inputs for one run.

    The seed fixes the order in which the workload's sweeps run. The
    program's own seed (the config `seed`, which drives the atomic search's
    random starts and the ascent's random restarts) stays 0, so every seed
    runs the same operations with the same results.
    """
    spec = WORKLOADS[name]
    sweeps = [dict(s) for s in spec["sweeps"]]
    random.Random(seed).shuffle(sweeps)
    return {"name": name, "mode": spec["mode"], "workers": spec["workers"], "sweeps": sweeps}

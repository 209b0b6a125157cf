"""Configuration-driven sigma sweeps over all configured receivers.

A sweep config (one JSON document, schema in the README) fixes the signal
set, the prior, the sigma grid, and the receiver list; `run_sweep` computes
one row of figures of merit per grid point and the writers emit CSV plus an
optional JSON mirror. Rows are deterministic given the seed.
"""

import contextlib
import csv
import ctypes
import functools
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .atomic import optimize_block
from .config import PRIORS_SUM, TAIL
from .discrimination import AscentConfig, accessible_information, binary_entropy, helstrom_bound
from .errors import ConfigError, GridMismatch, PhasecommError
from .fock import FockDim, default_cutoff, poisson_tail
from .pnr import PnrConfig, evaluate_displacement, optimize_displacement_block
from .signals import bpsk, build_ensemble, ook

__all__ = ["SweepConfig", "run_sweep", "find_crossing", "write_csv", "write_json", "csv_text"]

_SIGNALS = {"BPSK": bpsk, "OOK": ook}
_BETA_MODES = ("null-first", "optimized")
_OBJECTIVES = {"error": "min-error", "information": "max-information"}
# Largest Fock cutoff a config may set or need: within it the Poisson tail of
# the largest amplitude must fall below the tail tolerance. BPSK at 10 mean
# photons needs 39; one dense operator at this cutoff takes 2.6 MB.
MAX_FOCK_CUTOFF = 400
# grid points per chain of accinfo ascents, each started from the last one's end
CHAIN_LENGTH = 12
_REQUIRED = object()  # a key without a default, which a config must give
# Every key a sweep config accepts, with its default: the top level, the
# sigma grid and each receiver type. Any other key is a ConfigError.
_KEYS = {
    "config": {
        "signal": _REQUIRED, "mean_photons": _REQUIRED, "priors": (0.5, 0.5), "sigma_grid": _REQUIRED,
        "receivers": _REQUIRED, "fock_cutoff": None, "seed": 0, "output": None, "json_output": None,
    },
    "sigma_grid": {"start": _REQUIRED, "stop": _REQUIRED, "steps": _REQUIRED},
    "receivers": {
        "helstrom": {},
        "atomic": {"objectives": ["error", "information"]},
        # outcomes, lam_max and polish_max set ascents the projective one replaced: accepted and ignored
        "accinfo": {
            "restarts": AscentConfig.restarts, "outcomes": 4, "max_iter": AscentConfig.max_iter,
            "lam_max": 0.5, "polish_max": 5000,
        },
        "pnr": {"resolution": PnrConfig.resolution, "visibility": PnrConfig.visibility, "beta_mode": "null-first"},
    },
}


def _integer(name: str, value, least: int, most: float = math.inf) -> int:
    """`value` if it is an int (not a bool) in [least, most], else a ConfigError."""
    if type(value) is not int or not least <= value <= most:
        bounds = f">= {least}" if most == math.inf else f"in [{least}, {most}]"
        raise ConfigError(f"{name} must be an integer {bounds}, got {value!r}")
    return value


def _number(name: str, value) -> float:
    """`value` as a float if it is a finite int or float (not a bool), else a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _section(name: str, doc, keys: dict) -> dict:
    """`doc` with the defaults of `keys` filled in; an undeclared or missing key is a ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a JSON object, got {doc!r}")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ConfigError(f"{name}: unknown key {unknown[0]!r}; the keys are {', '.join(keys)}")
    missing = [k for k, default in keys.items() if default is _REQUIRED and k not in doc]
    if missing:
        raise ConfigError(f"{name}: missing key {missing[0]!r}")
    return {k: doc.get(k, default) for k, default in keys.items()}


@dataclass(frozen=True)
class SweepConfig:
    signal: str
    mean_photons: float
    priors: tuple
    sigma_start: float
    sigma_stop: float
    sigma_steps: int
    receivers: tuple
    fock_cutoff: int | None = None
    seed: int = 0
    output: str | None = None
    json_output: str | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "SweepConfig":
        try:
            d = _section("sweep config", d, _KEYS["config"])
            signal = d["signal"]
            if signal not in _SIGNALS:
                raise ConfigError(f"signal must be one of {tuple(_SIGNALS)}, got {signal!r}")
            nbar = _number("mean_photons", d["mean_photons"])
            if nbar <= 0:
                raise ConfigError(f"mean_photons must be > 0, got {nbar}")
            priors = tuple(_number("priors", p) for p in d["priors"])
            if len(priors) != 2 or abs(sum(priors) - 1.0) > PRIORS_SUM:
                raise ConfigError(f"priors {priors} are not a binary distribution")
            # a zero prior leaves one state, whose figures of merit are rounding noise
            if min(priors) <= 0:
                raise ConfigError(f"priors must both be > 0, got {priors}")
            params = _SIGNALS[signal](nbar, 0.0, priors[0])
            if poisson_tail(max(abs(params.alpha1), abs(params.alpha2)), MAX_FOCK_CUTOFF) >= TAIL:
                raise ConfigError(f"mean_photons {nbar} needs a Fock cutoff above {MAX_FOCK_CUTOFF}")
            grid = _section("sigma_grid", d["sigma_grid"], _KEYS["sigma_grid"])
            start, stop = (_number(f"sigma_grid.{key}", grid[key]) for key in ("start", "stop"))
            steps = _integer("sigma_grid.steps", grid["steps"], 1)
            if start < 0 or stop < start:
                raise ConfigError(f"bad sigma_grid {grid}")
            # one step reaches start only: a wider grid would silently shrink to it
            if steps == 1 and stop != start:
                raise ConfigError(f"sigma_grid with 1 step needs stop == start, got {grid}")
            receivers = []
            for r in d["receivers"]:
                kind = r.get("type") if isinstance(r, dict) else None
                if kind not in _KEYS["receivers"]:
                    raise ConfigError(f"unknown receiver type {kind!r}")
                name = f"{kind} receiver"
                r = _section(name, r, {"type": kind, **_KEYS["receivers"][kind]})
                if kind == "pnr":
                    _integer(f"{name}: resolution", r["resolution"], 1)
                    if r["beta_mode"] not in _BETA_MODES:
                        raise ConfigError(f"beta_mode must be one of {_BETA_MODES}")
                    # a ValueError here becomes a ConfigError below
                    PnrConfig(r["resolution"], _number(f"{name}: visibility", r["visibility"])).validate()
                if kind == "atomic" and not (r["objectives"] and set(r["objectives"]) <= {"error", "information"}):
                    raise ConfigError(f"bad atomic objectives {r['objectives']}")
                if kind == "accinfo":
                    for key, least in (("restarts", 1), ("outcomes", 2), ("max_iter", 1)):
                        _integer(f"{name}: {key}", r[key], least)
                receivers.append(r)
            if d["fock_cutoff"] is not None:
                _integer("fock_cutoff", d["fock_cutoff"], 1, MAX_FOCK_CUTOFF)
            for key in ("output", "json_output"):
                if d[key] is not None and not isinstance(d[key], str):
                    raise ConfigError(f"{key} must be a path, got {d[key]!r}")
            return cls(
                signal=signal, mean_photons=nbar, priors=priors, sigma_start=start, sigma_stop=stop,
                sigma_steps=steps, receivers=tuple(receivers), fock_cutoff=d["fock_cutoff"],
                seed=_integer("seed", d["seed"], 0), output=d["output"], json_output=d["json_output"],
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid sweep config: {exc}") from exc

    def sigma_grid(self) -> np.ndarray:
        return np.linspace(self.sigma_start, self.sigma_stop, self.sigma_steps)


def _point_params(cfg: SweepConfig, sigma: float):
    return _SIGNALS[cfg.signal](cfg.mean_photons, sigma, cfg.priors[0])


def _search_block(cfg: SweepConfig, points: list) -> list:
    """The atomic and PNR results of a block of a sweep's points (their
    `SignalParams`, which differ in sigma only), one dict per point.

    Each configured atomic objective is one `optimize_block` over the
    block, keyed 'error' or 'information'. The PNR receivers make one call
    per (visibility, beta_mode), keyed (visibility, beta_mode, m): one
    displacement search (`optimize_displacement_block`) covers every point,
    every resolution of an 'optimized' group and both objectives, and a
    'null-first' group reads every resolution of a point from one kernel
    call at beta = alpha1 (`evaluate_displacement`). A point's results do
    not depend on the block it is searched in. An error raised in a shared
    round names the sigma of its point.
    """
    found = [{} for _ in points]
    objectives = {o for rec in cfg.receivers if rec["type"] == "atomic" for o in rec["objectives"]}
    for name, objective in _OBJECTIVES.items():
        if name in objectives:
            for row, result in zip(found, optimize_block(objective, points)):
                row[name] = result
    groups: dict = {}
    for rec in cfg.receivers:
        if rec["type"] == "pnr":
            groups.setdefault((float(rec["visibility"]), rec["beta_mode"]), []).append(rec["resolution"])
    for (visibility, mode), resolutions in groups.items():
        if mode == "optimized":
            per_point = optimize_displacement_block(points, visibility, resolutions)
        else:
            per_point = [evaluate_displacement(p, visibility, resolutions, p.alpha1) for p in points]
        for row, pairs in zip(found, per_point):
            row.update(((visibility, mode, m), pair) for m, pair in zip(resolutions, pairs))
    return found


def compute_point(
    cfg: SweepConfig, sigma: float, index: int, searched: dict | None = None, chain: dict | None = None
) -> dict:
    """All configured figures of merit at one grid point.

    `searched` holds the point's atomic and PNR results from the search of
    its block (`_search_block`); without it, the point is searched as a
    block of one. `chain` maps an accinfo receiver's position to the end
    measurement its ascent starts from and is replaced by; without one the
    ascent starts cold. When two receivers share a PNR resolution, the
    later one's values fill its columns.
    """
    params = _point_params(cfg, sigma)
    chain = {} if chain is None else chain
    if searched is None:
        [searched] = _search_block(cfg, [params])
    cutoff = cfg.fock_cutoff or default_cutoff([params.alpha1, params.alpha2])
    dim = FockDim(cutoff)
    point_seed = cfg.seed * 100_003 + index
    row: dict = {"sigma": float(sigma), "cutoff": cutoff}
    ens = None

    def ensemble():
        nonlocal ens
        if ens is None:
            ens = build_ensemble(params, dim)
        return ens

    for position, rec in enumerate(cfg.receivers):
        kind = rec["type"]
        if kind == "helstrom":
            row["p_helstrom"] = helstrom_bound(ensemble())
        elif kind == "atomic":
            if "error" in rec["objectives"]:
                res = searched["error"]
                row["p_atomic"] = res.value
                row["atomic_xi"] = res.params.xi
                row["atomic_theta"] = res.params.theta
                row["atomic_phi"] = res.params.phi_pulse
            if "information" in rec["objectives"]:
                row["i_atomic"] = searched["information"].value
        elif kind == "accinfo":
            acfg = AscentConfig(restarts=rec["restarts"], max_iter=rec["max_iter"], seed=point_seed)
            rep = accessible_information(ensemble(), acfg, chain.get(position))
            chain[position] = rep.phi, rep.support
            row["i_accessible"] = rep.mutual_information
            row["accinfo_residual"] = rep.stationarity_residual
            row["accinfo_spread"] = float(max(rep.restart_values) - min(rep.restart_values))
            row["accinfo_converged"] = int(rep.converged)
        elif kind == "pnr":
            m = rec["resolution"]
            (beta_err, p_err), (beta_info, i_val) = searched[float(rec["visibility"]), rec["beta_mode"], m]
            row[f"p_pnr_m{m}"] = p_err
            row[f"i_pnr_m{m}"] = i_val
            row[f"pnr_beta_err_m{m}"] = beta_err
            row[f"pnr_beta_info_m{m}"] = beta_info
    row["violations"] = "|".join(_envelope_violations(row, params.q1))
    return row


def _envelope_violations(row: dict, q1: float) -> list:
    # every p_* at most min(q1, q2), the error of guessing the likelier
    # hypothesis, and every i_* at most h2(q1), the prior's entropy, each to
    # 1e-13. A p_* may sit below p_helstrom by 1e-9 of its size (plus 1e-13
    # where it is near 0), an i_* above i_accessible by 5e-6 bits, above the
    # 1e-6 stationarity tolerance of the ascent
    guess, entropy = min(q1, 1.0 - q1), binary_entropy(q1)
    out = []
    for key, val in row.items():
        if key.startswith("p_") and val > guess + 1e-13:
            out.append(f"{key}={val:.6g} above guessing {guess:.6g}")
        elif key.startswith("i_") and val > entropy + 1e-13:
            out.append(f"{key}={val:.6g} above prior entropy {entropy:.6g}")
    p_hel = row.get("p_helstrom")
    if p_hel is not None:
        for key, val in row.items():
            if key.startswith("p_") and key != "p_helstrom" and p_hel > val + 1e-9 * p_hel + 1e-13:
                out.append(f"{key}={val:.6g} below helstrom {p_hel:.6g}")
    i_acc = row.get("i_accessible")
    if i_acc is not None:
        for key, val in row.items():
            if key.startswith("i_") and key != "i_accessible" and val > i_acc + 5e-6:
                out.append(f"{key}={val:.6g} above accessible {i_acc:.6g}")
    return out


@functools.cache
def _openblas_controls() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS loaded in this process.

    Empty where no OpenBLAS is loaded or /proc is missing: the thread limit
    then does nothing.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            # only a mapped path can name OpenBLAS; splitting every line would
            # grow the heap that a forked pool worker inherits
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line.lower()})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # scipy-openblas wheels prefix every symbol and suffix the ILP64 build with 64_
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            set_ = getattr(lib, name.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every loaded OpenBLAS at one thread, then restore the counts.

    `run_sweep` holds it for the whole sweep. A sweep point's matrices are
    small: an extra BLAS thread gains nothing and, left spinning after an
    eigensolve, takes the core of a pool worker.
    """
    controls = _openblas_controls()
    saved = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), n in zip(controls, saved):
            set_threads(n)


def _worker_one_blas_thread():
    """Pool initializer: set every loaded OpenBLAS to one thread where it is not at one already.

    A forked worker inherits the count of 1 that `run_sweep` holds and makes
    no call: in a forked process the first call into OpenBLAS's thread API,
    even a set to 1, starts a thread that busy-waits on another worker's
    core. A spawned or forkserver worker starts at the default count and
    sets it here, once. A worker never restores its count: it exits with
    the pool.
    """
    for get, set_threads in _openblas_controls():
        if get() != 1:
            set_threads(1)


def _block_task(args):
    """The rows of one block of grid points: the block's shared searches, then
    `compute_point` once per point, looked up here at each call, along chains."""
    cfg, block = args
    searched = _search_block(cfg, [_point_params(cfg, sigma) for _, sigma in block])
    rows = []
    chain: dict = {}
    for (index, sigma), found in zip(block, searched):
        if index % CHAIN_LENGTH == 0:
            chain = {}
        try:
            rows.append(compute_point(cfg, sigma, index, found, chain))
        except PhasecommError as exc:
            raise type(exc)(f"sigma={sigma:g}: {exc}") from exc
    return rows


def run_sweep(cfg: SweepConfig, workers: int = 1) -> list:
    """One result row per grid point, emitted in sigma order.

    The grid is split into at most `workers` contiguous blocks, one per
    worker of a process pool when `workers` is above 1; a block's atomic
    and PNR searches run together (`_search_block`). With an accinfo
    receiver a block is whole chains of CHAIN_LENGTH points, in which each
    ascent after the first starts from the last one's end, so the rows do
    not depend on the worker count. The whole sweep, the pool's lifetime
    included, runs with every loaded OpenBLAS at one thread; the caller's
    counts are restored on return, also when a point raises.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    points = list(enumerate(cfg.sigma_grid()))
    unit = CHAIN_LENGTH if any(rec["type"] == "accinfo" for rec in cfg.receivers) else 1
    units = -(-len(points) // unit)
    workers = min(workers, units)
    tasks = [(cfg, points[i * units // workers * unit:(i + 1) * units // workers * unit]) for i in range(workers)]
    with _one_blas_thread():
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers, initializer=_worker_one_blas_thread) as pool:
                blocks = list(pool.map(_block_task, tasks))
        else:
            blocks = [_block_task(t) for t in tasks]
    rows = [row for block in blocks for row in block]
    rows.sort(key=lambda r: r["sigma"])
    return rows


def _columns(rows: list) -> list:
    keys = []
    for row in rows:
        for k in row:
            if k not in keys:
                keys.append(k)
    # keep sigma first and diagnostics last
    keys.remove("sigma")
    tail = [k for k in ("violations",) if k in keys]
    for k in tail:
        keys.remove(k)
    return ["sigma"] + keys + tail


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def csv_text(rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cols = _columns(rows)
    writer.writerow(cols)
    for row in rows:
        writer.writerow([_fmt(row.get(c, "")) for c in cols])
    return buf.getvalue()


def write_csv(rows: list, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text(rows))


def write_json(rows: list, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=2, sort_keys=True)
        fh.write("\n")


def find_crossing(grid, series_a, series_b):
    """Smallest sigma where a - b changes sign, linearly interpolated.

    Returns None when the curves never strictly cross.
    """
    grid = np.asarray(grid, dtype=float)
    a = np.asarray(series_a, dtype=float)
    b = np.asarray(series_b, dtype=float)
    if grid.shape != a.shape or grid.shape != b.shape:
        raise GridMismatch(
            f"grid {grid.shape}, a {a.shape}, b {b.shape} differ"
        )
    d = a - b
    s = np.sign(d)
    nonzero = np.nonzero(s)[0]
    # strict sign change between consecutive nonzero samples
    for j in range(len(nonzero) - 1):
        i0, i1 = nonzero[j], nonzero[j + 1]
        if s[i0] * s[i1] < 0:
            if i1 == i0 + 1:
                x0, x1 = grid[i0], grid[i1]
                return float(x0 + (x1 - x0) * d[i0] / (d[i0] - d[i1]))
            # exact zeros between: crossing sits at the first of them
            return float(grid[i0 + 1])
    return None

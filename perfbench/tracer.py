"""Spans and counters around the calls into phasecomm's layers.

`Tracer.instrument()` replaces public functions of the `phasecomm` modules
by wrappers, in every loaded `phasecomm` module that holds the function,
so that each call opens a span (name, start, end, parent) or bumps a
counter. The program itself is not changed. Spans are kept in memory and written out
when the pass ends.

Worker processes of a pool are forked from the traced process, so they
inherit the wrappers. A fork handler clears the inherited buffers; each
worker then writes its spans after every grid point to a file of its own,
and the parent merges the files. A worker's top-level span has as parent
the span that was open in the parent process when the pool forked it.

Times come from `time.perf_counter`, which on Linux is the system-wide
monotonic clock, so spans of different processes share one time axis.
"""

import functools
import glob
import json
import os
import statistics
import sys
import time
from array import array

import numpy as np

import phasecomm.atomic
import phasecomm.cli
import phasecomm.discrimination
import phasecomm.fock
import phasecomm.pnr
import phasecomm.signals
import phasecomm.sweep

# (span name, defining module, function)
SPANS = [
    ("fock.hermitian_eig", phasecomm.fock, "hermitian_eig"),
    ("fock.matrix_function_sqrt_inv", phasecomm.fock, "matrix_function_sqrt_inv"),
    ("signals.build_ensemble", phasecomm.signals, "build_ensemble"),
    ("discrimination.helstrom_bound", phasecomm.discrimination, "helstrom_bound"),
    ("discrimination.accessible_information", phasecomm.discrimination, "accessible_information"),
    ("atomic.optimize", phasecomm.atomic, "optimize"),
    ("pnr.optimize_displacement", phasecomm.pnr, "optimize_displacement"),
    ("pnr.outcome_distribution", phasecomm.pnr, "outcome_distribution"),
    ("sweep.compute_point", phasecomm.sweep, "compute_point"),
    ("sweep.run_sweep", phasecomm.sweep, "run_sweep"),
    ("sweep.write_csv", phasecomm.sweep, "write_csv"),
]
# (counter name, defining module, function)
COUNTERS = [
    ("discrimination.mutual_information.calls", phasecomm.discrimination, "mutual_information"),
    ("atomic.series_evals", phasecomm.atomic, "joint_probabilities_series"),
    ("pnr.map_evals", phasecomm.pnr, "map_error_probability"),
    ("pnr.map_evals", phasecomm.pnr, "map_mutual_information"),
]
POVM_VALIDATE = "discrimination.povm_validate"

# a restart or start is useful when it ends this close to the best value
ACCINFO_USEFUL = 1e-6
ATOMIC_USEFUL = 1e-9


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.names = []
        self._ids = {}
        self.is_worker = False
        self.remote_parent = -1
        self._flushes = 0
        self._clear()

    def _clear(self):
        self.name = array("i")
        self.parent = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = []
        self.counts = {}
        self.hermitian_dims = 0
        self.accinfo = []  # (converged, residual, restart values) per call
        self.atomic_starts = []  # per_start values per call

    def _after_fork(self):
        self.remote_parent = self.stack[-1] if self.stack else -1
        self.is_worker = True
        self._clear()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.t0)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.stack.append(idx)
        self.t1.append(0.0)
        self.t0.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.t1[idx] = time.perf_counter()
        self.stack.pop()

    # --- instrumentation -------------------------------------------------

    def _span(self, name, fn, post=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if post is not None:
                post(args, out)
            return out

        return wrapper

    def _counter(self, name, fn):
        self.counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _post_hermitian_eig(self, args, out):
        self.hermitian_dims += args[0].shape[0]

    def _post_accinfo(self, args, report):
        self.accinfo.append(
            (bool(report.converged), float(report.stationarity_residual),
             [float(v) for v in report.restart_values])
        )

    def _post_atomic(self, args, result):
        self.atomic_starts.append([float(v) for v, _ in result.per_start])

    def _post_compute_point(self, args, row):
        if self.is_worker:
            self._flush_worker()

    def instrument(self) -> None:
        os.register_at_fork(after_in_child=self._after_fork)
        posts = {
            "fock.hermitian_eig": self._post_hermitian_eig,
            "discrimination.accessible_information": self._post_accinfo,
            "atomic.optimize": self._post_atomic,
            "sweep.compute_point": self._post_compute_point,
        }
        for name, module, attr in SPANS:
            _patch(module, attr, self._span(name, getattr(module, attr), posts.get(name)))
        for name, module, attr in COUNTERS:
            _patch(module, attr, self._counter(name, getattr(module, attr)))
        povm = phasecomm.discrimination.Povm
        povm.validate = self._span(POVM_VALIDATE, povm.validate)

    # --- output ------------------------------------------------------------

    def _snapshot(self) -> dict:
        return {
            "remote_parent": self.remote_parent,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "t0": self.t0.tolist(),
            "t1": self.t1.tolist(),
            "counts": self.counts,
            "hermitian_dims": self.hermitian_dims,
            "accinfo": self.accinfo,
            "atomic_starts": self.atomic_starts,
        }

    def _flush_worker(self) -> None:
        path = os.path.join(self.out_dir, f"worker-{os.getpid()}-{self._flushes}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self._snapshot(), fh)
        self._flushes += 1
        self._clear()

    def finish(self, trace_path: str) -> dict:
        """Merge the worker files into this process's spans and write the trace."""
        parts = [self._snapshot()]
        for path in sorted(glob.glob(os.path.join(self.out_dir, "worker-*.json"))):
            with open(path, encoding="utf-8") as fh:
                parts.append(json.load(fh))
            os.remove(path)
        merged = _merge(parts)
        np.savez_compressed(
            trace_path,
            names=np.array(self.names),
            name=merged["name"],
            parent=merged["parent"],
            remote=merged["remote"],
            t0=merged["t0"],
            t1=merged["t1"],
        )
        merged["names"] = self.names
        return merged


def _patch(module, attr: str, wrapper) -> None:
    """Put `wrapper` in place of `module.attr` in every phasecomm module that holds it."""
    original = getattr(module, attr)
    if getattr(original, "__module__", None) != module.__name__:
        raise RuntimeError(f"{module.__name__}.{attr} is not defined in {module.__name__}")
    for name, mod in list(sys.modules.items()):
        if (name == "phasecomm" or name.startswith("phasecomm.")) and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)


def _merge(parts: list) -> dict:
    name, parent, remote, t0, t1 = [], [], [], [], []
    counts, accinfo, atomic_starts = {}, [], []
    hermitian_dims = offset = 0
    for part in parts:
        p = np.asarray(part["parent"], dtype=np.int64)
        is_root = p < 0
        name.append(np.asarray(part["name"], dtype=np.int64))
        # a worker's top-level spans belong to the span open at fork time
        parent.append(np.where(is_root, part["remote_parent"], p + offset))
        remote.append(is_root & (part["remote_parent"] >= 0))
        t0.append(np.asarray(part["t0"]))
        t1.append(np.asarray(part["t1"]))
        offset += len(part["t0"])
        for k, v in part["counts"].items():
            counts[k] = counts.get(k, 0) + v
        hermitian_dims += part["hermitian_dims"]
        accinfo.extend(part["accinfo"])
        atomic_starts.extend(part["atomic_starts"])
    return {
        "name": np.concatenate(name),
        "parent": np.concatenate(parent),
        "remote": np.concatenate(remote),
        "t0": np.concatenate(t0),
        "t1": np.concatenate(t1),
        "counts": counts,
        "hermitian_dims": hermitian_dims,
        "accinfo": accinfo,
        "atomic_starts": atomic_starts,
    }


def _union_length(intervals) -> float:
    total, end = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def self_times(merged: dict) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Children in the parent's own process run one after another, so their
    durations add up; children in pool workers may overlap, so their union
    is taken.
    """
    dur = merged["t1"] - merged["t0"]
    parent, remote = merged["parent"], merged["remote"]
    cover = np.zeros(len(dur))
    local = (parent >= 0) & ~remote
    np.add.at(cover, parent[local], dur[local])
    for p in np.unique(parent[remote]):
        kids = np.nonzero(remote & (parent == p))[0]
        cover[p] += _union_length(zip(merged["t0"][kids], merged["t1"][kids]))
    return dur - cover


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> tuple:
    """Seconds a span wrapper and a counter wrapper add to one call.

    Measured in the calling process on a function that does nothing, with a
    tracer of its own, as the median over `repeats` batches of `calls`.
    """
    probe = Tracer(out_dir="")

    def noop():
        return None

    def per_call(fn) -> float:
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            samples.append((time.perf_counter() - t0) / calls)
        return statistics.median(samples)

    bare = per_call(noop)
    return per_call(probe._span("probe", noop)) - bare, per_call(probe._counter("probe", noop)) - bare


def layer_metrics(merged: dict, workers: int, sweep_s: float) -> dict:
    """Per-layer metrics of one traced pass, keyed by metric name.

    `trace.overhead_s` is the time the wrappers add, summed over the
    processes: the span count times the cost of one span wrapper plus the
    counted calls times the cost of one counter wrapper. Both costs are
    measured here (`wrapper_cost`). `trace.overhead_ratio` puts it over the
    process time of the pass, `workers` times `sweep_s`.
    """
    ids = {n: i for i, n in enumerate(merged["names"])}
    dur = merged["t1"] - merged["t0"]
    own = self_times(merged)
    out = {}

    def of(name):
        return merged["name"] == ids[name]

    for name in ids:
        mask = of(name)
        out[f"{name}.calls"] = int(mask.sum())
        out[f"{name}.self_s"] = float(own[mask].sum())
    out.update(merged["counts"])

    calls = out["fock.hermitian_eig.calls"]
    out["fock.hermitian_eig.dim_mean"] = merged["hermitian_dims"] / calls if calls else 0.0

    acc = merged["accinfo"]
    out["discrimination.accinfo.converged_points"] = sum(1 for c, _, _ in acc if c)
    out["discrimination.accinfo.residual_max"] = max((r for _, r, _ in acc), default=0.0)
    out["discrimination.accinfo.useful_start_ratio"] = _useful_ratio(
        [v for _, _, v in acc], ACCINFO_USEFUL, best=max
    )
    out["atomic.useful_start_ratio"] = _useful_ratio(merged["atomic_starts"], ATOMIC_USEFUL, best=None)

    points = dur[of("sweep.compute_point")]
    out["sweep.compute_point.p50_s"] = float(np.median(points)) if len(points) else 0.0
    out["sweep.compute_point.max_s"] = float(points.max()) if len(points) else 0.0
    sweep_wall = float(dur[of("sweep.run_sweep")].sum())
    out["sweep.parallel_efficiency"] = float(points.sum()) / (workers * sweep_wall) if sweep_wall else 0.0

    span_s, counter_s = wrapper_cost()
    out["trace.overhead_s"] = span_s * len(dur) + counter_s * sum(merged["counts"].values())
    out["trace.overhead_ratio"] = out["trace.overhead_s"] / (workers * sweep_s)
    return out


def _useful_ratio(groups: list, tol: float, best) -> float:
    """Share of starts ending within tol of their call's best value.

    `atomic.optimize` reports per-start values already in the objective's
    own sense (smaller error, larger information), sorted best first.
    """
    useful = total = 0
    for values in groups:
        if not values:
            continue
        top = best(values) if best else values[0]
        useful += sum(1 for v in values if abs(v - top) <= tol)
        total += len(values)
    return useful / total if total else 0.0

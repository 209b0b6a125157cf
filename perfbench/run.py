"""Run one benchmark workload of phasecomm, check its outputs, print metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

With `--trace 0` the workload runs in fresh interpreters, one whole pass
each, until `--seconds` have gone by (at least one pass). Set-up is
measured in every pass and in extra set-up-only interpreters, so that
there are SETUPS samples. The end-to-end metrics are medians over the
run. With `--trace 1` one traced pass runs and gives the per-layer
metrics, with the tracing overhead estimated inside it.

Every figure of merit of every pass is checked against an independent
computation (`checks.py`). The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`. `correct` is false
when an operation fails in a way no known fault of the program accounts
for, by the kind and size of its misses (`workloads.EXPECTED_FAILURES`).
Raw results go to `perfbench/out/`.
"""

import argparse
import csv
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
SETUPS = 3
CHILD_TIMEOUT_S = 170
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def spawn(spec_path: str, result_path: str, mode: str) -> dict:
    """Run child.py in a fresh interpreter and return its result."""
    t_spawn = time.perf_counter()
    # stdout of the program goes to our stderr: our stdout ends in the result
    proc = subprocess.Popen(
        [sys.executable, CHILD, spec_path, result_path, mode],
        cwd=ROOT, stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        # take down the child's pool workers too, if any outlived it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0:
        raise BenchError(f"{mode} process exited with code {code}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - t_spawn
    return result


def _read_csv(path: str) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key, value in row.items():
            if key != "violations" and value != "":
                row[key] = float(value)
    return rows


def prepare(spec: dict, out_dir: str) -> str:
    """Write the spec (and, for the CLI, its config file); return the spec path."""
    if spec["mode"] == "cli":
        (sweep,) = spec["sweeps"]
        config_path = os.path.join(out_dir, "sweep.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(sweep, fh, indent=2)
        spec["csv"] = os.path.join(out_dir, "sweep.csv")
        spec["argv"] = ["sweep", "--config", config_path, "--out", spec["csv"],
                        "--workers", str(spec["workers"])]
    spec_path = os.path.join(out_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2)
    return spec_path


def run_pass(spec: dict, spec_path: str, out_dir: str, index: int, mode: str) -> dict:
    result = spawn(spec_path, os.path.join(out_dir, f"pass-{index}.json"), mode)
    if spec["mode"] == "cli":
        # the CSV is the CLI's output; read it before the next pass rewrites it
        if result["exit_code"] == 0 and os.path.exists(spec["csv"]):
            result["sweeps"] = [{"rows": _read_csv(spec["csv"])}]
            result["csv_bytes"] = os.path.getsize(spec["csv"])
            os.remove(spec["csv"])
        else:
            result["sweeps"] = [{"error": f"phasecomm sweep exited with code {result['exit_code']}"}]
            result["csv_bytes"] = 0
    return result


def verify(spec: dict, passes: list) -> tuple:
    """(attempted, failed, unexpected failures) over all passes."""
    import checks

    verdict_cache = {}
    attempted = failed = 0
    unexpected, reported = [], set()
    for result in passes:
        for sweep, outcome in zip(spec["sweeps"], result["sweeps"]):
            ops = workloads.operations(sweep["receivers"])
            grid = workloads.sigma_grid(sweep)
            rows = outcome.get("rows", [])
            attempted += len(ops) * len(grid)
            if "error" in outcome or [round(r["sigma"], 9) for r in rows] != [round(s, 9) for s in grid]:
                why = outcome.get("error") or f"rows at sigma {[r['sigma'] for r in rows]}, grid {grid}"
                verdicts = [(s, {op: [checks.Miss("sweep", float("inf"), why)] for op in ops}) for s in grid]
            else:
                verdicts = []
                for sigma, row in zip(grid, rows):
                    key = json.dumps([sweep, row], sort_keys=True)
                    if key not in verdict_cache:
                        verdict_cache[key] = checks.check_row(sweep, row, ops)
                    verdicts.append((sigma, verdict_cache[key]))
            for sigma, by_op in verdicts:
                for op, misses in by_op.items():
                    if not misses:
                        continue
                    failed += 1
                    key = workloads.op_key(sweep, sigma, op)
                    fault = workloads.known_fault(key, misses)
                    if fault is None:
                        unexpected.append(key)
                    if key not in reported:
                        reported.add(key)
                        label = f"known fault: {fault}" if fault else "UNEXPECTED"
                        for miss in misses:
                            print(f"failed {key} ({label}): {miss.text}", file=sys.stderr)
    return attempted, failed, unexpected


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARIABLES},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
    }


def end_to_end(passes: list, setups: list) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "sweep_s": statistics.median(p["sweep_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(traced: dict) -> dict:
    out = dict(traced["layers"])
    out["sweep.csv_bytes"] = traced.get("csv_bytes", 0)
    out["cli.import_s"] = traced["import_s"]
    out["sweep.config_parse_s"] = traced["config_parse_s"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="orders the workload's sweeps")
    parser.add_argument("--seconds", type=float, required=True, help="measure at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    out_dir = os.path.join(BENCH, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    spec = workloads.build(args.workload, args.seed)
    spec_path = prepare(spec, out_dir)

    if args.trace:
        passes = [run_pass(spec, spec_path, out_dir, 0, "trace")]
        values = per_layer(passes[0])
    else:
        passes, start = [], time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(spec, spec_path, out_dir, len(passes), "pass"))
        setups = [p["setup_s"] for p in passes]
        for i in range(SETUPS - len(setups)):
            setups.append(spawn(spec_path, os.path.join(out_dir, f"setup-{i}.json"), "setup")["setup_s"])
        values = end_to_end(passes, setups)

    attempted, failed, unexpected = verify(spec, passes)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    summary = {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(summary, environment=environment(), passes=passes, all_values=values), fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)

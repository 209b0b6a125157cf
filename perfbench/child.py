"""One measured pass of a workload, in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json RESULT.json {setup,pass,trace}

`setup` stops when the program is ready for the first point: `phasecomm`
and its CLI are imported and the workload's configs are parsed and
validated. `pass` then runs the workload once and records wall time, CPU
time and peak memory; `trace` does the same with spans around the calls
into each layer. The result goes to RESULT.json; `ready` is a
`time.perf_counter` reading, which the parent compares with its own
reading taken before it started this process (both read the system-wide
monotonic clock).
"""

import json
import os
import resource
import sys
import time
import traceback


def _usage() -> tuple:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    # ru_maxrss is in KiB on Linux; for children it is the largest one
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def main() -> int:
    t_start = time.perf_counter()
    spec_path, result_path, mode = sys.argv[1:4]
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    sys.path.insert(0, src)

    import phasecomm
    import phasecomm.cli
    import phasecomm.sweep
    from phasecomm.sweep import SweepConfig

    if not os.path.abspath(phasecomm.__file__).startswith(src + os.sep):
        raise SystemExit(f"phasecomm was imported from {phasecomm.__file__}, not from {src}")
    t_import = time.perf_counter()

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if spec["mode"] == "cli":
        args = phasecomm.cli.build_parser().parse_args(spec["argv"])
        with open(args.config, encoding="utf-8") as fh:
            SweepConfig.from_dict(json.load(fh))
    else:
        configs = [SweepConfig.from_dict(s) for s in spec["sweeps"]]
    ready = time.perf_counter()
    result = {"ready": ready, "import_s": t_import - t_start, "config_parse_s": ready - t_import}

    if mode != "setup":
        tracer = None
        if mode == "trace":
            sys.path.insert(0, here)
            from tracer import Tracer

            tracer = Tracer(os.path.dirname(result_path))
            tracer.instrument()
        cpu0, _ = _usage()
        t0 = time.perf_counter()
        if spec["mode"] == "cli":
            result["exit_code"] = phasecomm.cli.main(spec["argv"])
        else:
            result["sweeps"] = []
            for cfg in configs:
                # a failing sweep fails its own operations and no others
                try:
                    rows = phasecomm.sweep.run_sweep(cfg, workers=spec["workers"])
                    result["sweeps"].append({"rows": rows})
                except Exception:  # noqa: BLE001 - recorded and reported per operation
                    result["sweeps"].append({"error": traceback.format_exc()})
        t1 = time.perf_counter()
        cpu1, peak_mb = _usage()
        result.update(sweep_s=t1 - t0, cpu_s=cpu1 - cpu0, peak_rss_mb=peak_mb)
        if tracer is not None:
            from tracer import layer_metrics

            merged = tracer.finish(result_path.replace(".json", "-trace.npz"))
            result["layers"] = layer_metrics(merged, spec["workers"], result["sweep_s"])

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

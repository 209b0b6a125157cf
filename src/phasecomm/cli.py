"""Command-line entry point.

Subcommands:
  sweep      full sigma sweep from a JSON config, CSV (and JSON) output
  point      single sigma with verbose diagnostics on stdout
  crossings  sign-change location of two columns of an existing sweep CSV
"""

import argparse
import csv
import dataclasses
import json
import math
import sys

from .errors import ConfigError, PhasecommError
from .sweep import SweepConfig, find_crossing, run_sweep, write_csv, write_json


def _load_config(args) -> SweepConfig:
    with open(args.config, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError as exc:
            # nesting deeper than the interpreter's recursion limit
            raise ConfigError(f"{args.config}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("a sweep config is a JSON object")
    # overrides pass the same checks as the config's own keys
    for key, arg in (("seed", "seed"), ("fock_cutoff", "cutoff"), ("output", "out")):
        if getattr(args, arg, None) is not None:
            doc[key] = getattr(args, arg)
    return SweepConfig.from_dict(doc)


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    rows = run_sweep(cfg, workers=args.workers)
    if cfg.output:
        write_csv(rows, cfg.output)
        print(f"wrote {len(rows)} rows to {cfg.output}")
    else:
        sys.stdout.write(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    if cfg.json_output:
        write_json(rows, cfg.json_output)
        print(f"wrote JSON mirror to {cfg.json_output}")
    _warn(rows)
    return 0


def _warn(rows: list) -> None:
    """Flag rows whose values break an envelope or did not converge."""
    bad = [r for r in rows if r.get("violations")]
    if bad:
        print(f"warning: {len(bad)} rows carry envelope violations", file=sys.stderr)
    unconverged = [r for r in rows if r.get("accinfo_converged") == 0]
    if unconverged:
        print(f"warning: {len(unconverged)} rows have accinfo_converged = 0", file=sys.stderr)


def _cmd_point(args) -> int:
    if not (math.isfinite(args.sigma) and args.sigma >= 0):
        raise ConfigError(f"--sigma must be finite and >= 0, got {args.sigma}")
    cfg = _load_config(args)
    cfg = dataclasses.replace(
        cfg, sigma_start=args.sigma, sigma_stop=args.sigma, sigma_steps=1
    )
    (row,) = run_sweep(cfg)
    sys.stdout.write(json.dumps(row, indent=2, sort_keys=True) + "\n")
    _warn([row])
    return 0


def _cmd_crossings(args) -> int:
    columns = ("sigma", args.col_a, args.col_b)
    with open(args.csv, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for col in columns:
            if col not in (reader.fieldnames or ()):
                raise PhasecommError(f"column {col!r} not in {args.csv}")
        rows = list(reader)

    def number(i, row, col):
        try:
            return float(row[col])
        except (TypeError, ValueError):
            raise PhasecommError(f"{args.csv}: row {i}, column {col!r}: {row[col]!r} is not a number") from None

    grid, a, b = ([number(i, row, col) for i, row in enumerate(rows, 1)] for col in columns)
    sigma = find_crossing(grid, a, b)
    if sigma is None:
        print("no crossing")
    else:
        print(f"{sigma:.12g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasecomm",
        description="Binary coherent-state communication under phase diffusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a full sigma sweep")
    p_sweep.add_argument("--config", required=True, help="JSON sweep config")
    p_sweep.add_argument("--out", help="CSV output path (overrides config)")
    p_sweep.add_argument("--seed", type=int, help="seed override")
    p_sweep.add_argument("--cutoff", type=int, help="Fock cutoff override")
    p_sweep.add_argument("--workers", type=int, default=1, help="parallel grid workers")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_point = sub.add_parser("point", help="single sigma with diagnostics")
    p_point.add_argument("--config", required=True)
    p_point.add_argument("--sigma", type=float, required=True)
    p_point.add_argument("--seed", type=int)
    p_point.add_argument("--cutoff", type=int)
    p_point.set_defaults(func=_cmd_point)

    p_cross = sub.add_parser("crossings", help="crossing of two CSV columns")
    p_cross.add_argument("--csv", required=True, help="existing sweep CSV")
    p_cross.add_argument("--col-a", required=True)
    p_cross.add_argument("--col-b", required=True)
    p_cross.set_defaults(func=_cmd_crossings)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PhasecommError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except (UnicodeDecodeError, json.JSONDecodeError, csv.Error) as exc:
        # only the input file is decoded and parsed: name it
        print(f"error: {args.csv if args.command == 'crossings' else args.config}: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())

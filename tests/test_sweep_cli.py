import json
import multiprocessing
import os
import pathlib
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import phasecomm
from phasecomm import ConfigError, FockDim, GridMismatch, PhasecommError, helstrom_bound
from phasecomm import sweep
from phasecomm.cli import main
from phasecomm.fock import default_cutoff
from phasecomm.signals import bpsk, build_ensemble
from phasecomm.sweep import (
    MAX_FOCK_CUTOFF,
    SweepConfig,
    compute_point,
    csv_text,
    find_crossing,
    run_sweep,
)


def base_config(**overrides) -> dict:
    doc = {
        "signal": "BPSK",
        "mean_photons": 0.5,
        "priors": [0.5, 0.5],
        "sigma_grid": {"start": 0.0, "stop": 1.2, "steps": 3},
        "receivers": [{"type": "helstrom"}],
        "seed": 0,
    }
    doc.update(overrides)
    return doc


class TestSweepConfig:
    def test_round_trip(self):
        cfg = SweepConfig.from_dict(base_config())
        assert cfg.signal == "BPSK"
        assert cfg.priors == (0.5, 0.5)
        np.testing.assert_allclose(cfg.sigma_grid(), [0.0, 0.6, 1.2])

    def test_receiver_defaults(self):
        cfg = SweepConfig.from_dict(
            base_config(
                receivers=[{"type": "pnr"}, {"type": "atomic"}, {"type": "accinfo"}]
            )
        )
        pnr, atomic, accinfo = cfg.receivers
        assert pnr["resolution"] == 1
        assert pnr["visibility"] == 0.998
        assert pnr["beta_mode"] == "null-first"
        assert atomic["objectives"] == ["error", "information"]
        assert accinfo["restarts"] == 5
        assert accinfo["outcomes"] == 4
        assert accinfo["max_iter"] == 50_000

    @pytest.mark.parametrize(
        "bad",
        [
            {"signal": "QPSK"},
            {"mean_photons": 0.0},
            {"priors": [0.7, 0.7]},
            {"sigma_grid": {"start": -0.1, "stop": 1.0, "steps": 5}},
            {"sigma_grid": {"start": 0.5, "stop": 0.1, "steps": 5}},
            {"receivers": [{"type": "homodyne"}]},
            {"receivers": [{"type": "pnr", "beta_mode": "magic"}]},
            {"receivers": [{"type": "atomic", "objectives": ["error", "speed"]}]},
            {"receivers": [{"type": "atomic", "n_starts": 16}]},
            {"mean_photons": float("inf")},
            {"mean_photons": float("nan")},
            {"sigma_grid": {"start": float("nan"), "stop": 1.0, "steps": 5}},
            {"sigma_grid": {"start": 0.0, "stop": float("nan"), "steps": 5}},
            {"sigma_grid": {"start": 0.0, "stop": float("inf"), "steps": 5}},
            {"sigma_grid": {"start": float("inf"), "stop": float("inf"), "steps": 5}},
            {"receivers": [{"type": "pnr", "displacement": float("nan")}]},
            {"receivers": [{"type": "pnr", "visibility": 1.5}]},
            {"mean_photons": 1e4},
            {"signal": "OOK", "mean_photons": 10.0, "priors": [0.99, 0.01]},
            {"fock_cutoff": MAX_FOCK_CUTOFF + 1},
            {"fock_cutoff": 0},
            {"receivers": [{"type": "pnr", "quadrature_points": 64}]},
            # integer keys take integers only, never truncated
            {"receivers": [{"type": "pnr", "resolution": 2.5}]},
            {"receivers": [{"type": "pnr", "resolution": 0}]},
            {"sigma_grid": {"start": 0.0, "stop": 1.0, "steps": 2.9}},
            {"sigma_grid": {"start": 0.0, "stop": 1.0, "steps": True}},
            {"sigma_grid": {"start": 0.0, "stop": 1.0, "steps": 0}},
            {"seed": 1.7},
            {"seed": -1},
            {"fock_cutoff": 30.7},
            # real-valued keys take finite ints or floats only
            {"priors": [float("nan"), 0.5]},
            {"priors": [0.5, float("nan")]},
            {"priors": ["0.5", "0.5"]},
            {"mean_photons": True},
            {"mean_photons": "0.5"},
            {"sigma_grid": {"start": "0", "stop": 1.0, "steps": 5}},
            {"sigma_grid": {"start": 0.0, "stop": False, "steps": 5}},
            {"receivers": [{"type": "pnr", "visibility": "0.5"}]},
            {"receivers": [{"type": "atomic", "objectives": []}]},
            # an integer path would be opened as a file descriptor
            {"output": 1},
            {"json_output": True},
            # every key outside the declared table is an error, misspellings included
            {"resolutoin": 3},
            {"fock_cuttoff": 40},
            {"sigma_grid": {"start": 0.0, "stop": 1.0, "steps": 5, "stpes": 5}},
            {"receivers": [{"type": "helstrom", "cutoff": 30}]},
            {"receivers": [{"type": "atomic", "objective": ["error"]}]},
            {"receivers": [{"type": "accinfo", "restart": 4}]},
            {"receivers": [{"type": "pnr", "resolutoin": 3}]},
            {"receivers": [{"type": "pnr", "displacement": 0.5}]},
            {"receivers": ["pnr"]},
        ],
    )
    def test_rejects_bad_config(self, bad):
        with pytest.raises(ConfigError):
            SweepConfig.from_dict(base_config(**bad))

    @pytest.mark.parametrize(
        "signal, mean_photons, q1, cutoff",
        [("BPSK", 10.0, 0.5, 39), ("OOK", 10.0, 0.5, 59), ("OOK", 10.0, 0.95, 307)],
    )
    def test_accepts_amplitudes_within_the_cutoff_limit(self, signal, mean_photons, q1, cutoff):
        cfg = SweepConfig.from_dict(base_config(signal=signal, mean_photons=mean_photons, priors=[q1, 1 - q1]))
        assert compute_point(cfg, 0.0, 0)["cutoff"] == cutoff <= MAX_FOCK_CUTOFF

    @pytest.mark.parametrize("amplitude", [float("inf"), -float("inf"), float("nan")])
    def test_default_cutoff_rejects_non_finite_amplitude(self, amplitude):
        with pytest.raises(ValueError):
            default_cutoff([0.5, amplitude])

    def test_missing_key(self):
        doc = base_config()
        del doc["signal"]
        with pytest.raises(ConfigError):
            SweepConfig.from_dict(doc)


class TestComputePoint:
    def test_helstrom_matches_direct_call(self):
        cfg = SweepConfig.from_dict(base_config())
        row = compute_point(cfg, 0.4, 0)
        direct = helstrom_bound(build_ensemble(bpsk(0.5, 0.4), FockDim(row["cutoff"])))
        assert row["p_helstrom"] == pytest.approx(direct, abs=1e-15)
        assert row["violations"] == ""

    def test_single_point_grid_is_noiseless_case(self):
        cfg = SweepConfig.from_dict(
            base_config(sigma_grid={"start": 0.0, "stop": 0.0, "steps": 1})
        )
        rows = run_sweep(cfg)
        assert len(rows) == 1
        analytic = 0.5 * (1.0 - np.sqrt(1.0 - np.exp(-4.0 * 0.5)))
        assert rows[0]["p_helstrom"] == pytest.approx(analytic, abs=1e-6)

    def test_cutoff_doubling_converged(self):
        doc = base_config(
            receivers=[
                {"type": "helstrom"},
                {"type": "pnr", "resolution": 2, "beta_mode": "optimized"},
            ]
        )
        lo = compute_point(
            SweepConfig.from_dict(dict(doc, fock_cutoff=30)), 0.6, 0
        )
        hi = compute_point(
            SweepConfig.from_dict(dict(doc, fock_cutoff=60)), 0.6, 0
        )
        for key in ("p_helstrom", "p_pnr_m2", "i_pnr_m2"):
            assert abs(lo[key] - hi[key]) < 1e-6

    def test_envelope_margins(self):
        # 1e-9 of p_helstrom (plus 1e-13) below it, 5e-6 bits above i_accessible
        row = {"p_helstrom": 0.1, "p_in": 0.1 - 0.9e-10, "i_accessible": 0.5, "i_in": 0.5 + 4e-6}
        assert sweep._envelope_violations(row, 0.5) == []
        row.update(p_out=0.1 - 1.1e-10, i_out=0.5 + 6e-6)
        assert [v.split("=")[0] for v in sweep._envelope_violations(row, 0.5)] == ["p_out", "i_out"]
        assert sweep._envelope_violations({"p_helstrom": 0.0, "p_x": -0.9e-13, "p_y": -1.1e-13}, 0.5) == [
            "p_y=-1.1e-13 below helstrom 0"
        ]

    @pytest.mark.parametrize("q1", [0.5, 0.3, 0.9])
    def test_upper_envelope_margins(self, q1):
        # every p_* at most min(q1, q2) and every i_* at most h2(q1), each to 1e-13
        guess, entropy = min(q1, 1 - q1), phasecomm.binary_entropy(q1)
        row = {"p_helstrom": guess, "p_in": guess + 0.9e-13, "i_accessible": entropy, "i_in": entropy + 0.9e-13}
        assert sweep._envelope_violations(row, q1) == []
        row.update(p_out=guess + 1.1e-13, i_out=entropy + 1.1e-13)
        assert [v.split("=")[0] for v in sweep._envelope_violations(row, q1)] == ["p_out", "i_out"]
        assert sweep._envelope_violations({"p_helstrom": 0.6, "i_accessible": 1.5}, q1) == [
            f"p_helstrom=0.6 above guessing {guess:.6g}",
            f"i_accessible=1.5 above prior entropy {entropy:.6g}",
        ]


class TestRunSweep:
    def test_pool_rows_equal_serial_rows(self):
        doc = base_config(
            receivers=[
                {"type": "helstrom"},
                {"type": "atomic"},
                {"type": "pnr", "resolution": 2},
            ]
        )
        cfg = SweepConfig.from_dict(doc)
        assert csv_text(run_sweep(cfg, workers=2)) == csv_text(run_sweep(cfg, workers=1))

    @pytest.mark.parametrize("steps, workers, pool_size", [(1, 4, None), (2, 4, 2), (3, 2, 2), (3, 1, None)])
    def test_at_most_one_worker_per_point(self, monkeypatch, steps, workers, pool_size):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers, initializer=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", SerialPool)
        cfg = SweepConfig.from_dict(base_config(sigma_grid={"start": 0.0, "stop": 1.2, "steps": steps}))
        assert len(run_sweep(cfg, workers=workers)) == steps
        assert sizes == ([] if pool_size is None else [pool_size])

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_fewer_than_one_worker(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            run_sweep(SweepConfig.from_dict(base_config()), workers=workers)


def _blas_counts() -> list:
    return [get() for get, _ in sweep._openblas_controls()]


def _pool(method: str, probe=None):
    """A ProcessPoolExecutor with the start method `method`, built from the
    arguments `run_sweep` passes; `probe` runs once per worker slot before
    the pool's map and its results go to `Pool.probed`."""

    class Pool(ProcessPoolExecutor):
        probed = []

        def __init__(self, max_workers, initializer=None):
            super().__init__(max_workers, multiprocessing.get_context(method), initializer)
            self.size = max_workers

        def map(self, fn, tasks):
            if probe is not None:
                Pool.probed.extend(f.result() for f in [self.submit(probe) for _ in range(self.size)])
            return super().map(fn, tasks)

    return Pool


class TestBlasThreads:
    def test_sweep_holds_one_thread_and_restores_the_counts(self, monkeypatch):
        controls = sweep._openblas_controls()
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if "openblas" in blas.get("name", "").lower():
            assert controls
        tasks = pathlib.Path("/proc/self/task")
        original = _blas_counts()
        one = [1] * len(controls)

        def record(cfg, sigma, index):
            threads = len(list(tasks.iterdir())) if tasks.is_dir() else None
            return {"sigma": sigma, "pid": os.getpid(), "counts": _blas_counts(), "threads": threads}

        def fail(cfg, sigma, index):
            raise PhasecommError(f"counts {_blas_counts()}")

        cfg = SweepConfig.from_dict(base_config(sigma_grid={"start": 0.0, "stop": 1.2, "steps": 4}))
        try:
            # two threads before the call, so that a restore differs from the limit
            for _, set_threads in controls:
                set_threads(2)
            monkeypatch.setattr(sweep, "compute_point", record)
            # forked workers see the patched compute_point
            monkeypatch.setattr(sweep, "ProcessPoolExecutor", _pool("fork"))
            serial = run_sweep(cfg)
            assert _blas_counts() == [2] * len(controls)
            pooled = run_sweep(cfg, workers=2)
            assert _blas_counts() == [2] * len(controls)
            monkeypatch.setattr(sweep, "compute_point", fail)
            for workers in (1, 2):
                with pytest.raises(PhasecommError, match=re.escape(f"sigma=0: counts {one}")):
                    run_sweep(cfg, workers=workers)
                assert _blas_counts() == [2] * len(controls)
        finally:
            for (_, set_threads), n in zip(controls, original):
                set_threads(n)
        assert [row["counts"] for row in serial + pooled] == [one] * 8
        assert {row["pid"] for row in serial} == {os.getpid()}
        assert os.getpid() not in {row["pid"] for row in pooled}
        if not controls or not tasks.is_dir():
            pytest.skip("no OpenBLAS or no /proc: the worker thread count is not checked")
        # a forked worker inherits the count of 1 and never calls OpenBLAS's
        # thread API, whose first call would start a second, spinning thread
        assert [row["threads"] for row in pooled] == [1] * 4

    def test_spawned_workers_set_one_thread(self, monkeypatch):
        pool = _pool("spawn", probe=_blas_counts)
        cfg = SweepConfig.from_dict(base_config(receivers=[{"type": "helstrom"}, {"type": "pnr", "resolution": 2}]))
        serial = csv_text(run_sweep(cfg))
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", pool)
        assert csv_text(run_sweep(cfg, workers=2)) == serial
        # a spawned worker loads numpy's OpenBLAS only, where this process may
        # hold more (scipy's, once a test has imported it)
        one = {1} if sweep._openblas_controls() else set()
        assert [set(counts) for counts in pool.probed] == [one] * 2


class TestCsvFormat:
    def test_header_and_precision(self):
        rows = [{"sigma": 0.0, "cutoff": 30, "p_helstrom": 1 / 3, "violations": ""}]
        text = csv_text(rows)
        lines = text.splitlines()
        assert lines[0] == "sigma,cutoff,p_helstrom,violations"
        assert "0.333333333333" in lines[1]
        assert text.endswith("\n")

    def test_sigma_first_violations_last(self):
        rows = [
            {"sigma": 0.1, "a": 1.0, "violations": ""},
            {"sigma": 0.2, "a": 1.0, "b": 2.0, "violations": ""},
        ]
        header = csv_text(rows).splitlines()[0].split(",")
        assert header[0] == "sigma"
        assert header[-1] == "violations"
        assert "b" in header


class TestFindCrossing:
    def test_identical_series(self):
        grid = np.linspace(0, 1, 11)
        assert find_crossing(grid, grid * 0, grid * 0) is None

    def test_linear_crossing(self):
        grid = np.arange(0.0, 1.05, 0.1)
        a = grid - 0.5
        b = np.zeros_like(grid)
        assert find_crossing(grid, a, b) == pytest.approx(0.5, abs=1e-12)

    def test_interpolated_crossing(self):
        grid = np.array([0.0, 1.0])
        assert find_crossing(grid, [-1.0, 3.0], [0.0, 0.0]) == pytest.approx(0.25)

    def test_returns_smallest(self):
        grid = np.array([0.0, 1.0, 2.0, 3.0])
        a = np.array([-1.0, 1.0, -1.0, 1.0])
        b = np.zeros(4)
        assert find_crossing(grid, a, b) == pytest.approx(0.5)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            find_crossing([0.0, 1.0], [0.0], [0.0, 1.0])


class TestCli:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_sweep_writes_csv(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, base_config())
        out = str(tmp_path / "rows.csv")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        lines = open(out, encoding="utf-8").read().splitlines()
        assert lines[0].startswith("sigma,")
        assert len(lines) == 4

    def test_point_prints_json(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, base_config())
        assert main(["point", "--config", cfg, "--sigma", "0.3"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["sigma"] == 0.3
        assert "p_helstrom" in row

    def test_crossings_subcommand(self, tmp_path, capsys):
        csv_path = tmp_path / "curves.csv"
        csv_path.write_text(
            "sigma,a,b\n0,-1,0\n1,1,0\n", encoding="utf-8"
        )
        assert main(
            ["crossings", "--csv", str(csv_path), "--col-a", "a", "--col-b", "b"]
        ) == 0
        assert capsys.readouterr().out.strip() == "0.5"

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, base_config(signal="QPSK"))
        assert main(["sweep", "--config", cfg]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, base_config(receivers=[{"type": "pnr", "resolutoin": 3}]))
        assert main(["sweep", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'resolutoin'" in err

    def test_infinite_mean_photons_exit_code(self, tmp_path, capsys):
        # json writes and reads the non-standard Infinity literal
        cfg = self.write_config(tmp_path, base_config(mean_photons=float("inf")))
        assert '"mean_photons": Infinity' in open(cfg, encoding="utf-8").read()
        assert main(["sweep", "--config", cfg]) == 2
        assert "mean_photons" in capsys.readouterr().err

    def test_huge_mean_photons_exit_code(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, base_config(mean_photons=1e4))
        assert main(["point", "--config", cfg, "--sigma", "0.6"]) == 2
        assert "mean_photons" in capsys.readouterr().err

    def test_cutoff_override_is_checked(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, base_config())
        assert main(["point", "--config", cfg, "--sigma", "0.6", "--cutoff", str(MAX_FOCK_CUTOFF + 1)]) == 2
        assert "fock_cutoff" in capsys.readouterr().err

    def test_point_names_the_failing_sigma(self, tmp_path, capsys):
        # `point` runs its one-step sweep through `run_sweep`, which prefixes errors
        cfg = self.write_config(tmp_path, base_config())
        assert main(["point", "--config", cfg, "--sigma", "0.6", "--cutoff", "2"]) == 2
        assert "sigma=0.6:" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-0.5"])
    def test_point_rejects_bad_sigma(self, tmp_path, capsys, sigma):
        cfg = self.write_config(tmp_path, base_config())
        assert main(["point", "--config", cfg, "--sigma", sigma]) == 2
        assert "--sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_code(self, tmp_path, capsys, workers):
        cfg = self.write_config(tmp_path, base_config())
        assert main(["sweep", "--config", cfg, "--workers", workers]) == 2
        assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        # the ascent would hand the seed to numpy's default_rng, which rejects it
        accinfo = {"type": "accinfo", "restarts": 1, "outcomes": 2, "max_iter": 3}
        cfg = self.write_config(tmp_path, base_config(receivers=[accinfo]))
        assert main(["point", "--config", cfg, "--sigma", "0.3", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err

    @pytest.mark.parametrize(
        "signal, priors", [("BPSK", [1.0, 0.0]), ("BPSK", [0.0, 1.0]), ("OOK", [0.0, 1.0]), ("OOK", [1.0, 0.0])]
    )
    def test_zero_prior_exit_code(self, tmp_path, capsys, signal, priors):
        # one state is left, whose error columns would be rounding noise below 0
        receivers = [{"type": "helstrom"}, {"type": "atomic"}]
        cfg = self.write_config(tmp_path, base_config(signal=signal, priors=priors, receivers=receivers))
        assert main(["point", "--config", cfg, "--sigma", "0.0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "priors must both be > 0" in err

    def test_missing_file_exit_code(self, capsys):
        assert main(["sweep", "--config", "/nonexistent.json"]) == 2

    def test_cutoff_override(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, base_config())
        assert main(["point", "--config", cfg, "--sigma", "0.0", "--cutoff", "35"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["cutoff"] == 35

    def test_warns_on_unconverged_accessible_information(self, tmp_path, capsys):
        # too few ascent steps to reach the stationarity tolerance
        accinfo = {"type": "accinfo", "restarts": 1, "outcomes": 2, "polish_max": 0, "max_iter": 3}
        doc = base_config(
            sigma_grid={"start": 0.3, "stop": 0.6, "steps": 2},
            receivers=[{"type": "helstrom"}, accinfo],
        )
        cfg = self.write_config(tmp_path, doc)
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert "warning: 2 rows have accinfo_converged = 0" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == csv_text(run_sweep(SweepConfig.from_dict(doc)))

        assert main(["point", "--config", cfg, "--sigma", "0.3"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["accinfo_converged"] == 0
        assert "warning: 1 rows have accinfo_converged = 0" in captured.err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("max_iter", "abc"),
            ("max_iter", 0),
            ("max_iter", -5),
            ("max_iter", 2.5),
            ("restarts", None),
            ("restarts", 0),
            ("outcomes", 1),
            ("outcomes", True),
        ],
    )
    def test_point_rejects_bad_accinfo_keys(self, tmp_path, capsys, key, value):
        accinfo = {"type": "accinfo", "restarts": 1, "outcomes": 2, "max_iter": 3, key: value}
        cfg = self.write_config(tmp_path, base_config(receivers=[accinfo]))
        assert main(["point", "--config", cfg, "--sigma", "0.3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    def crossings(self, tmp_path, text):
        csv_path = tmp_path / "curves.csv"
        csv_path.write_text(text, encoding="utf-8")
        return main(["crossings", "--csv", str(csv_path), "--col-a", "a", "--col-b", "b"])

    @pytest.mark.parametrize("cell", ["", "abc"])
    def test_crossings_rejects_a_cell_that_is_not_a_number(self, tmp_path, capsys, cell):
        assert self.crossings(tmp_path, f"sigma,a,b\n0,-1,0\n1,{cell},0\n") == 2
        assert "row 2, column 'a'" in capsys.readouterr().err

    def test_crossings_rejects_a_short_row(self, tmp_path, capsys):
        assert self.crossings(tmp_path, "sigma,a,b\n0,-1,0\n1,1\n") == 2
        assert "row 2, column 'b'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["sigma,a\n", "sigma,a\n0,1\n", ""])
    def test_crossings_rejects_a_missing_column(self, tmp_path, capsys, text):
        assert self.crossings(tmp_path, text) == 2
        captured = capsys.readouterr()
        assert "column 'b'" in captured.err or "column 'sigma'" in captured.err
        assert "no crossing" not in captured.out

    def test_crossings_of_a_header_only_csv(self, tmp_path, capsys):
        assert self.crossings(tmp_path, "sigma,a,b\n") == 0
        assert capsys.readouterr().out.strip() == "no crossing"

    def test_no_warning_when_converged(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, base_config())
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "rows.csv")]) == 0
        assert "warning" not in capsys.readouterr().err


class TestImportPath:
    def test_no_scipy_at_run_time(self):
        # a fresh interpreter: this one has loaded scipy for the oracles
        code = """
import json, sys
import phasecomm, phasecomm.cli
from phasecomm.sweep import SweepConfig, run_sweep
doc = json.loads(sys.argv[1])
rows = run_sweep(SweepConfig.from_dict(doc))
assert len(rows) == 2 and all(not row["violations"] for row in rows), rows
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""
        receivers = [
            {"type": "helstrom"},
            {"type": "accinfo", "restarts": 1, "outcomes": 2, "max_iter": 50},
            {"type": "atomic", "objectives": ["error", "information"]},
            {"type": "pnr", "resolution": 2, "beta_mode": "optimized"},
            {"type": "pnr", "resolution": 1, "beta_mode": "null-first"},
        ]
        doc = base_config(sigma_grid={"start": 0.0, "stop": 0.6, "steps": 2}, receivers=receivers)
        src = str(pathlib.Path(phasecomm.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run(
            [sys.executable, "-c", code, json.dumps(doc)], env=env, capture_output=True, text=True, check=True
        )
        assert json.loads(out.stdout) == []

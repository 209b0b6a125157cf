import contextlib
import json
import multiprocessing
import os
import pathlib
import re
import subprocess
import sys
import types
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasecomm
from phasecomm import (
    AscentConfig,
    ConfigError,
    FockDim,
    GridMismatch,
    PhasecommError,
    accessible_information,
    helstrom_bound,
)
from phasecomm import _minimize, atomic, pnr, sweep
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


def pnr_receiver(m: int, beta_mode: str = "optimized", visibility: float = 0.998) -> dict:
    return {"type": "pnr", "resolution": m, "visibility": visibility, "beta_mode": beta_mode}


# PNR receiver lists: a later receiver of the same m overwrites its columns
PNR_LISTS = {
    "m123": [pnr_receiver(m) for m in (1, 2, 3)],
    "m2": [pnr_receiver(2)],
    "m13": [pnr_receiver(1), pnr_receiver(3)],
    "two-visibilities": [
        pnr_receiver(1), pnr_receiver(3, visibility=0.9), pnr_receiver(2), pnr_receiver(1, visibility=0.9)
    ],
    "mixed-beta-modes": [
        pnr_receiver(1, "null-first"), pnr_receiver(2), pnr_receiver(3, "null-first"), pnr_receiver(1)
    ],
    "listed-twice": [pnr_receiver(2), pnr_receiver(3), pnr_receiver(2)],
}


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
            # one step computes start only, so a wider grid would shrink to it
            {"sigma_grid": {"start": 0.0, "stop": 1.2, "steps": 1}},
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
            # receivers is a non-empty array, never one receiver object
            {"receivers": []},
            {"receivers": {"type": "helstrom"}},
        ],
    )
    def test_rejects_bad_config(self, bad):
        with pytest.raises(ConfigError):
            SweepConfig.from_dict(base_config(**bad))

    @pytest.mark.parametrize("receivers", [[], {"type": "helstrom"}])
    def test_receivers_must_be_a_non_empty_array(self, receivers):
        with pytest.raises(ConfigError, match="receivers must be a non-empty JSON array"):
            SweepConfig.from_dict(base_config(receivers=receivers))

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


    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(mean_photons=st.floats(0.05, 5.0), q1=st.floats(0.1, 0.45), sigma=st.floats(0.0, 3.0))
    def test_bpsk_values_do_not_depend_on_the_order_of_the_priors(self, mean_photons, q1, sigma):
        # BPSK with priors (q2, q1) is BPSK with (q1, q2) and the amplitudes
        # negated, which the receivers' searches take to their mirror images
        receivers = [{"type": "helstrom"}, {"type": "atomic"}] + [pnr_receiver(m) for m in (1, 2, 3)]
        docs = [
            base_config(mean_photons=mean_photons, priors=priors, receivers=receivers)
            for priors in ([q1, 1 - q1], [1 - q1, q1])
        ]
        rows = [compute_point(SweepConfig.from_dict(doc), sigma, 0) for doc in docs]
        keys = [k for k in rows[0] if k.startswith(("p_", "i_"))]
        assert len(keys) == 9
        for key in keys:
            assert abs(rows[0][key] - rows[1][key]) <= 1e-13, key


# an accinfo sweep of three chains, the last of one point
CHAINED = base_config(
    sigma_grid={"start": 0.0, "stop": 1.8, "steps": 2 * sweep.CHAIN_LENGTH + 1},
    receivers=[{"type": "helstrom"}, {"type": "accinfo", "restarts": 1, "max_iter": 50}],
)


class TestRunSweep:
    @pytest.mark.parametrize("method, workers", [("fork", 2), ("fork", 3), ("spawn", 3)])
    def test_pool_rows_equal_serial_rows(self, monkeypatch, method, workers):
        # the blocks of 7 points: 3 + 4, or 2 + 2 + 3; of three accinfo
        # chains: 1 + 2 chains, or one each
        doc = base_config(
            sigma_grid={"start": 0.0, "stop": 1.8, "steps": 7},
            receivers=[
                {"type": "helstrom"},
                {"type": "atomic"},
                {"type": "pnr", "resolution": 2},
                pnr_receiver(3),
            ],
        )
        for cfg in (SweepConfig.from_dict(doc), SweepConfig.from_dict(CHAINED)):
            serial = csv_text(run_sweep(cfg, workers=1))
            with monkeypatch.context() as patch:
                patch.setattr(sweep, "ProcessPoolExecutor", _pool(method))
                assert csv_text(run_sweep(cfg, workers=workers)) == serial

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
        # a one-step grid is a single sigma, start == stop
        stop = 1.2 if steps > 1 else 0.0
        cfg = SweepConfig.from_dict(base_config(sigma_grid={"start": 0.0, "stop": stop, "steps": steps}))
        assert len(run_sweep(cfg, workers=workers)) == steps
        assert sizes == ([] if pool_size is None else [pool_size])

    @pytest.mark.parametrize("steps, workers, blocks", [(13, 4, [12, 1]), (12, 2, [12]), (25, 2, [12, 13])])
    def test_accinfo_blocks_are_whole_chains(self, monkeypatch, steps, workers, blocks):
        sizes = []

        def record(args):
            sizes.append(len(args[1]))
            return []

        # a pool that maps in this process
        pool = contextlib.nullcontext(types.SimpleNamespace(map=map))
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", lambda max_workers, initializer: pool)
        monkeypatch.setattr(sweep, "_block_task", record)
        monkeypatch.setattr(sweep, "CHAIN_LENGTH", 12)
        cfg = SweepConfig.from_dict(
            base_config(sigma_grid={"start": 0.0, "stop": 1.2, "steps": steps}, receivers=[{"type": "accinfo"}])
        )
        run_sweep(cfg)
        assert sizes == [steps]
        sizes.clear()
        run_sweep(cfg, workers=workers)
        assert sizes == blocks

    @pytest.mark.parametrize("signal", ["BPSK", "OOK"])
    @pytest.mark.parametrize("q1", [0.5, 0.3])
    def test_lock_step_rows_equal_one_search_at_a_time(self, monkeypatch, signal, q1):
        # the atomic polishes and the PNR refinements of a block of points run
        # in lock-step, and one PNR call serves all resolutions of a
        # (visibility, beta_mode); run one search, one point and one
        # resolution at a time instead, they give the same CSV
        drive = _minimize.drive

        def one_at_a_time(searches, evaluate):
            return [
                drive([search], lambda _, points, i=i: evaluate([i], points))[0] for i, search in enumerate(searches)
            ]

        def one_point_at_a_time(objective, points):
            return [atomic.optimize_block(objective, [p])[0] for p in points]

        def one_point_and_resolution_at_a_time(points, visibility, resolutions):
            return [[pnr.optimize_displacement_block([p], visibility, [m])[0][0] for m in resolutions] for p in points]

        def one_resolution_at_a_time(params, visibility, resolutions, beta):
            return [pnr.evaluate_displacement(params, visibility, [m], beta)[0] for m in resolutions]

        for name, pnr_receivers in PNR_LISTS.items():
            doc = base_config(
                signal=signal,
                priors=[q1, 1 - q1],
                sigma_grid={"start": 0.0, "stop": 1.5, "steps": 3},
                receivers=[{"type": "atomic"}] + pnr_receivers,
            )
            cfg = SweepConfig.from_dict(doc)
            lock_step = csv_text(run_sweep(cfg))
            with monkeypatch.context() as patch:
                for module in (atomic, pnr):
                    patch.setattr(module, "drive", one_at_a_time)
                patch.setattr(sweep, "optimize_block", one_point_at_a_time)
                patch.setattr(sweep, "optimize_displacement_block", one_point_and_resolution_at_a_time)
                patch.setattr(sweep, "evaluate_displacement", one_resolution_at_a_time)
                assert csv_text(run_sweep(cfg)) == lock_step, name

    def test_one_pnr_call_per_visibility_and_beta_mode(self, monkeypatch):
        # four (visibility, beta_mode) groups, one of them listed twice
        receivers = [
            pnr_receiver(1), pnr_receiver(3, visibility=0.9), pnr_receiver(2, "null-first"), pnr_receiver(3),
            pnr_receiver(1, "null-first", 0.9), pnr_receiver(2), pnr_receiver(3, "null-first"), pnr_receiver(1),
        ]
        cfg = SweepConfig.from_dict(base_config(receivers=receivers))
        calls, tables = [], []
        block, evaluate = sweep.optimize_displacement_block, sweep.evaluate_displacement

        def counted_block(points, visibility, resolutions):
            before = len(tables)
            found = block(points, visibility, resolutions)
            calls.append(([p.sigma for p in points], visibility, list(resolutions), tables[before:]))
            return found

        def counted_evaluate(params, visibility, resolutions, beta):
            before = len(tables)
            found = evaluate(params, visibility, resolutions, beta)
            calls.append((params.sigma, visibility, list(resolutions), tables[before:]))
            return found

        monkeypatch.setattr(sweep, "optimize_displacement_block", counted_block)
        monkeypatch.setattr(sweep, "evaluate_displacement", counted_evaluate)
        kernel = pnr._outcome_stack

        def counted_kernel(alphas, sigma, *args):
            tables.append(np.unique(sigma).tolist())
            return kernel(alphas, sigma, *args)

        monkeypatch.setattr(pnr, "_outcome_stack", counted_kernel)
        rows = run_sweep(cfg)
        sigmas = [row["sigma"] for row in rows]
        # a serial sweep is one block: one search per 'optimized' group for
        # all its points, then a 'null-first' group's call per point
        assert [call[:3] for call in calls] == [
            (sigmas, 0.998, [1, 3, 2, 1]),
            (sigmas, 0.9, [3]),
            *[(sigma, 0.998, [2, 3]) for sigma in sigmas],
            *[(sigma, 0.9, [1]) for sigma in sigmas],
        ]
        for _, _, _, kernel_calls in calls[:2]:
            # a grid call per point, then one call per round for every point
            # still refining
            assert kernel_calls[:3] == [[sigma] for sigma in sigmas]
            assert kernel_calls[3] == sigmas
        # a null-first group reads all its resolutions of a point from one kernel call
        assert all(len(kernel_calls) == 1 for *_, kernel_calls in calls[2:])

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_fewer_than_one_worker(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            run_sweep(SweepConfig.from_dict(base_config()), workers=workers)


class TestAccessibleInformationChains:
    """Each ascent after a chain's first starts from its predecessor's end measurement."""

    def cold(self, cfg, index):
        # the ascent of grid point `index` started cold from its point seed
        sigma = cfg.sigma_grid()[index]
        params = bpsk(cfg.mean_photons, sigma)
        [rec] = [r for r in cfg.receivers if r["type"] == "accinfo"]
        acfg = AscentConfig(restarts=rec["restarts"], max_iter=rec["max_iter"], seed=cfg.seed * 100_003 + index)
        ens = build_ensemble(params, FockDim(default_cutoff([params.alpha1, params.alpha2])))
        return accessible_information(ens, acfg)

    def test_chain_starts_are_cold(self):
        cfg = SweepConfig.from_dict(CHAINED)
        rows = run_sweep(cfg)
        for index in range(0, len(rows), sweep.CHAIN_LENGTH):
            rep = self.cold(cfg, index)
            assert rows[index]["i_accessible"].hex() == rep.mutual_information.hex()
            assert rows[index]["accinfo_residual"].hex() == rep.stationarity_residual.hex()
        # a warm row differs from its cold ascent
        assert rows[1]["i_accessible"] != self.cold(cfg, 1).mutual_information

    def test_point_equals_the_chain_start_row(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(CHAINED), encoding="utf-8")
        row = run_sweep(SweepConfig.from_dict(CHAINED))[0]
        assert main(["point", "--config", str(path), "--sigma", "0.0"]) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(row))

    def test_warm_rows_converge_near_their_cold_values(self):
        # acceptance settings; a chain may carry a lower stationary point
        # forward, by at most 3e-6 bits on this grid
        accinfo = {"type": "accinfo", "restarts": 4, "max_iter": 2500}
        doc = base_config(sigma_grid={"start": 0.0, "stop": 1.2, "steps": 9}, receivers=[accinfo])
        cfg = SweepConfig.from_dict(doc)
        for index, row in enumerate(run_sweep(cfg)):
            assert row["accinfo_converged"] == 1, row
            assert row["i_accessible"] >= self.cold(cfg, index).mutual_information - 3e-6, row


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

        def record(cfg, sigma, index, searched, chain):
            threads = len(list(tasks.iterdir())) if tasks.is_dir() else None
            return {"sigma": sigma, "pid": os.getpid(), "counts": _blas_counts(), "threads": threads}

        def fail(cfg, sigma, index, searched, chain):
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

    @pytest.mark.parametrize("command", [["sweep"], ["point", "--sigma", "0.3"]], ids=["sweep", "point"])
    def test_config_that_is_not_utf8_exit_code(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"signal": "BPSK\xff"}')
        assert main([command[0], "--config", str(cfg), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and "codec can't decode" in err

    @pytest.mark.parametrize("command", [["sweep"], ["point", "--sigma", "0.3"]], ids=["sweep", "point"])
    def test_config_nested_past_the_recursion_limit_exit_code(self, tmp_path, capsys, command):
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert main([command[0], "--config", str(cfg), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and "recursion" in err

    def test_crossings_rejects_a_csv_that_is_not_utf8(self, tmp_path, capsys):
        csv_path = tmp_path / "curves.csv"
        csv_path.write_bytes(b"sigma,a,b\n0,-1,0\n1,\xff,0\n")
        assert main(["crossings", "--csv", str(csv_path), "--col-a", "a", "--col-b", "b"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {csv_path}: ") and "codec can't decode" in err

    def test_crossings_rejects_a_field_over_the_csv_limit(self, tmp_path, capsys):
        assert self.crossings(tmp_path, "sigma,a,b\n0,-1," + "0" * 200_000 + "\n") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'curves.csv'}: ") and "field larger than field limit" in err

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

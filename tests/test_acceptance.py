"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The sweep-based criteria share four session-scoped sweeps (25 grid points
each) covering both signal sets and three mean photon numbers. The
crossings of the atomic receiver with the photon-counting baseline are
solved exactly near the grid's interpolated crossing and pinned.
"""

import functools
import time

import numpy as np
import pytest
from scipy import optimize as sciopt

from oracles import KrausOracle, holevo_chi, lifted_elements, pure_state_error
from phasecomm import (
    AscentConfig,
    AtomicParams,
    FockDim,
    OptimizeConfig,
    Povm,
    accessible_information,
    binary_entropy,
    dephase,
    error_probability,
    error_probability_series,
    helstrom_bound,
    joint_probabilities_series,
    kraus_operators,
    optimize,
    optimize_displacement,
    phase_diffused_coherent,
    povm_from_kraus,
)
from phasecomm.atomic import PHI_MAX
from phasecomm.cli import main
from phasecomm.discrimination import joint_distribution
from phasecomm.signals import SignalParams, bpsk, build_ensemble
from phasecomm.sweep import SweepConfig, find_crossing, run_sweep


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


ACCINFO_RECEIVER = {
    "type": "accinfo",
    "restarts": 4,
    "outcomes": 4,
    "polish_max": 300,
    "max_iter": 2500,
    "lam_max": 2.0,
}


def pnr_receiver(m: int) -> dict:
    return {
        "type": "pnr",
        "resolution": m,
        "visibility": 0.998,
        "beta_mode": "optimized",
    }


def sweep_doc(signal, nbar, sigma_stop, receivers) -> dict:
    return {
        "signal": signal,
        "mean_photons": nbar,
        "priors": [0.5, 0.5],
        "sigma_grid": {"start": 0.0, "stop": sigma_stop, "steps": 25},
        "receivers": receivers,
        "seed": 0,
    }


@pytest.fixture(scope="session")
def sweep_bpsk_05():
    """BPSK, mean photons 0.5, all receivers (error and information)."""
    doc = sweep_doc(
        "BPSK",
        0.5,
        1.2,
        [
            {"type": "helstrom"},
            {"type": "atomic", "objectives": ["error", "information"]},
            ACCINFO_RECEIVER,
            pnr_receiver(1),
            pnr_receiver(2),
            pnr_receiver(3),
        ],
    )
    return run_sweep(SweepConfig.from_dict(doc))


@pytest.fixture(scope="session")
def sweep_ook_05():
    """OOK, mean photons 0.5, error-probability comparison."""
    doc = sweep_doc(
        "OOK",
        0.5,
        1.2,
        [
            {"type": "helstrom"},
            {"type": "atomic", "objectives": ["error"]},
            pnr_receiver(1),
        ],
    )
    return run_sweep(SweepConfig.from_dict(doc))


@pytest.fixture(scope="session")
def sweep_bpsk_075():
    """BPSK, mean photons 0.75, all receivers (error and information)."""
    doc = sweep_doc(
        "BPSK",
        0.75,
        1.2,
        [
            {"type": "helstrom"},
            {"type": "atomic", "objectives": ["error", "information"]},
            ACCINFO_RECEIVER,
            pnr_receiver(1),
            pnr_receiver(2),
            pnr_receiver(3),
        ],
    )
    return run_sweep(SweepConfig.from_dict(doc))


@pytest.fixture(scope="session")
def sweep_bpsk_10():
    """BPSK, mean photons 1.0, error probabilities on sigma in [0, 1.0]."""
    doc = sweep_doc(
        "BPSK",
        1.0,
        1.0,
        [
            {"type": "helstrom"},
            {"type": "atomic", "objectives": ["error"]},
            pnr_receiver(1),
            pnr_receiver(2),
            pnr_receiver(3),
        ],
    )
    return run_sweep(SweepConfig.from_dict(doc))


def test_criterion_1_noiseless_helstrom_golden_values():
    t0 = time.perf_counter()
    dim = FockDim(30)
    worst = 0.0
    for nbar in (0.5, 0.75, 1.0):
        got = helstrom_bound(build_ensemble(bpsk(nbar, 0.0), dim))
        worst = max(worst, abs(got - pure_state_error(0.5, np.sqrt(nbar), -np.sqrt(nbar))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 1.0
    report(1, ok, f"max |deviation| {worst:.3e} (tol 1e-6), runtime {elapsed:.2f}s (< 1s)")
    assert worst <= 1e-6
    assert elapsed < 1.0


def test_criterion_2_series_matrix_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    dim = FockDim(30)
    worst_err = 0.0
    worst_joint = 0.0
    for _ in range(100):
        params = SignalParams(
            q1=rng.uniform(0.2, 0.8),
            alpha1=rng.uniform(-1.5, 1.5),
            alpha2=rng.uniform(-1.5, 1.5),
            sigma=rng.uniform(0.0, 1.2),
        )
        p = AtomicParams(
            xi=rng.uniform(0, 2 * np.pi),
            theta=rng.uniform(0, np.pi / 2),
            phi_pulse=rng.uniform(0, 8.0),
        )
        ens = build_ensemble(params, dim)
        povm = povm_from_kraus(*kraus_operators(p, dim))
        worst_err = max(
            worst_err,
            abs(
                error_probability_series(params, p)
                - error_probability(ens, povm)
            ),
        )
        worst_joint = max(
            worst_joint,
            float(
                np.max(
                    np.abs(
                        joint_probabilities_series(params, p)
                        - joint_distribution(ens, povm)
                    )
                )
            ),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_err <= 1e-8 and worst_joint <= 1e-8 and elapsed < 30.0
    report(
        2,
        ok,
        f"100 draws: max error gap {worst_err:.2e}, max joint gap "
        f"{worst_joint:.2e} (tol 1e-8), runtime {elapsed:.1f}s (< 30s)",
    )
    assert worst_err <= 1e-8
    assert worst_joint <= 1e-8
    assert elapsed < 30.0


def test_criterion_3_optimality_envelopes(
    sweep_bpsk_05, sweep_ook_05, sweep_bpsk_075, sweep_bpsk_10
):
    rows = sweep_bpsk_05 + sweep_ook_05 + sweep_bpsk_075 + sweep_bpsk_10
    failures = []
    for row in rows:
        p_hel = row["p_helstrom"]
        for key, val in row.items():
            if key.startswith("p_") and key != "p_helstrom":
                if p_hel > val + 1e-9 * p_hel + 1e-13:
                    failures.append(f"sigma={row['sigma']:.3f}: {key} below Helstrom")
        i_acc = row.get("i_accessible")
        if i_acc is not None:
            for key, val in row.items():
                if key.startswith("i_") and key != "i_accessible":
                    if val > i_acc + 5e-6:
                        failures.append(
                            f"sigma={row['sigma']:.3f}: {key}={val:.6f} above "
                            f"accessible {i_acc:.6f}"
                        )
        if row["violations"]:
            failures.append(f"sigma={row['sigma']:.3f}: {row['violations']}")
    ok = not failures
    report(
        3,
        ok,
        f"{len(rows)} sweep rows checked; "
        + ("all envelopes hold" if ok else "; ".join(failures[:5])),
    )
    assert not failures


# i_accessible of the steepest-ascent iteration that the quasi-Newton ascent
# replaced (restarts 4, outcomes 4, lam_max 2.0, commit 5c663b2), on the
# 25-point grids of sweep_bpsk_05 and sweep_bpsk_075. It stopped short of
# its residual tolerance on 48 of these 50 rows, up to 6.4e-3 bits low.
STEEPEST_ASCENT_VALUES = {
    0.5: [
        0.7808196892653794, 0.7787378776945229, 0.772776672186464,
        0.7634082711015995, 0.7512994302821396, 0.7370168486121246,
        0.72055211141279, 0.7021661245409258, 0.6818278913104279,
        0.65941126128177, 0.6347789883786784, 0.6078653391350979,
        0.5787347217644669, 0.5476026880729068, 0.5148215434324033,
        0.4808433329456791, 0.4461747965612173, 0.411335194693484,
        0.37682032767192647, 0.34307974934103375, 0.3104995850910679,
        0.27939380987485163, 0.2500012837161873, 0.22249060564950712,
        0.1969653743870568,
    ],
    0.75: [
        0.9023899240953654, 0.9003345465613453, 0.8943937940885414,
        0.8852914393390409, 0.873882388085309, 0.8600475611492621,
        0.8442404520858757, 0.8263883075413607, 0.8061908945008435,
        0.7832332284350434, 0.757131929620098, 0.7276764007890878,
        0.6949190075051449, 0.6591919449357587, 0.621082434882908,
        0.5812873100877325, 0.5404507812356147, 0.49909591079461096,
        0.45771027567609435, 0.4169533479492713, 0.37737871245485677,
        0.3394077284288581, 0.30359589583695534, 0.27000721134560274,
        0.23884597841173366,
    ],
}


def test_accessible_information_converges_between_old_ascent_and_holevo(sweep_bpsk_05, sweep_bpsk_075):
    failures = []
    for nbar, rows in ((0.5, sweep_bpsk_05), (0.75, sweep_bpsk_075)):
        for row, old in zip(rows, STEEPEST_ASCENT_VALUES[nbar], strict=True):
            chi = holevo_chi(build_ensemble(bpsk(nbar, row["sigma"]), FockDim(row["cutoff"])))
            i_acc = row["i_accessible"]
            if row["accinfo_converged"] != 1:
                failures.append(f"BPSK {nbar} sigma={row['sigma']:.2f}: residual {row['accinfo_residual']:.2e}")
            if i_acc < old - 1e-12 or i_acc > chi:
                failures.append(f"BPSK {nbar} sigma={row['sigma']:.2f}: {i_acc!r} outside [{old!r}, chi {chi!r}]")
    assert not failures, "; ".join(failures)


# Verified optimum of the atomic receiver family for BPSK at mean photons
# 0.5, per sigma: (p_helstrom, p_atomic - p_helstrom). Derived outside the
# library's own code paths: the Helstrom values by Gauss-Hermite quadrature
# of pure coherent kets over the Gaussian phase (no dephasing kernel) at
# cutoff 59; the atomic values from the full atom-field Jaynes-Cummings
# unitary with an arbitrary initial atomic state, the optimal (qubit
# Helstrom) atom measurement and detuning as a free parameter, searched over
# Phi in [0, 30]. The library reproduces both to 1e-10; the optimum sits
# at Phi ~ 8.1625 at every sigma.
CRITERION_4_GAP_CURVE = {
    0.0: (0.0350632525, 0.0006126452),
    0.3: (0.0512767512, 0.0048305762),
    0.6: (0.1000022329, 0.0121616760),
    0.9: (0.1772118719, 0.0130947191),
    1.2: (0.2639534056, 0.0100357901),
}


@functools.cache
def bpsk_05_oracle(sigma: float) -> KrausOracle:
    """Kraus-path oracle of BPSK at mean photons 0.5 on FockDim(30), Phi in [0, PHI_MAX] in steps of 0.01."""
    return KrausOracle(bpsk(0.5, sigma), FockDim(30), np.linspace(0.0, PHI_MAX, 2501))


def test_criterion_4_near_helstrom_gap():
    t0 = time.perf_counter()
    dim = FockDim(30)
    lines = []
    failures = []
    for sigma, (pin_hel, pin_gap) in CRITERION_4_GAP_CURVE.items():
        params = bpsk(0.5, sigma)
        p_hel = helstrom_bound(build_ensemble(params, dim))
        p_atomic = optimize("min-error", params, OptimizeConfig()).value
        oracle = bpsk_05_oracle(sigma).min_error()
        gap = p_atomic - p_hel
        lines.append(
            f"sigma={sigma:.1f}: p_hel={p_hel:.10f} p_atomic={p_atomic:.10f} "
            f"gap={gap:.10f} ({gap / p_hel:.2%}) "
            f"|optimize-oracle|={abs(p_atomic - oracle):.1e}"
        )
        if abs(p_atomic - oracle) > 1e-8 or p_atomic < oracle - 1e-10:
            failures.append(f"sigma={sigma}: optimize {p_atomic!r} vs oracle {oracle!r}")
        if abs(p_hel - pin_hel) > 1e-6:
            failures.append(f"sigma={sigma}: p_helstrom {p_hel!r} vs pinned {pin_hel}")
        if abs(gap - pin_gap) > 1e-6:
            failures.append(f"sigma={sigma}: gap {gap!r} vs pinned {pin_gap}")
    elapsed = time.perf_counter() - t0
    ok = not failures
    detail = (
        "verified gap curve (optimize = Kraus-path oracle within 1e-8, "
        "p_helstrom and gap = pinned curve within 1e-6): "
        + "; ".join(lines)
        + f"; runtime {elapsed:.1f}s"
        + ("" if ok else "; " + "; ".join(failures))
    )
    report(4, ok, detail)
    assert ok, detail


# How nearly the atomic receiver achieves the accessible information:
# i_accessible - i_atomic in bits on the converged rows of sweep_bpsk_05
# (BPSK, mean photons 0.5) at these sigmas. The ascent stops at a residual
# of 1e-6, so the pins hold to 5e-6.
CRITERION_4_INFORMATION_GAP_CURVE = {
    0.0: 0.0029219581,
    0.3: 0.0327604741,
    0.6: 0.0867515629,
    0.9: 0.0808511747,
    1.2: 0.0452406586,
}


def test_criterion_4_near_accessible_information(sweep_bpsk_05):
    lines = []
    failures = []
    for sigma, pin in CRITERION_4_INFORMATION_GAP_CURVE.items():
        row = sweep_bpsk_05[round(sigma / 0.05)]
        assert row["sigma"] == pytest.approx(sigma, abs=1e-12) and row["cutoff"] == 30
        gap = row["i_accessible"] - row["i_atomic"]
        oracle = bpsk_05_oracle(sigma).max_information()
        lines.append(f"sigma={sigma:.1f}: gap={gap:.7f} ({gap / row['i_accessible']:.2%}) |i_atomic-oracle|={abs(row['i_atomic'] - oracle):.1e}")
        if row["accinfo_converged"] != 1:
            failures.append(f"sigma={sigma}: ascent not converged, residual {row['accinfo_residual']:.2e}")
        if abs(gap - pin) > 5e-6:
            failures.append(f"sigma={sigma}: gap {gap!r} vs pinned {pin}")
        if abs(row["i_atomic"] - oracle) > 1e-13:
            failures.append(f"sigma={sigma}: i_atomic {row['i_atomic']!r} vs oracle {oracle!r}")
    ok = not failures
    detail = (
        "information gap curve (i_accessible - i_atomic = pinned within 5e-6, "
        "i_atomic = Kraus-path oracle within 1e-13): "
        + "; ".join(lines)
        + ("" if ok else "; " + "; ".join(failures))
    )
    report(4, ok, detail)
    assert ok, detail


def test_criterion_5_steepest_ascent_correctness():
    ens = build_ensemble(bpsk(0.5, 0.0), FockDim(30))
    rep = accessible_information(ens, AscentConfig())
    expected = 1.0 - binary_entropy(pure_state_error(0.5, np.sqrt(0.5), -np.sqrt(0.5)))
    dev = abs(rep.mutual_information - expected)
    Povm(lifted_elements(rep.phi, rep.support)).validate()  # rank-one elements on the support: valid by construction
    ok = dev <= 1e-4 and rep.stationarity_residual <= 1e-6
    report(
        5,
        ok,
        f"I={rep.mutual_information:.9f} vs oracle {expected:.9f} "
        f"(|dev| {dev:.2e}, tol 1e-4), residual {rep.stationarity_residual:.2e} "
        f"(tol 1e-6), POVM invariants checked on the result",
    )
    assert dev <= 1e-4
    assert rep.stationarity_residual <= 1e-6


def test_criterion_6_monotonicity_suite(sweep_bpsk_05):
    hel = [row["p_helstrom"] for row in sweep_bpsk_05]
    monotone = all(b >= a - 1e-12 for a, b in zip(hel, hel[1:]))

    dim = FockDim(30)
    rho = phase_diffused_coherent(0.9, 0.2, dim)
    semigroup_dev = float(
        np.max(
            np.abs(
                dephase(dephase(rho, 0.4), 0.7) - dephase(rho, np.hypot(0.4, 0.7))
            )
        )
    )

    # each joint-table entry is D + exp(-sigma^2/2) C with sigma-independent
    # D and C; solve for them at two sigmas and predict a third
    p = AtomicParams(xi=1.9, theta=0.55, phi_pulse=2.4)

    def table(sigma):
        return joint_probabilities_series(
            SignalParams(0.5, np.sqrt(0.5), -np.sqrt(0.5), sigma), p
        )

    t0, t1 = table(0.0), table(0.7)
    c = (t0 - t1) / (1.0 - np.exp(-0.5 * 0.7**2))
    cross_dev = float(
        np.max(np.abs(t0 - c + np.exp(-0.5 * 1.1**2) * c - table(1.1)))
    )

    ok = monotone and semigroup_dev <= 1e-12 and cross_dev <= 1e-12
    report(
        6,
        ok,
        f"Helstrom monotone in sigma: {monotone}; semigroup deviation "
        f"{semigroup_dev:.2e} (tol 1e-12); cross-term scaling deviation "
        f"{cross_dev:.2e} (tol 1e-12)",
    )
    assert monotone
    assert semigroup_dev <= 1e-12
    assert cross_dev <= 1e-12


def test_criterion_7_figure_reproduction(
    sweep_bpsk_05, sweep_ook_05, sweep_bpsk_075, sweep_bpsk_10
):
    ordering_failures = []

    def series(rows, key):
        return [row[key] for row in rows]

    def assert_below(rows, low_key, high_key, label):
        bad = [
            row["sigma"]
            for row in rows
            if row[low_key] > row[high_key] + 1e-9
        ]
        if bad:
            ordering_failures.append(f"{label} fails at sigma {bad}")

    # error orderings: the atomic receiver beats the baseline everywhere
    # at resolution 1 (both signals' low-photon case), and at resolutions
    # 1 and 2 for mean photons 0.75, and at resolution 1 for 1.0
    assert_below(sweep_bpsk_05, "p_atomic", "p_pnr_m1", "BPSK 0.5: atomic <= pnr m=1")
    assert_below(sweep_bpsk_075, "p_atomic", "p_pnr_m1", "BPSK 0.75: atomic <= pnr m=1")
    assert_below(sweep_bpsk_075, "p_atomic", "p_pnr_m2", "BPSK 0.75: atomic <= pnr m=2")
    assert_below(sweep_bpsk_10, "p_atomic", "p_pnr_m1", "BPSK 1.0: atomic <= pnr m=1")
    # information orderings: atomic above the resolution-1 baseline everywhere
    assert_below(sweep_bpsk_05, "i_pnr_m1", "i_atomic", "BPSK 0.5: info pnr m=1 <= atomic")
    assert_below(sweep_bpsk_075, "i_pnr_m1", "i_atomic", "BPSK 0.75: info pnr m=1 <= atomic")
    # OOK: baseline below atomic on most of the range
    ook_better = sum(
        1 for row in sweep_ook_05 if row["p_pnr_m1"] <= row["p_atomic"] + 1e-9
    )
    if ook_better < len(sweep_ook_05) // 2:
        ordering_failures.append(
            f"OOK 0.5: baseline better on only {ook_better}/{len(sweep_ook_05)} rows"
        )

    # crossings: find_crossing interpolates between grid points, so the
    # exact crossing lies within one grid step of its value. brentq (xtol
    # 1e-9) on the library's values, optimize() against optimize_displacement()
    # at the receiver's resolution, solves it there; the pinned values are
    # those solves
    targets = [
        ("BPSK 0.75 error atomic/pnr m=3", sweep_bpsk_075, 0.75, "p", 3, 0.617031),
        ("BPSK 1.0 error atomic/pnr m=2", sweep_bpsk_10, 1.0, "p", 2, 0.336196),
        ("BPSK 1.0 error atomic/pnr m=3", sweep_bpsk_10, 1.0, "p", 3, 0.298468),
        ("BPSK 0.5 info atomic/pnr m=2", sweep_bpsk_05, 0.5, "i", 2, 0.686519),
        ("BPSK 0.5 info atomic/pnr m=3", sweep_bpsk_05, 0.5, "i", 3, 0.406190),
        ("BPSK 0.75 info atomic/pnr m=2", sweep_bpsk_075, 0.75, "i", 2, 0.345274),
        ("BPSK 0.75 info atomic/pnr m=3", sweep_bpsk_075, 0.75, "i", 3, 0.251073),
    ]
    crossing_lines = []
    for label, rows, nbar, prefix, m, pin in targets:
        objective, index = {"p": ("min-error", 0), "i": ("max-information", 1)}[prefix]

        def atomic_minus_pnr(sigma):
            params = bpsk(nbar, sigma)
            [answer] = optimize_displacement(params, 0.998, [m])
            return optimize(objective, params).value - answer[index][1]

        grid = series(rows, "sigma")
        sigma_star = find_crossing(grid, series(rows, f"{prefix}_atomic"), series(rows, f"{prefix}_pnr_m{m}"))
        if sigma_star is None:
            ordering_failures.append(f"{label}: no crossing on the grid (pinned {pin})")
            continue
        step = grid[1] - grid[0]
        exact = sciopt.brentq(atomic_minus_pnr, sigma_star - step, sigma_star + step, xtol=1e-9)
        if abs(exact - pin) > 1e-4:
            ordering_failures.append(f"{label}: exact crossing {exact:.6f} vs pinned {pin}")
        crossing_lines.append(
            f"{label}: interpolated {sigma_star:.4f}, exact {exact:.6f}, pinned {pin} "
            f"(interpolation off by {sigma_star - exact:+.1e})"
        )

    ok = not ordering_failures
    detail = (
        ("all ordering relations hold and all crossings match their pins within 1e-4" if ok else "; ".join(ordering_failures))
        + "; crossings: "
        + "; ".join(crossing_lines)
    )
    report(7, ok, detail)
    assert not ordering_failures, detail


def test_criterion_8_determinism(tmp_path):
    import json

    doc = {
        "signal": "BPSK",
        "mean_photons": 0.5,
        "priors": [0.5, 0.5],
        "sigma_grid": {"start": 0.0, "stop": 1.2, "steps": 3},
        "receivers": [
            {"type": "helstrom"},
            {"type": "atomic", "objectives": ["error"]},
            {
                "type": "accinfo",
                "restarts": 2,
                "outcomes": 2,
                "polish_max": 50,
                "max_iter": 500,
            },
            pnr_receiver(1),
        ],
        "seed": 7,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    bytes_a = out_a.read_bytes()
    bytes_b = out_b.read_bytes()
    ok = bytes_a == bytes_b
    report(
        8,
        ok,
        f"two seeded runs: {len(bytes_a)} bytes each, byte-identical: {ok}",
    )
    assert ok

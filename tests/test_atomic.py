import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from oracles import (
    KrausOracle,
    information_gradient,
    information_hessian,
    joint_rows,
    neg_information,
    series_sums,
    table_coefficients,
)
from phasecomm import (
    AtomicParams,
    FockDim,
    OptimizeConfig,
    SeriesTruncationError,
    error_probability,
    error_probability_series,
    joint_probabilities_series,
    kraus_operators,
    mutual_information,
    mutual_information_series,
    optimize,
    povm_from_kraus,
)
from phasecomm import atomic
from phasecomm.atomic import PHI_MAX
from phasecomm.cli import main
from phasecomm.config import PROB_GUARD, SERIES_TAIL
from phasecomm.discrimination import _log_ratio, joint_distribution
from phasecomm.fock import default_cutoff
from phasecomm.signals import SignalParams, bpsk, build_ensemble, ook
from phasecomm.sweep import SweepConfig, compute_point, run_sweep


DIM = FockDim(30)


def kraus_oracle(params: SignalParams) -> KrausOracle:
    """The Kraus-path oracle at the cutoff the amplitudes give, over Phi in [0, PHI_MAX] in steps of 0.02."""
    return KrausOracle(params, FockDim(default_cutoff([params.alpha1, params.alpha2])), np.linspace(0.0, PHI_MAX, 1251))


def matrix_joint(params: SignalParams, p: AtomicParams, dim: FockDim = DIM):
    ens = build_ensemble(params, dim)
    povm = povm_from_kraus(*kraus_operators(p, dim))
    return ens, povm, joint_distribution(ens, povm)


class TestKrausOperators:
    def test_identity_limit(self):
        k1, k2 = kraus_operators(AtomicParams(xi=0.7, theta=0.0, phi_pulse=0.0), DIM)
        np.testing.assert_allclose(k1, np.eye(DIM.size), atol=1e-15)
        np.testing.assert_allclose(k2, np.zeros((DIM.size, DIM.size)), atol=1e-15)

    def test_zero_coupling(self):
        theta = 0.9
        k1, k2 = kraus_operators(AtomicParams(xi=1.2, theta=theta, phi_pulse=0.0), DIM)
        np.testing.assert_allclose(k1, np.cos(theta) * np.eye(DIM.size), atol=1e-15)
        np.testing.assert_allclose(k2, np.sin(theta) * np.eye(DIM.size), atol=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_completeness(self, seed):
        rng = np.random.default_rng(seed)
        p = AtomicParams(
            xi=rng.uniform(0, 2 * np.pi),
            theta=rng.uniform(0, np.pi / 2),
            phi_pulse=rng.uniform(0, 10.0),
        )
        k1, k2 = kraus_operators(p, DIM)
        total = k1.conj().T @ k1 + k2.conj().T @ k2
        assert np.max(np.abs(total - np.eye(DIM.size))) <= 1e-12

    def test_tridiagonal_structure(self):
        k1, _ = kraus_operators(AtomicParams(0.4, 0.8, 2.3), DIM)
        mask = np.zeros_like(k1, dtype=bool)
        idx = np.arange(DIM.size)
        mask[idx, idx] = True
        mask[idx[:-1], idx[1:]] = True
        assert np.all(k1[~mask] == 0)


class TestSeriesVsMatrix:
    @pytest.mark.parametrize("seed", range(10))
    def test_joint_tables_agree(self, seed):
        rng = np.random.default_rng(100 + seed)
        params = SignalParams(
            q1=rng.uniform(0.2, 0.8),
            alpha1=rng.uniform(-1.2, 1.2),
            alpha2=rng.uniform(-1.2, 1.2),
            sigma=rng.uniform(0.0, 1.2),
        )
        p = AtomicParams(
            xi=rng.uniform(0, 2 * np.pi),
            theta=rng.uniform(0, np.pi / 2),
            phi_pulse=rng.uniform(0, 8.0),
        )
        _, _, table_matrix = matrix_joint(params, p)
        table_series = joint_probabilities_series(params, p)
        np.testing.assert_allclose(table_matrix, table_series, atol=1e-8)

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(
        signal=st.sampled_from([bpsk, ook]),
        mean_photons=st.floats(0.01, 10.0),
        q1=st.floats(0.05, 0.95),
        sigma=st.floats(0.0, 3.0),
        xi=st.floats(0.0, 2 * np.pi),
        theta=st.floats(0.0, np.pi / 2),
        phi=st.floats(0.0, PHI_MAX),
    )
    def test_derived_length_matches_kraus_path(self, signal, mean_photons, q1, sigma, xi, theta, phi):
        # over the documented config space, at the series length the amplitudes give
        params = signal(mean_photons, sigma, q1)
        p = AtomicParams(xi, theta, phi)
        _, _, table_matrix = matrix_joint(params, p, FockDim(default_cutoff([params.alpha1, params.alpha2])))
        assert np.max(np.abs(joint_probabilities_series(params, p) - table_matrix)) <= 1e-10

    def test_error_and_information_agree(self):
        params = bpsk(0.5, 0.4)
        p = AtomicParams(xi=np.pi / 2, theta=0.6, phi_pulse=1.8)
        ens, povm, _ = matrix_joint(params, p)
        assert error_probability_series(params, p) == pytest.approx(
            error_probability(ens, povm), abs=1e-8
        )
        assert mutual_information_series(params, p) == pytest.approx(
            mutual_information(ens, povm), abs=1e-8
        )


class TestSeriesProperties:
    def test_trivial_params_error_is_q2(self):
        params = SignalParams(q1=0.35, alpha1=0.4, alpha2=-0.9, sigma=0.5)
        p = AtomicParams(xi=0.0, theta=0.0, phi_pulse=0.0)
        assert error_probability_series(params, p) == pytest.approx(
            0.65, abs=1e-12
        )

    def test_trivial_params_second_column_zero(self):
        params = bpsk(0.5, 0.3)
        p = AtomicParams(xi=0.0, theta=0.0, phi_pulse=0.0)
        table = joint_probabilities_series(params, p)
        np.testing.assert_allclose(table[:, 1], 0.0, atol=1e-15)
        assert mutual_information_series(params, p) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_row_sums_are_priors(self):
        params = SignalParams(q1=0.3, alpha1=0.7, alpha2=-0.5, sigma=0.8)
        p = AtomicParams(xi=2.1, theta=0.7, phi_pulse=3.0)
        table = joint_probabilities_series(params, p)
        np.testing.assert_allclose(table.sum(axis=1), [0.3, 0.7], atol=1e-9)
        assert table.min() >= -1e-12

    def test_xi_reflection_symmetry(self):
        params = bpsk(0.5, 0.6)
        xi = 0.8
        a = error_probability_series(params, AtomicParams(xi, 0.7, 2.0))
        b = error_probability_series(
            params, AtomicParams(np.pi - xi, 0.7, 2.0)
        )
        assert abs(a - b) <= 1e-12

    def test_cross_term_scaling_is_exact_gaussian_factor(self):
        # each joint entry is D + exp(-sigma^2/2) C with sigma-independent D, C
        base = bpsk(0.5, 0.0)
        p = AtomicParams(xi=1.9, theta=0.55, phi_pulse=2.4)

        def table(sigma):
            params = SignalParams(base.q1, base.alpha1, base.alpha2, sigma)
            # remove the channel's own effect on sigma-independent pieces by
            # holding everything but the cross factor fixed: amplitudes and
            # priors are shared, so D and C are shared too
            return joint_probabilities_series(params, p)

        t0, t1 = table(0.0), table(0.7)
        c = (t0 - t1) / (1.0 - np.exp(-0.5 * 0.7**2))
        d = t0 - c
        predicted = d + np.exp(-0.5 * 1.1**2) * c
        assert np.max(np.abs(predicted - table(1.1))) <= 1e-12

    def test_truncation_guard(self, monkeypatch):
        params = SignalParams(q1=0.5, alpha1=1.5, alpha2=-1.5, sigma=0.2)
        p = AtomicParams(xi=1.0, theta=0.6, phi_pulse=2.0)
        monkeypatch.setattr(atomic, "_series_length", lambda amplitudes: 4)
        with pytest.raises(SeriesTruncationError, match="at 4 terms"):
            joint_probabilities_series(params, p)


class TestReduction:
    """The structure the search rests on, checked through the Kraus POVM."""

    @pytest.mark.parametrize("seed", range(4))
    def test_error_affine_in_sin_xi_and_table_affine_in_two_theta(self, seed):
        rng = np.random.default_rng(300 + seed)
        params = SignalParams(
            q1=rng.uniform(0.2, 0.8),
            alpha1=rng.uniform(-1.2, 1.2),
            alpha2=rng.uniform(-1.2, 1.2),
            sigma=rng.uniform(0.0, 1.5),
        )
        theta, phi = rng.uniform(0, np.pi / 2), rng.uniform(0, PHI_MAX)
        ens = build_ensemble(params, DIM)

        def error(xi):
            kraus = kraus_operators(AtomicParams(xi, theta, phi), DIM)
            return error_probability(ens, povm_from_kraus(*kraus))

        e0, e90 = error(0.0), error(np.pi / 2)
        for xi in rng.uniform(0, 2 * np.pi, 5):
            assert abs(error(xi) - (e0 + np.sin(xi) * (e90 - e0))) <= 1e-12

        a, b, c = KrausOracle(params, DIM, [phi]).coefficients(phi)
        for t in rng.uniform(0, np.pi / 2, 5):
            _, _, table = matrix_joint(params, AtomicParams(np.pi / 2, t, phi))
            np.testing.assert_allclose(table, a + b * np.cos(2 * t) + c * np.sin(2 * t), rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "params",
        [
            bpsk(0.5, 0.6), ook(1.5, 1.2), ook(0.5, 2.0), bpsk(0.75, 2.0), ook(1.5, 3.0),
            # information peaks over 2theta only 8.3 and 3.8 degrees wide at 90% of their height
            ook(0.01, 0.0, 0.1), ook(0.01, 0.0, 0.05),
            # I = 1.3e-6 bits: a polish stop on the objective's absolute scale ends early here
            bpsk(0.01, 3.0, 0.1),
            # basins within 1e-4 of each other and narrower than the information
            # grid's Phi step: ranked by their samples, the best is not polished
            ook(0.02, 0.0, 0.45), ook(0.01, 0.0, 0.49),
        ],
        ids=[
            "bpsk-0.5-0.6", "ook-1.5-1.2", "ook-0.5-2.0", "bpsk-0.75-2.0", "ook-1.5-3.0",
            "ook-0.01-0.0-q0.1", "ook-0.01-0.0-q0.05", "bpsk-0.01-3.0-q0.1", "ook-0.02-0.0-q0.45", "ook-0.01-0.0-q0.49",
        ],
    )
    def test_max_information_matches_kraus_brute_force(self, params):
        res = optimize("max-information", params)
        assert res.value == pytest.approx(kraus_oracle(params).max_information(), abs=1e-13)

    @pytest.mark.parametrize(
        "params", [bpsk(0.5, 0.6), ook(0.5, 0.6), ook(1.5, 1.2), ook(0.5, 2.0)],
        ids=["bpsk-0.5-0.6", "ook-0.5-0.6", "ook-1.5-1.2", "ook-0.5-2.0"],
    )
    @pytest.mark.parametrize("objective", ["min-error", "max-information"])
    def test_parameters_canonical(self, params, objective):
        res = optimize(objective, params)
        for _, p in res.per_start:
            assert p.xi in (np.pi / 2, 3 * np.pi / 2)
            assert 0.0 <= p.theta <= np.pi / 2
            assert 0.0 <= p.phi_pulse <= PHI_MAX
        assert res.params == res.per_start[0][1]

    def test_negated_amplitudes_mirror_xi(self):
        # negating both amplitudes flips the sign of the cross term, which
        # sin(xi) undoes: the optimum moves between xi = pi/2 and 3pi/2
        params = ook(0.5, 0.6)
        mirror = SignalParams(params.q1, -params.alpha1, -params.alpha2, params.sigma)
        res, res_mirror = optimize("min-error", params), optimize("min-error", mirror)
        assert res_mirror.value == pytest.approx(res.value, abs=1e-12)
        assert {res.params.xi, res_mirror.params.xi} == {np.pi / 2, 3 * np.pi / 2}
        assert res_mirror.params.theta == pytest.approx(res.params.theta, abs=1e-9)
        assert res_mirror.params.phi_pulse == pytest.approx(res.params.phi_pulse, abs=1e-9)


class TestInformationGrid:
    @pytest.mark.parametrize(
        "params", [bpsk(0.5, 0.6), ook(1.5, 1.2), ook(0.5, 0.0), ook(0.01, 1.5, 0.1), ook(0.02, 0.0, 0.45)],
        ids=["bpsk", "ook", "ook-noiseless", "ook-0.01-q0.1", "ook-0.02-q0.45"],
    )
    def test_profile_equals_the_polish_objective_at_grid_points(self, monkeypatch, params):
        # the grid ranks the information with the polish's kernel: at a grid
        # point and its best angle, the profile is minus the polish's value
        profiles, starts = [], []
        grid_profile, newton_search = atomic._grid_profile, atomic.newton_search

        def recorded(table, over_theta):
            profiles.append(grid_profile(table, over_theta))
            return profiles[-1]

        def started(x0, *args):
            starts.append(x0)
            return newton_search(x0, *args)

        monkeypatch.setattr(atomic, "_grid_profile", recorded)
        monkeypatch.setattr(atomic, "newton_search", started)
        optimize("max-information", params)
        [(profile, info)] = profiles
        # the information's grid is every fourth row of the error's, at 8 angles
        grid, two_theta = atomic._PHI_GRID[::atomic._INFORMATION_STRIDE], atomic._TWO_THETA_GRID
        assert profile.size == grid.size and info.shape == (grid.size, two_theta.size)
        coefficients = atomic._TableCoefficients(params)
        q = np.array([params.q1, params.q2])
        best = info.argmax(axis=1)
        for i in range(0, grid.size, 25):
            [(value, _, _)] = atomic._information_round([(grid[i], two_theta[best[i]])], coefficients, q)
            assert value == pytest.approx(profile[i], abs=1e-16)
        # the polished rows are the profile's three local minima lowest at the
        # vertex of the parabola through each row and its two neighbours
        last = grid.size - 1

        def at_vertex(i):
            bend = profile[i - 1] - 2 * profile[i] + profile[i + 1] if 0 < i < last else 0.0
            return profile[i] - (profile[i - 1] - profile[i + 1]) ** 2 / (8 * bend) if bend > 0 else profile[i]

        minima = [i for i in range(grid.size) if profile[i] <= min(profile[max(i - 1, 0)], profile[min(i + 1, last)])]
        rows = [int(np.flatnonzero(grid == phi)[0]) for phi, _ in starts]
        assert rows == sorted(minima, key=at_vertex)[:atomic._POLISHED]
        # a polish starts on its grid row, at the vertex of the parabola through
        # the row's best angle and its two neighbours on the ring of angles
        for i, (phi, t) in zip(rows, starts):
            j = best[i]
            before, at, after = info[i, j - 1], info[i, j], info[i, (j + 1) % two_theta.size]
            vertex = two_theta[j] + 0.5 * two_theta[1] * (before - after) / (before - 2 * at + after)
            assert t == pytest.approx(vertex, abs=1e-15)
            assert abs(t - two_theta[j]) <= 0.5 * two_theta[1]


class TestPolish:
    """The max-information polish: Newton's method on (Phi, 2theta) with the
    exact gradient and Hessian, one round kernel for every running polish."""

    STEP = 1e-6

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(
        signal=st.sampled_from([bpsk, ook]),
        mean_photons=st.floats(0.01, 10.0),
        q1=st.floats(0.05, 0.95),
        sigma=st.floats(0.0, 3.0),
        phi=st.floats(0.0, PHI_MAX),
        two_theta=st.floats(0.0, np.pi),
    )
    def test_gradient_matches_central_differences(self, signal, mean_photons, q1, sigma, phi, two_theta):
        params = signal(mean_photons, sigma, q1)
        coefficients = atomic._TableCoefficients(params)
        h = self.STEP
        table, slopes, curvatures = coefficients(np.array([phi]), slopes=True)
        for with_slopes, alone in zip(table, coefficients(np.array([phi]))):
            assert np.array_equal(with_slopes, alone)
        # the derivative series against central differences of the table and of its slopes
        up, down = (coefficients(np.array([phi + s]), slopes=True) for s in (h, -h))
        for slope, u, d in zip(slopes, up[0], down[0]):
            assert np.max(np.abs(slope - (u - d) / (2 * h))) <= 1e-7
        for curve, u, d in zip(curvatures, up[1], down[1]):
            assert np.max(np.abs(curve - (u - d) / (2 * h))) <= 1e-7 * (1 + np.max(np.abs(curve)))

        def info(phi, two_theta):
            return mutual_information_series(params, AtomicParams(np.pi / 2, two_theta / 2, phi))

        # the polish objective against central differences of the public series
        q = np.array([q1, 1 - q1])
        [(value, gradient, hessian)] = atomic._information_round([(phi, two_theta)], coefficients, q)
        assert value == pytest.approx(-info(phi, two_theta), abs=1e-14)
        central = -np.array([
            (info(phi + h, two_theta) - info(phi - h, two_theta)) / (2 * h),
            (info(phi, two_theta + h) - info(phi, two_theta - h)) / (2 * h),
        ])
        assert np.all(np.abs(np.array(gradient) - central) <= 1e-7 * (1 + np.abs(central)))
        # value and gradient are the first round kernel's, bit for bit
        [(old_value, old_gradient)] = neg_information(table, slopes, np.array([two_theta]), lambda j: _log_ratio(q, j))
        assert same_bits(value, old_value) and same_bits(gradient, old_gradient)

        # the Hessian against central differences of the kernel's gradient,
        # where the information is smooth: not at an entry near 0 (24 of the
        # 30 draws), where p log p has no second derivative
        if joint_probabilities_series(params, AtomicParams(np.pi / 2, two_theta / 2, phi)).min() < 1e-12:
            return

        def grad(phi, two_theta):
            return np.array(atomic._information_round([(phi, two_theta)], coefficients, q)[0][1])

        d_phi = (grad(phi + h, two_theta) - grad(phi - h, two_theta)) / (2 * h)
        d_two_theta = (grad(phi, two_theta + h) - grad(phi, two_theta - h)) / (2 * h)
        central = np.array([d_phi[0], 0.5 * (d_phi[1] + d_two_theta[0]), d_two_theta[1]])
        assert np.all(np.abs(np.array(hessian) - central) <= 1e-6 * (1 + np.abs(central)))

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(
        signal=st.sampled_from([bpsk, ook]),
        mean_photons=st.floats(0.01, 10.0),
        q1=st.floats(0.05, 0.95),
        sigma=st.floats(0.0, 3.0),
        xs=st.lists(st.tuples(st.floats(0.0, PHI_MAX), st.floats(-1.0, 4.0)), min_size=2, max_size=3),
    )
    def test_points_of_a_round_equal_a_loop_over_them(self, signal, mean_photons, q1, sigma, xs):
        # a round scores every running polish's trial in (k, ...) arrays; the
        # references score one point at a time: in a round of its own, and in
        # the first kernel's form with (2, 2) tables
        coefficients = atomic._TableCoefficients(signal(mean_photons, sigma, q1))
        q = np.array([q1, 1 - q1])
        together = atomic._information_round(xs, coefficients, q)
        assert len(together) == len(xs)
        for x, (value, gradient, hessian) in zip(xs, together):
            [(value_alone, gradient_alone, hessian_alone)] = atomic._information_round([x], coefficients, q)
            assert same_bits(value, value_alone) and same_bits(gradient, gradient_alone)
            assert same_bits(hessian, hessian_alone)
            table, slope, _ = coefficients(np.array(x[:1]), slopes=True)
            (mean, swing, inter), slope = (tuple(v[:, 0] for v in part) for part in (table, slope))
            cos_t, sin_t = np.cos(x[1]), np.sin(x[1])
            joint = atomic._joint(mean, swing, inter, cos_t, sin_t)
            log_ratio = _log_ratio(q, joint)
            turn = inter * cos_t - swing * sin_t
            loop_gradient = [
                np.sum(log_ratio * atomic._joint(*slope, cos_t, sin_t)),
                np.sum(log_ratio * np.stack([turn, -turn], axis=-1)),
            ]
            assert value == -np.sum(joint * log_ratio)
            assert np.array_equal(gradient, -np.array(loop_gradient))

    @staticmethod
    def rounds_of(monkeypatch, params) -> tuple:
        """(rounds, result) of `optimize("max-information", params)`."""
        rounds = []
        drive = atomic.drive

        def counted(searches, evaluate):
            def evaluate_counted(which, points):
                rounds.append(len(which))
                return evaluate(which, points)

            return drive(searches, evaluate_counted)

        monkeypatch.setattr(atomic, "drive", counted)
        return len(rounds), optimize("max-information", params)

    def test_polish_ends_at_the_rounding_noise_of_the_value(self, monkeypatch):
        # here the polish closes in 8 rounds; a stop at one unit in the last
        # place of the value let BFGS line-search on to 111
        rounds, res = self.rounds_of(monkeypatch, ook(0.01, 1.5, 0.5))
        assert rounds <= 12
        assert res.value >= 0.010090044001812726 - 1e-15

    def test_polish_stops_where_the_gradient_is_at_its_noise(self, monkeypatch):
        # BFGS took 113 rounds here, its last line searches at |g| = 3.7e-10
        # accepting drops of 1e-19 from the value's rounding noise; the Newton
        # polish closes in 7. Each log ratio carries an absolute rounding
        # error of about eps / ln 2 bits, so the value does too, whatever its
        # size (here values read 1.8e-16 apart where |g| < 1e-15): the polish
        # ends within that of BFGS's value, 8.9e-17 below it
        rounds, res = self.rounds_of(monkeypatch, ook(0.01, 2.0, 0.02))
        assert rounds <= 15
        assert res.value >= 0.0002920843366200552 - np.finfo(float).eps / np.log(2.0)

    @pytest.mark.parametrize("params", [bpsk(0.75, 0.6), ook(1.5, 1.2)], ids=["bpsk-0.75-0.6", "ook-1.5-1.2"])
    def test_table_evaluations_per_start(self, monkeypatch, params):
        # the Phi count of each table evaluation, with None where `_canonical`
        # closes a polished start
        log = []
        call, canonical = atomic._TableCoefficients.__call__, atomic._canonical

        def counted(self, phi=None, point=0, slopes=False):
            log.append(atomic._PHI_GRID.size if phi is None else len(phi))
            return call(self, phi, point, slopes)

        def closing(*args):
            log.append(None)
            return canonical(*args)

        monkeypatch.setattr(atomic._TableCoefficients, "__call__", counted)
        monkeypatch.setattr(atomic, "_canonical", closing)
        res = optimize("max-information", params)
        # the grid's table in one call, from the cached grid series
        assert log[0] == atomic._PHI_GRID.size
        # then the polishes in lock-step, one call per round at every running
        # polish's trial Phi, until they all close; no call scores them again
        rounds = log[1:log.index(None)]
        assert log[1 + len(rounds):] == [None] * atomic._POLISHED
        assert len(res.per_start) == atomic._POLISHED
        assert all(1 <= n <= atomic._POLISHED for n in rounds)
        assert rounds == sorted(rounds, reverse=True)
        assert rounds[0] == atomic._POLISHED
        assert len(rounds) <= 8


class TestMinErrorPolish:
    """The min-error polish: Newton's method in Phi on the error's closed-form
    minimum over theta, with the curvature series of the table."""

    STEP = 1e-6

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        signal=st.sampled_from([bpsk, ook]),
        mean_photons=st.floats(0.01, 10.0),
        q1=st.floats(0.05, 0.95),
        sigma=st.floats(0.0, 3.0),
        phi=st.floats(0.001, PHI_MAX - 0.001),
    )
    def test_round_matches_central_differences(self, signal, mean_photons, q1, sigma, phi):
        coefficients = atomic._TableCoefficients(signal(mean_photons, sigma, q1))
        h = self.STEP

        def curve(x):
            return atomic._min_error_over_theta(coefficients(np.array([x])))[0][0]

        def slope(x):
            return atomic._min_error_round([(x,)], coefficients)[0][1][0]

        [(value, (first,), (second,))] = atomic._min_error_round([(phi,)], coefficients)
        # the value is the grid's closed form, bit for bit
        assert same_bits(value, curve(phi))
        # away from a zero of hypot(e_b, e_c), where the minimum over theta has a kink
        _, swing, inter = coefficients(np.array([phi]))
        if np.hypot(swing[1] - swing[0], inter[1] - inter[0])[0] < 1e-6:
            return
        central = (curve(phi + h) - curve(phi - h)) / (2 * h)
        assert abs(first - central) <= 1e-7 * (1 + abs(central))
        central = (slope(phi + h) - slope(phi - h)) / (2 * h)
        assert abs(second - central) <= 1e-6 * (1 + abs(central))

    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(
        signal=st.sampled_from([bpsk, ook]),
        mean_photons=st.floats(0.01, 10.0),
        q1=st.floats(0.05, 0.95),
        sigmas=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3),
        phis=st.lists(st.floats(0.0, PHI_MAX), min_size=2, max_size=6),
    )
    def test_trials_of_a_round_equal_a_loop_over_them(self, signal, mean_photons, q1, sigmas, phis):
        coefficients = atomic._TableCoefficients(*(signal(mean_photons, sigma, q1) for sigma in sigmas))
        owner = np.arange(len(phis)) % len(sigmas)
        together = atomic._min_error_round([(phi,) for phi in phis], coefficients, owner)
        for phi, k, (value, (first,), (second,)) in zip(phis, owner, together):
            [(alone, (first_alone,), (second_alone,))] = atomic._min_error_round([(phi,)], coefficients, k)
            assert same_bits([value, first, second], [alone, first_alone, second_alone])

    def test_each_end_is_at_or_below_its_start_and_grid_point(self, monkeypatch):
        starts, ends = [], []
        lock_step = atomic.drive

        def recording(searches, evaluate):
            def first_round(which, xs):
                values = evaluate(which, xs)
                if not starts:
                    starts.extend(value for value, _, _ in values)
                return values

            results = lock_step(searches, first_round)
            ends.extend(results)
            return results

        monkeypatch.setattr(atomic, "drive", recording)
        points = [ook(1.5, sigma) for sigma in np.linspace(0.0, 3.0, 12)[:6]]
        results = atomic.optimize_block("min-error", points)
        curve = [atomic._min_error_over_theta(atomic._TableCoefficients(p)(point=0))[0] for p in points]
        grid_values = [curve[k][i] for k in range(len(points)) for i in atomic._best_local(curve[k], atomic._POLISHED)]
        assert len(ends) == len(starts) == len(grid_values)
        assert all(value <= start for start, (_, value, _) in zip(starts, ends))
        assert all(value <= at_grid for at_grid, (_, value, _) in zip(grid_values, ends))
        # the reported values are the polishes' ends
        assert sorted(value for _, value, _ in ends) == sorted(v for r in results for v, _ in r.per_start)

    @pytest.mark.parametrize("signal", [bpsk, ook])
    @pytest.mark.parametrize("sigma", [0.0, 1.2, 2.4])
    def test_the_grid_vertex_is_near_the_minimum(self, signal, sigma):
        # at the grid's best minima the exact slope at the vertex is a small
        # part of its grid point's (measured: below 3e-3 of step times the
        # curvature, against up to a half)
        coefficients = atomic._TableCoefficients(signal(1.5, sigma, 0.3))
        curve, _ = atomic._min_error_over_theta(coefficients(point=0))
        step = atomic._PHI_GRID[1]
        for i in atomic._best_local(curve, atomic._POLISHED):
            vertex = atomic._grid_vertex(curve, i)
            assert abs(vertex - atomic._PHI_GRID[i]) <= step
            [(_, (first,), (second,))] = atomic._min_error_round([(vertex,)], coefficients)
            assert i == 0 or abs(first) <= 1e-2 * step * abs(second)
        # the curve is even in Phi
        assert atomic._grid_vertex(curve, 0) == 0.0

    def test_rounds_of_a_block(self, monkeypatch):
        # a 6-point block of the cli-sweep-2w benchmark; the bounded Brent
        # polish took 9 rounds here, the Newton polish from the grid point 3,
        # from its parabola's vertex 2
        rounds = []
        lock_step = atomic.drive

        def counted(searches, evaluate):
            def evaluate_counted(which, xs):
                rounds.append(len(which))
                return evaluate(which, xs)

            return lock_step(searches, evaluate_counted)

        monkeypatch.setattr(atomic, "drive", counted)
        atomic.optimize_block("min-error", [ook(1.5, sigma) for sigma in np.linspace(0.0, 3.0, 12)[:6]])
        assert rounds[0] == 6 * atomic._POLISHED and len(rounds) <= 2


def same_bits(got, expected) -> bool:
    """Equal shapes and equal bytes: every entry bit for bit, signed zeros too."""
    got, expected = np.asarray(got), np.asarray(expected)
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


class TestRoundKernels:
    """The kernels of a polish round against their `np.stack` / `np.moveaxis`
    forms in `oracles`, bit for bit, and the Hessian against its entry by
    entry chain rule."""

    @pytest.mark.parametrize("signal", [bpsk, ook])
    @pytest.mark.parametrize("mean_photons", [0.01, 0.5, 2.0, 5.0])
    @pytest.mark.parametrize("count", [1, 9, 36])
    @pytest.mark.parametrize("widths", [1, 3])
    def test_kernels_equal_their_textbook_forms_bit_for_bit(self, signal, mean_photons, count, widths):
        # a round of `count` trials over a block of `widths` sigma points
        points = [signal(mean_photons, sigma, 0.3) for sigma in (0.6, 0.0, 3.0)[:widths]]
        coefficients = atomic._TableCoefficients(*points)
        rng = np.random.default_rng(count)
        phi, two_theta = rng.uniform(0.0, PHI_MAX, count), rng.uniform(-1.0, 4.0, count)
        owner = np.arange(count) % widths
        # the sums, last terms, slopes and second derivatives against their textbook series
        for weights in (coefficients.weights, coefficients.weights[1]):
            for slopes in (False, True):
                got, expected = atomic._series_sums(weights, phi, slopes), series_sums(weights, phi, slopes)
                assert len(got) == len(expected) == (4 if slopes else 2)
                assert all(same_bits(g, e) for g, e in zip(got, expected))
        # the tables and their derivatives at each trial's own damping
        q = np.array([points[0].q1, points[0].q2])
        sums, _, derivatives, curvatures = series_sums(coefficients.weights, phi, slopes=True)
        damping = coefficients.damping[owner]
        expected = [table_coefficients(part, q, coefficients.alphas, damping) for part in (sums, derivatives, curvatures)]
        got = coefficients(phi, owner, slopes=True)
        assert len(got) == 3
        assert all(same_bits(g, e) for got_part, part in zip(got, expected) for g, e in zip(got_part, part))
        assert all(same_bits(g, e) for g, e in zip(coefficients._table(sums, damping), expected[0]))
        # the joint tables, a (2,) row's as its public series uses it, and the polish objective
        (mean, swing, inter), slope = ([v.T for v in part] for part in expected[:2])
        cos_t, sin_t = np.cos(two_theta)[:, None], np.sin(two_theta)[:, None]
        joint = joint_rows(mean, swing, inter, cos_t, sin_t)
        assert same_bits(atomic._joint(mean, swing, inter, cos_t, sin_t), joint)
        row = (mean[0], swing[0], inter[0], np.cos(two_theta[0]), np.sin(two_theta[0]))
        assert same_bits(atomic._joint(*row), joint_rows(*row))
        log_ratio = _log_ratio(q, joint)
        gradient = information_gradient(log_ratio, slope, swing, inter, cos_t, sin_t)
        value = (joint * log_ratio).sum(axis=(1, 2))
        rounds = atomic._information_round(list(zip(phi, two_theta)), coefficients, q, owner)
        assert len(rounds) == count
        first_kernel = neg_information(*expected[:2], two_theta, lambda joint: _log_ratio(q, joint))
        hessian = -information_hessian(*expected, two_theta, q, PROB_GUARD)
        for (v, g, h), v_ref, g_ref, (v_first, g_first), h_ref in zip(rounds, -value, -gradient, first_kernel, hessian.T):
            assert same_bits(v, v_ref) and same_bits(g, g_ref)
            assert same_bits(v, v_first) and same_bits(g, g_first)
            assert np.all(np.abs(np.array(h) - h_ref) <= 1e-12 * (1 + np.abs(h_ref)))


class TestGridCache:
    """The grid series of one amplitude, computed once and shared by every search."""

    @pytest.mark.parametrize("amplitudes", [(np.sqrt(0.75), -np.sqrt(0.75)), (0.0, np.sqrt(3.0))], ids=["bpsk", "ook"])
    def test_cached_sums_equal_the_kernel_and_are_read_only(self, amplitudes):
        # the pair's stacked call gives each amplitude's own call bit for bit,
        # signed zeros included
        n_terms = atomic._series_length(amplitudes)
        cached = atomic._grid_sums(amplitudes, n_terms)
        for k, alpha in enumerate(amplitudes):
            fresh = atomic._series_sums(atomic._series_weights(alpha, n_terms), atomic._PHI_GRID)
            for c, f in zip(cached, fresh):
                assert c[k].tobytes() == f.tobytes()
        for c in cached:
            assert not c.flags.writeable
            with pytest.raises(ValueError):
                c[0, 0, 0] = 1.0

    def test_sweep_evaluates_the_grid_series_once_per_amplitude(self, monkeypatch):
        grid_calls = []
        kernel = atomic._series_sums

        def counted(weights, phi, slopes=False):
            # a round of a block's polishes asks for up to _POLISHED Phis per
            # point, in an array of its own, and the grid for slices of _PHI_GRID
            if np.shares_memory(phi, atomic._PHI_GRID):
                grid_calls.append((weights.shape[:-1], len(phi)))
            return kernel(weights, phi, slopes)

        monkeypatch.setattr(atomic, "_series_sums", counted)
        atomic._grid_sums.cache_clear()
        doc = {
            "signal": "BPSK",
            "mean_photons": 0.42,
            "sigma_grid": {"start": 0.0, "stop": 1.2, "steps": 3},
            "receivers": [{"type": "atomic", "objectives": ["error", "information"]}],
        }
        rows = run_sweep(SweepConfig.from_dict(doc))
        assert len(rows) == 3
        # the two amplitudes +-sqrt(0.42), stacked, over the grid in blocks of rows
        assert sum(rows for _, rows in grid_calls) == atomic._PHI_GRID.size
        assert len(grid_calls) == len(range(0, atomic._PHI_GRID.size, atomic._BLOCK_ROWS))
        assert {shape for shape, _ in grid_calls} == {(2, 3)}

    def test_information_grid_shares_the_error_grid_cache(self, monkeypatch):
        profiles = []
        grid_profile, min_error_over_theta = atomic._grid_profile, atomic._min_error_over_theta

        def recorded(table, over_theta):
            profiles.append(grid_profile(table, over_theta))
            return profiles[-1]

        def error_recorded(coeffs):
            profiles.append(min_error_over_theta(coeffs))
            return profiles[-1]

        monkeypatch.setattr(atomic, "_grid_profile", recorded)
        monkeypatch.setattr(atomic, "_min_error_over_theta", error_recorded)
        params = ook(0.8, 0.9, 0.4)
        optimize("min-error", params)
        # the error's grid is scored in one call over all its rows
        error_profile, _ = profiles[0]
        profiles.clear()
        cached = atomic._grid_sums.cache_info()
        optimize("max-information", params)
        # the information's rows are a view of the cached table: no new entry, no new series
        assert atomic._grid_sums.cache_info().misses == cached.misses
        assert atomic._grid_sums.cache_info().currsize == cached.currsize
        [(information_profile, _)] = profiles
        assert error_profile.size == atomic._PHI_GRID.size == 2501
        assert information_profile.size == atomic._PHI_GRID[::atomic._INFORMATION_STRIDE].size == 626

    def test_guard_runs_on_a_cache_hit(self, monkeypatch):
        params = SignalParams(q1=0.5, alpha1=1.5, alpha2=-1.5, sigma=0.2)
        monkeypatch.setattr(atomic, "_series_length", lambda amplitudes: 4)
        atomic._grid_sums((1.5, -1.5), 4)
        hits = atomic._grid_sums.cache_info().hits
        # the grid's table alone, before any polish evaluates an off-grid Phi
        with pytest.raises(SeriesTruncationError, match="^sigma=0.2: .* at 4 terms"):
            atomic._TableCoefficients(params)()
        assert atomic._grid_sums.cache_info().hits == hits + 1


def per_angle_guard_rejects(params: SignalParams, p: AtomicParams, n_terms: int) -> bool:
    """The truncation guard the series functions applied at one angle before
    they shared the search's table: the last terms of both outcome sums at
    this (xi, theta), against the larger of the two sums."""
    n = np.arange(n_terms + 1)
    k = -np.exp(-0.5 * params.sigma**2) * np.sin(p.xi) * np.sin(2 * p.theta)
    c2, s2 = np.cos(p.theta) ** 2, np.sin(p.theta) ** 2
    for alpha in (params.alpha1, params.alpha2):
        w0 = np.exp(2 * n * np.log(abs(alpha)) - special.gammaln(n + 1)) if alpha else (n == 0) * 1.0
        w1 = w0 * alpha**2 / (n + 1)
        cos_n, sin_n1 = np.cos(p.phi_pulse * np.sqrt(n)), np.sin(p.phi_pulse * np.sqrt(n + 1))
        diag, raised, cross = w0 * cos_n**2, w1 * sin_n1**2, np.sign(alpha) * np.sqrt(w0 * w1) * cos_n * sin_n1
        f_plus = c2 * diag.sum() + s2 * raised.sum() + k * cross.sum()
        f_minus = s2 * diag.sum() + c2 * raised.sum() - k * cross.sum()
        d, r, x = diag[-1], raised[-1], cross[-1]
        last = abs(c2 * d + s2 * r) + abs(s2 * d + c2 * r) + 2 * abs(k * x)
        if last > SERIES_TAIL * max(abs(f_plus), abs(f_minus)):
            return True
    return False


class TestOneGuard:
    ANGLES = [(xi, theta) for xi in (0.0, 0.4, np.pi / 2, 2.5, 4.0) for theta in (0.0, 0.3, np.pi / 4, 1.2, np.pi / 2)]

    @pytest.mark.parametrize(
        "params", [bpsk(0.75, 0.3), ook(3.0, 0.6), SignalParams(q1=0.3, alpha1=1.2, alpha2=-0.4, sigma=1.1)],
        ids=["bpsk", "ook-3", "asymmetric"],
    )
    def test_series_guard_is_the_worst_case_over_angles(self, monkeypatch, params):
        longest = atomic._series_length((params.alpha1, params.alpha2))
        for n_terms in range(1, longest):
            monkeypatch.setattr(atomic, "_series_length", lambda amplitudes: n_terms)
            for phi in (0.7, 2.0, 9.3):
                rejected = []
                for xi, theta in self.ANGLES:
                    p = AtomicParams(xi, theta, phi)
                    try:
                        joint_probabilities_series(params, p)
                        rejected.append(False)
                    except SeriesTruncationError:
                        rejected.append(True)
                    # never weaker than the old per-angle guard
                    assert rejected[-1] or not per_angle_guard_rejects(params, p, n_terms)
                assert len(set(rejected)) == 1, (n_terms, phi)


class TestOptimize:
    def test_identical_states_min_prior(self):
        params = SignalParams(q1=0.4, alpha1=0.7, alpha2=0.7, sigma=0.3)
        res = optimize("min-error", params, OptimizeConfig())
        assert res.value == pytest.approx(0.4, abs=1e-6)

    def test_noiseless_bpsk_near_helstrom(self):
        params = bpsk(0.5, 0.0)
        res = optimize("min-error", params, OptimizeConfig())
        hel = 0.5 * (1.0 - np.sqrt(1.0 - np.exp(-4.0 * 0.5)))
        assert res.value >= hel - 1e-9
        assert res.value - hel <= 2e-3  # the receiver sits very close here

    def test_information_objective_bounds(self):
        params = bpsk(0.5, 0.4)
        res = optimize("max-information", params, OptimizeConfig())
        assert 0.0 < res.value < 1.0

    @pytest.mark.parametrize(
        "params",
        [bpsk(0.5, 0.6), bpsk(0.75, 2.0, 0.3), ook(0.5, 0.0), ook(1.5, 1.2), ook(0.1, 1.5), ook(0.01, 1.5, 0.1)],
        ids=["bpsk-0.5-0.6", "bpsk-0.75-2.0-q0.3", "ook-0.5-0.0", "ook-1.5-1.2", "ook-0.1-1.5", "ook-0.01-1.5-q0.1"],
    )
    @pytest.mark.parametrize(
        "objective, value_at",
        [("min-error", error_probability_series), ("max-information", mutual_information_series)],
        ids=["error", "information"],
    )
    def test_reported_values_equal_the_public_series(self, params, objective, value_at):
        # each value is the search's own, from the table it ranked and polished with
        res = optimize(objective, params)
        assert (res.value, res.params) == res.per_start[0]
        for value, p in res.per_start:
            assert value == pytest.approx(value_at(params, p), abs=1e-15)

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            optimize("maximize-profit", bpsk(0.5, 0.0))


class TestBlocks:
    """The polishes of a block of sigma points share their rounds; each point
    gets what it gets searched alone."""

    SIGMAS = np.linspace(0.0, 3.0, 7)

    @pytest.mark.parametrize("signal", [bpsk, ook])
    @pytest.mark.parametrize("objective", ["min-error", "max-information"])
    def test_a_block_equals_blocks_of_one(self, signal, objective):
        for mean_photons in (0.01, 0.1, 0.5, 1.5, 5.0):
            for q1 in (0.5, 0.3, 0.1):
                points = [signal(mean_photons, sigma, q1) for sigma in self.SIGMAS]
                # repr tells every float apart, signed zeros included
                alone = [optimize(objective, p) for p in points]
                assert repr(atomic.optimize_block(objective, points)) == repr(alone), (mean_photons, q1)

    def test_points_must_differ_in_sigma_only(self):
        for other in (bpsk(0.6, 1.0), bpsk(0.5, 1.0, 0.3), ook(0.5, 1.0)):
            with pytest.raises(ValueError, match="sigma only"):
                atomic.optimize_block("min-error", [bpsk(0.5, 0.0), other])

    @pytest.mark.parametrize("objective", ["min-error", "max-information"])
    def test_an_error_in_a_shared_round_names_its_points_sigma(self, monkeypatch, objective):
        # every off-grid evaluation gets cross last terms that fail the guard
        # undamped (sigma 0) but pass it damped by e^-4.5 (sigma 3); the grid
        # keeps its true sums, so the first shared round raises
        kernel = atomic._series_sums

        def heavy_tail(weights, phi, slopes=False):
            sums, last, *slope = kernel(weights, phi, slopes)
            if not np.shares_memory(phi, atomic._PHI_GRID):
                last = np.zeros_like(last)
                last[:, 2] = SERIES_TAIL * 0.5 * (sums[:, 0] + sums[:, 1])
            return (sums, last, *slope)

        monkeypatch.setattr(atomic, "_series_sums", heavy_tail)
        with pytest.raises(SeriesTruncationError, match="^sigma=0: last series term"):
            atomic.optimize_block(objective, [bpsk(0.5, 3.0), bpsk(0.5, 0.0)])
        atomic.optimize_block(objective, [bpsk(0.5, 3.0)])
        doc = {
            "signal": "BPSK",
            "mean_photons": 0.5,
            "sigma_grid": {"start": 0.0, "stop": 3.0, "steps": 2},
            "receivers": [{"type": "atomic", "objectives": [objective.split("-")[-1]]}],
        }
        for workers in (1, 2):
            with pytest.raises(SeriesTruncationError, match="^sigma=0: last series term"):
                run_sweep(SweepConfig.from_dict(doc), workers=workers)


class TestSeriesLength:
    def test_guard_accepts_derived_length_everywhere(self, monkeypatch):
        params = ook(3.0, 0.6)
        n_terms = atomic._series_length((params.alpha1, params.alpha2))
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = AtomicParams(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi / 2), rng.uniform(0, PHI_MAX))
            joint_probabilities_series(params, p)
        monkeypatch.setattr(atomic, "_series_length", lambda amplitudes: n_terms - 4)
        with pytest.raises(SeriesTruncationError):
            joint_probabilities_series(params, AtomicParams(np.pi / 2, 0.7, 2.0))

    def test_ook_3_point_runs_and_matches_kraus_path(self):
        # the series length used to be the Fock cutoff, whose guard differs:
        # this point raised SeriesTruncationError at the default cutoff
        doc = {
            "signal": "OOK",
            "mean_photons": 3.0,
            "sigma_grid": {"start": 0.6, "stop": 0.6, "steps": 1},
            "receivers": [{"type": "atomic", "objectives": ["error"]}],
        }
        row = compute_point(SweepConfig.from_dict(doc), 0.6, 0)
        assert row["p_atomic"] == pytest.approx(kraus_oracle(ook(3.0, 0.6)).min_error(), abs=1e-9)

    def test_default_config_derives_series_length(self, tmp_path, capsys):
        # OptimizeConfig() used to keep 30 series terms whatever the
        # amplitudes, so this call raised SeriesTruncationError while the
        # same point ran through `phasecomm point`
        res = optimize("min-error", ook(3.0, 0.6))
        cfg = tmp_path / "ook3.json"
        cfg.write_text(
            json.dumps(
                {
                    "signal": "OOK",
                    "mean_photons": 3.0,
                    "sigma_grid": {"start": 0.6, "stop": 0.6, "steps": 1},
                    "receivers": [{"type": "atomic", "objectives": ["error"]}],
                }
            ),
            encoding="utf-8",
        )
        assert main(["point", "--config", str(cfg), "--sigma", "0.6"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert res.value == row["p_atomic"]
        assert res.params.phi_pulse == row["atomic_phi"]

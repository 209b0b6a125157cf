from dataclasses import replace

import numpy as np
import pytest
from scipy import special, stats

from phasecomm import (
    FockDim,
    PnrConfig,
    helstrom_bound,
    map_error_probability,
    map_mutual_information,
    optimize_displacement,
    outcome_distribution,
)
from phasecomm import pnr
from phasecomm.config import DEFAULT_TOL, Tolerances
from phasecomm.errors import QuadratureUnderflow
from phasecomm.signals import SignalParams, bpsk, build_ensemble, ook


def negate(params: SignalParams) -> SignalParams:
    return SignalParams(params.q1, -params.alpha1, -params.alpha2, params.sigma)


class TestOutcomeDistribution:
    def test_perfect_nulling(self):
        cfg = PnrConfig(resolution=2, visibility=1.0, displacement=0.7)
        probs = outcome_distribution(0.7, 0.0, cfg)
        np.testing.assert_allclose(probs, [1.0, 0.0, 0.0], atol=1e-15)

    def test_vacuum(self):
        cfg = PnrConfig(resolution=1, visibility=0.998, displacement=0.0)
        probs = outcome_distribution(0.0, 0.5, cfg)
        np.testing.assert_allclose(probs, [1.0, 0.0], atol=1e-12)

    def test_anti_nulling_is_binned_poisson(self):
        alpha = 0.6
        m = 3
        cfg = PnrConfig(resolution=m, visibility=1.0, displacement=-alpha)
        probs = outcome_distribution(alpha, 0.0, cfg)
        mean = 4.0 * alpha * alpha
        expected = [stats.poisson.pmf(k, mean) for k in range(m)]
        expected.append(1.0 - sum(expected))
        np.testing.assert_allclose(probs, expected, atol=1e-12)

    @pytest.mark.parametrize("sigma", [0.0, 0.4, 1.2])
    def test_valid_probability_vector(self, sigma):
        cfg = PnrConfig(resolution=4, visibility=0.998, displacement=0.5)
        probs = outcome_distribution(0.9, sigma, cfg)
        assert probs.min() >= 0.0
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_doubling_quadrature_is_converged(self):
        a = outcome_distribution(
            0.8, 0.9, PnrConfig(resolution=3, displacement=0.7, quadrature_points=64)
        )
        b = outcome_distribution(
            0.8, 0.9, PnrConfig(resolution=3, displacement=0.7, quadrature_points=128)
        )
        assert np.max(np.abs(a - b)) < 1e-8

    def test_config_validation(self):
        with pytest.raises(ValueError):
            outcome_distribution(0.5, 0.0, PnrConfig(resolution=0))
        with pytest.raises(ValueError):
            outcome_distribution(0.5, 0.0, PnrConfig(visibility=1.5))
        with pytest.raises(ValueError):
            outcome_distribution(0.5, 0.0, PnrConfig(quadrature_points=8))
        for beta in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                outcome_distribution(0.5, 0.6, PnrConfig(displacement=beta))


class TestMapError:
    def test_identical_hypotheses(self):
        params = SignalParams(q1=0.3, alpha1=0.8, alpha2=0.8, sigma=0.4)
        cfg = PnrConfig(resolution=2, displacement=0.2)
        assert map_error_probability(params, cfg) == pytest.approx(0.3, abs=1e-12)

    def test_dominates_helstrom(self):
        params = bpsk(0.5, 0.6)
        ens = build_ensemble(params, FockDim(30))
        cfg = PnrConfig(resolution=1, visibility=0.998, displacement=params.alpha1)
        assert map_error_probability(params, cfg) >= helstrom_bound(ens) - 1e-9

    def test_nonincreasing_in_resolution(self):
        params = bpsk(0.5, 0.7)
        errs = [
            map_error_probability(
                params, PnrConfig(resolution=m, displacement=params.alpha1)
            )
            for m in (1, 2, 3, 4)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_sign_convention_invariance(self):
        params = SignalParams(q1=0.4, alpha1=0.5, alpha2=-0.9, sigma=0.6)
        cfg = PnrConfig(resolution=2, displacement=0.5)
        neg_cfg = PnrConfig(resolution=2, displacement=-0.5)
        assert map_error_probability(params, cfg) == pytest.approx(
            map_error_probability(negate(params), neg_cfg), abs=1e-14
        )

    def test_perfect_nulling_conditional(self):
        params = bpsk(0.5, 0.0)
        cfg = PnrConfig(resolution=1, visibility=1.0, displacement=params.alpha1)
        probs = outcome_distribution(params.alpha1, 0.0, cfg)
        assert probs[0] == 1.0


class TestMapInformation:
    def test_identical_hypotheses(self):
        params = SignalParams(q1=0.5, alpha1=0.8, alpha2=0.8, sigma=0.4)
        cfg = PnrConfig(resolution=2, displacement=0.1)
        assert map_mutual_information(params, cfg) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_separation_one_bit(self):
        params = SignalParams(q1=0.5, alpha1=0.0, alpha2=10.0, sigma=0.0)
        cfg = PnrConfig(resolution=1, visibility=1.0, displacement=0.0)
        assert map_mutual_information(params, cfg) == pytest.approx(1.0, abs=1e-10)

    def test_bounded_by_one_bit(self):
        params = bpsk(0.75, 0.5)
        cfg = PnrConfig(resolution=3, displacement=params.alpha1)
        assert 0.0 <= map_mutual_information(params, cfg) <= 1.0


class TestOptimizeDisplacement:
    def test_never_worse_than_null_first(self):
        params = bpsk(0.5, 0.6)
        base = PnrConfig(resolution=1, displacement=params.alpha1)
        _, best = optimize_displacement(params, base, "min-error")
        assert best <= map_error_probability(params, base) + 1e-12

    def test_information_objective(self):
        params = bpsk(0.5, 0.6)
        base = PnrConfig(resolution=1, displacement=params.alpha1)
        cfg, best = optimize_displacement(params, base, "max-information")
        assert best >= map_mutual_information(params, base) - 1e-12
        assert best == pytest.approx(map_mutual_information(params, cfg), abs=1e-12)

    def test_deterministic(self):
        params = bpsk(0.5, 0.9)
        base = PnrConfig(resolution=2, displacement=params.alpha1)
        a = optimize_displacement(params, base, "min-error")
        b = optimize_displacement(params, base, "min-error")
        assert a == b

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            optimize_displacement(bpsk(0.5, 0.0), PnrConfig(), "max-profit")


def per_pair_distribution(alpha, sigma, cfg):
    """One (amplitude, displacement) pair at a time, with a freshly built rule."""
    m = cfg.resolution
    if sigma == 0.0:
        phis, weights = np.array([0.0]), np.array([1.0])
    else:
        nodes, w = np.polynomial.hermite.hermgauss(cfg.quadrature_points)
        phis, weights = np.sqrt(2.0) * sigma * nodes, w / np.sqrt(np.pi)
    n_eff = alpha**2 + cfg.displacement**2 - 2 * cfg.visibility * alpha * cfg.displacement * np.cos(phis)
    n_eff = np.clip(n_eff, 0.0, None)
    k = np.arange(m)
    log_pmf = -n_eff[:, None] + k[None, :] * np.log(np.clip(n_eff, 1e-300, None))[:, None] - special.gammaln(k + 1)[None, :]
    pmf = np.exp(log_pmf)
    pmf[n_eff == 0.0] = np.where(k == 0, 1.0, 0.0)
    probs = np.empty(m + 1)
    probs[:m] = weights @ pmf
    probs[m] = max(1.0 - probs[:m].sum(), 0.0)
    return probs


def squares_round_apart(count):
    """Displacements whose squares round differently under libm's pow and numpy's square."""
    xs = np.random.default_rng(5).uniform(-2.5, 2.5, 20_000).tolist()
    return [x for x in xs if x**2 != float(np.square(x))][:count]


class TestBatchedKernel:
    BETAS = np.linspace(-2.5, 2.5, 41).tolist() + squares_round_apart(4)

    @pytest.mark.parametrize("signal", [bpsk, ook])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("sigma", [0.0, 0.6, 2.0])
    def test_equals_scalar_path_bit_for_bit(self, signal, m, sigma):
        params = signal(0.75, sigma)
        cfg = PnrConfig(resolution=m)
        alphas = [params.alpha1, params.alpha2]
        table = pnr._outcome_table(alphas, sigma, self.BETAS, cfg, DEFAULT_TOL)
        assert table.shape == (2, len(self.BETAS), m + 1)
        for i, alpha in enumerate(alphas):
            for j, beta in enumerate(self.BETAS):
                one = replace(cfg, displacement=beta)
                assert np.array_equal(table[i, j], outcome_distribution(alpha, sigma, one))
                assert np.array_equal(table[i, j], per_pair_distribution(alpha, sigma, one))

    @pytest.mark.parametrize("signal", [bpsk, ook])
    @pytest.mark.parametrize("sigma", [0.0, 0.6, 2.0])
    def test_grid_values_equal_public_functions(self, signal, sigma):
        params = signal(0.75, sigma)
        cfg = PnrConfig(resolution=3)
        errs = pnr._grid_values(params, cfg, "min-error", DEFAULT_TOL, self.BETAS)
        infos = pnr._grid_values(params, cfg, "max-information", DEFAULT_TOL, self.BETAS)
        for beta, err, info in zip(self.BETAS, errs, infos):
            one = replace(cfg, displacement=beta)
            assert err == map_error_probability(params, one)
            assert info == -map_mutual_information(params, one)

    def test_cached_rule_is_read_only(self):
        nodes, weights = pnr._gauss_hermite(64)
        assert pnr._gauss_hermite(64)[0] is nodes
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights[0] = 0.0

    def test_rule_built_once_per_order(self, monkeypatch):
        calls = []
        build = np.polynomial.hermite.hermgauss

        def counting(order):
            calls.append(order)
            return build(order)

        pnr._gauss_hermite.cache_clear()
        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", counting)
        try:
            for m in (1, 2, 3):
                for objective in ("min-error", "max-information"):
                    optimize_displacement(bpsk(0.75, 0.6), PnrConfig(resolution=m), objective)
        finally:
            pnr._gauss_hermite.cache_clear()
        assert calls == [64]

    def test_normalisation_checked_on_cache_hit(self):
        cfg = PnrConfig(resolution=2, displacement=0.5)
        _, weights = pnr._gauss_hermite(64)
        error = abs(float(weights.sum()) - 1.0)
        assert error > 0.0
        tight = Tolerances(quadrature_norm=error / 2)
        outcome_distribution(0.8, 0.6, cfg)
        for _ in range(2):
            hits = pnr._gauss_hermite.cache_info().hits
            with pytest.raises(QuadratureUnderflow):
                outcome_distribution(0.8, 0.6, cfg, tight)
            assert pnr._gauss_hermite.cache_info().hits == hits + 1

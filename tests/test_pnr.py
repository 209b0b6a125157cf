from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import map_scores, poisson_slopes, polished_minimum, quad_distribution
from phasecomm import (
    FockDim,
    PnrConfig,
    helstrom_bound,
    map_error_probability,
    map_mutual_information,
    optimize_displacement,
    outcome_distribution,
)
from phasecomm.discrimination import mutual_information_from_joint
from phasecomm.pnr import evaluate_displacement
from phasecomm import pnr
from phasecomm.signals import SignalParams, bpsk, build_ensemble, ook
from phasecomm.sweep import SweepConfig, run_sweep


def outcome_tables(alphas, sigma, betas, visibility, resolutions) -> list:
    """`pnr._outcome_stack` as one (A, B, m + 1) table per resolution, in order."""
    stack = pnr._outcome_stack(alphas, sigma, betas, visibility, resolutions)
    return [stack[:, i, :, :m + 1].swapaxes(0, 1) for i, m in enumerate(resolutions)]


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

    def test_vanishing_counts_stay_nonnegative(self):
        # at small sigma the phase weights oscillate in sign; unclipped, the
        # counts 0..3 at anti-nulling (mean 64) round to about -1e-17
        probs = outcome_distribution(4.0, 0.02, PnrConfig(resolution=4, displacement=-4.0))
        assert probs.min() >= 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            outcome_distribution(0.5, 0.0, PnrConfig(resolution=0))
        with pytest.raises(ValueError):
            outcome_distribution(0.5, 0.0, PnrConfig(resolution=2.5))
        with pytest.raises(ValueError):
            outcome_distribution(0.5, 0.0, PnrConfig(visibility=1.5))
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
        [[(_, best), _]] = optimize_displacement(params, base.visibility, [1])
        assert best <= map_error_probability(params, base) + 1e-12

    def test_information_objective(self):
        params = bpsk(0.5, 0.6)
        base = PnrConfig(resolution=1, displacement=params.alpha1)
        [[_, (beta, best)]] = optimize_displacement(params, base.visibility, [1])
        assert best >= map_mutual_information(params, base) - 1e-12
        assert best == map_mutual_information(params, replace(base, displacement=beta))

    def test_deterministic(self):
        params = bpsk(0.5, 0.9)
        a = optimize_displacement(params, 0.998, [2])
        b = optimize_displacement(params, 0.998, [2])
        assert a == b

    @pytest.mark.parametrize(
        "params, visibility, resolutions, path",
        [
            (bpsk(0.75, 0.6), 0.998, [1, 2, 3], "absolute beta"),
            (bpsk(1.5, 2.5, 0.3), 0.998, [2], None),
            (ook(1.5, 1.2, 0.3), 0.9, [3, 1, 3], None),
        ],
        ids=["bpsk", "bpsk-q0.3", "ook-q0.3"],
    )
    def test_every_reported_value_is_the_public_functions_at_its_beta(
        self, monkeypatch, params, visibility, resolutions, path
    ):
        starts, refined = [], []
        lock_step = pnr.drive

        def recording(searches, evaluate):
            def first_round(which, xs):
                values = evaluate(which, xs)
                if not starts:
                    starts.extend(value for value, _, _ in values)
                return values

            results = lock_step(searches, first_round)
            refined.extend(results)
            return results

        monkeypatch.setattr(pnr, "drive", recording)
        optimized = optimize_displacement(params, visibility, resolutions)
        # a refinement starts at its grid cell and takes only decreases
        assert len(starts) == len(refined) == 2 * len(set(resolutions))
        assert all(value <= start for start, (_, value, _) in zip(starts, refined))
        if path == "absolute beta":
            # a refinement ends at a negative beta, so the optimum is re-evaluated at |beta|
            assert any(beta < 0 for (beta,), _, _ in refined)
        null_first = evaluate_displacement(params, visibility, resolutions, params.alpha1)
        for answer in (optimized, null_first):
            assert len(answer) == len(resolutions)
            for m, [(beta_err, err), (beta_info, info)] in zip(resolutions, answer):
                assert all(type(x) is float for x in (beta_err, err, beta_info, info))
                assert err == map_error_probability(params, PnrConfig(m, visibility, beta_err))
                assert info == map_mutual_information(params, PnrConfig(m, visibility, beta_info))

    @pytest.mark.parametrize(
        "visibility, resolutions", [(0.998, [0]), (0.998, [2, 0]), (1.5, [1]), (0.998, [1, 2.5]), (0.998, [True])]
    )
    def test_invalid_settings(self, visibility, resolutions):
        with pytest.raises(ValueError):
            optimize_displacement(bpsk(0.5, 0.0), visibility, resolutions)
        with pytest.raises(ValueError):
            evaluate_displacement(bpsk(0.5, 0.0), visibility, resolutions, 0.3)

    @pytest.mark.parametrize(
        "params", [bpsk(0.75, 0.0), bpsk(0.5, 0.9, 0.3), ook(1.5, 2.0), ook(5.0, 0.3)],
        ids=["bpsk", "bpsk-q0.3", "ook", "ook-5"],
    )
    @pytest.mark.parametrize("visibility", [0.998, 0.9])
    @pytest.mark.parametrize("resolutions", [[1, 2, 3], [1, 3], [2, 3], [3, 1], [2, 5], [1, 2, 1]])
    def test_every_resolution_in_one_call_equals_each_alone(self, params, visibility, resolutions):
        # one grid table at max(m) and one kernel call per round serve every resolution
        together = optimize_displacement(params, visibility, resolutions)
        assert together == [optimize_displacement(params, visibility, [m])[0] for m in resolutions]

    @pytest.mark.parametrize("params", [bpsk(0.75, 0.6), ook(1.5, 2.0, 0.3)], ids=["bpsk", "ook-q0.3"])
    @pytest.mark.parametrize("beta", [0.0, 0.9, -1.3])
    def test_evaluate_displacement_equals_public_functions(self, params, beta):
        found = evaluate_displacement(params, 0.9, [1, 2, 3], beta)
        for m, pairs in zip([1, 2, 3], found):
            cfg = PnrConfig(m, 0.9, beta)
            assert pairs == [(beta, map_error_probability(params, cfg)), (beta, map_mutual_information(params, cfg))]

    @pytest.mark.parametrize("signal", [bpsk, ook])
    @pytest.mark.parametrize("visibility", [0.998, 0.9])
    def test_a_block_equals_blocks_of_one(self, signal, visibility):
        # the refinements of a block's points share their rounds
        sigmas = np.linspace(0.0, 3.0, 7)
        for mean_photons in (0.01, 0.1, 0.5, 1.5, 5.0):
            for q1 in (0.5, 0.3, 0.1):
                points = [signal(mean_photons, sigma, q1) for sigma in sigmas]
                alone = [optimize_displacement(p, visibility, [1, 2, 3]) for p in points]
                # repr tells every float apart, signed zeros included
                together = pnr.optimize_displacement_block(points, visibility, [1, 2, 3])
                assert repr(together) == repr(alone), (mean_photons, q1)

    def test_points_of_a_block_must_differ_in_sigma_only(self):
        for other in (bpsk(0.6, 1.0), bpsk(0.5, 1.0, 0.3), ook(0.5, 1.0)):
            with pytest.raises(ValueError, match="sigma only"):
                pnr.optimize_displacement_block([bpsk(0.5, 0.0), other], 0.998, [1])

    def test_bpsk_reports_the_optimum_at_nonnegative_beta(self):
        # with equal priors the BPSK value is even in beta: the report takes |beta|,
        # and the value is the public function's at the reported beta
        doc = {
            "signal": "BPSK",
            "mean_photons": 0.75,
            "sigma_grid": {"start": 0.0, "stop": 1.2, "steps": 25},
            "receivers": [{"type": "pnr", "resolution": m, "beta_mode": "optimized"} for m in (1, 2, 3)],
        }
        rows = run_sweep(SweepConfig.from_dict(doc))
        for row in rows:
            params = bpsk(0.75, row["sigma"])
            for m in (1, 2, 3):
                beta_err, beta_info = row[f"pnr_beta_err_m{m}"], row[f"pnr_beta_info_m{m}"]
                assert beta_err >= 0 and beta_info >= 0
                err_cfg = PnrConfig(resolution=m, displacement=beta_err)
                info_cfg = PnrConfig(resolution=m, displacement=beta_info)
                assert map_error_probability(params, err_cfg) == row[f"p_pnr_m{m}"]
                assert map_mutual_information(params, info_cfg) == row[f"i_pnr_m{m}"]


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
        [table] = outcome_tables(alphas, sigma, self.BETAS, cfg.visibility, [m])
        assert table.shape == (2, len(self.BETAS), m + 1)
        for i, alpha in enumerate(alphas):
            for j, beta in enumerate(self.BETAS):
                one = replace(cfg, displacement=beta)
                assert np.array_equal(table[i, j], outcome_distribution(alpha, sigma, one))
                assert np.max(np.abs(table[i, j] - quad_distribution(alpha, sigma, beta, cfg.visibility, m))) <= 1e-13

    @pytest.mark.parametrize("signal", [bpsk, ook])
    @pytest.mark.parametrize("mean_photons", [0.75, 5.0])
    @pytest.mark.parametrize("sigma", [0.0, 0.6])
    @pytest.mark.parametrize(
        "resolutions", [[1], [2], [1, 2, 3], [1, 3], [2, 3], [3, 2, 1], [2, 5], [1, 4, 6]], ids=str
    )
    def test_every_resolution_equals_its_one_resolution_call(
        self, monkeypatch, signal, mean_photons, sigma, resolutions
    ):
        # each m takes the first m of one set of per-entry phase averages, so
        # a resolution asked beside others gives its lone call's table
        params = signal(mean_photons, sigma)
        alphas = [params.alpha1, params.alpha2]
        span = 2.0 * max(abs(params.alpha1), abs(params.alpha2)) + 1.0
        betas = [f * span for f in np.linspace(-1.0, 1.0, 41)] + squares_round_apart(4)
        node_counts = set()
        rule = pnr._phase_rule

        def recording(sigma, n):
            node_counts.add(n)
            return rule(sigma, n)

        monkeypatch.setattr(pnr, "_phase_rule", recording)
        tables = outcome_tables(alphas, sigma, betas, 0.998, resolutions)
        assert len(node_counts) >= 2
        assert len(tables) == len(resolutions)
        for m, table in zip(resolutions, tables):
            [alone] = outcome_tables(alphas, sigma, betas, 0.998, [m])
            assert table.shape == (2, len(betas), m + 1)
            assert np.array_equal(table, alone)

    @pytest.mark.parametrize("signal", [bpsk, ook])
    @pytest.mark.parametrize("resolutions", [[1], [1, 2, 3], [2, 5]], ids=str)
    def test_a_width_per_displacement_equals_one_call_per_width(self, signal, resolutions):
        # one pmf per node count serves every width; each entry sums it over
        # its nodes against its own width's weights
        params = signal(1.5, 0.0)
        alphas = [params.alpha1, params.alpha2]
        sigmas = [0.0, 0.6, 2.0]
        widths = [sigmas[j % 3] for j in range(len(self.BETAS))]
        tables = outcome_tables(alphas, widths, self.BETAS, 0.998, resolutions)
        for sigma in sigmas:
            at = [j for j, width in enumerate(widths) if width == sigma]
            alone = outcome_tables(alphas, sigma, [self.BETAS[j] for j in at], 0.998, resolutions)
            for table, one in zip(tables, alone):
                assert table[:, at].tobytes() == one.tobytes()

    @pytest.mark.parametrize("signal", [bpsk, ook])
    @pytest.mark.parametrize("widths", [[0.6], [0.0, 0.6, 2.0]], ids=["1-width", "3-widths"])
    def test_one_node_count_equals_its_entries_among_several(self, monkeypatch, signal, widths):
        # the same entries alone, where one node count takes them all, and
        # beside larger displacements, which bring a second node count
        params = signal(0.75, 0.0)
        alphas = [params.alpha1, params.alpha2]
        near = np.linspace(0.1, 0.3, 3 * len(widths)).tolist()
        sigma = [width for width in widths for _ in range(3)]
        node_counts = set()
        rule = pnr._phase_rule

        def recording(sigma, n):
            node_counts.add(n)
            return rule(sigma, n)

        monkeypatch.setattr(pnr, "_phase_rule", recording)
        alone = outcome_tables(alphas, sigma, near, 0.998, [1, 2, 3])
        assert len(node_counts) == 1
        among = outcome_tables(alphas, sigma + [widths[0]] * 2, near + [-4.0, 4.0], 0.998, [1, 2, 3])
        assert len(node_counts) >= 2
        for one, many in zip(alone, among):
            assert one.tobytes() == many[:, :len(near)].tobytes()

    @pytest.mark.parametrize("count", [1, 9, 40])
    @pytest.mark.parametrize("resolutions", [[1, 3, 5], [5, 2]], ids=str)
    def test_a_mixed_call_equals_each_entry_alone(self, monkeypatch, count, resolutions):
        # several widths, node counts and resolutions in one call; each entry
        # is its own sum over its nodes, so none of the others can reach it
        alphas = [0.0, 0.7, -2.2]
        betas = [5.5] + np.random.default_rng(count).uniform(-5.5, 5.5, count - 1).tolist()
        widths = [(0.0, 0.6, 2.0, 3.0)[j % 4] for j in range(count)]
        node_counts = set()
        rule = pnr._phase_rule

        def recording(sigma, n):
            node_counts.add(n)
            return rule(sigma, n)

        monkeypatch.setattr(pnr, "_phase_rule", recording)
        tables = outcome_tables(alphas, widths, betas, 0.998, resolutions)
        assert len(node_counts) >= 2
        for m, table in zip(resolutions, tables):
            for i, alpha in enumerate(alphas):
                for j, (beta, width) in enumerate(zip(betas, widths)):
                    alone = outcome_distribution(alpha, width, PnrConfig(m, 0.998, beta))
                    assert table[i, j].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("signal", [bpsk, ook])
    @pytest.mark.parametrize("mean_photons", [0.01, 0.5, 2.0, 5.0])
    @pytest.mark.parametrize("widths", [[0.6], [0.0, 0.6, 2.0]], ids=["1-width", "3-widths"])
    def test_scores_equal_their_textbook_form_bit_for_bit(self, signal, mean_photons, widths):
        # a round's displacements ordered by point, six per point of its width
        params = signal(mean_photons, widths[0], 0.3)
        span = 2.0 * max(abs(params.alpha1), abs(params.alpha2)) + 1.0
        betas = np.linspace(-span, span, 6 * len(widths)).tolist()
        sigma = widths[0] if len(widths) == 1 else [width for width in widths for _ in range(6)]
        keys = [(m, objective) for m in (1, 2, 3) for objective in ("min-error", "max-information")]
        scores = pnr._scores(params, betas, 0.998, keys, None if len(widths) == 1 else sigma)
        for m in (1, 2, 3):
            [table] = outcome_tables([params.alpha1, params.alpha2], sigma, betas, 0.998, [m])
            expected = map_scores(table, (params.q1, params.q2), mutual_information_from_joint)
            for objective, values in expected.items():
                assert scores[m, objective].tobytes() == values.tobytes()

    @pytest.mark.parametrize("signal", [bpsk, ook])
    @pytest.mark.parametrize("sigma", [0.0, 0.6, 2.0])
    def test_grid_values_equal_public_functions(self, signal, sigma):
        params = signal(0.75, sigma)
        cfg = PnrConfig(resolution=3)
        scores = pnr._scores(params, self.BETAS, cfg.visibility, [(3, "min-error"), (3, "max-information")])
        for k, beta in enumerate(self.BETAS):
            one = replace(cfg, displacement=beta)
            assert scores[3, "min-error"][k] == map_error_probability(params, one)
            assert -scores[3, "max-information"][k] == map_mutual_information(params, one)


KEYS = [(m, objective) for m in (1, 2, 3) for objective in ("min-error", "max-information")]


def decisions(params, betas, visibility) -> np.ndarray:
    """(displacement, resolution, count) of whether the MAP rule decides x = 0."""
    stack = pnr._outcome_stack([params.alpha1, params.alpha2], params.sigma, betas, visibility, [1, 2, 3])
    joint = np.array([params.q1, params.q2])[:, None] * stack
    return joint[..., 0, :] >= joint[..., 1, :]


class TestNewtonRefinement:
    """The displacement refinement by Newton's method: the derivative tables of
    the Poisson identities against their textbook form, each round's gradient
    and Hessian against central differences of the value kernel, and what the
    searches find against scipy's bounded search."""

    @pytest.mark.parametrize("signal", [bpsk, ook])
    @pytest.mark.parametrize("sigma", [0.0, 0.6, 1.2, 2.5])
    @pytest.mark.parametrize("visibility", [0.998, 0.9])
    def test_identity_tables_equal_their_textbook_form(self, signal, sigma, visibility):
        params = signal(0.75, sigma, 0.3)
        alphas = [params.alpha1, params.alpha2]
        span = 2.0 * max(abs(params.alpha1), abs(params.alpha2)) + 1.0
        betas = np.linspace(-span, span, 13).tolist()
        stack = pnr._outcome_stack(alphas, sigma, betas, visibility, [1, 2, 3], slopes=True)
        assert stack.shape == (3, len(betas), 3, 2, 4)
        checked = 0
        for j, beta in enumerate(betas):
            for a, alpha in enumerate(alphas):
                if alpha == 0.0 and beta == 0.0:
                    continue  # a count mean of 0 at every node, where k / mu has no value
                for i, m in enumerate([1, 2, 3]):
                    for got, expected in zip(stack[:, j, i, a], poisson_slopes(alpha, sigma, beta, visibility, m)):
                        assert np.max(np.abs(got[:m + 1] - expected)) <= 1e-12 * np.max(np.abs(expected))
                        assert not got[m + 1:].any()
                    checked += 1
        assert checked >= 3 * (2 * len(betas) - 1)

    @pytest.mark.parametrize(
        "params", [bpsk(0.75, 0.6), bpsk(0.75, 2.0), ook(0.5, 1.2, 0.3), ook(1.5, 0.0), bpsk(5.0, 0.3, 0.1)],
        ids=["bpsk-0.75-0.6", "bpsk-0.75-2.0", "ook-0.5-1.2-q0.3", "ook-1.5-0.0", "bpsk-5.0-0.3-q0.1"],
    )
    def test_round_derivatives_match_central_differences(self, params):
        h = 1e-6
        span = 2.0 * max(abs(params.alpha1), abs(params.alpha2)) + 1.0
        betas = np.linspace(-span, span, 25)[1:-1] + 0.0137
        scores = pnr._scores(params, betas, 0.998, KEYS, slopes=True)
        values = pnr._scores(params, betas, 0.998, KEYS)
        up, down = (pnr._scores(params, betas + step, 0.998, KEYS, slopes=True) for step in (h, -h))
        # the error is smooth where no decision changes within the step, the
        # information where no entry is near 0 (p log p has no second derivative there)
        same = (decisions(params, betas + h, 0.998) == decisions(params, betas - h, 0.998)).all(axis=-1)
        stack = pnr._outcome_stack([params.alpha1, params.alpha2], params.sigma, betas, 0.998, [1, 2, 3])
        live = np.array([(stack[:, i, :, :m + 1] >= 1e-10).all(axis=(-2, -1)) for i, m in enumerate([1, 2, 3])]).T
        checked = 0
        for (m, objective), (value, first, second) in scores.items():
            # the value part is the value kernel's, bit for bit
            assert value.tobytes() == values[m, objective].tobytes()
            smooth = (same if objective == "min-error" else live)[:, m - 1]
            central = (up[m, objective][0] - down[m, objective][0]) / (2 * h)
            curve = (up[m, objective][1] - down[m, objective][1]) / (2 * h)
            assert np.all(np.abs(first - central)[smooth] <= 1e-7 * (1 + np.abs(central[smooth])))
            assert np.all(np.abs(second - curve)[smooth] <= 1e-6 * (1 + np.abs(curve[smooth])))
            checked += smooth.sum()
        assert checked >= 0.6 * len(betas) * len(KEYS)

    @pytest.mark.parametrize("signal, mean_photons", [(bpsk, 0.75), (ook, 0.5)], ids=["bpsk", "ook"])
    @pytest.mark.parametrize("q1", [0.5, 0.3])
    @pytest.mark.parametrize("sigma", [0.0, 1.2, 2.5])
    def test_no_worse_than_scipy_around_the_grid(self, signal, mean_photons, q1, sigma):
        # scipy's bounded search around the four best local minima of the
        # 81-point grid, on the public functions
        params = signal(mean_photons, sigma, q1)
        span = 2.0 * max(abs(params.alpha1), abs(params.alpha2)) + 1.0
        grid = np.linspace(-span, span, 81)
        for m, [(_, error), (_, information)] in zip([1, 2, 3], optimize_displacement(params, 0.998, [1, 2, 3])):
            for found, sign, public in ((error, 1.0, map_error_probability), (information, -1.0, map_mutual_information)):
                def fun(beta, public=public, sign=sign, m=m):
                    return sign * public(params, PnrConfig(m, 0.998, float(beta)))

                reference = polished_minimum(fun, grid, np.array([fun(beta) for beta in grid]))
                assert sign * found <= reference + 1e-13, (m, sign)

    @pytest.mark.parametrize(
        "points, bound",
        [([bpsk(0.75, sigma) for sigma in (0.0, 0.6, 1.2)], 7), ([ook(0.5, sigma) for sigma in (0.0, 0.6, 1.2)], 6)],
        ids=["bpsk-0.75", "ook-0.5"],
    )
    def test_refinement_rounds_of_a_block(self, monkeypatch, points, bound):
        # a 3-point block of the receivers-mixed benchmark; the bounded Brent
        # refinement took 11 and 23 rounds here, the Newton refinement 6 and 5
        rounds = []
        lock_step = pnr.drive

        def counted(searches, evaluate):
            def evaluate_counted(which, xs):
                rounds.append(len(which))
                return evaluate(which, xs)

            return lock_step(searches, evaluate_counted)

        monkeypatch.setattr(pnr, "drive", counted)
        pnr.optimize_displacement_block(points, 0.998, [1, 2, 3])
        assert rounds[0] == 6 * len(points) and len(rounds) <= bound


class TestExactPhaseAverage:
    """The Fourier-damped phase average against adaptive quadrature on the real line."""

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(
        signal=st.sampled_from([bpsk, ook]),
        mean_photons=st.floats(0.01, 10.0),
        q1=st.floats(0.05, 0.95),
        sigma=st.floats(0.0, 3.0),
        m=st.integers(1, 4),
        beta_fraction=st.floats(-1.0, 1.0),
    )
    def test_matches_adaptive_quadrature(self, signal, mean_photons, q1, sigma, m, beta_fraction):
        params = signal(mean_photons, sigma, q1)
        # the displacement optimizer's span
        beta = beta_fraction * (2.0 * max(abs(params.alpha1), abs(params.alpha2)) + 1.0)
        cfg = PnrConfig(resolution=m, displacement=beta)
        for alpha in (params.alpha1, params.alpha2):
            probs = outcome_distribution(alpha, sigma, cfg)
            assert probs.min() >= 0.0
            assert np.max(np.abs(probs - quad_distribution(alpha, sigma, beta, cfg.visibility, m))) <= 1e-12

    @pytest.mark.parametrize(
        "params, beta",
        [
            # where a 64-node Gauss-Hermite rule missed by up to 7.5e-3
            (bpsk(0.75, 2.0), bpsk(0.75, 2.0).alpha1),
            (bpsk(0.75, 2.0), bpsk(0.75, 2.0).alpha2),
            *[(bpsk(1.0, sigma), -1.21) for sigma in (1.2, 1.5, 2.0, 3.0)],
            # nulling the largest OOK amplitude of the documented range
            *[(ook(10.0, sigma, 0.95), ook(10.0, sigma, 0.95).alpha2) for sigma in (0.0, 0.05, 0.6, 3.0)],
        ],
    )
    def test_large_sigma_and_nulling_corner(self, params, beta):
        cfg = PnrConfig(resolution=3, displacement=beta)
        for alpha in (params.alpha1, params.alpha2):
            probs = outcome_distribution(alpha, params.sigma, cfg)
            assert np.max(np.abs(probs - quad_distribution(alpha, params.sigma, beta, cfg.visibility, 3))) <= 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_count_mean_does_not_cancel_near_nulling(self, m):
        # a^2 + b^2 - 2 v a b cos(phi) loses about 2 a^2 eps here and missed by 1.7e-14
        cfg = PnrConfig(resolution=m, visibility=1.0, displacement=11.33)
        probs = outcome_distribution(11.33, 0.01, cfg)
        assert np.max(np.abs(probs - quad_distribution(11.33, 0.01, 11.33, 1.0, m))) <= 1e-15

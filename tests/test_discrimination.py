from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    HELSTROM_40_DIGITS,
    cayley_inverse,
    dense_residual,
    holevo_chi,
    information,
    lifted_elements,
    povm_information,
    pure_state_error,
    skew_gradient,
)
from phasecomm import (
    AscentConfig,
    BinaryEnsemble,
    DimensionMismatch,
    FockDim,
    Povm,
    accessible_information,
    binary_entropy,
    discrimination,
    error_probability,
    helstrom_bound,
    helstrom_measurement,
    mutual_information,
)
from phasecomm.config import POVM_COMPLETENESS, PRIORS_SUM, PROB_GUARD, PSD_FLOOR
from phasecomm.discrimination import (
    _cayley,
    _cayley_objective,
    _check_lift,
    _information,
    _on_support,
    _polar,
    _residual,
    _rotate,
    _skew,
    mutual_information_from_joint,
)
from phasecomm.fock import default_cutoff
from phasecomm.signals import bpsk, build_ensemble, ook


DIM = FockDim(30)


def fock_projector_ensemble(priors=(0.5, 0.5), size=4):
    p0 = np.zeros((size, size), dtype=complex)
    p1 = np.zeros((size, size), dtype=complex)
    p0[0, 0] = 1.0
    p1[1, 1] = 1.0
    return BinaryEnsemble(priors=priors, states=(p0, p1))


def default_ensemble(params):
    return build_ensemble(params, FockDim(default_cutoff([params.alpha1, params.alpha2])))


class TestErrorProbability:
    def test_always_guess_first(self):
        ens = fock_projector_ensemble(priors=(0.3, 0.7))
        eye = np.eye(4, dtype=complex)
        povm = Povm((eye, np.zeros_like(eye)))
        assert error_probability(ens, povm) == pytest.approx(0.7, abs=1e-12)

    def test_orthogonal_states_zero_error(self):
        ens = fock_projector_ensemble()
        povm = Povm((ens.states[0], np.eye(4, dtype=complex) - ens.states[0]))
        assert error_probability(ens, povm) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        ens = fock_projector_ensemble(size=4)
        eye = np.eye(5, dtype=complex)
        with pytest.raises(DimensionMismatch):
            error_probability(ens, Povm((eye, np.zeros_like(eye))))

    @pytest.mark.parametrize("outcomes", [1, 3])
    def test_rejects_a_povm_without_two_outcomes(self, outcomes):
        ens = fock_projector_ensemble()
        eye = np.eye(4, dtype=complex)
        with pytest.raises(ValueError, match="2 elements"):
            error_probability(ens, Povm(tuple(eye / outcomes for _ in range(outcomes))))

    def test_never_beats_helstrom(self):
        ens = build_ensemble(bpsk(0.5, 0.4), DIM)
        bound = helstrom_bound(ens)
        rng = np.random.default_rng(7)
        for _ in range(5):
            z = rng.standard_normal((DIM.size, DIM.size))
            m1 = z @ z.T
            m1 = m1 / (np.linalg.eigvalsh(m1).max() + 1e-9)
            povm = Povm(
                (m1.astype(complex), np.eye(DIM.size, dtype=complex) - m1)
            )
            assert error_probability(ens, povm) >= bound - 1e-9


class TestHelstromBound:
    def test_noiseless_bpsk_golden(self):
        ens = build_ensemble(bpsk(0.5, 0.0), DIM)
        assert helstrom_bound(ens) == pytest.approx(pure_state_error(0.5, np.sqrt(0.5), -np.sqrt(0.5)), abs=1e-9)

    def test_identical_states(self):
        tau = build_ensemble(bpsk(0.5, 0.3), DIM).states[0]
        ens = BinaryEnsemble(priors=(0.25, 0.75), states=(tau, tau))
        assert helstrom_bound(ens) == pytest.approx(0.25, abs=1e-12)

    def test_certain_input(self):
        ens0 = build_ensemble(bpsk(0.5, 0.2), DIM)
        ens = BinaryEnsemble(priors=(1.0, 0.0), states=ens0.states)
        assert helstrom_bound(ens) == pytest.approx(0.0, abs=1e-12)

    def test_measurement_achieves_bound(self):
        ens = build_ensemble(bpsk(0.5, 0.5), DIM)
        bound, povm = helstrom_measurement(ens)
        assert error_probability(ens, povm) == pytest.approx(bound, abs=1e-11)

    @pytest.mark.parametrize("sigma", [0.6, 1.2])
    def test_measurement_drops_rounding_level_eigenvectors(self, sigma):
        # the positive eigenvalues of the weighted difference above
        # w_max d eps run from 0.38 (0.22) down to 3.6e-14 (2.9e-14), the
        # next one is below 1e-16; keeping every w > 0 gave rank 15
        ens = build_ensemble(bpsk(0.5, sigma), DIM)
        bound, povm = helstrom_measurement(ens)
        assert np.linalg.matrix_rank(povm.elements[0]) == 7
        assert error_probability(ens, povm) == pytest.approx(bound, abs=1e-12)

    @pytest.mark.parametrize("sigma", [0.05, 0.3, 0.6])
    def test_measurement_leaves_the_complement_of_the_support_alone(self, sigma):
        # eigenvectors of the full weighted difference at eigenvalues just
        # above the cutoff coupled the two by 5.4e-4, 0.50 and 1.2e-2
        ens = build_ensemble(bpsk(0.5, sigma), DIM)
        _, povm = helstrom_measurement(ens)
        support = _on_support(ens)[0]
        block = support.T @ povm.elements[0] @ (np.eye(ens.size) - support @ support.T)
        assert np.max(np.abs(block)) <= 1e-12

    def test_measurement_of_a_complex_ensemble(self):
        ens = build_ensemble(bpsk(0.5, 0.3), DIM)
        phase = np.diag(np.exp(0.7j * np.arange(ens.size)))
        twisted = BinaryEnsemble(ens.priors, tuple(phase @ tau @ phase.conj().T for tau in ens.states))
        bound, povm = helstrom_measurement(twisted)
        assert bound == pytest.approx(helstrom_bound(ens), abs=1e-12)
        assert error_probability(twisted, povm) == pytest.approx(bound, abs=1e-12)
        povm.validate()

    @pytest.mark.parametrize("q1", [0.5, 0.3, 0.1])
    @pytest.mark.parametrize("mean_photons", [5.0, 8.0, 10.0])
    @pytest.mark.parametrize("signal", [bpsk, ook])
    def test_pure_states_match_the_closed_form(self, signal, mean_photons, q1):
        # the error is 5e-10 (BPSK 5), 3e-15 (BPSK 8) and 1e-18 (BPSK 10);
        # 1/2 - 1/2 ||q1 tau1 - q2 tau2||_1 cancels to 2.6e-15 at BPSK 5 and
        # 3.7e-13 at BPSK 10. The worst miss is 5.7e-18 (BPSK 8, q1 0.1); the
        # same sum on the ensemble support with a threshold on the
        # eigenvalues' sign misses by 9.0e-17 (BPSK 8) and 2.6e-17 (BPSK 10)
        # at q1 0.5
        params = signal(mean_photons, 0.0, q1)
        closed = pure_state_error(q1, params.alpha1, params.alpha2)
        assert abs(helstrom_bound(default_ensemble(params)) - closed) <= 1e-6 * closed + 1e-17

    @pytest.mark.parametrize(
        ("key", "pinned"), HELSTROM_40_DIGITS.items(), ids=["-".join(map(str, k)) for k in HELSTROM_40_DIGITS]
    )
    def test_matches_40_digit_values(self, key, pinned):
        # within 2.2e-16 at every point; the same sum on the ensemble
        # support misses by 1.4e-14 at BPSK 0.5, sigma 0.4, and with the
        # full-space eigenvectors but a sign threshold by 2.5e-15 at BPSK 1.0
        signal, mean_photons, sigma = key
        params = {"bpsk": bpsk, "ook": ook}[signal](mean_photons, sigma)
        assert abs(helstrom_bound(build_ensemble(params, DIM)) - pinned) <= 5e-16

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("mean_photons", [5.0, 10.0])
    def test_ook_stays_below_the_on_off_error(self, mean_photons, sigma):
        # an on/off detector errs only on the vacuum component of tau2, at
        # q2 exp(-alpha2^2) for any sigma, so no bound may exceed that; a
        # cancelling trace norm lands up to 1.9e-13 above it at OOK 10
        params = ook(mean_photons, sigma, 0.3)
        on_off = params.q2 * np.exp(-params.alpha2**2)
        assert 0.0 <= helstrom_bound(default_ensemble(params)) <= on_off * (1 + 1e-12)

    @pytest.mark.parametrize("params", [bpsk(5.0, 0.0, 0.3), ook(10.0, 0.0, 0.5)], ids=["bpsk-5", "ook-10"])
    def test_small_bound_equals_the_measurement_error(self, params):
        # summed from the POVM's misses, not as 1 - hits, which cancels
        ens = default_ensemble(params)
        bound, povm = helstrom_measurement(ens)
        m1, m2 = povm.elements
        tau1, tau2 = ens.states
        error = params.q1 * np.real(np.trace(tau1 @ m2)) + params.q2 * np.real(np.trace(tau2 @ m1))
        assert error == pytest.approx(bound, rel=1e-6)

    def test_nondecreasing_in_sigma(self):
        vals = [
            helstrom_bound(build_ensemble(bpsk(0.5, s), DIM))
            for s in np.linspace(0.0, 1.2, 7)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestValidationThresholds:
    @staticmethod
    def povm(m1_diag, m2_diag):
        return Povm((np.diag(np.asarray(m1_diag, dtype=complex)), np.diag(np.asarray(m2_diag, dtype=complex))))

    def test_positivity_threshold(self):
        # elements sum to I; one eigenvalue dips below 0 by f
        def dipped(f):
            return self.povm([-f, 1.0], [1.0 + f, 0.0])

        dipped(0.5 * PSD_FLOOR).validate()
        with pytest.raises(ValueError, match="eigenvalue"):
            dipped(2 * PSD_FLOOR).validate()

    def test_completeness_threshold(self):
        self.povm([1.0, 0.0], [0.0, 1.0 + 0.5 * POVM_COMPLETENESS]).validate()
        with pytest.raises(ValueError, match="completeness"):
            self.povm([1.0, 0.0], [0.0, 1.0 + 2 * POVM_COMPLETENESS]).validate()

    def test_priors_sum_threshold(self):
        states = fock_projector_ensemble().states
        BinaryEnsemble((0.5, 0.5 + 0.5 * PRIORS_SUM), states).validate()
        with pytest.raises(ValueError, match="distribution"):
            BinaryEnsemble((0.5, 0.5 + 2 * PRIORS_SUM), states).validate()


class TestMutualInformation:
    def test_perfectly_correlated(self):
        ens = fock_projector_ensemble()
        povm = Povm((ens.states[0], np.eye(4, dtype=complex) - ens.states[0]))
        assert mutual_information(ens, povm) == pytest.approx(1.0, abs=1e-12)

    def test_uninformative_measurement(self):
        ens = fock_projector_ensemble(priors=(0.4, 0.6))
        eye = np.eye(4, dtype=complex)
        povm = Povm((0.5 * eye, 0.5 * eye))
        assert mutual_information(ens, povm) == pytest.approx(0.0, abs=1e-12)

    def test_binary_symmetric_channel_identity(self):
        ens = build_ensemble(bpsk(0.5, 0.0), DIM)
        bound, povm = helstrom_measurement(ens)
        expected = 1.0 - binary_entropy(bound)
        assert mutual_information(ens, povm) == pytest.approx(expected, abs=1e-9)


def random_tables(rng, count, outcomes):
    """Joint tables q_x Pr(y | x), shape (count, 2, outcomes), and their priors."""
    q = np.array([0.3, 0.7])
    cond = rng.dirichlet(np.ones(outcomes), size=(count, 2))
    return q[:, None] * cond, q


class TestInformationKernel:
    @pytest.mark.parametrize("outcomes", [2, 3, 4])
    def test_stack_equals_each_table_bit_for_bit(self, outcomes):
        joint, q = random_tables(np.random.default_rng(outcomes), 50, outcomes)
        stacked = mutual_information_from_joint(joint, q)
        assert stacked.shape == (50,)
        for table, value in zip(joint, stacked):
            assert value == mutual_information_from_joint(table, q)
        # a non-contiguous stack, as the PNR search builds it
        moved = np.moveaxis(np.ascontiguousarray(np.moveaxis(joint, 0, 1)), 1, 0)
        assert np.array_equal(mutual_information_from_joint(moved, q), stacked)

    @pytest.mark.parametrize("outcomes", [2, 3, 4])
    def test_matches_a_double_loop(self, outcomes):
        joint, q = random_tables(np.random.default_rng(10 + outcomes), 50, outcomes)
        for table in joint:
            expected = information(table, q, PROB_GUARD)
            assert abs(mutual_information_from_joint(table, q) - expected) <= 1e-15

    def test_entries_below_the_guard_contribute_nothing(self):
        guard = PROB_GUARD
        q = np.array([0.5, 0.5])
        table = np.array([[0.3, 0.2, 0.0], [0.1, 0.4, 0.0]])
        tiny = table.copy()
        tiny[0, 2] = 0.5 * guard
        tiny[1, 2] = -0.5 * guard
        assert mutual_information_from_joint(tiny, q) == mutual_information_from_joint(table, q)
        # an entry of the guard itself counts
        at_guard = table.copy()
        at_guard[0, 2] = guard
        assert mutual_information_from_joint(at_guard, q) != mutual_information_from_joint(table, q)


class TestBinaryEntropy:
    def test_edges(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_half(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-14)


class TestAccessibleInformation:
    def test_orthogonal_states_one_bit(self):
        ens = fock_projector_ensemble()
        rep = accessible_information(ens, AscentConfig(restarts=2, seed=1))
        assert rep.mutual_information == pytest.approx(1.0, abs=1e-9)
        assert rep.stationarity_residual <= 1e-6
        assert rep.converged

    def test_noiseless_bpsk_matches_entropy_oracle(self):
        ens = build_ensemble(bpsk(0.5, 0.0), DIM)
        rep = accessible_information(ens, AscentConfig(restarts=1))
        expected = 1.0 - binary_entropy(pure_state_error(0.5, np.sqrt(0.5), -np.sqrt(0.5)))
        assert rep.mutual_information == pytest.approx(expected, abs=1e-4)
        assert rep.stationarity_residual <= 1e-6

    def test_at_least_helstrom_information(self):
        ens = build_ensemble(bpsk(0.5, 0.5), DIM)
        _, hel = helstrom_measurement(ens)
        rep = accessible_information(ens, AscentConfig(restarts=2, seed=3))
        assert rep.mutual_information >= mutual_information(ens, hel) - 1e-6
        assert 0.0 <= rep.mutual_information <= 1.0

    def test_reports_all_restart_values(self):
        ens = build_ensemble(bpsk(0.5, 0.3), DIM)
        rep = accessible_information(ens, AscentConfig(restarts=3, seed=5))
        assert 1 <= len(rep.restart_values) <= 3
        assert rep.mutual_information == rep.restart_values[-1]
        # each run resumes where the last one stopped
        assert all(b >= a - 1e-12 for a, b in zip(rep.restart_values, rep.restart_values[1:]))
        assert rep.converged

    def test_povm_invariants_at_output(self):
        ens = build_ensemble(bpsk(0.5, 0.6), DIM)
        rep = accessible_information(ens, AscentConfig(restarts=1))
        Povm(lifted_elements(rep.phi, rep.support)).validate()

    def test_lift_check_rejects_every_measurement_whose_lift_fails_validation(self):
        ens = build_ensemble(bpsk(0.5, 0.6), DIM)
        rep = accessible_information(ens, AscentConfig(restarts=1))
        _check_lift(rep.phi, rep.support)
        rejected = 0
        for eps in (3e-11, 3e-10, 3e-9, 3e-8):
            for phi, support in ((rep.phi * (1 + eps), rep.support), (rep.phi, rep.support * (1 + eps))):
                try:
                    Povm(lifted_elements(phi, support)).validate()
                except ValueError:
                    rejected += 1
                    with pytest.raises(ValueError):
                        _check_lift(phi, support)
        assert rejected == 4

    def test_neighbour_of_higher_rank_or_other_dimension_gives_the_cold_start(self):
        cfg = AscentConfig(restarts=1, max_iter=100)
        ens = build_ensemble(bpsk(0.5, 0.0), DIM)  # rank 2
        cold = accessible_information(ens, cfg)
        for neighbour in (build_ensemble(bpsk(0.5, 0.3), DIM), build_ensemble(bpsk(0.5, 0.0), FockDim(45))):
            end = accessible_information(neighbour, cfg)
            warm = accessible_information(ens, cfg, (end.phi, end.support))
            assert warm.mutual_information.hex() == cold.mutual_information.hex()
            assert warm.iterations == cold.iterations
            np.testing.assert_array_equal(warm.phi, cold.phi)

    @pytest.mark.parametrize("sigma_prev", [0.0, 0.55], ids=["rank-2", "rank-14"])
    def test_warm_start_from_a_neighbour_converges_near_the_cold_value(self, sigma_prev):
        # the neighbour's rows mapped into this support (rank 14) come first,
        # the cold start fills the rest of the basis
        cfg = AscentConfig(restarts=4, max_iter=2500)
        ens = build_ensemble(bpsk(0.5, 0.6), DIM)
        end = accessible_information(build_ensemble(bpsk(0.5, sigma_prev), DIM), cfg)
        cold = accessible_information(ens, cfg)
        warm = accessible_information(ens, cfg, (end.phi, end.support))
        assert warm.converged
        assert warm.iterations < cold.iterations
        assert warm.mutual_information == pytest.approx(cold.mutual_information, abs=3e-6)

    def test_rejects_complex_states(self):
        ens = fock_projector_ensemble()
        phase = np.diag(np.exp(1j * np.arange(4)))
        plus = np.full((4, 4), 0.25, dtype=complex)
        twisted = BinaryEnsemble(priors=(0.5, 0.5), states=(ens.states[0], phase @ plus @ phase.conj().T))
        with pytest.raises(ValueError, match="real"):
            accessible_information(twisted)


class TestQuasiNewtonAscent:
    """Dense BFGS over the rotations Phi = C(A) Phi_ref, M_y = phi_y phi_y^T on the support."""

    def test_gradient_matches_central_difference(self):
        # Phi = C(A) Phi_ref over the upper triangle of the skew A, at A != 0
        ens = build_ensemble(bpsk(0.5, 0.6), DIM)
        support, taus, _, e = _on_support(ens)
        r = support.shape[1]
        q = np.asarray(ens.priors)
        rng = np.random.default_rng(11)
        ref = _polar(e.T + 0.05 * rng.standard_normal((r, r)))
        a = 0.3 * rng.standard_normal(r * (r - 1) // 2)
        _, grad = _cayley_objective(a, ref, q, taus)
        h = 1e-5
        numeric = np.array([
            (_cayley_objective(a + h * e, ref, q, taus)[0]
             - _cayley_objective(a - h * e, ref, q, taus)[0]) / (2 * h)
            for e in np.eye(a.size)
        ])
        assert np.linalg.norm(numeric - grad) <= 1e-6 * np.linalg.norm(grad)
        phi = _rotate(a, ref)
        assert np.max(np.abs(phi.T @ phi - np.eye(r))) <= 1e-13

    @pytest.mark.parametrize("r", [2, 3, 14, 31])
    def test_kernels_equal_their_textbook_forms_bit_for_bit(self, r):
        # B = inv(I - A) with A written by fancy indexing, and the gradient
        # -4 (E - E^T) on the upper triangle, on random states of rank r
        rng = np.random.default_rng(r)
        m = rng.standard_normal((2, r, r))
        taus = m @ m.transpose(0, 2, 1)
        taus /= np.trace(taus, axis1=1, axis2=2)[:, None, None]
        q = np.array([0.3, 0.7])
        ref = _polar(rng.standard_normal((r, r)))
        a = 0.3 * rng.standard_normal(r * (r - 1) // 2)
        b = cayley_inverse(a, r)
        assert np.array_equal(_cayley(a, r), b)
        b_ref = b @ ref
        info, g = _information(2.0 * b_ref - ref, q, taus)
        value, grad = _cayley_objective(a, ref, q, taus)
        assert value == -info
        assert np.array_equal(grad, skew_gradient(b.T @ (g @ b_ref.T)))

    def test_the_skew_cache_is_read_only_and_keeps_no_state_between_ascents(self):
        for part in _skew(14):
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 0
        cfg = AscentConfig(restarts=4, max_iter=2500)

        def report(params, rank):
            ens = build_ensemble(params, DIM)
            assert _on_support(ens)[0].shape[1] == rank
            rep = accessible_information(ens, cfg)
            return (
                rep.mutual_information.hex(),
                rep.iterations,
                rep.stationarity_residual.hex(),
                [value.hex() for value in rep.restart_values],
            )

        _skew.cache_clear()
        first = report(bpsk(0.5, 0.6), 14)
        report(ook(0.5, 0.6), 16)
        assert report(bpsk(0.5, 0.6), 14) == first

    def test_runs_resume_and_stop_at_the_first_converged_run(self):
        ens = build_ensemble(bpsk(0.5, 0.6), DIM)
        short = AscentConfig(max_iter=100, restarts=2)
        two = accessible_information(ens, short)
        assert not two.converged
        assert two.iterations == 200
        # a fresh start would repeat the first run's value
        assert two.restart_values[1] > two.restart_values[0]
        assert two.restart_values[0] == accessible_information(ens, replace(short, restarts=1)).mutual_information

        rep = accessible_information(ens, replace(short, restarts=50))
        runs = len(rep.restart_values)
        assert rep.converged and runs <= 50
        fewer = accessible_information(ens, replace(short, restarts=runs - 1))
        assert not fewer.converged
        assert fewer.restart_values == rep.restart_values[:-1]


class TestAscentOnSupport:
    """The ascent runs on the ensemble support and lifts its result back."""

    def test_cutoff_invariance(self):
        # converged values agree to the spread across seeds (1e-9 at
        # sigma 0.6, 2e-8 at 1.2)
        for sigma in (0.6, 1.2):
            reports = [
                accessible_information(build_ensemble(bpsk(0.5, sigma), FockDim(c)), AscentConfig())
                for c in (30, 45)
            ]
            assert all(rep.converged for rep in reports)
            assert reports[0].mutual_information == pytest.approx(reports[1].mutual_information, abs=1e-6)

    def test_lifted_povm_is_full_and_carries_the_residual(self):
        for params in (bpsk(0.5, 0.6), ook(0.5, 0.6)):
            ens = build_ensemble(params, DIM)
            rep = accessible_information(ens, AscentConfig(outcomes=4))
            povm = Povm(lifted_elements(rep.phi, rep.support))
            # r rank-one elements on the support, whatever `outcomes` says
            assert len(povm.elements) == _on_support(ens)[0].shape[1]
            assert all(m.shape == (DIM.size, DIM.size) for m in povm.elements)
            povm.validate()
            assert rep.stationarity_residual == pytest.approx(dense_residual(ens, povm, PROB_GUARD), abs=1e-12)
            assert rep.mutual_information == pytest.approx(mutual_information(ens, povm), abs=1e-13)

    @pytest.mark.parametrize("signal", [bpsk, ook])
    def test_residual_on_the_support_matches_the_dense_definition(self, signal):
        ens = build_ensemble(signal(0.5, 0.6), DIM)
        support, taus = _on_support(ens)[:2]
        r = support.shape[1]
        x = np.random.default_rng(7).standard_normal((2 * r, r))
        # X (X^T X)^{-1/2} = U W^T for the thin SVD X = U S W^T
        u, _, wt = np.linalg.svd(x, full_matrices=False)
        phi = (u @ wt) @ support.T
        rest = (np.eye(ens.size) - support @ support.T) / (2 * r)
        povm = Povm(tuple(np.outer(p, p) + rest for p in phi))
        res = _residual(u @ wt, np.asarray(ens.priors), taus, support)
        assert res > 1e-3
        assert res == pytest.approx(dense_residual(ens, povm, PROB_GUARD), abs=1e-12)


class TestProjectiveAscent:
    """The ascent runs over projective measurements, r outcomes on a support of rank r."""

    @pytest.mark.parametrize("seed", range(6))
    def test_ook_2_at_sigma_0_9_converges_at_every_seed(self, seed):
        # rank 28: 2r-outcome L-BFGS ended at residual 1.9e-6 and 2.5e-6 after
        # 10,000 iterations at seeds 1 and 5; the projective ascent converges
        # at every seed in 500-950 iterations
        ens = default_ensemble(ook(2.0, 0.9))
        assert _on_support(ens)[0].shape[1] == 28
        rep = accessible_information(ens, AscentConfig(restarts=4, max_iter=2500, seed=seed))
        assert len(lifted_elements(rep.phi, rep.support)) == 28
        assert rep.converged, rep.stationarity_residual

    @pytest.mark.parametrize("params", [bpsk(0.1, 0.9), ook(0.1, 0.9, 0.25)], ids=["bpsk-0.1-0.9", "ook-0.1-0.9-q0.25"])
    def test_no_2r_outcome_povm_found_beats_the_projective_value(self, monkeypatch, params):
        # K = r is an empirical restriction: the best 2r-outcome rank-one POVM
        # that an independent L-BFGS-B finds from a random start does not
        # exceed the projective value, at the default stop (where both stop
        # within 3e-6 of each other) or at a residual near 1e-9
        ens = default_ensemble(params)
        povm_value, povm_residual = povm_information(ens, PROB_GUARD)
        assert povm_residual <= discrimination.RESIDUAL_TOL
        rep = accessible_information(ens, AscentConfig(restarts=4, max_iter=2500))
        assert rep.converged
        assert povm_value == pytest.approx(rep.mutual_information, abs=3e-6)
        monkeypatch.setattr(discrimination, "RESIDUAL_TOL", 1e-9)
        tight = accessible_information(ens, AscentConfig(restarts=10, max_iter=5000))
        assert tight.stationarity_residual <= 1e-8
        assert povm_value <= tight.mutual_information + 1e-8

    @settings(derandomize=True, database=None, max_examples=8, deadline=None)
    @given(
        signal=st.sampled_from([bpsk, ook]),
        mean_photons=st.floats(0.01, 3.0),
        q1=st.floats(0.1, 0.9),
        sigma=st.floats(0.0, 3.0),
    )
    def test_converges_between_helstrom_information_and_holevo(self, signal, mean_photons, q1, sigma):
        ens = default_ensemble(signal(mean_photons, sigma, q1))
        rep = accessible_information(ens, AscentConfig(restarts=4, max_iter=2500))
        assert rep.converged, rep.stationarity_residual
        _, hel = helstrom_measurement(ens)
        assert mutual_information(ens, hel) - 1e-6 <= rep.mutual_information <= holevo_chi(ens) + 1e-12

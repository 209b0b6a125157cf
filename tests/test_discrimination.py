import numpy as np
import pytest

from phasecomm import (
    AscentConfig,
    BinaryEnsemble,
    BinaryPovm,
    DimensionMismatch,
    FockDim,
    accessible_information,
    binary_entropy,
    error_probability,
    helstrom_bound,
    helstrom_measurement,
    mutual_information,
)
from phasecomm.config import DEFAULT_TOL
from phasecomm.discrimination import _ascend, _invariant_basis, _residual, _support_basis
from phasecomm.signals import bpsk, build_ensemble


DIM = FockDim(30)


def fock_projector_ensemble(priors=(0.5, 0.5), size=4):
    p0 = np.zeros((size, size), dtype=complex)
    p1 = np.zeros((size, size), dtype=complex)
    p0[0, 0] = 1.0
    p1[1, 1] = 1.0
    return BinaryEnsemble(priors=priors, states=(p0, p1))


def bpsk_pure_error(mean_photons: float) -> float:
    """Analytic noiseless minimum error for equiprobable antipodal signals."""
    return 0.5 * (1.0 - np.sqrt(1.0 - np.exp(-4.0 * mean_photons)))


class TestErrorProbability:
    def test_always_guess_first(self):
        ens = fock_projector_ensemble(priors=(0.3, 0.7))
        eye = np.eye(4, dtype=complex)
        povm = BinaryPovm((eye, np.zeros_like(eye)))
        assert error_probability(ens, povm) == pytest.approx(0.7, abs=1e-12)

    def test_orthogonal_states_zero_error(self):
        ens = fock_projector_ensemble()
        povm = BinaryPovm((ens.states[0], np.eye(4, dtype=complex) - ens.states[0]))
        assert error_probability(ens, povm) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        ens = fock_projector_ensemble(size=4)
        eye = np.eye(5, dtype=complex)
        with pytest.raises(DimensionMismatch):
            error_probability(ens, BinaryPovm((eye, np.zeros_like(eye))))

    def test_never_beats_helstrom(self):
        ens = build_ensemble(bpsk(0.5, 0.4), DIM)
        bound = helstrom_bound(ens)
        rng = np.random.default_rng(7)
        for _ in range(5):
            z = rng.standard_normal((DIM.size, DIM.size))
            m1 = z @ z.T
            m1 = m1 / (np.linalg.eigvalsh(m1).max() + 1e-9)
            povm = BinaryPovm(
                (m1.astype(complex), np.eye(DIM.size, dtype=complex) - m1)
            )
            assert error_probability(ens, povm) >= bound - 1e-9


class TestHelstromBound:
    def test_noiseless_bpsk_golden(self):
        ens = build_ensemble(bpsk(0.5, 0.0), DIM)
        assert helstrom_bound(ens) == pytest.approx(bpsk_pure_error(0.5), abs=1e-9)

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

    def test_nondecreasing_in_sigma(self):
        vals = [
            helstrom_bound(build_ensemble(bpsk(0.5, s), DIM))
            for s in np.linspace(0.0, 1.2, 7)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestMutualInformation:
    def test_perfectly_correlated(self):
        ens = fock_projector_ensemble()
        povm = BinaryPovm((ens.states[0], np.eye(4, dtype=complex) - ens.states[0]))
        assert mutual_information(ens, povm) == pytest.approx(1.0, abs=1e-12)

    def test_uninformative_measurement(self):
        ens = fock_projector_ensemble(priors=(0.4, 0.6))
        eye = np.eye(4, dtype=complex)
        povm = BinaryPovm((0.5 * eye, 0.5 * eye))
        assert mutual_information(ens, povm) == pytest.approx(0.0, abs=1e-12)

    def test_binary_symmetric_channel_identity(self):
        ens = build_ensemble(bpsk(0.5, 0.0), DIM)
        bound, povm = helstrom_measurement(ens)
        expected = 1.0 - binary_entropy(bound)
        assert mutual_information(ens, povm) == pytest.approx(expected, abs=1e-9)


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
        expected = 1.0 - binary_entropy(bpsk_pure_error(0.5))
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
        assert len(rep.restart_values) == 3
        assert max(rep.restart_values) == pytest.approx(rep.mutual_information)

    def test_povm_invariants_at_output(self):
        ens = build_ensemble(bpsk(0.5, 0.6), DIM)
        rep = accessible_information(ens, AscentConfig(restarts=1))
        rep.povm.validate()


class TestAscentOnSupport:
    """The ascent runs on a subspace that holds the support and lifts its result back."""

    SHORT = AscentConfig(restarts=1, outcomes=4, max_iter=200)
    # BPSK 0.5 with the SHORT budget: (sigma, value, residual) measured with
    # the full-space ascent at commit eea53343e0084db5ac6be73c2bca94c9f46adaa1
    PARENT_PINS = [
        (0.05, 0.7786353430031616, 2.3560298435809646e-07),
        (0.6, 0.5309965344493945, 1.9174902445975695e-07),
    ]

    def test_cutoff_invariance(self):
        values = [
            accessible_information(build_ensemble(bpsk(0.5, 0.6), FockDim(c)), self.SHORT).mutual_information
            for c in (30, 45)
        ]
        assert values[0] == pytest.approx(values[1], abs=1e-12)

    def test_lifted_povm_is_full_and_carries_the_residual(self):
        ens = build_ensemble(bpsk(0.5, 0.6), DIM)
        rep = accessible_information(ens, self.SHORT)
        assert len(rep.povm.elements) == 4
        assert all(m.shape == (DIM.size, DIM.size) for m in rep.povm.elements)
        rep.povm.validate()
        assert rep.stationarity_residual == _residual(ens, rep.povm, DEFAULT_TOL.prob_guard)

    @pytest.mark.parametrize("sigma, value, residual", PARENT_PINS)
    def test_matches_full_space_ascent(self, sigma, value, residual):
        rep = accessible_information(build_ensemble(bpsk(0.5, sigma), DIM), self.SHORT)
        assert rep.mutual_information == pytest.approx(value, abs=1e-12)
        assert rep.stationarity_residual == pytest.approx(residual, abs=1e-14)
        assert rep.iterations == 200

    def test_start_coupling_support_to_complement_follows_full_space(self):
        # A start that carries the support into its complement: the softened
        # Helstrom projector with the dominant support direction turned by
        # 0.4 rad towards the complement. Dropping the coupling block moves
        # this run by about 3e-9 bits and 3e-2 in residual.
        ens = build_ensemble(bpsk(0.5, 0.6), DIM)
        support = _support_basis(ens, DEFAULT_TOL)
        d = ens.size
        v = support[:, -1]
        u = np.eye(d)[:, -1] - support @ support[-1].conj()
        u /= np.linalg.norm(u)
        c, s = np.cos(0.4), np.sin(0.4)
        rot = np.eye(d) + (c - 1) * (np.outer(v, v) + np.outer(u, u)) + s * (np.outer(u, v) - np.outer(v, u))
        w, vecs = np.linalg.eigh(0.5 * ens.states[0] - 0.5 * ens.states[1])
        pos = vecs[:, w > 1e-8]
        m1 = rot @ (0.7 * pos @ pos.T + 0.15 * np.eye(d)) @ rot.T
        start = np.array([m1, np.eye(d) - m1])
        outside = np.eye(d) - support @ support.conj().T
        assert np.max(np.abs(support.conj().T @ start @ outside)) > 0.1
        assert _invariant_basis(support, start).shape[1] < d

        cfg = AscentConfig(outcomes=2, max_iter=10)
        povm, info, _, residual = _ascend(ens, support, start, cfg, DEFAULT_TOL)
        full_povm, full_info, _, full_residual = _ascend(ens, np.eye(d), start, cfg, DEFAULT_TOL)
        assert info == pytest.approx(full_info, abs=1e-12)
        assert residual == pytest.approx(full_residual, abs=1e-12)
        assert np.max(np.abs(np.array(povm.elements) - np.array(full_povm.elements))) < 1e-12

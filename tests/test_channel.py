import numpy as np
import pytest

from phasecomm import (
    BinaryEnsemble,
    FockDim,
    coherent_ket,
    dephase,
    phase_diffused_coherent,
)
from phasecomm.channel import dephasing_kernel
from phasecomm.signals import SignalParams, bpsk, build_ensemble, ook


DIM = FockDim(30)


def random_density(size, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


class TestPhaseDiffusedCoherent:
    def test_sigma_zero_is_projector(self):
        c = coherent_ket(0.8, DIM)
        np.testing.assert_allclose(
            phase_diffused_coherent(0.8, 0.0, DIM), np.outer(c, c.conj()), atol=1e-15
        )

    def test_vacuum_invariant(self):
        tau = phase_diffused_coherent(0.0, 0.7, DIM)
        expected = np.zeros((DIM.size, DIM.size), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(tau, expected)

    def test_element_01_closed_form(self):
        tau = phase_diffused_coherent(1.0, 1.0, DIM)
        assert tau[0, 1] == pytest.approx(np.exp(-1.0) * np.exp(-0.5), abs=1e-15)

    def test_trace_and_positivity(self):
        tau = phase_diffused_coherent(1.2, 0.6, FockDim(40))
        assert np.trace(tau).real == pytest.approx(1.0, abs=1e-11)
        assert np.linalg.eigvalsh(tau).min() >= -1e-10

    @pytest.mark.parametrize(
        "params", [bpsk(0.5, 0.0), bpsk(0.75, 2.0), ook(1.5, 0.6, 0.3)], ids=["bpsk-0.5-0", "bpsk-0.75-2", "ook-1.5-0.6"]
    )
    def test_ensemble_states_are_real(self, params):
        for tau in build_ensemble(params, DIM).states:
            assert tau.dtype == np.float64

    def test_purity_decreases_with_sigma(self):
        purities = [
            np.trace(
                phase_diffused_coherent(0.9, s, DIM)
                @ phase_diffused_coherent(0.9, s, DIM)
            ).real
            for s in (0.0, 0.3, 0.6, 0.9)
        ]
        assert purities[0] == pytest.approx(1.0, abs=1e-11)
        assert all(b < a for a, b in zip(purities, purities[1:]))


class TestDephase:
    def test_diagonal_invariant(self):
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        np.testing.assert_array_equal(dephase(rho, 1.3), rho)

    def test_matches_closed_form(self):
        c = coherent_ket(1.1, DIM)
        np.testing.assert_allclose(
            dephase(np.outer(c, c.conj()), 0.45),
            phase_diffused_coherent(1.1, 0.45, DIM),
            atol=1e-15,
        )

    def test_large_sigma_kills_off_diagonals(self):
        rho = dephase(random_density(8, 3), 10.0)
        off = rho - np.diag(np.diag(rho))
        assert np.max(np.abs(off)) < 1e-20

    def test_semigroup(self):
        rho = random_density(12, 4)
        s1, s2 = 0.4, 0.7
        lhs = dephase(dephase(rho, s1), s2)
        rhs = dephase(rho, np.sqrt(s1**2 + s2**2))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_trace_and_positivity_preserved(self):
        rho = random_density(10, 5)
        out = dephase(rho, 0.8)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(out).min() >= -1e-10

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            dephasing_kernel(-0.1, 5)


def mean_photon_number(ens) -> float:
    """Prior-weighted Tr{tau n} over the two hypotheses."""
    n = np.arange(ens.size)
    return sum(q * float(np.real(np.sum(n * np.diagonal(tau)))) for q, tau in zip(ens.priors, ens.states))


class TestMeanPhotonNumber:
    def test_bpsk_half(self):
        ens = build_ensemble(bpsk(0.5, 0.4), DIM)
        assert mean_photon_number(ens) == pytest.approx(0.5, abs=1e-11)

    def test_ook(self):
        ens = build_ensemble(ook(0.5, 0.0), DIM)
        assert mean_photon_number(ens) == pytest.approx(0.5, abs=1e-11)

    def test_vacuum(self):
        vac = np.zeros((4, 4), dtype=complex)
        vac[0, 0] = 1.0
        ens = BinaryEnsemble(priors=(0.5, 0.5), states=(vac, vac))
        assert mean_photon_number(ens) == 0.0


class TestSignalParams:
    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.3])
    def test_sigma_must_be_finite_and_nonnegative(self, sigma):
        for make in (lambda: bpsk(0.5, sigma), lambda: ook(0.5, sigma), lambda: SignalParams(0.5, 1.0, -1.0, sigma)):
            with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
                make()

    @pytest.mark.parametrize("mean_photons", [-1.0, float("nan"), float("inf")])
    def test_mean_photons_must_be_finite_and_nonnegative(self, mean_photons):
        # a NaN amplitude once ran the atomic search's photon-number series forever
        for signal in (bpsk, ook):
            with pytest.raises(ValueError, match="amplitudes must be finite and q1 in"), np.errstate(invalid="ignore"):
                signal(mean_photons, 0.5)

    @pytest.mark.parametrize("q1", [-0.1, 1.5, float("nan")])
    def test_q1_must_be_a_probability(self, q1):
        with pytest.raises(ValueError, match="amplitudes must be finite and q1 in"):
            SignalParams(q1, 1.0, -1.0, 0.5)

import numpy as np
import pytest

from oracles import coherent_ket_loop
from phasecomm import (
    ConvergenceFailure,
    FockDim,
    TailTooHeavy,
    coherent_ket,
    default_cutoff,
    hermitian_eig,
    matrix_function_sqrt_inv,
)
from phasecomm.config import HERMITICITY
from phasecomm.fock import check_hermitian, poisson_tail


def random_hermitian(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (z + z.conj().T)


class TestCoherentKet:
    def test_vacuum(self):
        ket = coherent_ket(0.0, FockDim(10))
        expected = np.zeros(11, dtype=complex)
        expected[0] = 1.0
        np.testing.assert_array_equal(ket, expected)

    def test_unit_amplitude_ground_component(self):
        ket = coherent_ket(1.0, FockDim(30))
        assert ket[0] == pytest.approx(np.exp(-0.5))

    def test_normalization(self):
        ket = coherent_ket(np.sqrt(0.5), FockDim(30))
        assert np.vdot(ket, ket).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mean_photons", [0.0, 0.01, 0.5, 0.75, 1.5, 3.3, 10.0, 20.0])
    def test_matches_the_array_loop_bit_for_bit(self, mean_photons):
        for alpha in (np.sqrt(mean_photons), -np.sqrt(mean_photons), np.sqrt(mean_photons / 0.7)):
            first = default_cutoff([alpha])
            for cutoff in range(first, first + 12):
                ket = coherent_ket(alpha, FockDim(cutoff))
                assert ket.dtype == np.float64
                assert ket.tobytes() == coherent_ket_loop(alpha, cutoff + 1).tobytes()

    def test_tail_too_heavy(self):
        with pytest.raises(TailTooHeavy):
            coherent_ket(3.0, FockDim(5))

    def test_norm_monotone_in_cutoff(self):
        norms = [
            np.linalg.norm(coherent_ket(1.2, FockDim(n)))
            for n in range(25, 40)
        ]
        assert all(b >= a for a, b in zip(norms, norms[1:]))
        assert norms[-1] <= 1 + 1e-12

    def test_default_cutoff_floor(self):
        assert default_cutoff([0.5]) == 30
        big = default_cutoff([2.5])
        assert big >= 30
        assert poisson_tail(2.5, big) < 1e-12
        assert poisson_tail(2.5, big - 1) >= 1e-12


class TestHermitianEig:
    def test_diagonal(self):
        w, _ = hermitian_eig(np.diag([3.0, -1.0]).astype(complex))
        np.testing.assert_allclose(w, [-1.0, 3.0])

    def test_pauli_x(self):
        w, _ = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        np.testing.assert_allclose(w, [-1.0, 1.0])

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        a = random_hermitian(10, rng)
        w, v = hermitian_eig(a)
        recon = v @ np.diag(w.astype(complex)) @ v.conj().T
        assert np.max(np.abs(a - recon)) <= 1e-9 * np.max(np.abs(a))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_hermiticity_threshold(self):
        def skewed(dev):
            # A - A^dagger has max-norm exactly dev
            return np.array([[1.0, dev], [0.0, 2.0]], dtype=complex)

        check_hermitian(skewed(0.5 * HERMITICITY))
        check_hermitian(np.stack([skewed(0.0), skewed(0.5 * HERMITICITY)]))
        with pytest.raises(ValueError, match="hermiticity"):
            check_hermitian(skewed(2 * HERMITICITY))
        with pytest.raises(ValueError, match="hermiticity"):
            check_hermitian(np.stack([skewed(0.0), skewed(2 * HERMITICITY)]))


class TestSqrtInv:
    def test_identity(self):
        np.testing.assert_allclose(
            matrix_function_sqrt_inv(np.eye(4, dtype=complex)), np.eye(4), atol=1e-12
        )

    def test_diagonal(self):
        out = matrix_function_sqrt_inv(np.diag([4.0, 1.0]).astype(complex))
        np.testing.assert_allclose(out, np.diag([0.5, 1.0]), atol=1e-12)

    def test_pseudo_inverse_branch(self):
        out = matrix_function_sqrt_inv(np.diag([4.0, 0.0]).astype(complex))
        np.testing.assert_allclose(out, np.diag([0.5, 0.0]), atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_projector_identity(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((9, 5)) + 1j * rng.standard_normal((9, 5))
        s = z @ z.conj().T  # PSD, rank 5
        s = 0.5 * (s + s.conj().T)
        si = matrix_function_sqrt_inv(s)
        proj = si @ s @ si
        # projector onto range(S)
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-8)
        np.testing.assert_allclose(proj @ s, s, atol=1e-8)

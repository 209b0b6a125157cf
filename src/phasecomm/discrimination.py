"""Figures of merit for binary state discrimination.

Error probability of a given POVM, the Helstrom bound and its
measurement, Shannon mutual information, and accessible information.
The Helstrom measurement and the accessible information read one
decomposition of the ensemble on its support (`_on_support`). The
accessible information is maximised by BFGS (`_minimize.bfgs`) over
real projective measurements M_y = phi_y phi_y^T on that support, so
the ensemble must be real symmetric (see `accessible_information`).
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from ._minimize import bfgs
from .config import HERMITICITY, POVM_COMPLETENESS, PRIORS_SUM, PROB_GUARD, PSD_FLOOR
from .errors import DimensionMismatch
from .fock import check_hermitian, hermitian_eig

__all__ = [
    "BinaryEnsemble",
    "BinaryPovm",
    "Povm",
    "AscentConfig",
    "AscentReport",
    "error_probability",
    "helstrom_bound",
    "helstrom_measurement",
    "joint_distribution",
    "mutual_information",
    "mutual_information_from_joint",
    "accessible_information",
    "binary_entropy",
]


@dataclass(frozen=True)
class BinaryEnsemble:
    """Two density operators with prior probabilities on a shared space."""

    priors: tuple
    states: tuple

    def validate(self) -> None:
        q1, q2 = self.priors
        if q1 < 0 or q2 < 0 or abs(q1 + q2 - 1.0) > PRIORS_SUM:
            raise ValueError(f"priors ({q1}, {q2}) are not a distribution")
        if self.states[0].shape != self.states[1].shape:
            raise DimensionMismatch("ensemble states live on different spaces")

    @property
    def size(self) -> int:
        return self.states[0].shape[0]


@dataclass(frozen=True)
class Povm:
    """Positive operators summing to identity; any number of outcomes."""

    elements: tuple

    def validate(self) -> None:
        ms = np.asarray(self.elements)
        check_hermitian(ms)
        w_min = np.linalg.eigvalsh(ms).min()
        if w_min < -PSD_FLOOR:
            raise ValueError(f"POVM element has eigenvalue {w_min:.3e}")
        dev = np.max(np.abs(ms.sum(axis=0) - np.eye(ms.shape[1])))
        if dev > POVM_COMPLETENESS:
            raise ValueError(f"POVM completeness violated by {dev:.3e}")

    @property
    def size(self) -> int:
        return self.elements[0].shape[0]


class BinaryPovm(Povm):
    """Two-outcome POVM; the measurement class of the binary protocol."""

    def validate(self) -> None:
        if len(self.elements) != 2:
            raise ValueError(f"binary POVM needs 2 elements, got {len(self.elements)}")
        super().validate()


def _check_dims(ens: BinaryEnsemble, povm: BinaryPovm) -> None:
    if ens.size != povm.size:
        raise DimensionMismatch(
            f"ensemble dim {ens.size} vs POVM dim {povm.size}"
        )


def error_probability(ens: BinaryEnsemble, povm: BinaryPovm) -> float:
    """1 - sum_x q_x Tr{tau_x M_x} for the given measurement."""
    _check_dims(ens, povm)
    hit = sum(
        q * float(np.real(np.trace(tau @ m)))
        for q, tau, m in zip(ens.priors, ens.states, povm.elements)
    )
    return 1.0 - hit


def _on_support(ens: BinaryEnsemble):
    """The ensemble on its support: V, V^dagger tau_x V, and the eigenpairs there.

    V has orthonormal columns spanning the support of q1 tau1 + q2 tau2,
    whose eigenvalues count as nonzero above numpy's matrix_rank cutoff,
    w_max * d * eps. The eigenvalues (ascending) and eigenvectors are
    those of q1 tau1 - q2 tau2 on the support. Everything is real when
    the states are, to HERMITICITY.
    """
    ens.validate()
    q = np.asarray(ens.priors, dtype=float)
    states = np.asarray(ens.states)
    if np.max(np.abs(np.imag(states))) <= HERMITICITY:
        states = np.real(states)
    w, v = hermitian_eig(q[0] * states[0] + q[1] * states[1])
    support = v[:, w > w.max() * ens.size * np.finfo(float).eps]
    taus = support.conj().T @ states @ support
    w, e = hermitian_eig(q[0] * taus[0] - q[1] * taus[1])
    return support, taus, w, e


def helstrom_bound(ens: BinaryEnsemble) -> float:
    """Minimum error over all measurements, 1/2 - 1/2 ||q1 tau1 - q2 tau2||_1.

    Over the eigenvectors e_j of q1 tau1 - q2 tau2 in the Fock basis, with
    a_j = e_j^dagger tau1 e_j and b_j = e_j^dagger tau2 e_j floored at 0,
    q1 a_j - q2 b_j is the eigenvalue, so sum_j min(q1 a_j, q2 b_j) is
    q1 Tr(tau1 P-) + q2 Tr(tau2 P+) with no sign threshold, a sum of
    nonnegative terms that does not cancel when the bound is small.
    """
    ens.validate()
    q1, q2 = ens.priors
    states = np.asarray(ens.states)
    _, e = hermitian_eig(q1 * states[0] - q2 * states[1])
    hits = np.maximum(np.real(np.sum(e.conj() * (states @ e), axis=1)), 0.0)
    return float(np.minimum(q1 * hits[0], q2 * hits[1]).sum())


def helstrom_measurement(ens: BinaryEnsemble):
    """The Helstrom bound and the projective POVM achieving it.

    Outcome 1 projects onto the positive eigenspace of the weighted
    difference restricted to the support V of the ensemble (eigenvalues
    above |w|_max d eps), M1 = V Q+ Q+^dagger V^dagger, so M1 does not
    couple the support to its complement.
    """
    support, _, w, e = _on_support(ens)
    pos = support @ e[:, w > np.abs(w).max() * ens.size * np.finfo(float).eps]
    m1 = pos @ pos.conj().T
    m1 = 0.5 * (m1 + m1.conj().T)
    return helstrom_bound(ens), BinaryPovm((m1, np.eye(ens.size) - m1))


def joint_distribution(ens: BinaryEnsemble, povm: Povm) -> np.ndarray:
    """Table Pr(x, y) = q_x Tr{tau_x M_y}, one row per hypothesis."""
    _check_dims(ens, povm)
    return _joint(np.asarray(ens.priors, dtype=float), np.asarray(ens.states), np.asarray(povm.elements))


def _joint(q: np.ndarray, taus: np.ndarray, ms: np.ndarray) -> np.ndarray:
    return q[:, None] * np.real(np.einsum("xij,yji->xy", taus, ms))


def mutual_information_from_joint(joint: np.ndarray, priors):
    """Shannon mutual information in bits of a table Pr(x, y) or a stack (..., x, y).

    Entries below PROB_GUARD count as 0, with 0 log 0 := 0.
    """
    joint = np.asarray(joint, dtype=float)
    return (joint * _log_ratio(np.asarray(priors, dtype=float), joint)).sum(axis=(-2, -1))


def mutual_information(ens: BinaryEnsemble, povm: BinaryPovm) -> float:
    return float(mutual_information_from_joint(joint_distribution(ens, povm), ens.priors))


def binary_entropy(p: float) -> float:
    """h2(p) in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


@dataclass(frozen=True)
class AscentConfig:
    """Knobs for the quasi-Newton accessible-information ascent.

    The measurement is projective, with r elements on the support of
    rank r, so `outcomes` is accepted and ignored. `lam_max` and
    `polish_max` tuned the steepest-ascent iteration this ascent replaced;
    they are accepted and ignored too.
    """

    max_iter: int = 50_000  # iterations per run
    restarts: int = 5  # most runs; each resumes where the last one stopped
    seed: int = 0  # seeds the perturbation of the cold start
    outcomes: int = 2  # ignored
    lam_max: float = 0.5  # ignored
    polish_max: int = 5000  # ignored


@dataclass
class AscentReport:
    """The end measurement M_y = phi_y phi_y^T, phi_y the rows of `phi`, on the support V."""

    phi: np.ndarray
    support: np.ndarray
    mutual_information: float
    iterations: int
    stationarity_residual: float
    converged: bool
    restart_values: list = field(default_factory=list)


# stationarity residual at which a run stops and the ascent converges
RESIDUAL_TOL = 1e-6
# iterations between two residual checks of a run
_CHECK_EVERY = 50
# scale of the Gaussian perturbation of the first start
_START_NOISE = 0.05


def _log_ratio(q: np.ndarray, joint: np.ndarray) -> np.ndarray:
    """log2 p(x, y) / (q_x p(y)) of a table or a stack (..., x, y), zero where
    an entry is below PROB_GUARD."""
    py = joint.sum(axis=-2, keepdims=True)
    live = (joint >= PROB_GUARD) & (py >= PROB_GUARD)
    return np.log2(np.where(live, joint, 1.0) / np.where(live, q[:, None] * py, 1.0))


def _polar(x: np.ndarray) -> np.ndarray:
    """X (X^T X)^{-1/2}, the nearest matrix to X with orthonormal columns."""
    s, u = np.linalg.eigh(x.T @ x)
    return x @ ((u / np.sqrt(s)) @ u.T)


def _information(phi: np.ndarray, q: np.ndarray, taus: np.ndarray):
    """The information of M_y = phi_y phi_y^T, and G with rows g_y = R_y phi_y.

    R_y = sum_x q_x log2(p(x, y) / (q_x p(y))) tau_x; the gradient of the
    information in phi_y is 2 g_y.
    """
    t = taus @ phi.T  # t[x, :, y] = tau_x phi_y
    q_x = q[:, None]
    joint = q_x * np.einsum("yi,xiy->xy", phi, t)
    log_ratio = _log_ratio(q, joint)
    g = np.einsum("xy,xiy->yi", q_x * log_ratio, t)
    return float((joint * log_ratio).sum()), g


@functools.cache
def _skew(r: int) -> tuple:
    """The r x r identity and the flat positions of the strict upper triangle
    (row-major) and of its transpose, all three read-only."""
    rows, cols = np.triu_indices(r, 1)
    parts = np.eye(r), rows * r + cols, cols * r + rows
    for part in parts:
        part.flags.writeable = False
    return parts


def _cayley(a: np.ndarray, r: int) -> np.ndarray:
    """B = (I - A)^{-1} for the skew r x r matrix A with upper triangle `a`.

    I - A is a copy of the cached identity with -a put at the upper
    triangle's flat positions and a at their transposes. The Cayley
    transform C(A) = (I - A)^{-1} (I + A) is 2 B - I, and (I + A)^{-1} = B^T.
    """
    eye, upper, lower = _skew(r)
    eye_minus_a = eye.copy()
    eye_minus_a.put(upper, -a)
    eye_minus_a.put(lower, a)
    return np.linalg.inv(eye_minus_a)


def _rotate(a: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """C(A) Phi_ref."""
    return 2.0 * (_cayley(a, ref.shape[0]) @ ref) - ref


def _cayley_objective(a: np.ndarray, ref: np.ndarray, q: np.ndarray, taus: np.ndarray):
    """Minus the information of the projective POVM Phi = C(A) Phi_ref, and its
    gradient in the upper triangle of A.

    dPhi = (I - A)^{-1} dA (I + C) Phi_ref, so the gradient in the full A is
    E = (I - A)^{-T} (2 G) Phi_ref^T (I + C)^T = 4 B^T G Phi_ref^T B^T, and
    in each entry of the upper triangle E_ij - E_ji, read from E by `take`
    at `_skew`'s flat positions.
    """
    r = ref.shape[0]
    b = _cayley(a, r)
    b_ref = b @ ref
    info, g = _information(2.0 * b_ref - ref, q, taus)
    grad = b.T @ (g @ b_ref.T)
    _, upper, lower = _skew(r)
    return -info, -4.0 * (grad.take(upper) - grad.take(lower))


def _residual(phi: np.ndarray, q: np.ndarray, taus: np.ndarray, support: np.ndarray) -> float:
    """max_y ||M_y Gamma - M_y R_y||_max of the POVM of Phi lifted by `support` V.

    Gamma = sum_y R_y M_y. On the support each block is the outer product
    phi_y w_y^T, with w_y the rows of W = Phi G^T Phi - G, so its lift is
    (V phi_y)(V w_y)^T. Gamma and R_y vanish off the support, so the part
    (I - V V^T) / r of the lifted POVM adds nothing.
    """
    g = _information(phi, q, taus)[1]
    w = phi @ g.T @ phi - g
    return float(np.max(np.abs(phi @ support.T).max(axis=1) * np.abs(w @ support.T).max(axis=1)))


def _check_lift(phi: np.ndarray, support: np.ndarray) -> None:
    """ValueError unless the lift V M_y V^T + (I - V V^T) / r is a POVM.

    Its elements sum to I + V (Phi^T Phi - I) V^T, entries at most
    ||Phi^T Phi - I||_F max_i ||v_i||^2 (v_i the rows of V), and have
    eigenvalues of at least -||V^T V - I||_F / r.
    """
    eye = np.eye(phi.shape[0])
    w_min = -np.linalg.norm(support.T @ support - eye) / phi.shape[0]
    if w_min < -PSD_FLOOR:
        raise ValueError(f"POVM element eigenvalues reach down to {w_min:.3e}")
    dev = np.linalg.norm(phi.T @ phi - eye) * np.max(np.einsum("ij,ij->i", support, support))
    if dev > POVM_COMPLETENESS:
        raise ValueError(f"POVM completeness violated by up to {dev:.3e}")


def _warm_start(cold: np.ndarray, support: np.ndarray, phi_prev: np.ndarray, support_prev: np.ndarray) -> np.ndarray:
    """The first r rows of Phi_prev V_prev^T V stacked above the cold start,
    orthonormalised in order; cold where the neighbour's rank is above r or
    its Fock dimension differs."""
    if phi_prev.shape[0] > cold.shape[0] or support_prev.shape[0] != support.shape[0]:
        return cold
    stack = np.vstack([phi_prev @ (support_prev.T @ support), cold])
    return np.linalg.qr(stack.T)[0].T


def accessible_information(ens: BinaryEnsemble, cfg: AscentConfig = AscentConfig(), start=None) -> AscentReport:
    """Quasi-Newton estimate of the accessible information.

    Rank-one elements suffice (Davies 1978), and for real states so do
    real ones. On a real orthonormal basis V of the support of
    q1 tau1 + q2 tau2 (rank r), the measurement is projective,
    M_y = phi_y phi_y^T with phi_y the r rows of an orthogonal Phi; that
    projective measurements reach the maximum is a measured property of
    these ensembles, not a theorem (see the README). Each run takes the
    rotations Phi = C(A) Phi_ref, with C(A) = (I - A)^{-1} (I + A) the
    Cayley transform of a skew A and Phi_ref the last run's end point, and
    BFGS (`_minimize.bfgs`) maximises the information over the upper
    triangle of A from A = 0. A run stops when the stationarity residual
    of the lifted POVM V M_y V^T + (I - V V^T) / r reaches RESIDUAL_TOL
    (checked every 50 iterations, on the support) or after `max_iter`
    iterations. The first Phi_ref is the polar factor of the eigenbasis
    of the weighted difference on the support plus a seeded Gaussian
    perturbation (the cold start), or, given a neighbour's end measurement
    `start = (phi, support)`, `_warm_start`; each further run, up to
    `restarts` runs in all, resumes from the last end point with fresh
    curvature. `restart_values` holds the value after each run.
    """
    support, taus, _, e = _on_support(ens)
    if np.iscomplexobj(taus):
        raise ValueError("accessible_information needs real symmetric states")
    q = np.asarray(ens.priors, dtype=float)
    r = support.shape[1]

    def stationary(a, iterations):
        return iterations % _CHECK_EVERY == 0 and _residual(_rotate(a, phi), q, taus, support) <= RESIDUAL_TOL

    phi = _polar(e.T + _START_NOISE * np.random.default_rng(cfg.seed).standard_normal((r, r)))
    if start is not None:
        phi = _warm_start(phi, support, *start)
    iters, values = 0, []
    for _ in range(max(cfg.restarts, 1)):
        objective = functools.partial(_cayley_objective, ref=phi, q=q, taus=taus)
        a, fun, nit = bfgs(objective, np.zeros(r * (r - 1) // 2), cfg.max_iter, stop=stationary)
        phi = _rotate(a, phi)  # the next run's Phi_ref
        iters += nit
        values.append(-float(fun))
        res = _residual(phi, q, taus, support)
        if res <= RESIDUAL_TOL:
            break
    _check_lift(phi, support)
    return AscentReport(
        phi=phi,
        support=support,
        mutual_information=values[-1],
        iterations=iters,
        stationarity_residual=res,
        converged=res <= RESIDUAL_TOL,
        restart_values=values,
    )

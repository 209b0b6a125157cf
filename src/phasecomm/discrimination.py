"""Figures of merit for binary state discrimination.

Error probability of a given POVM, the Helstrom bound via the weighted
difference operator, Shannon mutual information, and accessible
information via the steepest-ascent POVM iteration.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import DimensionMismatch
from .fock import check_hermitian, hermitian_eig, matrix_function_sqrt_inv

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

    def validate(self, tol: Tolerances = DEFAULT_TOL) -> None:
        q1, q2 = self.priors
        if q1 < 0 or q2 < 0 or abs(q1 + q2 - 1.0) > 1e-12:
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

    def validate(self, tol: Tolerances = DEFAULT_TOL) -> None:
        ms = np.asarray(self.elements)
        check_hermitian(ms, tol)
        w_min = np.linalg.eigvalsh(ms).min()
        if w_min < -tol.psd_floor:
            raise ValueError(f"POVM element has eigenvalue {w_min:.3e}")
        dev = np.max(np.abs(ms.sum(axis=0) - np.eye(ms.shape[1])))
        if dev > tol.povm_completeness:
            raise ValueError(f"POVM completeness violated by {dev:.3e}")

    @property
    def size(self) -> int:
        return self.elements[0].shape[0]


class BinaryPovm(Povm):
    """Two-outcome POVM; the measurement class of the binary protocol."""

    def validate(self, tol: Tolerances = DEFAULT_TOL) -> None:
        if len(self.elements) != 2:
            raise ValueError(f"binary POVM needs 2 elements, got {len(self.elements)}")
        super().validate(tol)


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


def helstrom_measurement(ens: BinaryEnsemble, tol: Tolerances = DEFAULT_TOL):
    """Minimum-error bound and the projective POVM achieving it.

    The bound is 1/2 - 1/2 ||q1 tau1 - q2 tau2||_1; outcome 1 projects onto
    the positive eigenspace of the weighted difference.
    """
    ens.validate(tol)
    q1, q2 = ens.priors
    lam = q1 * ens.states[0] - q2 * ens.states[1]
    lam = 0.5 * (lam + lam.conj().T)
    w, v = hermitian_eig(lam, tol)
    bound = 0.5 - 0.5 * float(np.sum(np.abs(w)))
    pos = v[:, w > 0]
    m1 = pos @ pos.conj().T
    m1 = 0.5 * (m1 + m1.conj().T)
    m2 = np.eye(lam.shape[0], dtype=complex) - m1
    return bound, BinaryPovm((m1, m2))


def helstrom_bound(ens: BinaryEnsemble, tol: Tolerances = DEFAULT_TOL) -> float:
    return helstrom_measurement(ens, tol)[0]


def joint_distribution(ens: BinaryEnsemble, povm: Povm) -> np.ndarray:
    """Table Pr(x, y) = q_x Tr{tau_x M_y}, one row per hypothesis."""
    _check_dims(ens, povm)
    return _joint(np.asarray(ens.priors, dtype=float), np.asarray(ens.states), np.asarray(povm.elements))


def _joint(q: np.ndarray, taus: np.ndarray, ms: np.ndarray) -> np.ndarray:
    return q[:, None] * np.real(np.einsum("xij,yji->xy", taus, ms))


def mutual_information_from_joint(
    joint: np.ndarray, priors, guard: float = DEFAULT_TOL.prob_guard
) -> float:
    """Shannon mutual information in bits, with 0 log 0 := 0."""
    joint = np.asarray(joint, dtype=float)
    py = joint.sum(axis=0)
    info = 0.0
    for x in range(joint.shape[0]):
        for y in range(joint.shape[1]):
            p = joint[x, y]
            if p < guard:
                continue
            info += p * np.log2(p / (priors[x] * py[y]))
    return float(info)


def mutual_information(ens: BinaryEnsemble, povm: BinaryPovm) -> float:
    return mutual_information_from_joint(joint_distribution(ens, povm), ens.priors)


def binary_entropy(p: float) -> float:
    """h2(p) in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


@dataclass(frozen=True)
class AscentConfig:
    """Knobs for the steepest-ascent POVM iteration."""

    lam: float = 0.05
    lam_max: float = 0.5  # adaptive growth ceiling
    polish_max: int = 5000  # extra iterations allowed after the gain plateaus
    tol: float = 1e-10  # bits/iteration
    max_iter: int = 50_000
    residual_tol: float = 1e-6
    restarts: int = 5
    seed: int = 0
    outcomes: int = 2  # POVM elements carried by the ascent


@dataclass
class AscentReport:
    povm: Povm
    mutual_information: float
    iterations: int
    stationarity_residual: float
    converged: bool
    restart_values: list = field(default_factory=list)


def _dagger(ms: np.ndarray) -> np.ndarray:
    return ms.conj().swapaxes(-1, -2)


def _info_operators(q: np.ndarray, taus: np.ndarray, joint: np.ndarray, guard: float) -> np.ndarray:
    """Stack of the gradient-like operators R_y for the given joint table."""
    py = joint.sum(axis=0)
    live = (joint >= guard) & (py >= guard)
    ratio = np.where(live, joint, 1.0) / np.where(live, q[:, None] * py, 1.0)
    r = np.einsum("xy,xij->yij", np.where(live, q[:, None] * np.log2(ratio), 0.0), taus)
    return 0.5 * (r + _dagger(r))


def _residual(ens: BinaryEnsemble, povm: Povm, guard: float) -> float:
    """max_y ||M_y Gamma - M_y R_y||_max with Gamma = sum_y R_y M_y."""
    q, taus, ms = np.asarray(ens.priors, dtype=float), np.asarray(ens.states), np.asarray(povm.elements)
    r = _info_operators(q, taus, _joint(q, taus, ms), guard)
    gamma = (r @ ms).sum(axis=0)
    return float(np.max(np.abs(ms @ gamma - ms @ r)))


def _renormalize(ms: np.ndarray, tol: Tolerances) -> np.ndarray:
    """S^{-1/2} M S^{-1/2} for each element of the stack, S the stack's sum."""
    s_inv = matrix_function_sqrt_inv(ms.sum(axis=0), tol)
    out = s_inv @ ms @ s_inv
    return 0.5 * (out + _dagger(out))


def _repair_psd(ms: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Clip roundoff-negative eigenvalues and restore completeness.

    The conjugation update only preserves positivity up to roundoff; when
    drift exceeds the PSD floor the elements are projected back onto the
    PSD cone and renormalized (a perturbation at the drift scale, ~1e-10).
    """
    w, v = np.linalg.eigh(ms)
    clipped = (v * np.clip(w, 0.0, None)[:, None, :]) @ _dagger(v)
    return _renormalize(0.5 * (clipped + _dagger(clipped)), tol)


def _support_basis(ens: BinaryEnsemble, tol: Tolerances) -> np.ndarray:
    """Orthonormal columns spanning the support of q1 tau1 + q2 tau2.

    Eigenvalues count as nonzero above numpy's matrix_rank cutoff,
    w_max * d * eps.
    """
    q1, q2 = ens.priors
    w, v = hermitian_eig(q1 * ens.states[0] + q2 * ens.states[1], tol)
    return v[:, w > w.max() * ens.size * np.finfo(float).eps]


def _invariant_basis(support: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Orthonormal columns of the smallest subspace that holds the support
    and that every element of `start` maps into itself.

    Directions are added while the elements carry the basis out of its
    span by more than numpy's matrix_rank cutoff, d * eps (POVM elements
    have norm at most 1).
    """
    dim = support.shape[0]
    basis = support
    while basis.shape[1] < dim:
        spill = np.concatenate(tuple(start @ basis), axis=1)
        spill = spill - basis @ (basis.conj().T @ spill)
        u, s, _ = np.linalg.svd(spill, full_matrices=False)
        grow = u[:, s > dim * np.finfo(float).eps][:, : dim - basis.shape[1]]
        if grow.shape[1] == 0:
            break
        # directions just above the cutoff carry rounding along the basis
        grow = np.linalg.qr(grow - basis @ (basis.conj().T @ grow))[0]
        basis = np.concatenate((basis, grow), axis=1)
    return basis


def _ascend(ens: BinaryEnsemble, support: np.ndarray, start: np.ndarray, cfg: AscentConfig, tol: Tolerances):
    """Steepest ascent from `start` (a stack of full-space elements).

    The states live on the support, so a subspace W that holds the support
    and that each start element maps into itself stays invariant under
    every step: R_y and Gamma act inside W, the step conjugates W and its
    complement separately, and the complement block of each element keeps
    its start value. The iteration therefore runs on the compressions
    W^dagger . W (W is the support itself when the start does not couple
    it to its complement), and the result is lifted back with the start's
    complement blocks. The stop test and the reported residual use the
    lifted POVM.
    """
    basis = _invariant_basis(support, start)
    q = np.asarray(ens.priors, dtype=float)
    wh = basis.conj().T
    taus = wh @ np.asarray(ens.states) @ basis
    ms = wh @ start @ basis
    k, n = ms.shape[0], ms.shape[1]
    eye = np.eye(n)
    out = np.eye(ens.size) - basis @ wh
    rest = out @ start @ out

    def lifted(ms):
        elements = tuple(basis @ ms @ wh + rest)
        return Povm(elements) if k != 2 else BinaryPovm(elements)

    joint = _joint(q, taus, ms)
    info = mutual_information_from_joint(joint, q)
    r = _info_operators(q, taus, joint, tol.prob_guard)
    gamma = (r @ ms).sum(axis=0)
    lam = cfg.lam
    iters = 0
    polish = 0
    while iters < cfg.max_iter:
        g = eye + lam * (r - gamma)
        new = _renormalize(_dagger(g) @ ms @ g, tol)
        try:
            Povm(tuple(new)).validate(tol)
        except ValueError:
            new = _repair_psd(new, tol)
            Povm(tuple(new)).validate(tol)
        joint_new = _joint(q, taus, new)
        info_new = mutual_information_from_joint(joint_new, q)
        iters += 1
        if info_new < info - 1e-9:
            # overshoot: reject the step and shrink the step size
            lam *= 0.5
            if lam < 1e-12:
                break
            continue
        gain = info_new - info
        ms, info = new, info_new
        r = _info_operators(q, taus, joint_new, tol.prob_guard)
        gamma = (r @ ms).sum(axis=0)
        lam = min(lam * 1.2, cfg.lam_max)
        if gain < cfg.tol:
            # information has plateaued; keep polishing until the stationary
            # conditions are met as well, within a bounded extra budget
            polish += 1
            if polish > cfg.polish_max:
                break
            if _residual(ens, lifted(ms), tol.prob_guard) <= cfg.residual_tol:
                break
    povm = lifted(ms)
    return povm, info, iters, _residual(ens, povm, tol.prob_guard)


def _random_povm(dim: int, outcomes: int, rng: np.random.Generator, tol: Tolerances) -> np.ndarray:
    raw = []
    for _ in range(outcomes):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        raw.append(z @ z.conj().T)
    raw = np.array(raw)
    return _renormalize(0.5 * (raw + _dagger(raw)), tol)


def _ascent_starts(ens: BinaryEnsemble, cfg: AscentConfig, tol: Tolerances) -> list:
    """Deterministic seed start plus randomly perturbed restarts, as element stacks."""
    dim = ens.size
    k = cfg.outcomes
    eye = np.eye(dim, dtype=complex)
    _, hel = helstrom_measurement(ens, tol)
    if k == 2:
        base = np.array(hel.elements)
    else:
        # split each Helstrom element evenly over the extra outcomes
        base = [m / (k // 2) for m in hel.elements for _ in range(k // 2)]
        base = np.array(base + [np.zeros_like(eye)] * (k - len(base)))
    w0 = 1e-3

    def flat_mix(elements):
        return (1 - w0) * elements + w0 * eye / k

    starts = [flat_mix(base)]
    rng = np.random.default_rng(cfg.seed)
    if k > 2:
        # photon-counting-like starts: number projectors with the tail
        # merged, plain and displaced by each hypothesis' mean field
        from scipy.linalg import expm

        counters = np.zeros((k, dim, dim), dtype=complex)
        for n in range(dim):
            counters[min(n, k - 1), n, n] = 1.0
        ladder = np.zeros_like(eye)
        idx = np.arange(1, dim)
        ladder[idx - 1, idx] = np.sqrt(idx)
        starts.append(flat_mix(counters))
        for tau in ens.states:
            beta = complex(np.trace(tau @ ladder))
            disp = expm(-beta * ladder.conj().T + np.conj(beta) * ladder)
            shifted = disp @ counters @ disp.conj().T
            starts.append(flat_mix(0.5 * (shifted + _dagger(shifted))))
    while len(starts) < cfg.restarts:
        w = rng.uniform(0.05, 0.3)
        starts.append((1 - w) * base + w * _random_povm(dim, k, rng, tol))
    return starts[: cfg.restarts] if cfg.restarts > 0 else starts[:1]


def accessible_information(
    ens: BinaryEnsemble, cfg: AscentConfig = AscentConfig(), tol: Tolerances = DEFAULT_TOL
) -> AscentReport:
    """Steepest-ascent estimate of the accessible information.

    The first start is the Helstrom POVM mixed with the flat POVM at weight
    1e-3 (the gradient operators are ill-defined at exactly zero outcome
    probabilities); further restarts mix in random POVMs, plus a
    photon-counting-like start when more than two outcomes are carried.
    Each run works on the smallest subspace that holds the support of
    q1 tau1 + q2 tau2 and is invariant under its start (see `_ascend`).
    The best run is reported together with all restart values.
    """
    ens.validate(tol)
    support = _support_basis(ens, tol)

    best = None
    values = []
    for start in _ascent_starts(ens, cfg, tol):
        povm, info, iters, residual = _ascend(ens, support, start, cfg, tol)
        values.append(info)
        run = AscentReport(
            povm=povm,
            mutual_information=info,
            iterations=iters,
            stationarity_residual=residual,
            converged=residual <= cfg.residual_tol,
        )
        if best is None or run.mutual_information > best.mutual_information:
            best = run
    best.restart_values = values
    return best

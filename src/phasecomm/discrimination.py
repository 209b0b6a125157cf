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
        for m in self.elements:
            check_hermitian(m, tol)
            w = np.linalg.eigvalsh(m)
            if w.min() < -tol.psd_floor:
                raise ValueError(f"POVM element has eigenvalue {w.min():.3e}")
        total = sum(self.elements)
        dev = np.max(np.abs(total - np.eye(total.shape[0])))
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
    table = np.empty((2, len(povm.elements)))
    for x, (q, tau) in enumerate(zip(ens.priors, ens.states)):
        for y, m in enumerate(povm.elements):
            table[x, y] = q * float(np.real(np.einsum("ij,ji->", tau, m)))
    return table


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


def _info_operators(ens: BinaryEnsemble, povm: Povm, guard: float):
    """Joint table and the gradient-like operators R_y."""
    joint = joint_distribution(ens, povm)
    py = joint.sum(axis=0)
    r = []
    for y in range(len(povm.elements)):
        op = np.zeros_like(ens.states[0])
        for x, (q, tau) in enumerate(zip(ens.priors, ens.states)):
            p = joint[x, y]
            if p < guard or py[y] < guard:
                continue
            op = op + q * tau * np.log2(p / (ens.priors[x] * py[y]))
        r.append(0.5 * (op + op.conj().T))
    return joint, r


def _residual(ens: BinaryEnsemble, povm: Povm, guard: float) -> float:
    _, r = _info_operators(ens, povm, guard)
    gamma = sum(ry @ my for ry, my in zip(r, povm.elements))
    return float(
        max(
            np.max(np.abs(my @ gamma - my @ ry))
            for ry, my in zip(r, povm.elements)
        )
    )


def _repair_psd(elements: list) -> list:
    """Clip roundoff-negative eigenvalues and restore completeness.

    The conjugation update only preserves positivity up to roundoff; when
    drift exceeds the PSD floor the elements are projected back onto the
    PSD cone and renormalized (a perturbation at the drift scale, ~1e-10).
    """
    clipped = []
    for m in elements:
        w, v = np.linalg.eigh(m)
        mc = (v * np.clip(w, 0.0, None)) @ v.conj().T
        clipped.append(0.5 * (mc + mc.conj().T))
    s_inv = matrix_function_sqrt_inv(sum(clipped))
    out = []
    for m in clipped:
        mn = s_inv @ m @ s_inv
        out.append(0.5 * (mn + mn.conj().T))
    return out


def _ascend(ens: BinaryEnsemble, start: Povm, cfg: AscentConfig, tol: Tolerances):
    dim = ens.size
    eye = np.eye(dim, dtype=complex)
    ms = list(start.elements)
    info = mutual_information(ens, Povm(tuple(ms)))
    lam = cfg.lam
    iters = 0
    polish = 0
    while iters < cfg.max_iter:
        _, r = _info_operators(ens, Povm(tuple(ms)), tol.prob_guard)
        acc = sum(ry @ my for ry, my in zip(r, ms))
        tilde = []
        for ry, my in zip(r, ms):
            g = eye + lam * (ry - acc)
            tilde.append(g.conj().T @ my @ g)
        s_inv = matrix_function_sqrt_inv(sum(tilde), tol)
        new = []
        for mt in tilde:
            mn = s_inv @ mt @ s_inv
            new.append(0.5 * (mn + mn.conj().T))
        cand = Povm(tuple(new))
        try:
            cand.validate(tol)
        except ValueError:
            new = _repair_psd(new)
            cand = Povm(tuple(new))
            cand.validate(tol)
        info_new = mutual_information(ens, cand)
        iters += 1
        if info_new < info - 1e-9:
            # overshoot: reject the step and shrink the step size
            lam *= 0.5
            if lam < 1e-12:
                break
            continue
        gain = info_new - info
        ms, info = new, info_new
        lam = min(lam * 1.2, cfg.lam_max)
        if gain < cfg.tol:
            # information has plateaued; keep polishing until the stationary
            # conditions are met as well, within a bounded extra budget
            polish += 1
            if polish > cfg.polish_max:
                break
            if _residual(ens, Povm(tuple(ms)), tol.prob_guard) <= cfg.residual_tol:
                break
    povm = Povm(tuple(ms)) if len(ms) != 2 else BinaryPovm(tuple(ms))
    return povm, info, iters, _residual(ens, povm, tol.prob_guard)


def _random_povm(dim: int, outcomes: int, rng: np.random.Generator) -> Povm:
    raw = []
    for _ in range(outcomes):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = z @ z.conj().T
        raw.append(0.5 * (a + a.conj().T))
    s_inv = matrix_function_sqrt_inv(sum(raw))
    elements = []
    for a in raw:
        m = s_inv @ a @ s_inv
        elements.append(0.5 * (m + m.conj().T))
    return Povm(tuple(elements))


def _ascent_starts(ens: BinaryEnsemble, cfg: AscentConfig, tol: Tolerances) -> list:
    """Deterministic seed start plus randomly perturbed restarts."""
    dim = ens.size
    k = cfg.outcomes
    eye = np.eye(dim, dtype=complex)
    _, hel = helstrom_measurement(ens, tol)
    if k == 2:
        base = list(hel.elements)
    else:
        # split each Helstrom element evenly over the extra outcomes
        base = []
        for m in hel.elements:
            base.extend([m / (k // 2)] * (k // 2))
        for _ in range(k - len(base)):
            base.append(np.zeros_like(eye))
    w0 = 1e-3

    def flat_mix(elements):
        return Povm(tuple((1 - w0) * m + w0 * eye / k for m in elements))

    starts = [flat_mix(base)]
    rng = np.random.default_rng(cfg.seed)
    if k > 2:
        # photon-counting-like starts: number projectors with the tail
        # merged, plain and displaced by each hypothesis' mean field
        from scipy.linalg import expm

        counters = [np.zeros_like(eye) for _ in range(k)]
        for n in range(dim):
            counters[min(n, k - 1)][n, n] = 1.0
        ladder = np.zeros_like(eye)
        idx = np.arange(1, dim)
        ladder[idx - 1, idx] = np.sqrt(idx)
        starts.append(flat_mix(counters))
        for tau in ens.states:
            beta = complex(np.trace(tau @ ladder))
            disp = expm(-beta * ladder.conj().T + np.conj(beta) * ladder)
            shifted = [disp @ c @ disp.conj().T for c in counters]
            starts.append(flat_mix([0.5 * (m + m.conj().T) for m in shifted]))
    while len(starts) < cfg.restarts:
        w = rng.uniform(0.05, 0.3)
        rand = _random_povm(dim, k, rng)
        starts.append(
            Povm(
                tuple(
                    (1 - w) * m + w * r for m, r in zip(base, rand.elements)
                )
            )
        )
    return starts[: cfg.restarts] if cfg.restarts > 0 else starts[:1]


def accessible_information(
    ens: BinaryEnsemble, cfg: AscentConfig = AscentConfig(), tol: Tolerances = DEFAULT_TOL
) -> AscentReport:
    """Steepest-ascent estimate of the accessible information.

    The first start is the Helstrom POVM mixed with the flat POVM at weight
    1e-3 (the gradient operators are ill-defined at exactly zero outcome
    probabilities); further restarts mix in random POVMs, plus a
    photon-counting-like start when more than two outcomes are carried.
    The best run is reported together with all restart values.
    """
    ens.validate(tol)
    starts = _ascent_starts(ens, cfg, tol)

    best = None
    values = []
    for start in starts:
        povm, info, iters, residual = _ascend(ens, start, cfg, tol)
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

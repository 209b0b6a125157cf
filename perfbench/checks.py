"""Independent checks of the figures of merit a sweep reports.

Nothing here imports `phasecomm`. Every reference value is computed from
numpy and scipy by another route than the program's:

- Phase-diffused states are phase averages of pure coherent kets, taken
  with the periodic trapezoid rule under the wrapped-normal density, at a
  larger cutoff. (The program applies a closed-form kernel entrywise.)
- The atomic receiver is evaluated through its Kraus matrices and
  optimised on dense grids. (The program sums a closed-form photon-number
  series and runs a multi-start simplex search.)
- The PNR phase average is an adaptive quadrature, and the displacement
  is scanned on a dense grid. (The program uses a fixed Gauss-Hermite rule
  and a coarse grid with a bounded refinement.)
- Accessible information is bounded below by a POVM the benchmark's own
  short ascent finds from a split of the Helstrom measurement, and above
  by the Holevo quantity. (The program runs a long ascent with restarts.)

`check_row` returns, for each operation of one row, the list of its
misses: empty when every reported value passes. Every check of an
operation runs, whether or not an earlier one missed, and each miss
carries its kind and size, so a known fault can be told from a new one
(`workloads.EXPECTED_FAILURES`).
"""

from typing import NamedTuple

import numpy as np
from scipy import integrate, optimize, special

# --- tolerances (the README gives the reasons) ------------------------------
HELSTROM_TOL = 1e-10
ACCINFO_TOL = 1e-9
ATOMIC_TOL = 1e-9
PNR_TOL = 1e-7

# --- reference computations -------------------------------------------------
PHASE_NODES = 512
# extra Fock levels of the reference states over the program's cutoff
HELSTROM_EXTRA_LEVELS = 21
# Poisson mass the Kraus-path states may leave beyond their cutoff
KRAUS_TAIL = 1e-18
PHI_MAX = 25.0  # past the search box [0, pi sqrt(30)] of the program
PHI_STEP = 0.02
TWO_THETA_POINTS = 240
POLISHED = 6
BETA_POINTS = 2001
# steps of the benchmark's own accessible-information ascent
ACCINFO_STEPS = 1000


class Miss(NamedTuple):
    """One failed check: what was checked, by how much it missed, a message."""

    kind: str
    size: float
    text: str


def amplitudes(signal: str, mean_photons: float, q1: float) -> tuple:
    if signal == "BPSK":
        a = np.sqrt(mean_photons)
        return a, -a
    return 0.0, np.sqrt(mean_photons / (1.0 - q1))


def phase_rule(sigma: float) -> tuple:
    """Nodes on [-pi, pi) and weights of the wrapped-normal phase average.

    The trapezoid rule is exact for every Fourier mode below the node
    count, so states up to that many Fock levels are averaged exactly.
    """
    if sigma == 0.0:
        return np.zeros(1), np.ones(1)
    phi = np.linspace(-np.pi, np.pi, PHASE_NODES, endpoint=False)
    images = 2 * np.pi * np.arange(-12, 13)
    dens = np.exp(-0.5 * ((phi[:, None] + images[None, :]) / sigma) ** 2).sum(axis=1)
    return phi, dens / (sigma * np.sqrt(2 * np.pi)) * (2 * np.pi / PHASE_NODES)


def coherent_ket(alpha: float, dim: int) -> np.ndarray:
    n = np.arange(dim)
    if alpha == 0.0:
        return (n == 0).astype(float)
    log_mag = -0.5 * alpha * alpha + n * np.log(abs(alpha)) - 0.5 * special.gammaln(n + 1)
    return np.sign(alpha) ** n * np.exp(log_mag)


def diffused_state(alpha: float, sigma: float, dim: int) -> np.ndarray:
    phi, w = phase_rule(sigma)
    kets = coherent_ket(alpha, dim)[None, :] * np.exp(1j * np.outer(phi, np.arange(dim)))
    tau = (kets.T * w) @ kets.conj()
    return 0.5 * (tau + tau.conj().T)


def entropy_bits(rho: np.ndarray) -> float:
    w = np.linalg.eigvalsh(rho)
    w = w[w > 1e-16]
    return float(-(w * np.log2(w)).sum())


def binary_entropy(p: float) -> float:
    return 0.0 if p <= 0.0 or p >= 1.0 else float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


def mutual_information(joint: np.ndarray) -> np.ndarray:
    """Bits, over the last two axes (input, output) of a joint table."""
    px = joint.sum(axis=-1, keepdims=True)
    py = joint.sum(axis=-2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(joint > 0, joint * np.log2(joint / (px * py)), 0.0)
    return terms.sum(axis=(-1, -2))


class Point:
    """One signal setup at one sigma, with reference states built on demand."""

    def __init__(self, signal: str, mean_photons: float, q1: float, sigma: float):
        self.sigma = sigma
        self.priors = np.array([q1, 1.0 - q1])
        self.alphas = amplitudes(signal, mean_photons, q1)
        self._states = {}
        self._atomic = None
        a2 = max(a * a for a in self.alphas)
        self.kraus_dim = next(k for k in range(1, 400) if special.pdtrc(k, a2) < KRAUS_TAIL) + 1

    def states(self, dim: int) -> tuple:
        if dim not in self._states:
            self._states[dim] = tuple(diffused_state(a, self.sigma, dim) for a in self.alphas)
        return self._states[dim]

    def atomic(self) -> "AtomicOracle":
        if self._atomic is None:
            self._atomic = AtomicOracle(self)
        return self._atomic

    def helstrom(self, dim: int) -> float:
        """Minimum error probability."""
        t1, t2 = self.states(dim)
        w = np.linalg.eigvalsh(self.priors[0] * t1 - self.priors[1] * t2)
        return 0.5 - 0.5 * float(np.abs(w).sum())


# --- accessible information: a POVM found by the benchmark's own ascent -----


def _povm_information(povm: np.ndarray, states: np.ndarray, priors) -> tuple:
    hits = np.einsum("kab,xba->xk", povm, states).real
    return float(mutual_information(priors[:, None] * hits)), hits


def _inv_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v / np.sqrt(w)) @ v.conj().T


def _ascend(povm: np.ndarray, states: np.ndarray, priors, steps: int) -> float:
    """Information after steepest ascent from `povm`.

    A step maps M_k to G^{-1/2} A_k M_k A_k^dag G^{-1/2} with
    A_k = 1 + eps R_k, R_k = sum_x q_x log2(P(k|x)/P(k)) tau_x the gradient,
    and G the sum that restores completeness. A step is kept only when the
    information rises, and the step size adapts.
    """
    dim = states.shape[1]
    best, hits = _povm_information(povm, states, priors)
    eps = 0.1
    for _ in range(steps):
        p_out = hits.T @ priors
        with np.errstate(divide="ignore", invalid="ignore"):
            log_ratio = np.where(hits > 0, np.log2(hits / p_out[None, :]), 0.0)
        grad = np.einsum("x,xk,xab->kab", priors, log_ratio, states)
        scale = float(np.abs(np.linalg.eigvalsh(grad)).max())
        if scale == 0.0:
            break
        eps = min(eps, 0.5 / scale)
        step = np.eye(dim)[None] + eps * grad
        trial = step @ povm @ step.conj().transpose(0, 2, 1)
        norm = _inv_sqrt(trial.sum(axis=0))
        trial = norm @ trial @ norm
        value, trial_hits = _povm_information(trial, states, priors)
        if value > best:
            best, povm, hits, eps = value, trial, trial_hits, 1.5 * eps
        else:
            eps *= 0.3
            if eps < 1e-12:
                break
    return best


def informative_povm(point: Point, dim: int, steps: int = ACCINFO_STEPS) -> float:
    """Information of the better of two POVMs the ascent reaches; a lower bound.

    One start splits the Helstrom projectors onto the positive and the
    negative part of q1 tau1 - q2 tau2: the eigenvector of the largest
    |eigenvalue| of each part is an outcome of its own. It refines the
    Helstrom measurement, so it carries at least that measurement's
    information. The other start counts photons: 0, 1, 2 and 3 or more.
    Whatever the step count, the ascent ends on a POVM, so its information
    is a lower bound on the accessible information.
    """
    states = np.array(point.states(dim))
    w, v = np.linalg.eigh(point.priors[0] * states[0] - point.priors[1] * states[1])
    order = np.argsort(w)
    neg, pos = order[w[order] <= 0], order[w[order] > 0]
    split = [v[:, g] @ v[:, g].conj().T for g in (neg[:1], neg[1:], pos[:-1], pos[-1:]) if len(g)]
    n = np.arange(dim)
    counting = [np.diag((n == k) * 1.0) for k in range(3)] + [np.diag((n >= 3) * 1.0)]
    return max(_ascend(np.array(start), states, point.priors, steps) for start in (split, counting))


# --- atomic receiver through its Kraus matrices -----------------------------


def kraus_operators(phi: np.ndarray, theta: float, xi: float, dim: int) -> tuple:
    """(K1, K2) of the probe measurement, stacked over the couplings phi.

    <n|K1|n> = cos(theta) cos(Phi sqrt(n)),
    <n-1|K1|n> = -i e^{-i xi} sin(theta) sin(Phi sqrt(n));
    K2 has sin(theta) and +i e^{-i xi} cos(theta) in their place.
    """
    phi = np.atleast_1d(phi)
    root_n = np.sqrt(np.arange(dim))
    c, s = np.cos(np.outer(phi, root_n)), np.sin(np.outer(phi, root_n))
    diag, upper = np.arange(dim), np.arange(1, dim)
    k1 = np.zeros((len(phi), dim, dim), dtype=complex)
    k2 = np.zeros_like(k1)
    k1[:, diag, diag] = np.cos(theta) * c
    k2[:, diag, diag] = np.sin(theta) * c
    k1[:, upper - 1, upper] = -1j * np.exp(-1j * xi) * np.sin(theta) * s[:, 1:]
    k2[:, upper - 1, upper] = 1j * np.exp(-1j * xi) * np.cos(theta) * s[:, 1:]
    return k1, k2


def kraus_conditionals(phi, theta: float, xi: float, states: tuple) -> np.ndarray:
    """P(y | x) = Tr(tau_x K_y^dag K_y), shape (len(phi), 2, 2)."""
    dim = states[0].shape[0]
    kraus = kraus_operators(phi, theta, xi, dim)
    out = np.empty((kraus[0].shape[0], 2, 2))
    for y, k in enumerate(kraus):
        # Tr(tau K^dag K) = sum_{j,a} K_ja (conj(K) tau^T)_ja
        kc = k.conj().reshape(-1, dim)
        for x, tau in enumerate(states):
            z = (kc @ tau.T).reshape(k.shape)
            out[:, x, y] = (k * z).sum(axis=(1, 2)).real
    return out


def theta_coefficients(phi, states: tuple) -> tuple:
    """(A, B, C) with P(y | x) = A + B cos(2 theta) + C sin(2 theta).

    The outcome probabilities depend on xi only through sin(xi), and the
    error is linear in it; mutual information is convex in the channel.
    Both optima therefore sit at |sin xi| = 1, and xi = pi/2 with theta
    over a half turn covers both signs.
    """
    xi = np.pi / 2
    f0 = kraus_conditionals(phi, 0.0, xi, states)
    f45 = kraus_conditionals(phi, np.pi / 4, xi, states)
    f90 = kraus_conditionals(phi, np.pi / 2, xi, states)
    a = 0.5 * (f0 + f90)
    return a, 0.5 * (f0 - f90), f45 - a


def _min_error_over_theta(coeffs: tuple, priors) -> np.ndarray:
    a, b, c = coeffs
    # error = 1 - q1 P(1|1) - q2 P(2|2), affine in (cos 2theta, sin 2theta)
    ea = 1.0 - priors[0] * a[:, 0, 0] - priors[1] * a[:, 1, 1]
    eb = -priors[0] * b[:, 0, 0] - priors[1] * b[:, 1, 1]
    ec = -priors[0] * c[:, 0, 0] - priors[1] * c[:, 1, 1]
    return ea - np.hypot(eb, ec)


def _info_over_theta(coeffs: tuple, two_theta: np.ndarray, priors) -> np.ndarray:
    """Mutual information, shape (len(phi), len(two_theta))."""
    a, b, c = coeffs
    cos_t = np.cos(two_theta)[None, :, None, None]
    sin_t = np.sin(two_theta)[None, :, None, None]
    cond = a[:, None] + b[:, None] * cos_t + c[:, None] * sin_t
    return mutual_information(priors[None, None, :, None] * cond)


def _best_cells(values: np.ndarray, count: int) -> list:
    """Indices of the `count` lowest local minima of a sampled curve."""
    padded = np.concatenate([[np.inf], values, [np.inf]])
    is_min = (padded[1:-1] <= padded[:-2]) & (padded[1:-1] <= padded[2:])
    idx = np.nonzero(is_min)[0]
    return list(idx[np.argsort(values[idx])][:count])


def _polish(fun, grid: np.ndarray, values: np.ndarray) -> float:
    """Lowest of `fun` after a bounded Brent search in the best grid cells."""
    best = float(values.min())
    step = grid[1] - grid[0]
    for i in _best_cells(values, POLISHED):
        res = optimize.minimize_scalar(
            fun, bounds=(grid[i] - step, grid[i] + step), method="bounded", options={"xatol": 1e-12}
        )
        best = min(best, float(res.fun))
    return best


class AtomicOracle:
    """Optimal atomic receiver of one point, by dense grids over Phi and theta."""

    def __init__(self, point: Point):
        self.states = point.states(point.kraus_dim)
        self.priors = point.priors
        self.phi = np.arange(0.0, PHI_MAX + 0.5 * PHI_STEP, PHI_STEP)
        parts = [theta_coefficients(self.phi[i:i + 128], self.states) for i in range(0, len(self.phi), 128)]
        self.coeffs = tuple(np.concatenate(c) for c in zip(*parts))
        self.two_theta = np.linspace(0.0, 2 * np.pi, TWO_THETA_POINTS, endpoint=False)

    def min_error(self) -> float:
        def at(phi):
            return float(_min_error_over_theta(theta_coefficients(phi, self.states), self.priors)[0])

        return _polish(at, self.phi, _min_error_over_theta(self.coeffs, self.priors))

    def _neg_info_over_theta(self, coeffs: tuple) -> float:
        """-max over theta at one Phi: a grid, then a bounded Brent search."""
        on_grid = -_info_over_theta(coeffs, self.two_theta, self.priors)[0]

        def at(t):
            return -float(_info_over_theta(coeffs, np.array([t]), self.priors)[0, 0])

        return _polish(at, self.two_theta, on_grid)

    def max_information(self) -> float:
        on_grid = -np.concatenate(
            [
                _info_over_theta(tuple(c[i:i + 64] for c in self.coeffs), self.two_theta, self.priors).max(axis=1)
                for i in range(0, len(self.phi), 64)
            ]
        )

        def at(phi):
            return self._neg_info_over_theta(theta_coefficients(phi, self.states))

        return -_polish(at, self.phi, on_grid)


# --- displaced photon counting ------------------------------------------------


def _poisson(k: int, mean):
    return np.exp(-mean + k * np.log(np.maximum(mean, 1e-300)) - special.gammaln(k + 1))


def _mean_count(alpha, beta, phi, visibility):
    return np.maximum(alpha**2 + beta**2 - 2 * visibility * alpha * beta * np.cos(phi), 0.0)


def pnr_conditionals_quad(point: Point, beta: float, m: int, visibility: float) -> np.ndarray:
    """P(count | x) for counts 0..m-1 and '>= m', phase averaged adaptively."""
    sigma = point.sigma
    out = np.empty((2, m + 1))
    for x, alpha in enumerate(point.alphas):
        for k in range(m):
            if sigma == 0.0:
                out[x, k] = _poisson(k, _mean_count(alpha, beta, 0.0, visibility))
                continue

            def integrand(phi):
                gauss = np.exp(-0.5 * (phi / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))
                return gauss * _poisson(k, _mean_count(alpha, beta, phi, visibility))

            out[x, k] = integrate.quad(
                integrand, -10 * sigma, 10 * sigma, limit=400, epsabs=1e-15, epsrel=1e-13
            )[0]
        out[x, m] = 1.0 - out[x, :m].sum()
    return out


def pnr_conditionals_grid(point: Point, betas: np.ndarray, m: int, visibility: float) -> np.ndarray:
    """P(count | x) for every displacement in `betas`, shape (len, 2, m+1)."""
    phi, w = phase_rule(point.sigma)
    out = np.empty((len(betas), 2, m + 1))
    for x, alpha in enumerate(point.alphas):
        mean = _mean_count(alpha, betas[:, None], phi[None, :], visibility)
        for k in range(m):
            out[:, x, k] = _poisson(k, mean) @ w
        out[:, x, m] = 1.0 - out[:, x, :m].sum(axis=1)
    return out


def map_error(cond: np.ndarray, priors) -> np.ndarray:
    return 1.0 - (priors[:, None] * cond).max(axis=-2).sum(axis=-1)


# --- per-operation checks -----------------------------------------------------


def _close(kind: str, got: float, want: float, tol: float) -> list:
    miss = abs(got - want)
    if miss <= tol:
        return []
    return [Miss(kind, miss, f"{kind} = {got:.15g}, reference {want:.15g} (off by {miss:.2e} > {tol:.0e})")]


def check_helstrom(row: dict, point: Point) -> list:
    p_ref = point.helstrom(int(row["cutoff"]) + HELSTROM_EXTRA_LEVELS)
    misses = _close("p_helstrom", row["p_helstrom"], p_ref, HELSTROM_TOL)
    if point.sigma == 0.0:
        q1, q2 = point.priors
        overlap = np.exp(-((point.alphas[0] - point.alphas[1]) ** 2))
        misses += _close("p_helstrom.closed_form", row["p_helstrom"],
                         0.5 * (1 - np.sqrt(1 - 4 * q1 * q2 * overlap)), HELSTROM_TOL)
    return misses


def accinfo_window(row: dict, point: Point) -> tuple:
    """(lower, upper) bounds on the accessible information at this point."""
    dim = int(row["cutoff"]) + HELSTROM_EXTRA_LEVELS
    t1, t2 = point.states(dim)
    q1, q2 = point.priors
    chi = entropy_bits(q1 * t1 + q2 * t2) - q1 * entropy_bits(t1) - q2 * entropy_bits(t2)
    return informative_povm(point, dim), min(binary_entropy(q1), chi)


def check_accinfo(row: dict, point: Point) -> list:
    lower, upper = accinfo_window(row, point)
    i_acc = row["i_accessible"]
    misses = []
    if i_acc < lower - ACCINFO_TOL:
        misses.append(Miss("i_accessible.lower", lower - i_acc,
                           f"i_accessible = {i_acc:.15g} below {lower:.15g}, the information of a POVM "
                           f"the benchmark's ascent finds (short by {lower - i_acc:.2e})"))
    if i_acc > upper + ACCINFO_TOL:
        misses.append(Miss("i_accessible.upper", i_acc - upper,
                           f"i_accessible = {i_acc:.15g} above min(H(X), Holevo chi) = {upper:.15g}"))
    if point.sigma == 0.0 and point.priors[0] == 0.5:
        # two pure states at equal priors: the Helstrom measurement is optimal
        p_hel = point.helstrom(int(row["cutoff"]) + HELSTROM_EXTRA_LEVELS)
        misses += _close("i_accessible.pure", i_acc, 1.0 - binary_entropy(p_hel), ACCINFO_TOL)
    if int(row["accinfo_converged"]) != 1:
        residual = float(row["accinfo_residual"])
        misses.append(Miss("accinfo_converged", residual, f"ascent did not converge: residual {residual:.3e}"))
    return misses


def check_atomic_error(row: dict, point: Point) -> list:
    return _close("p_atomic", row["p_atomic"], point.atomic().min_error(), ATOMIC_TOL)


def check_atomic_information(row: dict, point: Point) -> list:
    return _close("i_atomic", row["i_atomic"], point.atomic().max_information(), ATOMIC_TOL)


def check_pnr(row: dict, point: Point, rec: dict) -> list:
    """The values at the reported displacements and, if optimized, the displacements."""
    m, v = int(rec["resolution"]), float(rec["visibility"])
    p_got, i_got = row[f"p_pnr_m{m}"], row[f"i_pnr_m{m}"]
    cond = pnr_conditionals_quad(point, float(row[f"pnr_beta_err_m{m}"]), m, v)
    p_ref = float(map_error(cond, point.priors))
    cond = pnr_conditionals_quad(point, float(row[f"pnr_beta_info_m{m}"]), m, v)
    i_ref = float(mutual_information(point.priors[:, None] * cond))
    misses = _close(f"p_pnr_m{m}", p_got, p_ref, PNR_TOL) + _close(f"i_pnr_m{m}", i_got, i_ref, PNR_TOL)
    if rec["beta_mode"] != "optimized":
        return misses
    # the reported displacement, valued exactly, against a dense grid
    span = 2.5 * max(abs(a) for a in point.alphas) + 1.5
    betas = np.linspace(-span, span, BETA_POINTS)
    cond = pnr_conditionals_grid(point, betas, m, v)
    p_best = float(map_error(cond, point.priors).min())
    i_best = float(mutual_information(point.priors[None, :, None] * cond).max())
    if p_ref > p_best + PNR_TOL:
        misses.append(Miss(f"p_pnr_m{m}.displacement", p_ref - p_best,
                           f"the reported displacement gives p_pnr_m{m} = {p_ref:.15g}, "
                           f"one on the grid gives {p_best:.15g}"))
    if i_ref < i_best - PNR_TOL:
        misses.append(Miss(f"i_pnr_m{m}.displacement", i_best - i_ref,
                           f"the reported displacement gives i_pnr_m{m} = {i_ref:.15g}, "
                           f"one on the grid gives {i_best:.15g}"))
    return misses


def _violated_ops(violations: str, ops: list) -> set:
    """Operations named by the program's own envelope violations."""
    named = set()
    for item in violations.split("|"):
        key = item.split("=", 1)[0]
        if key in ("p_atomic", "i_atomic"):
            named.add("atomic-error" if key == "p_atomic" else "atomic-information")
        elif key.startswith(("p_pnr_m", "i_pnr_m")):
            named.add(f"pnr-m{key.rsplit('m', 1)[1]}")
        else:
            return set(ops)
    return named


def check_row(sweep: dict, row: dict, ops: list) -> dict:
    """{operation: list of Miss} for one row of a sweep."""
    point = Point(sweep["signal"], sweep["mean_photons"], sweep["priors"][0], float(row["sigma"]))
    pnr_recs = {f"pnr-m{r['resolution']}": r for r in sweep["receivers"] if r["type"] == "pnr"}
    verdicts = {}
    for op in ops:
        try:
            if op == "helstrom":
                verdicts[op] = check_helstrom(row, point)
            elif op == "accinfo":
                verdicts[op] = check_accinfo(row, point)
            elif op == "atomic-error":
                verdicts[op] = check_atomic_error(row, point)
            elif op == "atomic-information":
                verdicts[op] = check_atomic_information(row, point)
            else:
                verdicts[op] = check_pnr(row, point, pnr_recs[op])
        except KeyError as exc:
            verdicts[op] = [Miss("row", float("inf"), f"row has no {exc}")]
    violations = row.get("violations") or ""
    if violations:
        for op in _violated_ops(violations, ops):
            verdicts[op].append(Miss("violations", float("inf"), f"envelope violation: {violations}"))
    return verdicts

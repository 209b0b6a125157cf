"""Independent reference computations the tests check the library against.

Each oracle is written once, here. They use numpy, scipy and math, and
from phasecomm only its matrix path: `kraus_operators` (with its argument
type `AtomicParams`), `povm_from_kraus`, `build_ensemble` /
`phase_diffused_coherent`, `joint_distribution` and `error_probability`.
Nothing here imports the photon-number series, the atomic or displacement
searches, the PNR kernel or the accessible-information ascent, so an oracle
cannot share a fault with the code it checks. `tests/test_oracles.py`
enforces this list.
"""

import math

import numpy as np
from scipy import integrate, special
from scipy import optimize as sciopt

from phasecomm import AtomicParams, build_ensemble, kraus_operators, povm_from_kraus
from phasecomm.discrimination import joint_distribution


def pure_state_error(q1: float, alpha1: float, alpha2: float) -> float:
    """Helstrom error of two pure coherent states |alpha1>, |alpha2> with priors q1, 1 - q1.

    1/2 (1 - sqrt(1 - 4 q1 q2 s)) with s = |<alpha1|alpha2>|^2 =
    exp(-(alpha1 - alpha2)^2), rewritten as 2 q1 q2 s / (1 + sqrt(1 - 4 q1 q2 s))
    so that it does not cancel when s is small.
    """
    q2 = 1.0 - q1
    s = math.exp(-((alpha1 - alpha2) ** 2))
    return 2.0 * q1 * q2 * s / (1.0 + math.sqrt(1.0 - 4.0 * q1 * q2 * s))


def coherent_ket_loop(alpha: float, size: int) -> np.ndarray:
    """The truncated coherent ket as a float64 array filled in place:
    exp(-alpha^2 / 2), then amps[n] = amps[n - 1] * alpha / sqrt(n)."""
    amps = np.empty(size)
    amps[0] = np.exp(-0.5 * alpha * alpha)
    for n in range(1, size):
        amps[n] = amps[n - 1] * alpha / np.sqrt(n)
    return amps


# p_helstrom at q1 = 0.5 and cutoff 30, keyed (signal, mean photons, sigma).
# Recipe: build the ensemble with `build_ensemble` (float64 states), convert
# every entry exactly to mpmath at 40 digits, take the eigenvalues lambda of
# q1 tau1 - q2 tau2 with `mpmath.eigsy`, and evaluate
# (q1 Tr tau1 + q2 Tr tau2 - sum |lambda|) / 2; the truncated traces fall
# short of 1 by up to 1e-12, so they are not replaced by 1. At 60 digits the
# values agree to 1e-40. mpmath is in no extra, so the values are pinned.
HELSTROM_40_DIGITS = {
    ("bpsk", 0.5, 0.0): 0.03506325248390309502530569677771897445252,
    ("bpsk", 0.5, 0.2): 0.04231529466632444794445448161749196739569,
    ("bpsk", 0.5, 0.4): 0.06382002792789658702380664636585548545399,
    ("bpsk", 0.5, 0.6): 0.1000022328658047694913683750466111866876,
    ("bpsk", 0.5, 0.8): 0.1493178277111404327004660097879188823269,
    ("bpsk", 0.5, 1.0): 0.2061207435572192156751965559992625685739,
    ("bpsk", 0.5, 1.2): 0.2639534056237931982615200863567086293178,
    ("bpsk", 1.0, 0.42): 0.02460445673260653277533205794302004447125,
    ("bpsk", 1.0, 0.6): 0.05270643799494957970686885807171185544482,
    ("bpsk", 1.0, 0.8): 0.1028411743092340512597182445718462042339,
    ("bpsk", 1.0, 1.0): 0.1655686848866125660200733268640810533074,
    ("ook", 1.5, 0.0): 0.01260567000832475569041288294947388451747,
    ("ook", 1.5, 1.0): 0.02361702627889889202874081680018142771008,
    ("ook", 1.5, 2.0): 0.02483158617020185519414109725430734350294,
    ("bpsk", 0.75, 2.0): 0.4287052252311138029940270064239701328746,
    ("ook", 0.5, 0.6): 0.138198002049554352484944236025141771598,
}


def information(joint, priors, guard: float = 0.0):
    """Shannon information in bits of joint tables p(x, y) = q_x Pr(y | x), shape (..., x, y).

    One (x, y) entry at a time, each over the whole stack of leading axes:
    an entry counts when it is positive and at least `guard`, and p(y) is
    the column sum as it stands.
    """
    joint = np.asarray(joint, dtype=float)
    py = joint.sum(axis=-2)
    info = np.zeros(joint.shape[:-2])
    for x in range(joint.shape[-2]):
        for y in range(joint.shape[-1]):
            p = joint[..., x, y]
            live = (p > 0) & (p >= guard)
            ratio = np.divide(p, priors[x] * py[..., y], out=np.ones_like(p), where=live)
            info = info + np.where(live, p * np.log2(ratio), 0.0)
    return info


def polished_minimum(fun, grid: np.ndarray, values: np.ndarray, count: int = 4) -> float:
    """Lowest of `fun` after a bounded Brent search around the best local grid minima."""
    padded = np.concatenate([[np.inf], values, [np.inf]])
    minima = np.flatnonzero((values <= padded[:-2]) & (values <= padded[2:]))
    best = float(values.min())
    step = grid[1] - grid[0]
    for i in minima[np.argsort(values[minima])][:count]:
        res = sciopt.minimize_scalar(
            fun,
            bounds=(max(grid[i] - step, grid[0]), min(grid[i] + step, grid[-1])),
            method="bounded",
            options={"xatol": 1e-10},
        )
        best = min(best, float(res.fun))
    return best


class KrausOracle:
    """Optimal atomic receiver of one point through its Kraus POVM, over a grid of Phi.

    The error depends on xi only through sin(xi) and is linear in it, so the
    optimum lies at |sin xi| = 1; letting theta range over a full period
    covers sin(xi) = -1, so xi = pi/2 suffices. There the joint table is
    a + b cos(2 theta) + c sin(2 theta), fixed by three thetas. The error's
    minimum over theta is exact; the information's is a grid of 2theta,
    polished. Over Phi: the grid, polished around its best local minima.
    """

    TWO_THETA = np.linspace(0.0, 2 * np.pi, 240, endpoint=False)

    def __init__(self, params, dim, phi):
        self.dim = dim
        self.phi = np.asarray(phi, dtype=float)
        self.ens = build_ensemble(params, dim)
        self.priors = (params.q1, params.q2)
        self._grid = None

    def coefficients(self, phi: float) -> tuple:
        """(a, b, c), each a 2x2 joint table, at one Phi."""
        t0, t45, t90 = (
            joint_distribution(self.ens, povm_from_kraus(*kraus_operators(AtomicParams(np.pi / 2, t, phi), self.dim)))
            for t in (0.0, np.pi / 4, np.pi / 2)
        )
        a = 0.5 * (t0 + t90)
        return a, 0.5 * (t0 - t90), t45 - a

    def grid(self) -> tuple:
        """(a, b, c) over the Phi grid, each of shape (len(phi), 2, 2)."""
        if self._grid is None:
            self._grid = tuple(np.array(v) for v in zip(*(self.coefficients(phi) for phi in self.phi)))
        return self._grid

    @staticmethod
    def _error(a, b, c):
        return 1.0 - a[..., 0, 0] - a[..., 1, 1] - np.hypot(b[..., 0, 0] + b[..., 1, 1], c[..., 0, 0] + c[..., 1, 1])

    def min_error(self) -> float:
        return polished_minimum(lambda phi: self._error(*self.coefficients(phi)), self.phi, self._error(*self.grid()))

    def _info(self, coeffs, two_theta) -> np.ndarray:
        """Information of the tables at each 2theta (last axis) for each leading entry of `coeffs`."""
        a, b, c = (v[..., None, :, :] for v in coeffs)
        t = two_theta[:, None, None]
        return information(a + b * np.cos(t) + c * np.sin(t), self.priors)

    def _neg_info_over_theta(self, phi: float) -> float:
        coeffs = self.coefficients(phi)
        return polished_minimum(
            lambda t: -self._info(coeffs, np.array([t]))[0], self.TWO_THETA, -self._info(coeffs, self.TWO_THETA)
        )

    def max_information(self) -> float:
        values = -self._info(self.grid(), self.TWO_THETA).max(axis=-1)
        return -polished_minimum(self._neg_info_over_theta, self.phi, values)


def holevo_chi(ens) -> float:
    """Holevo chi in bits, S(sum_x q_x tau_x) - sum_x q_x S(tau_x), from eigenvalues."""

    def von_neumann_bits(rho):
        w = np.linalg.eigvalsh(rho)
        w = w[w > 0]
        return float(-np.sum(w * np.log2(w)))

    (q1, q2), (t1, t2) = ens.priors, ens.states
    return von_neumann_bits(q1 * t1 + q2 * t2) - q1 * von_neumann_bits(t1) - q2 * von_neumann_bits(t2)


def lifted_elements(phi: np.ndarray, support: np.ndarray) -> tuple:
    """The projective measurement M_y = phi_y phi_y^T on the support V, lifted
    to the full space: V M_y V^T + (I - V V^T) / r, one element per row of Phi."""
    lifted = phi @ support.T
    rest = (np.eye(support.shape[0]) - support @ support.T) / phi.shape[0]
    return tuple(np.outer(v, v) + rest for v in lifted)


def dense_residual(ens, povm, guard: float) -> float:
    """max_y ||M_y Gamma - M_y R_y||_max on the full space, Gamma = sum_y R_y M_y.

    R_y = sum_x q_x log2(p(x, y) / (q_x p(y))) tau_x, with entries of p(x, y)
    below `guard` left out of the sum.
    """
    q = np.asarray(ens.priors, dtype=float)
    taus, ms = np.asarray(ens.states), np.asarray(povm.elements)
    joint = np.array([[q[x] * np.real(np.trace(taus[x] @ ms[y])) for y in range(len(ms))] for x in range(2)])
    py = joint.sum(axis=0)
    live = (joint >= guard) & (py >= guard)
    weights = np.where(live, q[:, None] * np.log2(np.where(live, joint / (q[:, None] * py), 1.0)), 0.0)
    r = np.array([sum(weights[x, y] * taus[x] for x in range(2)) for y in range(len(ms))])
    gamma = sum(r[y] @ ms[y] for y in range(len(ms)))
    return max(float(np.max(np.abs(ms[y] @ gamma - ms[y] @ r[y]))) for y in range(len(ms)))


def quad_distribution(alpha, sigma, beta, visibility, m):
    """Counts 0..m-1 and the merged rest, by adaptive quadrature of the Gaussian phase.

    Integrates over the real line in units of sigma, split where the count
    mean repeats, with the count mean written as
    (alpha - beta)^2 + 2 alpha beta (1 - v) + 4 v alpha beta sin^2(phi / 2),
    which does not cancel near nulling.
    """
    k = np.arange(m)
    factorials = special.factorial(k)

    def pmf(phi):
        mean = (alpha - beta) ** 2 + 2 * alpha * beta * (1 - visibility) + 4 * visibility * alpha * beta * np.sin(phi / 2) ** 2
        mean = max(mean, 0.0)
        return np.exp(-mean) * mean**k / factorials

    if sigma == 0.0:
        counts = pmf(0.0)
    else:
        # the integrand is even in phi; |phi| beyond 12 sigma carries exp(-72)
        breaks = np.arange(1, int(12.0 * sigma / np.pi) + 1) * np.pi / sigma
        counts, _ = integrate.quad_vec(
            lambda t: np.sqrt(2.0 / np.pi) * np.exp(-0.5 * t * t) * pmf(sigma * t), 0.0, 12.0,
            epsabs=1e-16, epsrel=1e-14, norm="max", points=breaks if breaks.size else None,
        )
    return np.append(counts, max(1.0 - counts.sum(), 0.0))


def poisson_slopes(alpha, sigma, beta, visibility, m, nodes: int = 512) -> tuple:
    """Counts 0..m-1 and the merged rest, and their first and second beta
    derivatives, each (m + 1,), by the textbook derivatives of the Poisson pmf
    averaged over the Gaussian phase.

    At the count mean mu = alpha^2 + beta^2 - 2 v alpha beta cos(phi), with
    mu' = 2 (beta - v alpha cos(phi)) and mu'' = 2, dP_k = P_k (k / mu - 1) mu'
    and d2P_k = P_k [((k / mu - 1)^2 - k / mu^2) mu'^2 + 2 (k / mu - 1)]; the
    merged outcome's are minus their sums. The phase average is the
    equispaced rule on `nodes` nodes, its weights the direct cosine sum of
    the wrapped normal's Fourier modes exp(-sigma^2 k^2 / 2), and at sigma 0
    the value at phi = 0. Needs mu > 0 at every node.
    """
    phi = 2.0 * np.pi * np.arange(nodes) / nodes
    modes = np.arange(1, nodes // 2)
    weights = (1.0 + 2.0 * np.cos(np.outer(phi, modes)) @ np.exp(-0.5 * sigma**2 * modes**2)
               + np.exp(-0.5 * sigma**2 * (nodes // 2) ** 2) * np.cos(nodes // 2 * phi)) / nodes
    if sigma == 0.0:
        weights = np.where(phi == 0.0, 1.0, 0.0)
    mu = alpha**2 + beta**2 - 2.0 * visibility * alpha * beta * np.cos(phi)
    rise = 2.0 * (beta - visibility * alpha * np.cos(phi))
    k = np.arange(m)[:, None]
    pmf = np.exp(-mu + k * np.log(mu) - special.gammaln(k + 1))
    ratio = k / mu - 1.0
    parts = []
    for values in (pmf, pmf * ratio * rise, pmf * ((ratio**2 - k / mu**2) * rise**2 + 2.0 * ratio)):
        counts = values @ weights
        parts.append(np.append(counts, -counts.sum()))
    parts[0][-1] += 1.0
    return tuple(parts)


class _Elements:
    """A POVM as `dense_residual` reads it: its `elements`."""

    def __init__(self, elements):
        self.elements = elements


def povm_information(ens, guard: float, outcomes_per_rank: int = 2, seed: int = 0, runs: int = 8) -> tuple:
    """Information of the best real rank-one POVM with K = outcomes_per_rank x r
    elements that L-BFGS-B finds, and its stationarity residual (`dense_residual`
    with `guard`).

    On an orthonormal basis V of the support of q1 tau1 + q2 tau2 (rank r),
    M_y = V phi_y phi_y^T V^T + (I - V V^T) / K with phi_y the rows of
    Phi = X (X^T X)^{-1/2}, X real K x r; the gradient in X is pulled back
    through the inverse square root with the Daleckii-Krein divided
    differences of s^{-1/2} over the eigenvalues s of X^T X. Each run
    restarts L-BFGS-B from the last X; the first X is Gaussian from `seed`.
    """
    q = np.asarray(ens.priors, dtype=float)
    states = np.real(np.asarray(ens.states))
    w, v = np.linalg.eigh(q[0] * states[0] + q[1] * states[1])
    support = v[:, w > w.max() * ens.size * np.finfo(float).eps]
    taus = support.T @ states @ support
    r = support.shape[1]
    k = outcomes_per_rank * r

    def neg_information(flat):
        x = flat.reshape(k, r)
        s, u = np.linalg.eigh(x.T @ x)
        root = np.sqrt(s)
        inv_root = (u / root) @ u.T
        phi = x @ inv_root
        t = np.einsum("xij,yj->xyi", taus, phi)  # tau_x phi_y
        joint = q[:, None] * np.einsum("yi,xyi->xy", phi, t)
        py = joint.sum(axis=0)
        live = (joint > 0) & (py > 0)
        log_ratio = np.where(live, np.log2(np.where(live, joint, 1.0) / (q[:, None] * np.where(py > 0, py, 1.0))), 0.0)
        g = 2.0 * np.einsum("xy,xyi->yi", q[:, None] * log_ratio, t)  # gradient in phi_y
        a = u.T @ (x.T @ g) @ u
        divided = -1.0 / (np.outer(root, root) * (root[:, None] + root[None, :]))
        grad = g @ inv_root + x @ (u @ ((a + a.T) * divided) @ u.T)
        return -float(np.sum(joint * log_ratio)), -grad.ravel()

    def lifted(flat):
        x = flat.reshape(k, r)
        s, u = np.linalg.eigh(x.T @ x)
        phi = (x @ ((u / np.sqrt(s)) @ u.T)) @ support.T
        rest = (np.eye(ens.size) - support @ support.T) / k
        return _Elements(tuple(np.outer(p, p) + rest for p in phi))

    x = np.random.default_rng(seed).standard_normal(k * r)
    for _ in range(runs):
        res = sciopt.minimize(neg_information, x, jac=True, method="L-BFGS-B",
                              options={"maxiter": 20_000, "ftol": 1e-16, "gtol": 1e-12})
        x = res.x
        residual = dense_residual(ens, lifted(x), guard)
        if residual <= 1e-6:
            break
    return -float(res.fun), residual


def cayley_inverse(a: np.ndarray, r: int) -> np.ndarray:
    """inv(I - A) for the skew r x r matrix A with strict upper triangle `a`
    (row-major), A written by fancy indexing at np.triu_indices(r, 1)."""
    upper = np.triu_indices(r, 1)
    eye_minus_a = np.eye(r)
    eye_minus_a[upper] = -a
    eye_minus_a[upper[::-1]] = a
    return np.linalg.inv(eye_minus_a)


def skew_gradient(e: np.ndarray) -> np.ndarray:
    """-4 (E - E^T) on the strict upper triangle (row-major): the gradient in
    the upper triangle of A from the gradient E in the full A."""
    return -4.0 * (e - e.T)[np.triu_indices(e.shape[0], 1)]


def bfgs_update(h, s: np.ndarray, y: np.ndarray):
    """The BFGS inverse Hessian after the pair (s, y), as a new array: None
    becomes gamma I, and a pair without curvature returns `h` unchanged.

    H + c s s^T - rho (s h^T + h s^T), h = H y, as one product of two
    `np.stack`ed factors (Nocedal and Wright, eqs. 6.17 and 6.20).
    """
    s_y = float(s @ y)
    if not s_y > np.finfo(float).eps * float(y @ y):
        return h
    if h is None:
        h = np.diag(np.full(s.size, s_y / float(y @ y)))
    rho = 1.0 / s_y
    h_y = h @ y
    c = rho + rho * rho * float(y @ h_y)
    return h + np.stack((s, h_y), axis=1) @ np.stack((c * s - rho * h_y, -rho * s))


def series_sums(weights: np.ndarray, phi: np.ndarray, slopes: bool = False) -> tuple:
    """(sums, last) of the diagonal, raised and cross series of amplitude rows
    (w0, w1, wc), shape (..., 3, n + 1), at each coupling, and with `slopes`
    also the sums' first and second Phi derivatives, each (..., 3, len(phi)):
    the closed forms of `phasecomm.atomic._series_sums`, with each row's
    factors `np.stack`ed. The second derivatives are the textbook series
    -2 sum w0 n cos(2 Phi sqrt n), 2 sum w1 (n+1) cos(2 Phi sqrt(n+1)) and
    -sum wc [(2n+1) cos(Phi sqrt n) sin(Phi sqrt(n+1))
    + 2 sqrt(n(n+1)) sin(Phi sqrt n) cos(Phi sqrt(n+1))]."""
    root = np.sqrt(np.arange(weights.shape[-1] + 1))
    arg = np.multiply.outer(phi, root)
    cos_n, sin_n1 = np.cos(arg[:, :-1]), np.sin(arg[:, 1:])
    weights = weights[..., None, :]
    terms = weights * np.stack([cos_n**2, sin_n1**2, cos_n * sin_n1])
    if not slopes:
        return terms.sum(axis=-1), terms[..., -1]
    sin_n, cos_n1 = np.sin(arg[:, :-1]), np.cos(arg[:, 1:])
    r0, r1 = root[:-1], root[1:]
    derivatives = np.stack([
        -2 * r0 * sin_n * cos_n,
        2 * r1 * sin_n1 * cos_n1,
        r1 * cos_n * cos_n1 - r0 * sin_n * sin_n1,
    ])
    n = np.arange(weights.shape[-1])
    double = np.cos(2 * arg)
    curvatures = np.stack([
        -2 * n * double[:, :-1],
        2 * (n + 1) * double[:, 1:],
        -((2 * n + 1) * cos_n * sin_n1 + 2 * r0 * r1 * sin_n * cos_n1),
    ])
    return terms.sum(axis=-1), terms[..., -1], (weights * derivatives).sum(axis=-1), (weights * curvatures).sum(axis=-1)


def table_coefficients(sums: np.ndarray, priors, alphas, damping) -> tuple:
    """(mean, swing, inter) of the joint tables from the hypotheses' (diag,
    raised, cross) sums, shape (2, 3, len(phi)), read through `np.moveaxis`:
    q_x e^{-alpha^2} times (diag + raised) / 2, (diag - raised) / 2 and
    -damping cross."""
    diag, raised, cross = np.moveaxis(sums, 1, 0)
    scale = np.array([[q_x * np.exp(-alpha * alpha)] for q_x, alpha in zip(priors, alphas)])
    half = 0.5 * scale
    return half * (diag + raised), half * (diag - raised), -scale * damping * cross


def joint_rows(mean, swing, inter, cos_t, sin_t) -> np.ndarray:
    """Tables (..., 2, 2) with Pr(x, 0) = mean + swing cos + inter sin and
    Pr(x, 1) = mean - swing cos - inter sin, `np.stack`ed on the last axis."""
    return np.stack([mean + swing * cos_t + inter * sin_t, mean - swing * cos_t - inter * sin_t], axis=-1)


def information_gradient(log_ratio, slope, swing, inter, cos_t, sin_t) -> np.ndarray:
    """(dI/dPhi, dI/d2theta) of (k, 2, 2) tables as `np.stack`s: the log
    ratios summed against the tables of the slopes (mean', swing', inter'),
    and against (turn, -turn), turn = inter cos - swing sin."""
    turn = inter * cos_t - swing * sin_t
    return np.stack([
        (log_ratio * joint_rows(*slope, cos_t, sin_t)).sum(axis=(1, 2)),
        (log_ratio * np.stack([turn, -turn], axis=-1)).sum(axis=(1, 2)),
    ], axis=-1)


def neg_information(table, slope, two_theta, log_ratio) -> list:
    """(minus the information, minus its gradient in (Phi, 2theta)) at each
    trial, in the arithmetic of the information polish's first round kernel:
    `table` and `slope` are (mean, swing, inter) and their Phi derivatives,
    each of shape (2, k), `two_theta` has shape (k,), and `log_ratio` maps
    (k, 2, 2) joint tables to their log ratios."""
    (mean, swing, inter), slope = ([v.T for v in part] for part in (table, slope))
    cos_t, sin_t = np.cos(two_theta)[:, None], np.sin(two_theta)[:, None]
    joint = joint_rows(mean, swing, inter, cos_t, sin_t)
    ratio = log_ratio(joint)
    turn = np.multiply.outer(inter * cos_t - swing * sin_t, (1.0, -1.0))
    gradient = np.empty((len(two_theta), 2))
    gradient[:, 0] = (ratio * joint_rows(*slope, cos_t, sin_t)).sum(axis=(1, 2))
    gradient[:, 1] = (ratio * turn).sum(axis=(1, 2))
    return list(zip(-(joint * ratio).sum(axis=(1, 2)), -gradient))


def information_hessian(table, slope, curve, two_theta, priors, guard: float) -> np.ndarray:
    """(I_PhiPhi, I_Phi2theta, I_2theta2theta), shape (3, k), of the
    information of the tables Pr(x, 0) = mean + swing cos(2theta) +
    inter sin(2theta), Pr(x, 1) = mean - swing cos(2theta) - inter
    sin(2theta), from the chain rule one (x, y) entry at a time:
    sum log2(Pr / (q_x Pr(y))) d2Pr + (sum dPr dPr / Pr - sum_y dPr(y) dPr(y) / Pr(y)) / ln 2,
    entries and columns below `guard` left out. `table`, `slope` and `curve`
    are (mean, swing, inter) and their first and second Phi derivatives,
    each (2, k)."""
    mean, swing, inter = table
    cos_t, sin_t = np.cos(two_theta), np.sin(two_theta)
    sign = (1.0, -1.0)
    hessian = np.zeros((3, len(two_theta)))
    for y in (0, 1):
        p = [mean[x] + sign[y] * (swing[x] * cos_t + inter[x] * sin_t) for x in (0, 1)]
        p_y = p[0] + p[1]
        # d/dPhi, d/d2theta; d2/dPhi2, d2/dPhi d2theta, d2/d2theta2
        first = [(slope[0][x] + sign[y] * (slope[1][x] * cos_t + slope[2][x] * sin_t),
                  sign[y] * (inter[x] * cos_t - swing[x] * sin_t)) for x in (0, 1)]
        second = [(curve[0][x] + sign[y] * (curve[1][x] * cos_t + curve[2][x] * sin_t),
                   sign[y] * (slope[2][x] * cos_t - slope[1][x] * sin_t),
                   -sign[y] * (swing[x] * cos_t + inter[x] * sin_t)) for x in (0, 1)]
        for x in (0, 1):
            live = (p[x] >= guard) & (p_y >= guard)
            ratio = np.log2(np.where(live, p[x], 1.0) / np.where(live, priors[x] * p_y, 1.0))
            inverse = np.where(p[x] >= guard, 1.0 / np.where(p[x] >= guard, p[x], 1.0), 0.0)
            for n, (a, b) in enumerate(((0, 0), (0, 1), (1, 1))):
                hessian[n] += ratio * second[x][n] + first[x][a] * first[x][b] * inverse / math.log(2.0)
        inverse_y = np.where(p_y >= guard, 1.0 / np.where(p_y >= guard, p_y, 1.0), 0.0)
        for n, (a, b) in enumerate(((0, 0), (0, 1), (1, 1))):
            hessian[n] -= (first[0][a] + first[1][a]) * (first[0][b] + first[1][b]) * inverse_y / math.log(2.0)
    return hessian


def map_scores(table: np.ndarray, priors, information) -> dict:
    """Per objective, sign * objective at each displacement of one resolution's
    (x, displacement, count) table: 1.0 times the MAP error and -1.0 times
    `information` of the (displacement, x, count) joint tables."""
    q = np.array(priors, dtype=float)
    joint = (q[:, None, None] * table).transpose(1, 0, 2)
    return {"min-error": 1.0 * (1.0 - joint.max(axis=-2).sum(axis=-1)), "max-information": -1.0 * information(joint, q)}


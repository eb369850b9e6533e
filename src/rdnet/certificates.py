"""Stability certificates: feasibility checks and a closed-form certificate search.

Feasibility of the switched stability condition is an eigenvalue check of a
symmetric matrix assembled from the mode data, so no semidefinite-programming
dependency is needed at these problem sizes. The search enumerates simplex
weights on a lattice; the combined matrix is M0(beta) + e^{gamma tau} q G^2
with G^2 positive definite, so the largest feasible decay parameter of each
weight is a generalized eigenvalue (the GEVP of Boyd, El Ghaoui, Feron &
Balakrishnan, Linear Matrix Inequalities in System and Control Theory, SIAM
1994, section 2), computed for the whole lattice in one batched eigenvalue
call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .model import CGSystem, Mode, SwitchedNetwork

NEG_DEF_SLACK = 1e-10
# the gamma -> 0+ probe: a simplex weight admits a certificate at all iff
# the check passes here
GAMMA_PROBE = 1e-6


@dataclass(frozen=True)
class Certificate:
    """Feasibility verdict for a (beta, gamma, q) triple."""

    beta: tuple[float, ...]
    gamma: float
    q: float
    margin: float
    feasible: bool
    theorem_constraint_ok: bool
    rate: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CGRates:
    """Decay-rate quantities for the Cohen-Grossberg certificate."""

    Phi_tilde: np.ndarray
    a_tilde: float
    b: float
    lam: float
    rho: float
    delta_min: float
    rate: float
    delta: float


def _symmetrize(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def _mode_term(mode: Mode) -> np.ndarray:
    """-2 lambda1 D - 2C + A A^T + B B^T, the part of Q_sigma owned by the mode."""
    return (-2.0 * mode.lambda1 * mode.D - 2.0 * mode.C
            + mode.A @ mode.A.T + mode.B @ mode.B.T)


def mode_margin_matrix(mode: Mode, G: np.ndarray, gamma: float, q: float,
                       tau: float, Psi: np.ndarray) -> np.ndarray:
    """Per-mode switching-region matrix Q_sigma.

    Q = -2 lambda1 D - 2C + A A^T + B B^T + G^2 + e^{gamma tau} q G^2 + Psi,
    exactly symmetric.
    """
    if gamma < 0 or q < 1 or tau < 0:
        raise ValueError("need gamma >= 0, q >= 1, tau >= 0")
    G2 = G @ G
    return _symmetrize(_mode_term(mode) + G2 + math.exp(gamma * tau) * q * G2 + Psi)


def _margin_stack(network: SwitchedNetwork, betas: np.ndarray, gamma: float,
                  q: float) -> np.ndarray:
    """Combined matrix for each row of betas (shape (L, N)), shape (L, n, n)."""
    G2 = network.activation.G @ network.activation.G
    M = G2 + math.exp(gamma * network.tau_max) * q * G2 + network.Psi
    for s, mode in enumerate(network.modes):
        M = M + betas[:, s, None, None] * _mode_term(mode)
    return _symmetrize(M)


def margin_matrix(network: SwitchedNetwork, beta, gamma: float, q: float) -> np.ndarray:
    """Simplex combination of the mode matrices sharing one activation term."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (network.N,):
        raise ValueError("beta length must equal the number of modes")
    if np.any(beta < -1e-12) or abs(beta.sum() - 1.0) > 1e-12:
        raise ValueError("beta must lie on the probability simplex")
    return _margin_stack(network, beta[None], gamma, q)[0]


def verify_certificate(network: SwitchedNetwork, beta, gamma: float,
                       q: float | None = None) -> Certificate:
    """Check the combined matrix inequality at the given point.

    Feasible iff the largest eigenvalue (the margin) is below the
    negative-definiteness slack. The reported rate gamma/2 applies when
    feasible; the flag records whether gamma < lambda_min(Psi), which the
    stability theorem additionally requires.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    q = network.q if q is None else q
    if q <= 1:
        raise ValueError("q must exceed 1")
    M = margin_matrix(network, beta, gamma, q)
    margin = float(np.linalg.eigvalsh(M).max())
    feasible = margin < -NEG_DEF_SLACK
    constraint_ok = gamma < float(np.linalg.eigvalsh(network.Psi).min())
    return Certificate(
        beta=tuple(float(b) for b in np.asarray(beta, dtype=float)),
        gamma=float(gamma), q=float(q), margin=margin, feasible=feasible,
        theorem_constraint_ok=constraint_ok,
        rate=gamma / 2.0 if feasible else None,
    )


def _simplex_lattice(N: int, m: int) -> np.ndarray:
    """All nonnegative points with coordinates multiples of 1/m summing to 1.

    Rows are in lexicographic order of the integer numerators.
    """
    def rec(remaining: int, slots: int):
        if slots == 1:
            yield (remaining,)
            return
        for k in range(remaining + 1):
            for rest in rec(remaining - k, slots - 1):
                yield (k,) + rest

    return np.array(list(rec(m, N)), dtype=float) / m


def search_certificate(network: SwitchedNetwork, beta_step: float | None = None,
                       q: float | None = None, honor_theorem_constraint: bool = True,
                       gamma_cap: float = 10.0) -> Certificate:
    """Grid the simplex, take each weight's largest feasible gamma in closed form.

    The combined matrix is M(beta, gamma) = M(beta, g0) + (e^{gamma tau} -
    e^{g0 tau}) q G^2 with G = diag(lipschitz) positive, so it stays below
    -NEG_DEF_SLACK exactly while e^{gamma tau} < t*(beta) = e^{g0 tau} +
    lambda_min(G^-1 (-M(beta, g0) - NEG_DEF_SLACK I) G^-1) / q. The weights
    feasible at the probe g0 = GAMMA_PROBE get gamma* = ln(t*)/tau, capped
    (any feasible weight gets the cap when tau = 0). The best point has the
    largest gamma*, ties broken by the smaller margin and then by lattice
    order; gamma is backed off by ulps until verify_certificate passes, and
    that re-verified certificate is returned. If nothing is feasible the
    returned certificate carries the least margin found at the probe.
    """
    if beta_step is None:
        beta_step = 0.01 if network.N <= 3 else 0.05
    if not 0 < beta_step <= 1:
        raise ValueError("beta grid step must lie in (0, 1]")
    m = round(1.0 / beta_step)
    if not math.isclose(m * beta_step, 1.0, rel_tol=1e-9):
        raise ValueError(f"beta grid step {beta_step} does not divide 1")
    q = network.q if q is None else q
    if q <= 1:
        raise ValueError("q must exceed 1")
    psi_min = float(np.linalg.eigvalsh(network.Psi).min())
    # stay strictly below the side constraint, which is a strict inequality
    gamma_hi_cap = psi_min * (1.0 - 1e-9) if honor_theorem_constraint else gamma_cap
    if gamma_hi_cap <= 0:
        raise ValueError("the gamma cap must be positive")
    probe = min(GAMMA_PROBE, gamma_hi_cap / 2)

    betas = _simplex_lattice(network.N, m)
    M = _margin_stack(network, betas, probe, q)
    margins = np.linalg.eigvalsh(M).max(axis=-1)
    feasible = np.flatnonzero(margins < -NEG_DEF_SLACK)
    if feasible.size == 0:
        return verify_certificate(network, betas[np.argmin(margins)], probe, q)

    tau = network.tau_max
    if tau == 0:
        gammas = np.full(feasible.size, gamma_hi_cap)
    else:
        g = np.asarray(network.activation.lipschitz, dtype=float)
        W = -(M[feasible] + NEG_DEF_SLACK * np.eye(network.n)) / np.outer(g, g)
        t_star = math.exp(probe * tau) + np.linalg.eigvalsh(W).min(axis=-1) / q
        gammas = np.clip(np.log(np.maximum(t_star, 1.0)) / tau, probe, gamma_hi_cap)
    gamma = float(gammas.max())
    tied = feasible[gammas == gamma]
    tied_margins = np.linalg.eigvalsh(_margin_stack(network, betas[tied], gamma, q))
    beta = betas[tied[np.argmin(tied_margins.max(axis=-1))]]

    cert = verify_certificate(network, beta, gamma, q)
    step = math.ulp(gamma)
    while not cert.feasible and gamma > probe:
        gamma = max(gamma - step, probe)
        step *= 2.0
        cert = verify_certificate(network, beta, gamma, q)
    return cert


def check_uniqueness_A3(modes, epsilon: float, p="auto", G: np.ndarray | None = None,
                        activation=None) -> list[dict]:
    """Per-mode uniqueness condition: -C + (p/2)(1/eps I + eps G^2) < lambda1 D.

    p="auto" takes the largest singular value of A + B, the smallest constant
    compatible with p^2 I >= (A+B)^T (A+B). Returns one verdict dict per mode.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if G is None:
        if activation is None:
            raise ValueError("supply G or an activation")
        G = activation.G
    G2 = G @ G
    n = G.shape[0]
    results = []
    for idx, mode in enumerate(modes):
        if p == "auto":
            p_sigma = float(np.linalg.svd(mode.A + mode.B, compute_uv=False).max())
        elif np.isscalar(p):
            p_sigma = float(p)
        else:
            p_sigma = float(p[idx])
        lhs = -mode.C + 0.5 * p_sigma * (np.eye(n) / epsilon + epsilon * G2)
        gap = _symmetrize(lhs - mode.lambda1 * mode.D)
        max_eig = float(np.linalg.eigvalsh(gap).max())
        results.append({
            "mode": idx,
            "p": p_sigma,
            "max_eig": max_eig,
            "holds": max_eig < -NEG_DEF_SLACK,
        })
    return results


def check_corollary34(modes, epsilon: float, G: np.ndarray | None = None,
                      activation=None) -> list[dict]:
    """Cellular-form specialization of the uniqueness condition.

    Identical verdict semantics; p defaults to the singular-value bound of
    the combined coupling.
    """
    return check_uniqueness_A3(modes, epsilon, p="auto", G=G, activation=activation)


def cg_margin_matrix(cg: CGSystem) -> np.ndarray:
    """3n x 3n block matrix of the Cohen-Grossberg feasibility condition.

    Blocks: [[-2 P A_lower B + F^2, P A_upper |C|, P A_upper |D|],
             [|C^T| A_upper P, -I, 0], [|D^T| A_upper P, 0, -I]].
    The lower amplification bound is used in the corner block (the
    conservative choice).
    """
    n = cg.n
    P, Au, Al = np.diag(cg.P), np.diag(cg.A_upper), np.diag(cg.A_lower)
    B, F = np.diag(cg.B), np.diag(cg.F)
    absC, absD = np.abs(cg.C), np.abs(cg.D)
    I = np.eye(n)
    Z = np.zeros((n, n))
    top = [-2.0 * P @ Al @ B + F @ F, P @ Au @ absC, P @ Au @ absD]
    mid = [absC.T @ Au @ P, -I, Z]
    bot = [absD.T @ Au @ P, Z, -I]
    return _symmetrize(np.block([top, mid, bot]))


def cg_check_C1(cg: CGSystem) -> dict:
    """Negative definiteness of the block matrix; returns its max eigenvalue."""
    M = cg_margin_matrix(cg)
    max_eig = float(np.linalg.eigvalsh(M).max())
    return {"max_eig": max_eig, "holds": max_eig < -NEG_DEF_SLACK}


def cg_phi_tilde(cg: CGSystem) -> np.ndarray:
    """2 P A_lower B - P A_upper |C||C^T| A_upper P - P A_upper |D||D^T| A_upper P - F^2."""
    P, Au, Al = np.diag(cg.P), np.diag(cg.A_upper), np.diag(cg.A_lower)
    B, F = np.diag(cg.B), np.diag(cg.F)
    absC, absD = np.abs(cg.C), np.abs(cg.D)
    Phi = (2.0 * P @ Al @ B
           - P @ Au @ absC @ absC.T @ Au @ P
           - P @ Au @ absD @ absD.T @ Au @ P
           - F @ F)
    return _symmetrize(Phi)


def solve_rate_equation(a: float, b: float, tau: float, tol: float = 1e-12) -> float:
    """Unique positive root of lam = a - b e^{lam tau}, for a > b >= 0.

    Bisection on [0, a]; the left side minus the right is strictly
    increasing, negative at 0 and positive at a (for b > 0), so the root is
    bracketed. b = 0 returns a; tau = 0 returns a - b.
    """
    if b < 0 or a <= b:
        raise ValueError("need a > b >= 0")
    if b == 0.0:
        return a
    if tau == 0.0:
        return a - b
    lo, hi = 0.0, a
    f = lambda lam: lam - a + b * math.exp(lam * tau)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    # polish with a few Newton steps to hit the residual tolerance
    for _ in range(5):
        fl = f(lam)
        lam -= fl / (1.0 + b * tau * math.exp(lam * tau))
    return lam


def cg_rates(cg: CGSystem, delta: float | None = None) -> CGRates:
    """Decay quantities for the impulsive Cohen-Grossberg certificate.

    Computes the coupling-dominance matrix, the effective rates a~ and b,
    the root of lam = a~ - b e^{lam tau}, the impulse amplification rho and
    the minimal impulse-spacing parameter delta_min. The reported rate is
    (lam - ln(rho e^{lam tau}) / (delta tau)) / 2 with delta defaulting to
    delta_min.
    """
    Phi = cg_phi_tilde(cg)
    eigs = np.linalg.eigvalsh(Phi)
    if eigs.min() <= 0:
        raise ValueError("C2 violated: coupling-dominance matrix not positive definite")
    a_tilde = float(eigs.min() / cg.P.max())
    b = float((cg.G**2).max() / cg.P.min())
    if a_tilde <= b:
        raise ValueError("C2 violated: a~ <= b")
    lam = solve_rate_equation(a_tilde, b, cg.tau)
    P, M_diag, H, Nmat = np.diag(cg.P), np.diag(cg.M), np.diag(cg.H), cg.N
    pmp = float(np.linalg.eigvalsh(_symmetrize(P @ M_diag @ P)).max())
    hnh = float(np.linalg.eigvalsh(_symmetrize(H @ Nmat.T @ P @ Nmat @ H)).max())
    rho = max(1.0, 2.0 * pmp / cg.P.min() + 2.0 * hnh / cg.P.min() * math.exp(lam * cg.tau))
    log_term = math.log(rho * math.exp(lam * cg.tau))
    tau = cg.tau if cg.tau > 0 else 1.0
    delta_min = math.sqrt(log_term / tau)
    d = delta_min if delta is None else delta
    rate = 0.5 * (lam - log_term / (d * tau)) if d > 0 else 0.0
    return CGRates(Phi_tilde=Phi, a_tilde=a_tilde, b=b, lam=lam, rho=rho,
                   delta_min=delta_min, rate=rate, delta=d)

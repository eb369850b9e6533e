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
from itertools import chain, combinations

import numpy as np

from .model import SwitchedNetwork

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


def _symmetrize(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + np.swapaxes(M, -1, -2))


@np.errstate(over="ignore", invalid="ignore")   # reported below as a ValueError
def margin_matrices(network: SwitchedNetwork, betas: np.ndarray, gamma: float,
                    q: float) -> np.ndarray:
    """Combined matrix M(beta) for each row of betas (shape (L, N)), shape (L, n, n).

    M(beta) = G^2 + e^{gamma tau} q G^2 + Psi + sum_s beta_s (-2 lambda1 D_s
    - 2C_s + A_s A_s^T + B_s B_s^T), exactly symmetric, with tau = tau_max.
    At the simplex vertex e_s it is mode s's switching matrix Q_s. A
    ValueError names gamma*tau where the matrix overflows a float.
    """
    G2 = network.activation.G @ network.activation.G
    tau = network.tau_max
    try:
        delay_factor = math.exp(gamma * tau)
    except OverflowError:
        delay_factor = math.inf
    M = G2 + delay_factor * q * G2 + network.Psi
    for s, mode in enumerate(network.modes):
        M = M + betas[:, s, None, None] * (-2.0 * mode.lambda1 * mode.D - 2.0 * mode.C
                                           + mode.A @ mode.A.T + mode.B @ mode.B.T)
    M = _symmetrize(M)
    if not np.isfinite(M).all():
        raise ValueError(f"the margin matrix overflows a float: gamma*tau = {gamma * tau:.6g}")
    return M


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
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (network.N,):
        raise ValueError("beta length must equal the number of modes")
    if np.any(beta < -1e-12) or abs(beta.sum() - 1.0) > 1e-12:
        raise ValueError("beta must lie on the probability simplex")
    M = margin_matrices(network, beta[None], gamma, q)[0]
    margin = float(np.linalg.eigvalsh(M).max())
    feasible = margin < -NEG_DEF_SLACK
    constraint_ok = gamma < float(np.linalg.eigvalsh(network.Psi).min())
    return Certificate(
        beta=tuple(beta.tolist()),
        gamma=float(gamma), q=float(q), margin=margin, feasible=feasible,
        theorem_constraint_ok=constraint_ok,
        rate=gamma / 2.0 if feasible else None,
    )


def _simplex_lattice(N: int, m: int) -> np.ndarray:
    """All nonnegative points with coordinates multiples of 1/m summing to 1.

    Rows are in lexicographic order of the integer numerators: by stars and
    bars, the lexicographic order of the N - 1 bar positions among m + N - 1.
    """
    count = math.comb(m + N - 1, N - 1)
    bars = np.fromiter(chain.from_iterable(combinations(range(m + N - 1), N - 1)),
                       dtype=np.intp, count=count * (N - 1)).reshape(count, N - 1)
    return (np.diff(bars, axis=1, prepend=-1, append=m + N - 1) - 1) / m


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
    M = margin_matrices(network, betas, probe, q)
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
    tied_margins = np.linalg.eigvalsh(margin_matrices(network, betas[tied], gamma, q))
    beta = betas[tied[np.argmin(tied_margins.max(axis=-1))]]

    cert = verify_certificate(network, beta, gamma, q)
    step = math.ulp(gamma)
    while not cert.feasible and gamma > probe:
        gamma = max(gamma - step, probe)
        step *= 2.0
        cert = verify_certificate(network, beta, gamma, q)
    return cert


def check_uniqueness_A3(modes, epsilon: float, G: np.ndarray, p: float) -> list[dict]:
    """Per-mode uniqueness condition: -C + (p/2)(1/eps I + eps G^2) < lambda1 D.

    G is the Lipschitz matrix (Activation.G) and p one float for every mode,
    with p^2 I >= (A+B)^T (A+B). Returns one verdict dict per mode.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    G2 = G @ G
    n = G.shape[0]
    p = float(p)
    results = []
    for idx, mode in enumerate(modes):
        lhs = -mode.C + 0.5 * p * (np.eye(n) / epsilon + epsilon * G2)
        gap = _symmetrize(lhs - mode.lambda1 * mode.D)
        max_eig = float(np.linalg.eigvalsh(gap).max())
        results.append({
            "mode": idx,
            "p": p,
            "max_eig": max_eig,
            "holds": max_eig < -NEG_DEF_SLACK,
        })
    return results


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

"""Built-in benchmark systems and their reference values.

All constants of the reproduction targets are embedded here so the harness
needs no hand-typed input: the three-mode switched financial system with its
three parameter cases, the scalar boundary-layer benchmark with its closed
form, the linear variational benchmark, and the multiplicity benchmark with
the piecewise cube-root activation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Grid, RectDomain, first_eigenvalue
from .model import Activation, Mode, SwitchedNetwork
from .stationary import StationaryProblem


@dataclass(frozen=True)
class CasePoint:
    """Reference feasible point (beta, gamma) and its reported rate."""

    beta: tuple[float, float, float]
    gamma: float
    tau: float
    rate: float


# three-mode benchmark: reference feasible points per case
CASE_POINTS = {
    1: CasePoint((0.5676, 0.3633, 0.0691), 0.38, 3.5, 0.19),
    2: CasePoint((0.6769, 0.2333, 0.0898), 0.44, 3.5, 0.22),
    3: CasePoint((0.6616, 0.3113, 0.0271), 0.58, 3.0, 0.29),
}

REFERENCE_EIGENVALUES = (19.7392, 11.68, 8.7730)

_DOMAINS = (RectDomain((1.0, 1.0)), RectDomain((1.3, 1.3)), RectDomain((1.5, 1.5)))

_C = (np.diag([0.448, 0.441]), np.diag([0.455, 0.441]), np.diag([0.438, 0.433]))
_A = (np.array([[0.45, 0.00003], [-0.00003, 0.44]]),
      np.array([[0.452, 0.00001], [-0.00001, 0.441]]),
      np.array([[0.439, 0.000015], [-0.00001, 0.433]]))
_B = (np.array([[0.446, -0.00003], [0.00003, 0.442]]),
      np.array([[0.458, -0.00001], [0.00001, 0.441]]),
      np.array([[0.437, -0.000015], [0.00001, 0.433]]))
_J = tuple(np.array([0.2 * math.sin(s), -0.1 * math.cos(s)]) for s in (1, 2, 3))

# smaller diffusion set (cases 1 and 3) and larger set (case 2)
_D_SMALL = (np.diag([0.05, 0.055]), np.diag([0.07, 0.075]), np.diag([0.09, 0.095]))
_D_LARGE = (np.diag([0.1, 0.15]), np.diag([0.15, 0.2]), np.diag([0.1, 0.15]))


def switched_benchmark_activation() -> Activation:
    """g_i(s) = (39 + 2s + 1e-6 sin s)/4 with declared Lipschitz 0.51."""
    return Activation.uniform(
        "scaled_sine", {"a": 39.0 / 4.0, "b": 0.5, "c": 0.25e-6}, 0.51, 2)


def switched_benchmark(case: int = 1) -> SwitchedNetwork:
    """The three-mode switched network for the requested parameter case."""
    if case not in CASE_POINTS:
        raise ValueError("case must be 1, 2 or 3")
    point = CASE_POINTS[case]
    D = _D_LARGE if case == 2 else _D_SMALL
    modes = tuple(
        Mode(D[s], _C[s], _A[s], _B[s], _J[s], _DOMAINS[s]) for s in range(3)
    )
    return SwitchedNetwork(
        modes=modes, activation=switched_benchmark_activation(),
        tau_max=point.tau, Psi=0.00018 * np.eye(2), q=1.00001, gamma=point.gamma)


def _arctan_inv(x: int, p: int) -> tuple[int, int]:
    """(S, E) with |S - 2^p arctan(1/x)| < E, for an integer x > 1.

    S sums the series' terms floor(2^p / ((2k+1) x^(2k+1))) with alternating
    signs while floor(2^p / x^(2k+1)) is nonzero: each floor is off by under
    1, and the alternating tail is under its first term, which is under 1.
    """
    power, total, k = (1 << p) // x, 0, 0
    while power:
        term = power // (2 * k + 1)
        total += -term if k & 1 else term
        power //= x * x
        k += 1
    return total, k + 1


def _floor_pow2_over_2pi(g: int, guard: int = 32) -> int:
    """floor(2^g / 2pi), exactly, in integers.

    Machin's formula pi = 16 arctan(1/5) - 4 arctan(1/239) at p = g + guard
    bits brackets 2^p pi within (Pi - E, Pi + E); floor(2^(g+p) / 2x) is
    monotone in x, so when its values at both ends agree they give the
    answer. Otherwise the guard bits double and the bracket is redone.
    """
    while True:
        p = g + guard
        s5, e5 = _arctan_inv(5, p)
        s239, e239 = _arctan_inv(239, p)
        pi_p, err = 16 * s5 - 4 * s239, 16 * e5 + 4 * e239
        lo = (1 << (g + p)) // (2 * (pi_p + err))
        if lo == (1 << (g + p)) // (2 * (pi_p - err)):
            return lo
        guard *= 2


def switched_benchmark_initial(grid: Grid):
    """The benchmark's oscillatory initial field on a 2D grid, computed exactly.

    phi_j(x) = prod_s sin^j[a_s(x1) b_s(x2)] for j = 1, 2, with a_s(x) =
    x^33 (x - 5(s+1))^353 and b_s(x) = x^63 (x - 5(s+1))^79. The arguments
    reach ~1e550; nodes are binary floats, so a_s and b_s are exact dyadic
    rationals, and the arguments are reduced mod 2pi in integers (Payne &
    Hanek, "Radian reduction for trigonometric functions", SIGNUM Newsl.
    18(1), 1983). For each s, with |a| < 2^la and |b| < 2^lb on the grid (so
    |ab| < 2^(la+lb)), G = la+lb+64, P = floor(2^G/2pi),
    u = floor(a P 2^(lb+64-G)) and v = floor(b 2^(la+64)), (u v >> G) mod
    2^64 is ab/2pi mod 1 in units of 2^-64, in error by < 2|b| 2^-(lb+64) +
    |a| 2^-(la+64)/2pi + 2^-64 < 2^-62. Rounding that turn to float64
    (<4e-16 rad) dominates. P is exact (see _floor_pow2_over_2pi). Returns a
    constant-in-s history sampler.
    """
    if grid.domain.dims != 2:
        raise ValueError("the benchmark initial data lives on a 2D grid")

    def exact(axis, p, q, c):   # x^p (x - c)^q as (n, e) with value n / 2^e
        return [(m**p * (m - c * d)**q, (d.bit_length() - 1) * (p + q))
                for m, d in (float(x).as_integer_ratio() for x in axis)]

    x1_axis, x2_axis = grid.axes()
    sin1 = np.ones(grid.shape)
    for c in (10, 15, 20):   # 5 (s + 1) for s = 1, 2, 3
        a, b = exact(x1_axis, 33, 353, c), exact(x2_axis, 63, 79, c)
        la, lb = (max((abs(n) >> e).bit_length() for n, e in f) for f in (a, b))
        g = la + lb + 64
        P = _floor_pow2_over_2pi(g)
        v = np.array([(n << (la + 64)) >> e for n, e in b], dtype=object)
        for i, (n, e) in enumerate(a):   # one row of ~4k-bit products at a time
            u = ((n * P) << (lb + 64)) >> (e + g)
            turns = ((u * v) >> g) & (2**64 - 1)
            sin1[i] *= np.sin(turns.astype(float) * (2 * np.pi / 2.0**64))
    field = np.stack([sin1, sin1**2])
    return lambda s: field


# scalar boundary-layer benchmark: D u'' - 1.8 u + 0.3 g(u) + 1.09 with
# g(s) = 0.05 (s - 6); equilibrium of the lumped ODE at 200/357
def boundary_layer_mode() -> Mode:
    return Mode(D=[[0.001]], C=[[1.8]], A=[[0.2]], B=[[0.1]], J=[1.09],
                domain=RectDomain((1.0,)))


def boundary_layer_activation() -> Activation:
    return Activation.uniform("affine", {"a": 0.05, "b": -0.3}, 0.05, 1)


def boundary_layer_problem(nodes: int = 401) -> StationaryProblem:
    mode = boundary_layer_mode()
    return StationaryProblem(mode, boundary_layer_activation(),
                             Grid(mode.domain, (nodes,)))


BOUNDARY_LAYER_EQUILIBRIUM = 200.0 / 357.0
BOUNDARY_LAYER_TAU = 1.0  # conventional value; the benchmark leaves it free


# linear variational benchmark: 0.1 u'' - 1.98 u + 0.1 = 0 on (0, 1)
def linear_variational_mode() -> Mode:
    return Mode(D=[[0.1]], C=[[2.0]], A=[[0.01]], B=[[0.01]], J=[0.1],
                domain=RectDomain((1.0,)))


def linear_variational_problem(nodes: int = 401) -> StationaryProblem:
    mode = linear_variational_mode()
    activation = Activation.uniform("identity", {}, 1.0, 1)
    return StationaryProblem(mode, activation, Grid(mode.domain, (nodes,)))


LINEAR_VARIATIONAL_EQUILIBRIUM = 0.1 / 1.98


def linear_variational_profile(x) -> np.ndarray:
    """Analytic solution of u'' = 19.8 u - 1, u(0) = u(1) = 0."""
    x = np.asarray(x, dtype=float)
    s = math.sqrt(19.8)
    return (1.0 - np.cosh(s * (x - 0.5)) / math.cosh(s / 2.0)) / 19.8


# multiplicity benchmark: piecewise cube-root activation tuned so the whole
# segment t * phi1 with |t phi1| <= 1 solves the stationary equation
MULTIPLICITY_DIFFUSION = 0.1
MULTIPLICITY_DECAY = 0.2
MULTIPLICITY_COUPLING = 1.0
MULTIPLICITY_DOMAIN = RectDomain((1.0,))


def multiplicity_problem(nodes: int = 201) -> StationaryProblem:
    d, c, w = MULTIPLICITY_DIFFUSION, MULTIPLICITY_DECAY, MULTIPLICITY_COUPLING
    domain = MULTIPLICITY_DOMAIN
    mu1 = c / d + first_eigenvalue(domain)
    mode = Mode(D=np.diag([d]), C=np.diag([c]), A=np.array([[w]]), B=np.zeros((1, 1)),
                J=np.zeros(1), domain=domain)
    activation = Activation.uniform(
        "piecewise_cbrt", {"d": d, "a_weight": w, "mu1": mu1}, d / w * mu1, 1)
    return StationaryProblem(mode, activation, Grid(domain, (nodes,)))

"""Stationary solutions: fixed-point iteration, energy minimization, Newton.

At stationarity the delayed argument equals the state, so the delayed and
undelayed couplings act through their sum and no delay machinery appears
here. The fixed-point iteration keeps the linear decay on the implicit
side of the solve, which contracts for small diffusion where the plain
inverse-Laplacian iteration does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key

import numpy as np

from .geometry import (Grid, RectDomain, apply_laplacian, eigenfunction,
                       helmholtz_solve, l2_inner, l2_norm)
from .model import Activation, Mode, stationarity_map

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10_000
CLUSTER_REL_DISTANCE = 0.1
# solutions whose energies agree to this relative gap tie in the sort order
ENERGY_TIE_REL = 1e-8
DESCENT_STEP0 = 1.0       # largest Armijo step of variational_minimize
ARMIJO = 1e-4
NEWTON_MAX_STEPS = 50
# a run that goes this many steps without a new smallest step norm has stalled
NEWTON_PATIENCE = 10
# GMRES stops at this relative residual; a preconditioned step takes 3 to 11
GMRES_TOL = 1e-12
GMRES_MAX_ITER = 100
# deflation M(y) = prod_r (|y - r|^-p + shift) of the roots r already found
DEFLATION_POWER = 2.0
DEFLATION_SHIFT = 1.0


class DivergenceError(RuntimeError):
    """Raised when an iterative solver exhausts its iteration budget or stalls."""

    def __init__(self, message: str, last: np.ndarray, update_norm: float):
        super().__init__(message)
        self.last = last
        self.update_norm = update_norm


@dataclass(frozen=True)
class StationaryProblem:
    """Elliptic system D Lap y - C y + (A+B) g(y) + J = 0 on a grid."""

    mode: Mode
    activation: Activation
    grid: Grid

    def __post_init__(self):
        if self.activation.n != self.mode.n:
            raise ValueError("activation/mode dimensions differ")
        if self.grid.domain != self.mode.domain:
            raise ValueError("grid does not discretize the mode's domain")

    @property
    def n(self) -> int:
        return self.mode.n

    @property
    def W(self) -> np.ndarray:
        """Combined coupling A + B."""
        return self.mode.A + self.mode.B

    def zeros(self) -> np.ndarray:
        return np.zeros((self.n,) + self.grid.shape)


def _residual_field(problem: StationaryProblem, y: np.ndarray) -> np.ndarray:
    """D Lap_h y - C y + (A+B) g(y) + J as a field shaped like y."""
    grid = problem.grid
    if y.shape != (problem.n,) + grid.shape:
        raise ValueError("field shape does not match the problem")
    d = np.diag(problem.mode.D)
    lap = np.stack([d[i] * apply_laplacian(grid, y[i]) for i in range(problem.n)])
    react = stationarity_map(problem.mode, problem.activation, y.reshape(problem.n, -1))
    return lap + react.reshape(y.shape)


def residual(problem: StationaryProblem, y: np.ndarray) -> float:
    """Discrete L2 norm of D Lap_h y - C y + (A+B) g(y) + J."""
    return l2_norm(problem.grid, _residual_field(problem, y))


@dataclass(frozen=True)
class SolverReport:
    iterations: int
    update_norm: float
    residual: float
    # sup-norm error bound rho/(1 - rho) * update_norm, rho the ratio of the
    # last two updates; inf after one iteration or when rho >= 1
    error_bound: float


def fixed_point_solve(problem: StationaryProblem, tol: float = DEFAULT_TOL
                      ) -> tuple[np.ndarray, SolverReport]:
    """Iterate the stationary map from zero until the sup-norm update drops
    below tol, for at most DEFAULT_MAX_ITER iterations.

    The linear decay sits inside the solve:
    y_i <- (C_i/D_i - Lap_h)^(-1) [((A+B) g(y) + J)_i / D_i].
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    grid = problem.grid
    y = problem.zeros()
    d = np.diag(problem.mode.D)
    c = np.diag(problem.mode.C)
    previous = math.inf
    for it in range(1, DEFAULT_MAX_ITER + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            flat = y.reshape(problem.n, -1)
            coupling = problem.W @ problem.activation(flat) + problem.mode.J[:, None]
            rhs = (coupling / d[:, None]).reshape(y.shape)
            y_new = np.stack([helmholtz_solve(grid, c[i] / d[i], rhs[i])
                              for i in range(problem.n)])
        update = float(np.max(np.abs(y_new - y)))
        y = y_new
        if not math.isfinite(update):
            raise DivergenceError(
                f"fixed-point iteration produced non-finite values at "
                f"iteration {it}", y, update)
        if update <= tol:
            rho = update / previous if it > 1 else math.inf
            bound = rho / (1.0 - rho) * update if rho < 1.0 else math.inf
            return y, SolverReport(it, update, residual(problem, y), bound)
        previous = update
    raise DivergenceError(
        f"fixed-point iteration did not converge in {DEFAULT_MAX_ITER} iterations "
        f"(last update {update:.3e})", y, update)


def statement1_profile(x) -> np.ndarray:
    """Closed-form 1D stationary profile of u'' = 1785 u - 1000 on (0, 1).

    Evaluated in the even form (200/357)(1 - cosh(s(x-1/2))/cosh(s/2)) with
    s = sqrt(1785), which vanishes identically at both endpoints; it is the
    same function as the two-exponential representation.
    """
    x = np.asarray(x, dtype=float)
    s = math.sqrt(1785.0)
    return 200.0 / 357.0 * (1.0 - np.cosh(s * (x - 0.5)) / math.cosh(s / 2.0))


def statement1_closed_form(grid: Grid) -> np.ndarray:
    """The closed-form profile sampled on a 1D unit-interval grid."""
    if grid.domain != RectDomain((1.0,)):
        raise ValueError("the closed form lives on the 1D unit interval")
    return statement1_profile(grid.axes()[0])


def _energy_terms(problem: StationaryProblem) -> tuple[float, float, float]:
    """(c0, source, weight) = (C/D, J/D, (A+B)/D) of a scalar problem.

    The energy 1/2 |grad u|^2 + (c0/2) u^2 - source u - weight F(u), F the
    activation's antiderivative with F(0) = 0, has the problem's stationary
    states, divided by D, as its critical points. A problem with n != 1 or
    an activation without a closed antiderivative raises ValueError.
    """
    if problem.n != 1:
        raise ValueError("energy form available for scalar problems only")
    if problem.activation.antiderivative is None:
        raise ValueError(f"no closed antiderivative for activation "
                         f"'{problem.activation.name}'")
    d = float(problem.mode.D[0, 0])
    return (float(problem.mode.C[0, 0]) / d, float(problem.mode.J[0]) / d,
            float(problem.W[0, 0]) / d)


def energy_eval(problem: StationaryProblem, u: np.ndarray) -> float:
    """Quadrature energy; the Dirichlet term uses the discrete Laplacian form.

    Writing the gradient energy as <u, -Lap_h u>/2 makes energy_gradient the
    exact discrete first variation. u is the scalar field, shaped like the grid.
    """
    grid = problem.grid
    if u.shape != grid.shape:
        raise ValueError("field does not live on this grid")
    c0, source, weight = _energy_terms(problem)
    vol = grid.cell_volume
    lap_u = apply_laplacian(grid, u)
    quad = 0.5 * float(np.sum(u * (-lap_u))) * vol
    quad += 0.5 * c0 * float(np.sum(u * u)) * vol
    lin = float(np.sum(source * u)) * vol
    F = weight * problem.activation.antiderivative(u)
    return quad - lin - float(np.sum(F)) * vol


def energy_gradient(problem: StationaryProblem, u: np.ndarray) -> np.ndarray:
    """Discrete first variation: -Lap_h u + c0 u - source - weight f(u)."""
    grid = problem.grid
    if u.shape != grid.shape:
        raise ValueError("field does not live on this grid")
    c0, source, weight = _energy_terms(problem)
    f = weight * problem.activation.fn(u)
    return -apply_laplacian(grid, u) + c0 * u - source - f


@dataclass(frozen=True)
class MinimizeReport:
    iterations: int
    grad_norm: float
    energy: float


def _slope(fn, u: np.ndarray) -> np.ndarray:
    """Pointwise derivative of an elementwise fn at u by central differences."""
    delta = 1e-7 * (1.0 + np.abs(u))
    return (fn(u + delta) - fn(u - delta)) / (2.0 * delta)


def _gmres(apply, b: np.ndarray) -> np.ndarray:
    """x with |apply(x) - b| <= GMRES_TOL |b|, by GMRES from x = 0 (Saad &
    Schultz, SIAM J. Sci. Stat. Comput. 7(3), 1986): Arnoldi with modified
    Gram-Schmidt, Givens rotations, no restarts. Inner products are numpy
    sums, not BLAS dots, so the bits do not depend on the BLAS thread count.
    A non-finite residual returns a non-finite x; GMRES_MAX_ITER iterations
    above tolerance raise DivergenceError."""
    tmp = np.empty_like(b)
    dot = lambda x, y: float(np.add.reduce(np.multiply(x, y, out=tmp), axis=None))
    beta = math.sqrt(dot(b, b))
    if beta == 0.0:
        return np.zeros_like(b)
    basis, rotations, R, g = [b / beta], [], [], [beta]
    for k in range(GMRES_MAX_ITER):
        w = np.array(apply(basis[k]))   # its own copy, which MGS updates in place
        h = []   # column k of the Hessenberg matrix, in Python floats
        for v in basis:
            h.append(dot(v, w))
            w -= np.multiply(h[-1], v, out=tmp)
        h.append(math.sqrt(dot(w, w)))
        for j, (c, s) in enumerate(rotations):
            h[j], h[j + 1] = c * h[j] + s * h[j + 1], c * h[j + 1] - s * h[j]
        r = float(np.hypot(h[k], h[k + 1])) or math.nan   # 0/0 as numpy gives it
        c, s = h[k] / r, h[k + 1] / r
        rotations.append((c, s))
        R.append(h[:k] + [r])   # column k of the triangular factor
        g[k:] = [c * g[k], -s * g[k]]
        if not abs(g[k + 1]) > GMRES_TOL * beta:   # converged, or non-finite
            break
        basis.append(w / h[k + 1])
    for i in range(k, -1, -1):   # back-substitution, in place; no sum(), whose
        acc = 0.0                # float sums are compensated from Python 3.12
        for j in range(i + 1, k + 1):
            acc += R[j][i] * g[j]
        g[i] = (g[i] - acc) / R[i][i]
    x = sum(gi * v for gi, v in zip(g[:k + 1], basis))
    if abs(g[-1]) > GMRES_TOL * beta:
        raise DivergenceError(f"GMRES did not converge in {GMRES_MAX_ITER} iterations "
                              f"(relative residual {abs(g[-1]) / beta:.3e})", x, abs(g[-1]))
    return x


def _newton(grid: Grid, F, jacobian, y: np.ndarray, tol: float, roots=()) -> np.ndarray:
    """Full-step Newton on F(y) = 0, each step solved matrix-free by GMRES.

    jacobian(y) returns the actions (K(y), P^-1) of the Jacobian P + K(y): P
    linear with a closed-form inverse, K(y) pointwise. The step is P^-1 z, z
    solving (I + K(y) P^-1) z = -F(y) by _gmres, so no matrix is formed.
    Deflation (Farrell, Birkisson & Funke, SIAM J. Sci. Comput. 37(4), 2015)
    solves M(y) F(y) = 0 instead, M blowing up at the given roots in the L2
    quadrature norm; its step is the plain step dF / (1 - grad log M . dF).
    Stops once |dF| <= tol, after taking the step: on nearly flat solution
    valleys a small residual is no evidence of a small error. Gives up once
    NEWTON_PATIENCE steps pass without a new smallest step; a single growing
    step is no sign of failure, as a converging run may grow for a while.
    """
    best, best_it = math.inf, 0
    for it in range(1, NEWTON_MAX_STEPS + 1):
        with np.errstate(all="ignore"):
            pointwise, p_inv = jacobian(y)
            step = p_inv(_gmres(lambda v: v + pointwise(p_inv(v)), -F(y)))
            dlog_m = 0.0   # grad log M . step
            for r in roots:
                e2 = l2_inner(grid, y - r, y - r)
                dlog_m -= (DEFLATION_POWER * l2_inner(grid, y - r, step)
                           / (e2 * (1.0 + DEFLATION_SHIFT * e2 ** (DEFLATION_POWER / 2))))
            size = l2_norm(grid, step)
            y = y + step / (1.0 - dlog_m)
        if not np.isfinite(y).all():
            raise DivergenceError(f"Newton produced non-finite values at step {it}", y, size)
        if size <= tol:
            return y
        if size < best:
            best, best_it = size, it
        elif it - best_it >= NEWTON_PATIENCE:
            raise DivergenceError(f"Newton stalled at step {it}: no step below "
                                  f"{best:.3e} since step {best_it}", y, size)
    raise DivergenceError(f"Newton did not converge in {NEWTON_MAX_STEPS} steps "
                          f"(last step {size:.3e})", y, size)


def variational_minimize(problem: StationaryProblem, tol: float = 1e-8
                         ) -> tuple[np.ndarray, MinimizeReport]:
    """Preconditioned descent with Armijo backtracking, Newton-polished.

    The descent direction solves (c0 I - Lap_h) p = grad E, removing the
    mesh-dependent stiffness of the Laplacian from the iteration (plain
    gradient steps would need O(1/h^2) iterations). Close to a critical
    point the attainable energy decrease drops below floating-point noise
    in E. A step must decrease E strictly, so the line search then stalls
    and `_newton` polishes the iterate on the gradient, with the Jacobian
    -Lap_h + diag(c0 - weight f') and no such floor. Stops when the L2 norm
    of the gradient drops below tol. Starts from zero, on the scalar field
    (shape grid.shape) of a problem with a closed energy (see _energy_terms).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    grid = problem.grid
    c0, _, weight = _energy_terms(problem)
    u = grid.zeros()
    e = energy_eval(problem, u)
    step = DESCENT_STEP0
    for it in range(1, DEFAULT_MAX_ITER + 1):
        g = energy_gradient(problem, u)
        gnorm = l2_norm(grid, g)
        if gnorm <= tol:
            return u, MinimizeReport(it - 1, gnorm, e)
        p = helmholtz_solve(grid, c0, g)
        slope = l2_inner(grid, g, p)   # positive: SPD preconditioner
        step = min(step * 2.0, DESCENT_STEP0)
        while step >= 1e-16:
            trial = u - step * p
            e_trial = energy_eval(problem, trial)
            bar = e - ARMIJO * step * slope
            # a tie at E's rounding floor shows no progress; it is kept only
            # when the step already lands within tol
            if e_trial < bar or (e_trial == bar and l2_norm(
                    grid, energy_gradient(problem, trial)) <= tol):
                break
            step *= 0.5
        else:
            break   # stalled
        u, e = trial, e_trial

    def jacobian(v):   # (c0 I - Lap_h) - diag(weight f')
        k = -_slope(lambda x: weight * problem.activation.fn(x), v)
        return lambda x: k * x, lambda x: helmholtz_solve(grid, c0, x)

    u = _newton(grid, lambda v: energy_gradient(problem, v), jacobian, u, tol)
    gnorm = l2_norm(grid, energy_gradient(problem, u))
    if gnorm <= tol:
        return u, MinimizeReport(it, gnorm, energy_eval(problem, u))
    raise DivergenceError(
        f"energy minimization did not converge in {DEFAULT_MAX_ITER} iterations "
        f"(gradient norm {gnorm:.3e})", u, gnorm)


def find_stationary_multiplicity(problem: StationaryProblem, inits,
                                 tol: float = 1e-6) -> list[np.ndarray]:
    """Distinct stationary solutions found by deflated Newton from the starts.

    From each start `_newton` runs again and again, deflating every solution
    found so far, so one start can yield several; undeflated, it collapses to
    zero on the nearly flat valleys left where a family of continuum
    solutions breaks up into isolated discrete ones. The search moves to the
    next start when Newton fails, when it returns a solution within relative
    L2 distance CLUSTER_REL_DISTANCE of a known one, or when the start is
    that close to one. Sorted by energy when available, ties within
    ENERGY_TIE_REL by the projection on phi1, positive first, else by norm.
    """
    if not inits:
        raise ValueError("need at least one initial field")
    if tol <= 0:
        raise ValueError("tol must be positive")
    grid = problem.grid
    # the Jacobian (D Lap_h - C) + kron(W, I) diag(slope), with the closed-form
    # inverse (D_i Lap_h - C_i)^-1 = -(C_i/D_i - Lap_h)^-1 / D_i per component
    n, d, c = problem.n, np.diag(problem.mode.D), np.diag(problem.mode.C)
    W = problem.W.reshape((n, n) + (1,) * grid.domain.dims)
    def p_inv(x):
        out = np.empty_like(x)
        for i in range(n):
            out[i] = helmholtz_solve(grid, c[i] / d[i], x[i]) / -d[i]
        return out

    def jacobian(y):
        slope = _slope(problem.activation, y.reshape(n, -1)).reshape(y.shape)
        return lambda x: (W * (slope * x)[None]).sum(axis=1), p_inv
    solutions: list[np.ndarray] = []

    def known(y):
        return any(l2_norm(grid, y - k)
                   <= CLUSTER_REL_DISTANCE * (1.0 + l2_norm(grid, y) + l2_norm(grid, k))
                   for k in solutions)

    for init in inits:
        init = np.asarray(init, dtype=float).reshape((problem.n,) + grid.shape)
        while not known(init):
            try:
                sol = _newton(grid, lambda y: _residual_field(problem, y), jacobian,
                              init, tol, solutions)
            except DivergenceError:
                break
            if known(sol):
                break
            solutions.append(sol)
    if problem.n == 1 and problem.activation.antiderivative is not None:
        phi1, _ = eigenfunction(grid, (1,) * grid.domain.dims)
        key = {id(s): (energy_eval(problem, s[0]), -l2_inner(grid, s[0], phi1),
                       l2_norm(grid, s)) for s in solutions}

        def order(a, b):   # so rounding alone cannot swap mirror-image roots
            (ea, *ra), (eb, *rb) = key[id(a)], key[id(b)]
            tie = abs(ea - eb) <= ENERGY_TIE_REL * max(abs(ea), abs(eb))
            return (ra > rb) - (ra < rb) if tie else (ea > eb) - (ea < eb)
        solutions.sort(key=cmp_to_key(order))
    else:
        solutions.sort(key=lambda s: l2_norm(grid, s))
    return solutions

"""Stationary solutions: fixed-point iteration, energy minimization, closed forms.

At stationarity the delayed argument equals the state, so the delayed and
undelayed couplings act through their sum and no delay machinery appears
here. The default fixed-point form keeps the linear decay on the implicit
side of the solve, which contracts for small diffusion where the plain
inverse-Laplacian iteration does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import (Grid, RectDomain, apply_laplacian, helmholtz_solve,
                       l2_inner, l2_norm, laplacian_matrix)
from .model import (Activation, Mode, make_activation_antiderivative,
                    make_activation_fn)

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10_000
CLUSTER_REL_DISTANCE = 0.1


class DivergenceError(RuntimeError):
    """Raised when an iterative solver exhausts its iteration budget."""

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


def residual(problem: StationaryProblem, y: np.ndarray) -> float:
    """Discrete L2 norm of D Lap_h y - C y + (A+B) g(y) + J."""
    grid = problem.grid
    if y.shape != (problem.n,) + grid.shape:
        raise ValueError("field shape does not match the problem")
    d = np.diag(problem.mode.D)
    lap = np.stack([d[i] * apply_laplacian(grid, y[i]) for i in range(problem.n)])
    flat = y.reshape(problem.n, -1)
    react = (-problem.mode.C @ flat + problem.W @ problem.activation(flat)
             + problem.mode.J[:, None])
    return l2_norm(grid, lap + react.reshape(y.shape))


@dataclass(frozen=True)
class SolverReport:
    iterations: int
    update_norm: float
    residual: float


def fixed_point_solve(problem: StationaryProblem, init: np.ndarray | None = None,
                      tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                      form: str = "helmholtz") -> tuple[np.ndarray, SolverReport]:
    """Iterate the stationary map until the sup-norm update drops below tol.

    form="inverse_laplacian" applies the inverse Laplacian to the whole reaction term;
    form="helmholtz" moves the linear decay into the solve, iterating
    y_i <- (C_i/D_i - Lap_h)^(-1) [((A+B) g(y) + J)_i / D_i].
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if form not in ("inverse_laplacian", "helmholtz"):
        raise ValueError(f"unknown iteration form '{form}'")
    grid = problem.grid
    y = problem.zeros() if init is None else np.array(init, dtype=float)
    if y.shape != (problem.n,) + grid.shape:
        raise ValueError("init shape does not match the problem")
    d = np.diag(problem.mode.D)
    c = np.diag(problem.mode.C)
    for it in range(1, max_iter + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            flat = y.reshape(problem.n, -1)
            coupling = problem.W @ problem.activation(flat) + problem.mode.J[:, None]
            if form == "inverse_laplacian":
                rhs = ((-problem.mode.C @ flat + coupling) / d[:, None]).reshape(y.shape)
                y_new = np.stack([helmholtz_solve(grid, 0.0, rhs[i])
                                  for i in range(problem.n)])
            else:
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
            return y, SolverReport(it, update, residual(problem, y))
    raise DivergenceError(
        f"fixed-point iteration did not converge in {max_iter} iterations "
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


@dataclass(frozen=True)
class EnergyFunctional:
    """Scalar energy 1/2 |grad u|^2 + (c0/2) u^2 - source u - nonlinear part.

    nonlinearity "none" keeps just the quadratic/linear terms; "activation"
    subtracts weight * F(u) with the antiderivative F of a registry activation
    f and its matching term weight * f(u) in the gradient; "statement2" is the
    piecewise cube root with weight a_weight / d.
    """

    c0: float
    source: float | np.ndarray = 0.0
    nonlinearity: str = "none"
    params: tuple = ()

    def __post_init__(self):
        if self.c0 < 0:
            raise ValueError("quadratic coefficient must be nonnegative")
        if self.nonlinearity not in ("none", "statement2", "activation"):
            raise KeyError(f"unknown nonlinearity id '{self.nonlinearity}'")
        # (weight, F, f) from the activation registry, built once: the
        # minimizer evaluates them in its inner loops
        terms = None
        p = dict(self.params)
        if self.nonlinearity == "statement2":
            p = {"weight": p["a_weight"] / p["d"], "name": "piecewise_cbrt",
                 "fn_params": p}
        if self.nonlinearity != "none":
            fn_params = dict(p["fn_params"])
            terms = (p["weight"], make_activation_antiderivative(p["name"], fn_params),
                     make_activation_fn(p["name"], fn_params))
        object.__setattr__(self, "_terms", terms)

    def _nonlinear(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(F(u), f(u)) scaled by the nonlinearity weight; zeros for none."""
        if self._terms is None:
            return np.zeros_like(u), np.zeros_like(u)
        w, F, f = self._terms
        return w * F(u), w * f(u)


def energy_eval(functional: EnergyFunctional, grid: Grid, u: np.ndarray) -> float:
    """Quadrature energy; the Dirichlet term uses the discrete Laplacian form.

    Writing the gradient energy as <u, -Lap_h u>/2 makes energy_gradient the
    exact discrete first variation.
    """
    if u.shape != grid.shape:
        raise ValueError("field does not live on this grid")
    vol = grid.cell_volume
    lap_u = apply_laplacian(grid, u)
    quad = 0.5 * float(np.sum(u * (-lap_u))) * vol
    quad += 0.5 * functional.c0 * float(np.sum(u * u)) * vol
    lin = float(np.sum(functional.source * u)) * vol
    F, _ = functional._nonlinear(u)
    return quad - lin - float(np.sum(F)) * vol


def energy_gradient(functional: EnergyFunctional, grid: Grid, u: np.ndarray) -> np.ndarray:
    """Discrete first variation: -Lap_h u + c0 u - source - nonlinear term."""
    if u.shape != grid.shape:
        raise ValueError("field does not live on this grid")
    _, f = functional._nonlinear(u)
    return -apply_laplacian(grid, u) + functional.c0 * u - functional.source * np.ones_like(u) - f


@dataclass(frozen=True)
class MinimizeReport:
    converged: bool
    iterations: int
    grad_norm: float
    energy: float


def variational_minimize(functional: EnergyFunctional, grid: Grid,
                         init: np.ndarray | None = None, tol: float = 1e-8,
                         max_iter: int = DEFAULT_MAX_ITER, step0: float = 1.0,
                         armijo: float = 1e-4) -> tuple[np.ndarray, MinimizeReport]:
    """Preconditioned descent with Armijo backtracking, Newton-polished.

    The descent direction solves (c0 I - Lap_h) p = grad E, removing the
    mesh-dependent stiffness of the Laplacian from the iteration (plain
    gradient steps would need O(1/h^2) iterations). Close to a critical
    point the attainable energy decrease drops below floating-point noise
    in E, so once the line search stalls the iterate is polished by
    Newton-Krylov root finding on the gradient, which has no such floor.
    Stops when the L2 norm of the gradient drops below tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    u = grid.zeros() if init is None else np.array(init, dtype=float)
    e = energy_eval(functional, grid, u)
    step = step0
    stalled = False
    for it in range(1, max_iter + 1):
        g = energy_gradient(functional, grid, u)
        gnorm = l2_norm(grid, g)
        if gnorm <= tol:
            return u, MinimizeReport(True, it - 1, gnorm, e)
        p = helmholtz_solve(grid, functional.c0, g)
        slope = l2_inner(grid, g, p)   # positive: SPD preconditioner
        step = min(step * 2.0, step0)
        while True:
            trial = u - step * p
            e_trial = energy_eval(functional, grid, trial)
            if e_trial <= e - armijo * step * slope:
                break
            step *= 0.5
            if step < 1e-16:
                stalled = True
                break
        if stalled:
            break
        u, e = trial, e_trial
    u, gnorm = _newton_polish(functional, grid, u, tol)
    if gnorm <= tol:
        return u, MinimizeReport(True, it, gnorm, energy_eval(functional, grid, u))
    raise DivergenceError(
        f"energy minimization did not converge in {max_iter} iterations "
        f"(gradient norm {gnorm:.3e})", u, gnorm)


def _newton_polish(functional: EnergyFunctional, grid: Grid, u: np.ndarray,
                   tol: float) -> tuple[np.ndarray, float]:
    """Drive the gradient to zero by damped Newton from a nearby iterate.

    The nonlinear term acts pointwise, so the Jacobian of the gradient is
    the sparse Helmholtz operator minus a diagonal, assembled exactly and
    solved directly. Step acceptance monitors the gradient norm, which has
    no cancellation floor (unlike energy differences).
    """
    lap = laplacian_matrix(grid)
    gnorm = l2_norm(grid, energy_gradient(functional, grid, u))
    for _ in range(50):
        if gnorm <= tol:
            break
        delta = 1e-7 * (1.0 + np.abs(u))
        _, f_hi = functional._nonlinear(u + delta)
        _, f_lo = functional._nonlinear(u - delta)
        fprime = (f_hi - f_lo) / (2.0 * delta)
        J = (-lap + sp.diags(functional.c0 - fprime.ravel())).tocsc()
        g = energy_gradient(functional, grid, u)
        du = spla.spsolve(J, -g.ravel()).reshape(grid.shape)
        step = 1.0
        while step > 1e-12:
            trial = u + step * du
            trial_norm = l2_norm(grid, energy_gradient(functional, grid, trial))
            if trial_norm < gnorm:
                u, gnorm = trial, trial_norm
                break
            step *= 0.5
        else:
            break
    return u, gnorm


def energy_from_problem(problem: StationaryProblem) -> EnergyFunctional:
    """Energy functional whose critical points are the scalar stationary states.

    Only defined for n = 1 with a registry activation admitting an
    antiderivative. The decay goes into the quadratic coefficient, the input
    into the source, and the activation into the nonlinear term, all divided
    by the diffusion coefficient.
    """
    if problem.n != 1:
        raise ValueError("energy form available for scalar problems only")
    d = float(problem.mode.D[0, 0])
    c = float(problem.mode.C[0, 0])
    w = float(problem.W[0, 0])
    j = float(problem.mode.J[0])
    name = problem.activation.names[0]
    fn_params = problem.activation.params[0]
    if name == "piecewise_cbrt":
        p = dict(fn_params)
        return EnergyFunctional(
            c0=c / d, source=j / d, nonlinearity="statement2",
            params=tuple(sorted({"d": p["d"], "a_weight": p["a_weight"],
                                 "mu1": p["mu1"]}.items())))
    if name == "affine":
        p = dict(fn_params)
        # linear activation folds into the quadratic and source terms
        return EnergyFunctional(c0=(c - w * p["a"]) / d,
                                source=(j + w * p["b"]) / d)
    if name == "identity":
        return EnergyFunctional(c0=(c - w) / d, source=j / d)
    return EnergyFunctional(
        c0=c / d, source=j / d, nonlinearity="activation",
        params=tuple(sorted({"weight": w / d, "name": name,
                             "fn_params": fn_params}.items())))


def find_stationary_multiplicity(problem: StationaryProblem, inits,
                                 tol: float = 1e-6, max_iter: int = DEFAULT_MAX_ITER
                                 ) -> list[np.ndarray]:
    """Distinct stationary solutions reached from the given initial fields.

    The fixed-point solver runs first: unlike Newton-type methods it tracks
    the nearly flat solution valleys that arise when a whole family of
    continuum solutions collapses to isolated discrete ones, instead of
    jumping to the zero solution. When it diverges, scalar problems fall
    back to the energy minimizer. Results are clustered by relative L2
    distance and returned sorted by energy when available, else by norm.
    """
    if not inits:
        raise ValueError("need at least one initial field")
    grid = problem.grid
    functional = None
    if problem.n == 1:
        try:
            functional = energy_from_problem(problem)
        except (KeyError, ValueError):
            functional = None
    solutions: list[np.ndarray] = []
    for init in inits:
        init = np.asarray(init, dtype=float)
        try:
            sol, _ = fixed_point_solve(problem, init, tol=tol, max_iter=max_iter)
        except DivergenceError:
            if functional is None:
                continue
            try:
                u, _ = variational_minimize(functional, grid,
                                            init.reshape(grid.shape),
                                            tol=tol, max_iter=max_iter)
            except DivergenceError:
                continue
            sol = u[None]
        sol = sol.reshape((problem.n,) + grid.shape)
        for known in solutions:
            dist = l2_norm(grid, sol - known)
            if dist <= CLUSTER_REL_DISTANCE * (1.0 + l2_norm(grid, sol) + l2_norm(grid, known)):
                break
        else:
            solutions.append(sol)
    if functional is not None:
        key = lambda s: (energy_eval(functional, grid, s[0]), l2_norm(grid, s))
    else:
        key = lambda s: (l2_norm(grid, s),)
    solutions.sort(key=key)
    return solutions

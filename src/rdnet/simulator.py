"""Time integration of the delayed system with state-dependent switching.

First-order IMEX stepping: diffusion backward-Euler (unconditionally stable
against the D/h^2 stiffness), reaction and delay terms forward. The field
and ODE integrators share one stepping loop whose implicit part is the
Helmholtz solve or the identity. Delay lookup interpolates linearly in a
window spanning the delay, matching the scheme order. A simulation run is
single-threaded and deterministic.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .certificates import mode_margin_matrix
from .geometry import Grid, helmholtz_solve, l2_inner
from .model import CGSystem, Mode, SwitchedNetwork, constant_delay

BLOWUP_FACTOR = 1e6


class BlowUpError(RuntimeError):
    """State norm exceeded the blow-up guard."""


class HistoryUnderrunError(RuntimeError):
    """Delay lookup requested a time before the stored window."""


class History:
    """Delay window of (time, state) entries spanning at least the delay.

    Times sit in a list that lookups bisect from the oldest live entry, and
    each live entry holds one stored copy of the state. Entries no longer
    reachable by a lookup are released on push, and the dead prefix is cut
    off once it is over half the list.
    """

    def __init__(self, tau: float):
        if tau < 0:
            raise ValueError("delay bound must be nonnegative")
        self.tau = tau
        self._times: list[float] = []
        self._states: list[np.ndarray | None] = []   # None once released
        self._start = 0                               # oldest live entry

    @classmethod
    def from_sampler(cls, sampler: Callable[[float], np.ndarray], tau: float,
                     dt: float) -> "History":
        """Seed the window [-tau, 0] by sampling the initial function."""
        hist = cls(tau)
        steps = max(1, int(round(tau / dt))) if tau > 0 else 0
        for k in range(steps, -1, -1):
            s = -k * tau / steps if steps else 0.0
            hist.push(s, np.array(sampler(s), dtype=float))
        return hist

    def push(self, t: float, u: np.ndarray) -> None:
        times, states, start = self._times, self._states, self._start
        if times and t <= times[-1]:
            raise ValueError("history times must be strictly increasing")
        times.append(float(t))
        states.append(u.copy())
        end = len(times) - 1
        while end - start >= 2 and times[start + 1] <= t - self.tau:
            states[start] = None
            start += 1
        if 2 * start > len(times):
            del times[:start], states[:start]
            start = 0
        self._start = start

    def value(self, t: float) -> np.ndarray:
        """Linear interpolation between stored snapshots."""
        times, start = self._times, self._start
        if not times:
            raise HistoryUnderrunError("history is empty")
        if t < times[start] - 1e-12:
            raise HistoryUnderrunError(
                f"requested t={t} before stored window start {times[start]}")
        if t >= times[-1] or start == len(times) - 1:
            return self._states[-1]
        j = max(start + 1, bisect_right(times, t, start))
        t0, t1 = times[j - 1], times[j]
        w = (t - t0) / (t1 - t0)
        return (1.0 - w) * self._states[j - 1] + w * self._states[j]


@dataclass(frozen=True)
class ImpulseSchedule:
    """Scheduled jumps u(t+) = M u(t-) + N h(u(t- - tau))."""

    times: tuple[float, ...]
    M: np.ndarray
    N: np.ndarray
    h: Callable[[np.ndarray], np.ndarray] | None = None
    tau: float = 0.0


@dataclass
class SimConfig:
    dt: float
    horizon: float
    switching: bool = False
    hysteresis: float = 0.0
    switching_form: str = "integrated"
    impulses: ImpulseSchedule | None = None
    snapshot_stride: int = 0

    def __post_init__(self):
        if self.dt <= 0 or self.horizon <= 0:
            raise ValueError("dt and horizon must be positive")
        if self.hysteresis < 0:
            raise ValueError("hysteresis slack must be nonnegative")
        if self.switching_form not in ("integrated", "pointwise"):
            raise ValueError("switching_form must be 'integrated' or 'pointwise'")
        if self.snapshot_stride < 0:
            raise ValueError("snapshot_stride must be nonnegative")


@dataclass
class Trajectory:
    times: np.ndarray
    V: np.ndarray
    modes: np.ndarray
    switch_count: int
    snapshots: list[tuple[float, np.ndarray]] = field(default_factory=list)


@dataclass(frozen=True)
class DecayEstimate:
    """Fitted norm decay ||u(t)|| ~ prefactor * exp(-rate * t)."""

    rate: float
    prefactor: float
    window: tuple[float, float]
    r_squared: float


def switching_decide(u: np.ndarray, grid: Grid | None, Q: Sequence[np.ndarray],
                     current: int, hysteresis: float = 0.0,
                     form: str = "integrated") -> int:
    """Pick the active mode from the per-mode quadratic forms.

    Integrated form scores each mode by the spatial integral of u^T Q u;
    the current mode is kept while its score stays below -hysteresis,
    otherwise the argmin wins (ties to the lowest index). The pointwise form
    scores by the worst node instead of the integral.
    """
    if len(Q) == 1:
        return 0
    scores = []
    for Qs in Q:
        if grid is None:
            quad = float(u @ Qs @ u)
        else:
            flat = u.reshape(u.shape[0], -1)
            node_scores = np.einsum("ik,ij,jk->k", flat, Qs, flat)
            if form == "pointwise":
                quad = float(node_scores.max(initial=0.0))
            else:
                quad = float(node_scores.sum()) * grid.cell_volume
        scores.append(quad)
    if scores[current] < -hysteresis:
        return current
    return int(np.argmin(scores))


def apply_impulse(u: np.ndarray, M: np.ndarray, N: np.ndarray,
                  h: Callable[[np.ndarray], np.ndarray] | None,
                  history: History, t: float, tau: float) -> np.ndarray:
    """Pointwise-in-x affine jump with a delayed argument from the history."""
    u_delay = history.value(t - tau)
    hval = u_delay if h is None else h(u_delay)
    out = M @ u.reshape(u.shape[0], -1) + N @ hval.reshape(hval.shape[0], -1)
    return out.reshape(u.shape)


def _deviation_activation(activation, shape):
    """f(u) = g(u) - g(0), so f(0) = 0 exactly; g(0) has the arguments'
    shape, (n,) or (n, 1)."""
    g0 = activation(np.zeros(shape))
    return lambda flat: activation(flat) - g0


def _run(phi, shape: tuple[int, ...], tau: float, delay, config: SimConfig,
         explicit, implicit, norm2, guard, switch=None) -> Trajectory:
    """The stepping loop shared by simulate and simulate_ode.

    A step is u <- implicit(mode, u + dt * explicit(mode, t, u, u_delay)), then
    the impulses due, the history push and the blow-up guard, whose bound is
    guard(hist, u0). switch(u, mode) returns the new mode.
    """
    dt = config.dt
    if tau > 0 and dt > tau:
        raise ValueError("dt must not exceed the delay bound")
    hist = History.from_sampler(phi, tau, dt)
    u = np.array(hist.value(0.0), dtype=float)
    if u.shape != shape:
        raise ValueError(f"initial state has shape {u.shape}, expected {shape}")
    bound = guard(hist, u)

    steps = int(round(config.horizon / dt))
    times = np.empty(steps + 1)
    V = np.empty(steps + 1)
    modes = np.zeros(steps + 1, dtype=int)
    mode = switch_count = 0
    snapshots: list[tuple[float, np.ndarray]] = []
    stride = config.snapshot_stride
    imp = config.impulses
    imp_times = (sorted(imp.times) if imp is not None else []) + [math.inf]  # sentinel
    imp_ptr = 0
    value, push, isfinite = hist.value, hist.push, math.isfinite

    t = 0.0
    times[0], V[0] = t, norm2(u)
    if stride:
        snapshots.append((t, u.copy()))
    for k in range(1, steps + 1):
        if switch is not None:
            new_mode = switch(u, mode)
            if new_mode != mode:
                mode = new_mode
                switch_count += 1
        if tau > 0:
            d = delay(t)
            if not 0.0 <= d <= tau:
                raise ValueError(f"delay at t={t} is {d}, outside [0, {tau}]")
            u_delay = value(t - d)
        else:
            u_delay = u
        u = implicit(mode, u + dt * explicit(mode, t, u, u_delay))
        t = k * dt
        while imp_times[imp_ptr] <= t + 1e-12:
            u = apply_impulse(u, imp.M, imp.N, imp.h, hist, imp_times[imp_ptr],
                              imp.tau)
            imp_ptr += 1
        push(t, u)
        v = norm2(u)
        if not isfinite(v) or v > bound:
            raise BlowUpError(f"norm blew up at t={t:.4g} (V={v:.3e})")
        times[k], V[k], modes[k] = t, v, mode
        if stride and k % stride == 0:
            snapshots.append((t, u.copy()))
    return Trajectory(times, V, modes, switch_count, snapshots)


def simulate(network: SwitchedNetwork, grid: Grid, config: SimConfig,
             phi: Callable[[float], np.ndarray]) -> Trajectory:
    """Integrate the deviation system u_t = D Lap u - C u + A f(u) + B f(u_tau).

    Every mode uses the one recentring f(u) = g(u) - g(0), so u = 0 is an
    equilibrium of each mode; the inputs J and per-mode equilibria are not
    tracked. All modes share the given grid; the switching matrices are
    rebuilt on the shared domain, whose first eigenvalue each Mode derives.
    phi(s) supplies the initial field for s in [-tau, 0] with shape
    (n, *grid.shape). The blow-up guard is 1e6 times the largest squared
    norm of five samples of phi.
    """
    n, tau = network.n, network.tau_max
    shared_modes = [Mode(m.D, m.C, m.A, m.B, m.J, grid.domain) for m in network.modes]
    Q = [mode_margin_matrix(m, network.activation.G, network.gamma, network.q,
                            tau, network.Psi) for m in shared_modes]
    f = _deviation_activation(network.activation, (n, 1))
    coef = [1.0 / (config.dt * np.diag(m.D)) for m in shared_modes]

    def explicit(mode, t, u, u_delay):
        m = shared_modes[mode]
        flat, flat_delay = u.reshape(n, -1), u_delay.reshape(n, -1)
        return (-m.C @ flat + m.A @ f(flat) + m.B @ f(flat_delay)).reshape(u.shape)

    def implicit(mode, x):
        # backward Euler on D Lap: (c - Lap) u_i = c x_i with c = 1 / (dt D_i)
        out = np.empty_like(x)
        for i, c in enumerate(coef[mode]):
            out[i] = helmholtz_solve(grid, c, c * x[i])
        return out

    def switch(u, mode):
        return switching_decide(u, grid, Q, mode, config.hysteresis,
                                config.switching_form)

    norm2 = lambda u: l2_inner(grid, u, u)

    def guard(hist, u0):
        samples = np.linspace(-tau, 0, 5) if tau > 0 else (0.0,)
        return BLOWUP_FACTOR * max(max(norm2(hist.value(s)) for s in samples), 1e-300)

    return _run(phi, (n,) + grid.shape, tau, network.delay, config, explicit,
                implicit, norm2, guard, switch if config.switching else None)


def ode_from_mode(mode: Mode, activation, deviation: bool = False):
    """Right-hand side du/dt = -C u + A g(u) + B g(u_tau) + J as n coupled ODEs.

    deviation=True drops J and recenters g at 0 (the zero solution is then
    exactly invariant).
    """
    f = _deviation_activation(activation, mode.n) if deviation else activation
    neg_C, A, B = -mode.C, mode.A, mode.B
    J = 0.0 if deviation else mode.J

    def rhs(t, u, u_delay):
        return neg_C @ u + A @ f(u) + B @ f(u_delay) + J
    return rhs


def ode_from_cg(cg: CGSystem):
    """Cohen-Grossberg right-hand side; defaults give the cellular form.

    du_i/dt = -a_i(u_i) [ b_i(u_i) - sum_j c_ij f_j(u_j)
                          - sum_j d_ij g_j(u_j(t - tau)) + I_i ].
    """
    ident = lambda v: np.asarray(v, dtype=float)
    f = cg.f or ident
    g = cg.g or ident

    def rhs(t, u, u_delay):
        if cg.a_funcs is None:
            a = np.ones_like(u)
        else:
            a = np.array([fn(ui) for fn, ui in zip(cg.a_funcs, u)])
        if cg.b_funcs is None:
            b = cg.B * u
        else:
            b = np.array([fn(ui) for fn, ui in zip(cg.b_funcs, u)])
        inner = b - cg.C @ f(u) - cg.D @ g(u_delay) + cg.inputs
        return -a * inner

    return rhs


def simulate_ode(rhs, n: int, tau: float, config: SimConfig,
                 phi: Callable[[float], np.ndarray],
                 delay: Callable[[float], float] | None = None) -> Trajectory:
    """Forward-Euler integration of n delayed ODEs with the shared stepping loop.

    rhs(t, u, u_delay) -> du/dt. V records the squared Euclidean norm, so
    the decay-rate estimator applies unchanged. The blow-up guard is 1e6
    times max(|u0|^2, 1); the delay defaults to the constant tau.
    """
    norm2 = lambda u: float(u @ u)
    return _run(phi, (n,), tau, delay or constant_delay(tau), config,
                explicit=lambda mode, t, u, u_delay: rhs(t, u, u_delay),
                implicit=lambda mode, x: x, norm2=norm2,
                guard=lambda hist, u0: BLOWUP_FACTOR * max(norm2(u0), 1.0))


def fit_window_start(samples: int, window_fraction: float = 0.5) -> int:
    """Start index of the trailing fit window; raises if it holds under 10 samples."""
    if not 0 < window_fraction <= 1:
        raise ValueError("window fraction must lie in (0, 1]")
    start = int(samples * (1.0 - window_fraction))
    if samples - start < 10:
        raise ValueError("fewer than 10 samples in the fit window")
    return start


def estimate_decay_rate(trajectory: Trajectory, window_fraction: float = 0.5
                        ) -> DecayEstimate:
    """Least-squares fit of ln ||u(t)|| over the trailing window.

    The rate is minus the slope (half the decay rate of V). An identically
    zero tail returns the +inf sentinel.
    """
    start = fit_window_start(len(trajectory.times), window_fraction)
    tw, Vw = trajectory.times[start:], trajectory.V[start:]
    if np.all(Vw <= 0.0):
        return DecayEstimate(math.inf, 0.0, (float(tw[0]), float(tw[-1])), 1.0)
    if np.any(Vw <= 0.0):
        raise ValueError("V must stay positive on the fit window")
    y = 0.5 * np.log(Vw)
    slope, intercept = np.polyfit(tw, y, 1)
    pred = slope * tw + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return DecayEstimate(rate=float(-slope), prefactor=float(np.exp(intercept)),
                         window=(float(tw[0]), float(tw[-1])), r_squared=r2)

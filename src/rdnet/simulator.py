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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .certificates import mode_margin_matrix
from .geometry import Grid, helmholtz_solve, l2_inner
from .model import Activation, Mode, SwitchedNetwork, constant_delay

BLOWUP_FACTOR = 1e6


class BlowUpError(RuntimeError):
    """State norm exceeded the blow-up guard."""


class HistoryUnderrunError(RuntimeError):
    """Delay lookup requested a time before the stored window."""


class History:
    """Delay window of (time, state) entries spanning at least the delay.

    Times sit in a list that lookups bisect from the oldest live entry. A
    history holds Python floats, kept as they are (immutable), or float
    arrays of one shape, kept in one ring of ceil(tau/dt) + 3 slots
    allocated at the first push: a window of pushes dt apart, the slot the
    next push fills and a spare against rounding at the window's edge. A
    push fills the ring's next slot in FIFO order: it stores the slot that
    `slot` handed out as is and copies any other array in. Pushes closer
    than dt can leave every slot live; the next push then raises ValueError.
    The dead prefix of the lists is cut off once it is over half of them. A
    lookup never returns a ring slot, so what it returns survives later
    pushes.
    """

    def __init__(self, tau: float, dt: float):
        if tau < 0:
            raise ValueError("delay bound must be nonnegative")
        if not dt > 0:
            raise ValueError("dt must be positive")
        self.tau = tau
        self._capacity = math.ceil(tau / dt) + 3      # ring slots
        self._times: list[float] = []
        self._states: list[np.ndarray | float] = []
        self._start = 0                               # oldest live entry
        self._slots: list[np.ndarray] = []            # one view per ring slot
        self._head = 0                                # slot the next push fills

    @classmethod
    def from_sampler(cls, sampler: Callable[[float], np.ndarray | float], tau: float,
                     dt: float) -> "History":
        """Seed the window [-tau, 0] by sampling the initial function; a float
        sample is kept as a float, any other as a float array."""
        hist = cls(tau, dt)
        steps = max(1, int(round(tau / dt))) if tau > 0 else 0
        for k in range(steps, -1, -1):
            s = -k * tau / steps if steps else 0.0
            x = sampler(s)
            hist.push(s, x if isinstance(x, float) else np.asarray(x, dtype=float))
        return hist

    def slot(self) -> np.ndarray | None:
        """The ring slot the next push fills, free until then; None for a
        float or empty history. A stepping loop writes the new state into
        it, and the push then stores it without a copy."""
        if not self._slots:
            return None
        if len(self._times) - self._start == len(self._slots):
            raise ValueError(f"all {len(self._slots)} slots of the delay window "
                             "are live: pushes closer than dt")
        return self._slots[self._head]

    def push(self, t: float, u: np.ndarray | float) -> None:
        times, states = self._times, self._states
        if times and t <= times[-1]:
            raise ValueError("history times must be strictly increasing")
        if not self._slots and not isinstance(u, float):
            if times:
                raise ValueError("a float history cannot store an array")
            ring = np.empty((self._capacity,) + np.shape(u))
            self._slots = [ring[i, ...] for i in range(self._capacity)]
        if self._slots:
            slot = self.slot()
            if u is not slot:
                if np.shape(u) != slot.shape:
                    raise ValueError(f"state has shape {np.shape(u)}, "
                                     f"the history holds {slot.shape}")
                slot[...] = u
            self._head = (self._head + 1) % len(self._slots)
            u = slot
        times.append(float(t))
        states.append(u)
        start, end = self._start, len(times) - 1
        while end - start >= 2 and times[start + 1] <= t - self.tau:
            start += 1
        if 2 * start > len(times):
            del times[:start], states[:start]
            start = 0
        self._start = start

    def value(self, t: float) -> np.ndarray | float:
        """Linear interpolation between stored snapshots; a stored array is
        returned as a copy."""
        times, start = self._times, self._start
        if not times:
            raise HistoryUnderrunError("history is empty")
        if t < times[start] - 1e-12:
            raise HistoryUnderrunError(
                f"requested t={t} before stored window start {times[start]}")
        if t >= times[-1] or start == len(times) - 1:
            latest = self._states[-1]
            return latest.copy() if self._slots else latest
        j = max(start + 1, bisect_right(times, t, start))
        t0, t1 = times[j - 1], times[j]
        w = (t - t0) / (t1 - t0)
        return (1.0 - w) * self._states[j - 1] + w * self._states[j]


@dataclass
class SimConfig:
    dt: float
    horizon: float
    switching: bool = False
    snapshot_stride: int = 0

    def __post_init__(self):
        if self.dt <= 0 or self.horizon <= 0:
            raise ValueError("dt and horizon must be positive")
        if self.snapshot_stride < 0:
            raise ValueError("snapshot_stride must be nonnegative")

    @property
    def steps(self) -> int:
        """Steps of a run: round(horizon / dt), so it may end past the horizon."""
        return int(round(self.horizon / self.dt))


@dataclass
class Trajectory:
    times: np.ndarray
    V: np.ndarray
    modes: np.ndarray      # the active mode at each sample

    @property
    def switch_times(self) -> np.ndarray:
        """Times of the samples whose mode differs from the one before."""
        return self.times[1:][np.diff(self.modes) != 0]

    @property
    def switch_count(self) -> int:
        return len(self.switch_times)


@dataclass(frozen=True)
class DecayEstimate:
    """Fitted norm decay ||u(t)|| ~ prefactor * exp(-rate * t)."""

    rate: float
    prefactor: float
    window: tuple[float, float]
    r_squared: float


def switching_decide(u: np.ndarray, Q: Sequence[np.ndarray], current: int) -> int:
    """Pick the active mode from the per-mode quadratic forms.

    Each mode scores the node sum of u^T Q u over a state of shape
    (n, *grid) or (n,), the one-node case. The current mode is kept while
    its score is negative, otherwise the argmin wins (ties to the lowest
    index). The node sum is the spatial integral up to the positive cell
    volume, which changes neither test. The other modes are scored only once
    the current one fails, which changes no decision.
    """
    if len(Q) == 1:
        return 0
    flat = u.reshape(u.shape[0], -1)
    def score(Qs) -> float:
        return float(np.einsum("ik,ij,jk->k", flat, Qs, flat).sum())
    kept = score(Q[current])
    if kept < 0:
        return current
    return int(np.argmin([kept if k == current else score(Qs)
                          for k, Qs in enumerate(Q)]))


def _run(phi, shape: tuple[int, ...], tau: float, delay, config: SimConfig,
         explicit, implicit, norm2, guard, switch=None, snapshot=None) -> Trajectory:
    """The stepping loop shared by simulate and simulate_ode.

    A step is u <- implicit(mode, u + dt * explicit(mode, t, u, u_delay), out),
    then the history push and the blow-up guard, whose bound is guard(hist,
    u0). out is the history's ring slot that the push fills (None for a
    float state); implicit may write the new state into it, which the push
    then stores without a copy, or return another array, which the push
    copies into the ring. switch(u, mode) returns the new mode. The state is
    a float array of the given shape, or a Python float where shape is ();
    the loop only rebinds u. At t = 0 and every snapshot_stride-th step the
    loop calls snapshot(t, copy), the copy an array of at least one
    dimension that the loop keeps no reference to; a stride without a
    snapshot callable raises before the history is seeded.
    """
    stride = config.snapshot_stride
    if stride and snapshot is None:
        raise ValueError("snapshot_stride needs a snapshot callable")
    dt = config.dt
    if tau > 0 and dt > tau:
        raise ValueError("dt must not exceed the delay bound")
    hist = History.from_sampler(phi, tau, dt)
    u = hist.value(0.0)
    if np.shape(u) != shape:
        raise ValueError(f"initial state has shape {np.shape(u)}, expected {shape}")
    bound = guard(hist, u)

    steps = config.steps
    times = np.empty(steps + 1)
    V = np.empty(steps + 1)
    modes = np.zeros(steps + 1, dtype=int)
    mode = 0
    value, push, slot, isfinite = hist.value, hist.push, hist.slot, math.isfinite

    t = 0.0
    times[0], V[0] = t, norm2(u)
    if stride:
        snapshot(t, np.array(u, ndmin=1))
    for k in range(1, steps + 1):
        if switch is not None:
            mode = switch(u, mode)
        if tau > 0:
            d = delay(t)
            if not 0.0 <= d <= tau:
                raise ValueError(f"delay at t={t} is {d}, outside [0, {tau}]")
            u_delay = value(t - d)
        else:
            u_delay = u
        u = implicit(mode, u + dt * explicit(mode, t, u, u_delay), slot())
        t = k * dt
        push(t, u)
        v = norm2(u)
        if not isfinite(v) or v > bound:
            raise BlowUpError(f"norm blew up at t={t:.4g} (V={v:.3e})")
        times[k], V[k], modes[k] = t, v, mode
        if stride and k % stride == 0:
            snapshot(t, np.array(u, ndmin=1))
    return Trajectory(times, V, modes)


def simulate(network: SwitchedNetwork, grid: Grid, config: SimConfig,
             phi: Callable[[float], np.ndarray],
             snapshot: Callable[[float, np.ndarray], None] | None = None) -> Trajectory:
    """Integrate the deviation system u_t = D Lap u - C u + A f(u) + B f(u_tau).

    Every mode uses the one recentring f(u) = g(u) - g(0), so u = 0 is an
    equilibrium of each mode; the inputs J and per-mode equilibria are not
    tracked. All modes share the given grid; the switching matrices are
    rebuilt on the shared domain, whose first eigenvalue each Mode derives.
    phi(s) supplies the initial field for s in [-tau, 0] with shape
    (n, *grid.shape). The delay is network.delay, or the constant tau_max
    where the network gives none. The blow-up guard is 1e6 times the
    largest squared norm of five samples of phi. Each step's backward-Euler
    solve writes the new field straight into the delay history's next ring
    slot, so the history neither allocates nor copies a field per step. With
    config.snapshot_stride > 0, snapshot(t, field) receives a copy of the
    field at t = 0 and every stride-th step as the run reaches it.
    """
    n, tau = network.n, network.tau_max
    shared_modes = [Mode(m.D, m.C, m.A, m.B, m.J, grid.domain) for m in network.modes]
    Q = [mode_margin_matrix(m, network.activation.G, network.gamma, network.q,
                            tau, network.Psi) for m in shared_modes]
    g0 = network.activation(np.zeros((n, 1)))   # f(u) = g(u) - g(0): f(0) = 0 exactly
    f = lambda flat: network.activation(flat) - g0
    coef = [1.0 / (config.dt * np.diag(m.D)) for m in shared_modes]

    def explicit(mode, t, u, u_delay):
        m = shared_modes[mode]
        flat, flat_delay = u.reshape(n, -1), u_delay.reshape(n, -1)
        return (-m.C @ flat + m.A @ f(flat) + m.B @ f(flat_delay)).reshape(u.shape)

    def implicit(mode, x, out):
        # backward Euler on D Lap: (c - Lap) u_i = c x_i with c = 1 / (dt D_i),
        # solved straight into the history slot the step's push stores
        for i, c in enumerate(coef[mode]):
            out[i] = helmholtz_solve(grid, c, c * x[i])
        return out

    norm2 = lambda u: l2_inner(grid, u, u)

    def guard(hist, u0):
        samples = np.linspace(-tau, 0, 5) if tau > 0 else (0.0,)
        return BLOWUP_FACTOR * max(max(norm2(hist.value(s)) for s in samples), 1e-300)

    switch = (lambda u, mode: switching_decide(u, Q, mode)) if config.switching else None
    return _run(phi, (n,) + grid.shape, tau, network.delay or constant_delay(tau),
                config, explicit, implicit, norm2, guard, switch, snapshot)


def simulate_ode(mode: Mode, activation: Activation, tau: float, config: SimConfig,
                 phi: Callable[[float], np.ndarray]) -> Trajectory:
    """Forward-Euler integration of du/dt = -C u + A g(u) + B g(u_tau) + J.

    The lumped scalar mode runs in the shared stepping loop with the
    constant delay tau; phi(s) gives the initial state of shape (1,) for s
    in [-tau, 0]. V records u^2, so the decay-rate estimator applies
    unchanged. The blow-up guard is 1e6 times max(u0^2, 1). A mode with
    n != 1 raises ValueError before the history is seeded.

    The state steps as a Python float, bit for bit as a (1,) array would:
    the registry function is applied to floats, and numpy's 1x1 product
    c @ x is 0 + c*x, written c*x + 0.0 (it turns -0.0 into +0.0; later
    terms cannot, as the sum then never holds -0.0).
    """
    if mode.n != 1:
        raise ValueError(f"simulate_ode integrates a scalar mode, got n = {mode.n}")
    c, a, b = float(-mode.C[0, 0]), float(mode.A[0, 0]), float(mode.B[0, 0])
    j, g = float(mode.J[0]), activation.fn

    def explicit(_, t, u, u_delay):
        return c * u + 0.0 + a * float(g(u)) + b * float(g(u_delay)) + j

    def sample(s):
        v = np.asarray(phi(s), dtype=float)
        if v.shape != (1,):
            raise ValueError(f"initial state has shape {v.shape}, expected (1,)")
        return float(v[0])
    norm2 = lambda u: u * u
    return _run(sample, (), tau, constant_delay(tau), config, explicit,
                implicit=lambda mode, x, out: x, norm2=norm2,
                guard=lambda hist, u0: BLOWUP_FACTOR * max(norm2(u0), 1.0))


def fit_window_start(samples: int) -> int:
    """Start index of the fit window, the trailing half of the samples;
    raises if it holds under 10 samples."""
    start = samples // 2
    if samples - start < 10:
        raise ValueError("fewer than 10 samples in the fit window")
    return start


def estimate_decay_rate(trajectory: Trajectory) -> DecayEstimate:
    """Least-squares fit of ln ||u(t)|| over the trailing half of the run.

    The rate is minus the slope (half the decay rate of V). An identically
    zero tail returns the +inf sentinel.
    """
    start = fit_window_start(len(trajectory.times))
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

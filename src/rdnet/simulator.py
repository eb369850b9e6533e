"""Time integration of the delayed system with state-dependent switching.

First-order IMEX stepping: diffusion backward-Euler (unconditionally stable
against the D/h^2 stiffness), reaction and delay terms forward. Fields step
in simulate's one loop: its Helmholtz solves write each new field into the
delay history's next ring slot, snapshots receive copies of the field, and
a blow-up guard stops a run whose norm leaves the scale of its initial
data. The lumped scalar ODE has its own forward-Euler integrator by the
method of steps. Delay lookup interpolates linearly in a window spanning the
delay, matching the scheme order. A simulation run is single-threaded and
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .certificates import margin_matrices
from .geometry import Grid, helmholtz_solve, l2_inner
from .model import Activation, Mode, SwitchedNetwork, constant_delay

BLOWUP_FACTOR = 1e6


class BlowUpError(RuntimeError):
    """State norm exceeded the blow-up guard."""


class HistoryUnderrunError(RuntimeError):
    """Delay lookup requested an entry before the stored window."""


def _time_axis(tau: float, dt: float, steps: int) -> tuple[np.ndarray, int]:
    """A run's time axis and the index m of t = 0 on it: the m + 1 =
    max(1, round(tau/dt)) + 1 evenly spaced times from -tau (exactly) to 0
    where phi is sampled, or 0 alone where tau = 0, then k dt, k = 1..steps."""
    m = max(1, int(round(tau / dt))) if tau > 0 else 0
    ts = np.empty(m + steps + 1)
    ts[:m] = [-tau] + [-k * tau / m for k in range(m - 1, 0, -1)] if m else []
    ts[m:] = np.arange(steps + 1, dtype=float) * dt
    return ts, m


def _lookups(ts: np.ndarray, q) -> tuple[np.ndarray, np.ndarray]:
    """Where the times q >= ts[0] sit on the axis ts: the entry i with
    ts[i - 1] <= q < ts[i] and the weight w = (q - ts[i - 1]) / (ts[i] -
    ts[i - 1]) of entry i. A q at or past ts[-1] gets i = len(ts), where a
    reader takes the newest state it holds, as for any i past that state."""
    i = np.searchsorted(ts, q, "right")
    w, span = q - ts[i - 1], ts.take(i, mode="clip") - ts[i - 1]
    return i, np.divide(w, span, out=w, where=span > 0)


class History:
    """Delay window over a run's time axis: entry p sits in ring slot p mod
    ceil(tau/dt) + 2, room for the ceil(tau/dt) + 1 entries of a window
    spanning tau in steps dt apart and a spare against rounding at the
    window's edge. The slot the next push fills still holds the oldest entry
    until a stepping loop writes into it.

    The slots are views of one float array allocated at the first push, which
    sets the states' shape; a scalar push raises ValueError. A push stores the
    slot that `slot` handed out as is and copies any other array in. A lookup
    never returns a slot, so what it returns survives later pushes.
    """

    def __init__(self, tau: float, dt: float):
        if tau < 0:
            raise ValueError("delay bound must be nonnegative")
        if not dt > 0:
            raise ValueError("dt must be positive")
        self._capacity = math.ceil(tau / dt) + 2
        self._ring: list[np.ndarray] = []
        self._count = 0                               # entries pushed

    def slot(self) -> np.ndarray | None:
        """The ring slot the next push fills, free until then; None before
        the first push sets the ring's shape. A stepping loop writes the new
        state into it, and the push then stores it without a copy."""
        return self._ring[self._count % self._capacity] if self._ring else None

    def push(self, u: np.ndarray) -> None:
        """Store u as the axis's next entry, evicting the oldest of a full ring."""
        if np.ndim(u) == 0:
            raise ValueError("state has shape (): a history stores arrays, not scalars")
        if not self._ring:
            self._ring = list(np.empty((self._capacity,) + np.shape(u)))
        slot = self.slot()
        if u is not slot:
            if np.shape(u) != slot.shape:
                raise ValueError(f"state has shape {np.shape(u)}, "
                                 f"the history holds {slot.shape}")
            slot[...] = u
        self._count += 1

    def value(self, i: int, w: float) -> np.ndarray:
        """(1 - w) u[i - 1] + w u[i] of the axis entries, as _lookups pairs
        them, in a new array; the newest state for any i past it."""
        ring, count, cap = self._ring, self._count, self._capacity
        if i <= max(0, count - cap) or not count:
            raise HistoryUnderrunError(f"axis entry {i - 1} is not in the delay window")
        if i >= count:
            return ring[(count - 1) % cap].copy()
        return (1.0 - w) * ring[(i - 1) % cap] + w * ring[i % cap]


@dataclass
class SimConfig:
    dt: float
    horizon: float
    switching: bool = False
    snapshot_stride: int = 0

    def __post_init__(self):
        if not (0 < self.dt < math.inf and 0 < self.horizon < math.inf):
            raise ValueError("dt and horizon must be positive and finite")
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


def simulate(network: SwitchedNetwork, grid: Grid, config: SimConfig,
             phi: Callable[[float], np.ndarray],
             snapshot: Callable[[float, np.ndarray], None] | None = None) -> Trajectory:
    """Integrate the deviation system u_t = D Lap u - C u + A f(u) + B f(u_tau).

    Every mode uses the one recentring f(u) = g(u) - g(0), so u = 0 is an
    equilibrium of each mode; the inputs J and per-mode equilibria are not
    tracked. All modes share the given grid; with config.switching mode s's
    switching matrix Q_s is margin_matrices at the simplex vertex e_s, of the
    network on the shared domain, whose first eigenvalue each Mode derives.
    Every c = 1 / (dt D_i) must be a finite float, or ValueError before phi
    is sampled. phi(s) supplies the initial field for s in [-tau, 0] with
    shape (n, *grid.shape). The delay is network.delay, or the constant
    tau_max where the network gives none; before phi is sampled, it is
    range-checked at every step time and each lookup paired on the run's
    time axis by _lookups, which the ring History indexes. A step picks the
    mode (with config.switching), reads the delayed field at its pair,
    takes the explicit reaction step x = u + dt (-C u + A f(u) +
    B f(u_delay)) and solves (c - Lap) u_i = c x_i per component straight
    into the delay history's next ring slot, which the push then stores
    without a copy; so the history neither allocates nor copies a field
    per step. The blow-up guard raises BlowUpError once
    the squared norm exceeds 1e6 times the largest squared norm of five
    samples of phi. With config.snapshot_stride > 0, snapshot(t, field)
    receives a copy of the field, which the loop keeps no reference to, at
    t = 0 and every stride-th step as the run reaches it; a stride without
    a snapshot callable raises before phi is sampled.
    """
    stride, dt = config.snapshot_stride, config.dt
    if stride and snapshot is None:
        raise ValueError("snapshot_stride needs a snapshot callable")
    n, tau = network.n, network.tau_max
    if tau > 0 and dt > tau:
        raise ValueError("dt must not exceed the delay bound")
    shared_modes = [Mode(m.D, m.C, m.A, m.B, m.J, grid.domain) for m in network.modes]
    with np.errstate(over="ignore", divide="ignore"):   # checked just below
        coef = [1.0 / (dt * np.diag(m.D)) for m in shared_modes]
    if not all(np.isfinite(c).all() for c in coef):
        raise ValueError(f"a diffusion coefficient is too small for dt = {dt:.6g}: "
                         "1/(dt D_i) overflows a float")
    if config.switching:
        shared = replace(network, modes=tuple(shared_modes))
        Q = margin_matrices(shared, np.eye(network.N), network.gamma, network.q)
    g0 = network.activation(np.zeros((n, 1)))   # f(u) = g(u) - g(0): f(0) = 0 exactly
    f = lambda flat: network.activation(flat) - g0
    steps, delay = config.steps, network.delay or constant_delay(tau)
    ts, zero = _time_axis(tau, dt, steps)
    reads = [0.0] + (np.linspace(-tau, 0, 5).tolist() if tau > 0 else [0.0])
    sampled = len(reads)                  # u(0), the blow-up samples, then
    for t in ts[zero:-1].tolist() if tau > 0 else ():   # u(t - d) per step
        d = delay(t)
        if not 0.0 <= d <= tau:
            raise ValueError(f"delay at t={t} is {d}, outside [0, {tau}]")
        reads.append(t - d)
    pairs = list(zip(*(a.tolist() for a in _lookups(ts, reads))))

    hist = History(tau, dt)
    for s in ts[:zero + 1].tolist():
        hist.push(np.asarray(phi(s), dtype=float))
    u, shape = hist.value(*pairs[0]), (n,) + grid.shape
    if u.shape != shape:
        raise ValueError(f"initial state has shape {u.shape}, expected {shape}")
    norms = [l2_inner(grid, w, w) for w in (hist.value(*p) for p in pairs[1:sampled])]
    bound = BLOWUP_FACTOR * max(max(norms), 1e-300)

    times = np.empty(steps + 1)
    V = np.empty(steps + 1)
    modes = np.zeros(steps + 1, dtype=int)
    mode = 0

    t = 0.0
    times[0], V[0] = t, l2_inner(grid, u, u)
    if stride:
        snapshot(t, u.copy())
    for k in range(1, steps + 1):
        if config.switching:
            mode = switching_decide(u, Q, mode)
        u_delay = hist.value(*pairs[sampled + k - 1]) if tau > 0 else u
        m = shared_modes[mode]
        flat, flat_delay = u.reshape(n, -1), u_delay.reshape(n, -1)
        x = u + dt * (-m.C @ flat + m.A @ f(flat) + m.B @ f(flat_delay)).reshape(shape)
        u = hist.slot()
        for i, c in enumerate(coef[mode]):
            u[i] = helmholtz_solve(grid, c, c * x[i])
        del x   # held into the next step, it would add a field to the peak
        t = k * dt
        hist.push(u)
        v = l2_inner(grid, u, u)
        if not math.isfinite(v) or v > bound:
            raise BlowUpError(f"norm blew up at t={t:.4g} (V={v:.3e})")
        times[k], V[k], modes[k] = t, v, mode
        if stride and k % stride == 0:
            snapshot(t, u.copy())
    return Trajectory(times, V, modes)


def simulate_ode(mode: Mode, activation: Activation, tau: float, config: SimConfig,
                 phi: Callable[[float], np.ndarray]) -> Trajectory:
    """Forward-Euler integration of du/dt = -C u + A g(u) + B g(u_tau) + J.

    The lumped scalar mode runs under the constant delay tau; phi(s) gives
    the initial state of shape (1,) for s in [-tau, 0], sampled at the seed
    times of the time axis, as simulate samples it. V records u^2, so the
    decay-rate estimator applies unchanged. The blow-up guard is 1e6 times
    max(u0^2, 1). A mode with n != 1 raises ValueError before phi is
    sampled.

    Method of steps (Bellen & Zennaro, Numerical Methods for Delay
    Differential Equations, OUP 2003) on simulate's time axis, with every
    step's pair and weight for t - tau found by _lookups before the first
    step. A window takes the steps whose pair is already stored (at least
    one), interpolates their lagged values by History.value's rule, a pair
    past the newest entry reading that entry (reached only at tau = 0),
    and evaluates b g(u(t - tau)), in one array operation each; only the
    recurrence steps one at a time, on Python floats. Every value equals,
    bit for bit, that of the field loop run on (1,) arrays: the registry
    function gives the same bits on a float as elementwise on an array, and
    numpy's 1x1 product c @ x is 0 + c*x, written c*x + 0.0 (it turns -0.0
    into +0.0; later terms cannot, as the sum then never holds -0.0).
    """
    if mode.n != 1:
        raise ValueError(f"simulate_ode integrates a scalar mode, got n = {mode.n}")
    if config.snapshot_stride:
        raise ValueError("snapshot_stride needs a snapshot callable")
    dt, steps = config.dt, config.steps
    if tau < 0:
        raise ValueError("delay bound must be nonnegative")
    if tau > 0 and dt > tau:
        raise ValueError("dt must not exceed the delay bound")
    c, a, b = float(-mode.C[0, 0]), float(mode.A[0, 0]), float(mode.B[0, 0])
    j, g = float(mode.J[0]), activation.fn

    def sample(s):
        v = np.asarray(phi(s), dtype=float)
        if v.shape != (1,):
            raise ValueError(f"initial state has shape {v.shape}, expected (1,)")
        return float(v[0])
    ts, m = _time_axis(tau, dt, steps)
    times, us = ts[m:], np.zeros(len(ts))
    us[:m + 1] = [sample(s) for s in ts[:m + 1].tolist()]
    i, w = _lookups(ts, times[:-1] - tau)   # step k reads pair k - 1
    u = float(us[m])
    bound = BLOWUP_FACTOR * max(u * u, 1.0)
    isfinite = math.isfinite
    k = 1
    while k <= steps:   # a window: the steps whose pair i is stored, at least one
        newest = m + k - 1                     # ts[newest] = times[k - 1]
        n = max(1, np.searchsorted(i[k - 1:], newest, "right"))
        win = slice(k - 1, k - 1 + n)
        lag = (1.0 - w[win]) * us[i[win] - 1] + w[win] * us[i[win]]
        lag[i[win] > newest] = us[newest]   # a pair past the newest entry reads it
        stepped = []
        for step, delayed in enumerate((b * g(lag)).tolist(), k):
            u = u + dt * (c * u + 0.0 + a * float(g(u)) + delayed + j)
            v = u * u
            if not isfinite(v) or v > bound:
                raise BlowUpError(f"norm blew up at t={times[step]:.4g} (V={v:.3e})")
            stepped.append(u)
        us[newest + 1:newest + 1 + n] = stepped
        k += n
    return Trajectory(times, us[m:] * us[m:], np.zeros(steps + 1, dtype=int))


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

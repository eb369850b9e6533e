import dataclasses
import hashlib
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdnet import cli, presets, simulator
from rdnet.certificates import margin_matrices, search_certificate, verify_certificate
from rdnet.geometry import Grid, RectDomain, eigenfunction
from rdnet.model import Activation, Mode, SwitchedNetwork, constant_delay
from rdnet.schema import dump_system
from rdnet.simulator import (BLOWUP_FACTOR, BlowUpError, History,
                             HistoryUnderrunError, SimConfig, Trajectory,
                             estimate_decay_rate, simulate, simulate_ode,
                             switching_decide)


class _NumpyWindowHistory:
    """The reference delay window: times in a numpy array searched with
    searchsorted, released states set to None, live entries moved to the
    front (the array doubled if need be) when it fills. History must return
    bitwise the same values and raise the same errors."""

    def __init__(self, tau):
        self.tau = tau
        self._times = np.empty(16)
        self._states = []
        self._start = 0

    def push(self, t, u):
        start, end = self._start, len(self._states)
        if end > start and t <= self._times[end - 1]:
            raise ValueError("history times must be strictly increasing")
        if end == len(self._times):
            live = self._times[start:end].copy()
            if 2 * len(live) > len(self._times):
                self._times = np.empty(2 * len(self._times))
            self._times[:len(live)] = live
            del self._states[:start]
            start, end = 0, len(live)
        self._times[end] = t
        self._states.append(u.copy())
        while end - start >= 2 and self._times[start + 1] <= t - self.tau:
            self._states[start] = None
            start += 1
        self._start = start

    def value(self, t):
        start, end = self._start, len(self._states)
        if start == end:
            raise HistoryUnderrunError("history is empty")
        times = self._times[start:end]
        if t < times[0] - 1e-12:
            raise HistoryUnderrunError(
                f"requested t={t} before stored window start {float(times[0])}")
        if t >= times[-1]:
            return self._states[-1]
        j = start + max(1, int(np.searchsorted(times, t, side="right")))
        t0, t1 = self._times[j - 1], self._times[j]
        w = (t - t0) / (t1 - t0)
        return (1.0 - w) * self._states[j - 1] + w * self._states[j]


class _NumpyWindowSimHistory(_NumpyWindowHistory):
    """The reference window behind the reference loop _run: seeded at the
    seed times, the first exactly -tau, and handing the loop a fresh array
    where History hands a ring slot."""

    @classmethod
    def from_sampler(cls, sampler, tau, dt):
        hist = cls(tau)
        steps = max(1, int(round(tau / dt))) if tau > 0 else 0
        for k in range(steps, -1, -1):
            s = (-tau if k == steps else -k * tau / steps) if steps else 0.0
            hist.push(s, np.asarray(sampler(s), dtype=float))
        return hist

    def slot(self):
        return np.empty_like(self._states[-1])


def _pair(ts, q):
    """_lookups' (i, w) for the one time q on the axis ts, as Python numbers."""
    (i,), (w,) = (a.tolist() for a in simulator._lookups(ts, [q]))
    return i, w


def _same_lookup(hist, ref, ts, q):
    """The ring at q's pair on the axis ts and the reference window at q
    return bitwise equal states."""
    got, want = hist.value(*_pair(ts, q)), ref.value(q)
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), q


def _curve(t):
    return np.array([1.0 + t, math.sin(7.0 * t)])


def _drive(tau, dt, steps, delay=None, queries=lambda t: (), state=_curve):
    """simulate's traffic on a ring and on the reference window: the seed
    times, then per step k the lookup of u(t - delay(t)) at t = t_(k-1)
    (the constant tau without a delay) and a push at t_k, into the slot the
    ring hands out. Each lookup and each extra time of queries(t) must give
    both the same bits. Returns the ring, the reference and the axis."""
    ts, zero = simulator._time_axis(tau, dt, steps)
    hist, ref = History(tau, dt), _NumpyWindowHistory(tau)
    for s in ts[:zero + 1].tolist():
        hist.push(state(s))
        ref.push(s, state(s))
    reads = [t - (delay(t) if delay else tau) for t in ts[zero:-1].tolist()]
    pairs = zip(*(a.tolist() for a in simulator._lookups(ts, reads)))
    for t, q, (i, w), t_next in zip(ts[zero:-1].tolist(), reads, pairs,
                                    ts[zero + 1:].tolist()):
        got, want = hist.value(i, w), ref.value(q)
        assert got.tobytes() == want.tobytes(), (t, q)
        for extra in queries(t):
            _same_lookup(hist, ref, ts, extra)
        out = hist.slot()
        out[...] = state(t_next)
        hist.push(out)
        ref.push(t_next, out)
    return hist, ref, ts


class TestHistoryMatchesNumpyWindow:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_pushes_and_queries(self, seed):
        # random states, delays anywhere in [0, tau] and lookups at and past
        # the newest entry
        rng = np.random.default_rng(seed)
        tau = float(rng.uniform(0.05, 0.5))
        dt = tau / float(rng.uniform(1.0, 40.0))
        states = {}
        _drive(tau, dt, 1500, delay=lambda t: tau * float(rng.random()),
               queries=lambda t: (t - tau * rng.uniform(-0.5, 1.0, 3)).tolist(),
               state=lambda t: states.setdefault(t, rng.normal(size=2)))

    def test_queries_on_stored_times(self):
        tau, dt = 0.2, 0.01
        ts, zero = simulator._time_axis(tau, dt, 500)
        _drive(tau, dt, 500, queries=lambda t: [s for s in ts[:zero + 500].tolist()
                                                 if t - tau <= s <= t])

    def test_queries_at_the_window_start(self):
        # the oldest entry a lookup may need is the last at or before t - tau
        tau, dt = 0.1, 1e-3
        ts, _ = simulator._time_axis(tau, dt, 2000)
        start = lambda t: float(ts[np.searchsorted(ts, t - tau, "right") - 1])
        _drive(tau, dt, 2000, queries=lambda t: (start(t), t - tau, start(t) + 1e-13))

    def test_thousands_of_pushes_wrap_the_ring(self):
        tau, dt = 0.05, 1e-3
        hist, ref, ts = _drive(
            tau, dt, 20000, state=lambda t: np.array([t, -0.5 * t, math.floor(t) % 7]),
            queries=lambda t: (t - tau, t - 0.37 * tau, t - dt / 3, t, t + 1.0)
            if round(t / dt) % 97 == 0 or t > 19.9 else ())
        _same_lookup(hist, ref, ts, 20000 * dt - tau)

    @settings(max_examples=200, deadline=None)
    @given(tau=st.one_of(st.just(0.0), st.floats(0.0, 5.0, exclude_min=True,
                                                  allow_subnormal=False)),
           ratio=st.integers(1, 300),
           offset=st.one_of(st.integers(-4, 4), st.floats(0.0, 1.0)),
           fractions=st.one_of(st.just([1.0]), st.lists(st.floats(0.0, 1.0),
                                                         min_size=1, max_size=8)))
    def test_stepping_loop_traffic_never_asks_for_an_evicted_entry(
            self, tau, ratio, offset, fractions):
        # simulate's traffic under a constant delay or one that varies in
        # [0, tau]; the ratio tau / dt is an integer, one a few ulps off, or
        # between two integers
        if tau == 0.0:
            dt = 1.0 / ratio
        elif isinstance(offset, int):
            dt = tau / ratio
            for _ in range(abs(offset)):
                dt = math.nextafter(dt, math.copysign(math.inf, offset))
            dt = min(dt, tau)   # as simulate requires
        else:
            dt = tau / (ratio + offset)
        steps = max(3 * math.ceil(tau / dt), 3)
        d = [tau * fractions[k % len(fractions)] for k in range(steps)]
        _drive(tau, dt, steps, delay=lambda t: d[round(t / dt)])

    def test_stored_states_are_copies(self):
        # neither the caller's pushed buffer nor a returned state aliases
        # the ring
        tau, dt = 0.3, 0.05
        ts, zero = simulator._time_axis(tau, dt, 200)
        hist, ref = History(tau, dt), _NumpyWindowHistory(tau)
        buf = np.empty((2, 3))
        for t in ts.tolist():
            buf[:] = np.arange(6.0).reshape(2, 3) * math.sin(t)
            hist.push(buf)
            ref.push(t, buf)
            buf[:] = np.nan
            for q in (t - tau, t - 0.4 * tau, t - dt / 3, t, t + 1.0):
                if q >= -tau:
                    hist.value(*_pair(ts, q))[:] = np.nan
                    _same_lookup(hist, ref, ts, q)

    def test_simulate_with_time_varying_delay(self):
        # dt does not divide tau, and the delay sweeps [tau/2, tau]; the pins
        # were taken from the reference window's run
        net = presets.switched_benchmark(1)
        net = dataclasses.replace(
            net, delay=lambda t: net.tau_max * (0.5 + 0.5 * math.sin(t) ** 2))
        grid = Grid(net.modes[0].domain, (15, 15))
        config = SimConfig(dt=0.3, horizon=12.0, switching=True, snapshot_stride=1)
        field = presets.switched_benchmark_initial(grid)(0.0)
        snaps = []
        traj = simulate(net, grid, config, lambda s: (1.0 + s / 7.0) * field,
                        lambda t, u: snaps.append((t, u)))
        assert len(traj.V) == 41 and len(snaps) == 41
        assert _sha1(traj.V) == "5c6446526e783f84c17e4190cca753cbf0896a01"
        assert _sha1(traj.modes) == "3376d9102f4057b30088ce2fb6c975f8387e82a1"
        assert hashlib.sha1(b"".join(u.tobytes() for _, u in snaps)).hexdigest() \
            == "0bd6091da9e16e2145ac76694c377093c592bbc9"


class TestHistory:
    def test_linear_interpolation_exact(self):
        hist = History(2.0, 1.0)
        for t in (0.0, 1.0, 2.0):
            hist.push(np.array([2.0 * t]))
        assert hist.value(1, 0.5)[0] == 1.0
        assert hist.value(2, 0.75)[0] == 3.5

    def test_clamps_future_queries_to_latest(self):
        hist = History(1.0, 1.0)
        hist.push(np.array([1.0]))
        hist.push(np.array([3.0]))
        assert hist.value(2, 0.0)[0] == 3.0
        assert hist.value(5, 0.7)[0] == 3.0

    def test_underrun_raises(self):
        hist = History(0.3, 0.1)   # a ring of 5 slots
        with pytest.raises(HistoryUnderrunError):
            hist.value(1, 0.0)     # empty
        for k in range(10):
            hist.push(np.array([float(k)]))
        for i in (0, 1, 5):        # before the axis, or evicted
            with pytest.raises(HistoryUnderrunError, match="axis entry -?[0-4] is not in"):
                hist.value(i, 0.5)
        assert hist.value(6, 0.5)[0] == 5.5

    def test_zero_delay_window_returns_its_entry(self):
        ts, zero = simulator._time_axis(0.0, 0.1, 0)
        assert ts.tolist() == [0.0] and zero == 0
        hist = History(0.0, 0.1)
        hist.push(np.array([3.0]))
        assert hist.value(*_pair(ts, 0.0))[0] == 3.0

    def test_zero_delay_zero_steps_simulate_warns_nothing(self):
        # one axis entry: its only lookups sit at its end, where no weight
        # may divide 0 by 0
        net = _diffusion_only_network()
        grid = Grid(net.modes[0].domain, (15,))
        phi, _ = eigenfunction(grid, (1,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = simulate(net, grid, SimConfig(dt=1.0, horizon=0.4),
                            lambda s: phi[None])
        assert traj.times.tolist() == [0.0] and traj.V[0] == pytest.approx(1.0)

    def test_rejects_other_state_kinds(self):
        hist = History(1.0, 1.0)
        hist.push(np.zeros(2))
        with pytest.raises(ValueError, match="shape"):
            hist.push(np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            hist.push(0.5)
        with pytest.raises(ValueError, match="stores arrays, not scalars"):
            History(1.0, 1.0).push(0.5)
        assert hist.value(2, 0.0).shape == (2,)

    def test_keeps_delay_window(self):
        hist = History(0.5, 0.1)   # a window of 5 steps in 7 slots
        for k in range(100):
            hist.push(np.array([float(k)]))
        assert hist.value(95, 0.0)[0] == 94.0
        assert hist.value(94, 0.5)[0] == 93.5
        with pytest.raises(HistoryUnderrunError):
            hist.value(93, 0.5)

    def test_seeds_cover_window(self):
        tau, dt = 1.0, 0.1
        ts, zero = simulator._time_axis(tau, dt, 0)
        hist = History(tau, dt)
        for s in ts.tolist():
            hist.push(np.array([s]))
        i, w = simulator._lookups(ts, [-1.0, -0.35, 0.0])
        assert [hist.value(*p)[0] for p in zip(i.tolist(), w.tolist())] == \
            pytest.approx([-1.0, -0.35, 0.0])

    def test_values_survive_later_pushes(self):
        # the caller reuses one state buffer, as a stepping loop may
        hist, buf = History(0.5, 0.1), np.empty(2)
        for k in range(4):
            buf[:] = k, -k
            hist.push(buf)
        at_node = hist.value(2, 0.0)
        at_latest = hist.value(4, 0.0)
        after_latest = hist.value(9, 0.5)
        saved = [a.copy() for a in (at_node, at_latest, after_latest)]
        for k in range(4, 200):
            buf[:] = k, -k
            hist.push(buf)
        for got, want in zip((at_node, at_latest, after_latest), saved):
            np.testing.assert_array_equal(got, want)


class TestSwitchingDecide:
    def test_picks_argmin_pointwise_state(self):
        Q = [np.eye(1), -np.eye(1)]
        assert switching_decide(np.array([2.0]), Q, current=0) == 1

    def test_current_kept_while_its_region_holds(self):
        Q = [-0.5 * np.eye(1), -1.0 * np.eye(1)]
        u = np.array([1.0])
        # the current mode's form is negative, so the state is still inside
        # its region and no switch happens even though mode 1 scores lower
        assert switching_decide(u, Q, current=0) == 0
        assert switching_decide(u, Q, current=1) == 1

    def test_switches_to_argmin_when_region_left(self):
        Q = [0.5 * np.eye(1), -1.0 * np.eye(1)]
        u = np.array([1.0])
        assert switching_decide(u, Q, current=0) == 1

    def test_single_mode_shortcut(self):
        assert switching_decide(np.array([1.0]), [np.eye(1)], 0) == 0


def _eager_decide(u, Q, current):
    """The reference switching law: score every mode by the node sum of
    u^T Q u, keep current while its score is negative, else the lowest-index
    argmin."""
    if len(Q) == 1:
        return 0
    flat = u.reshape(u.shape[0], -1)
    scores = [float(np.einsum("ik,ij,jk->k", flat, Qs, flat).sum()) for Qs in Q]
    if scores[current] < 0:
        return current
    return int(np.argmin(scores))


@st.composite
def _switching_cases(draw):
    """Small integer-valued states of shape (n,) or (n, *grid shape) and
    forms, so that exact ties between modes (and between a score and 0)
    come up often; some forms are repeated outright."""
    n = draw(st.integers(1, 3))
    shape = (n,) + draw(st.sampled_from([(), (3,), (4,), (3, 4)]))
    ints = st.integers(-2, 2).map(float)
    u = np.array(draw(st.lists(ints, min_size=math.prod(shape),
                               max_size=math.prod(shape)))).reshape(shape)
    Q = []
    for _ in range(draw(st.integers(1, 4))):
        if Q and draw(st.booleans()):
            Q.append(Q[draw(st.integers(0, len(Q) - 1))])
            continue
        a = np.array(draw(st.lists(ints, min_size=n * n, max_size=n * n))).reshape(n, n)
        Q.append(a + a.T)
    current = draw(st.integers(0, len(Q) - 1))
    return u, Q, current


class TestSwitchingDecideMatchesEagerRule:
    @given(_switching_cases())
    @settings(max_examples=400, deadline=None)
    def test_same_mode(self, case):
        assert switching_decide(*case) == _eager_decide(*case)


class TestSimConfig:
    @pytest.mark.parametrize("field", ["dt", "horizon"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="positive and finite"):
            SimConfig(**{"dt": 0.1, "horizon": 1.0, field: value})


class TestDecayEstimate:
    def test_exact_exponential_recovered(self):
        t = np.linspace(0, 10, 201)
        traj = Trajectory(t, (3.0 * np.exp(-0.7 * t))**2, np.zeros(201, int))
        est = estimate_decay_rate(traj)
        assert est.rate == pytest.approx(0.7, abs=1e-10)
        assert est.prefactor == pytest.approx(3.0, rel=1e-8)
        assert est.r_squared == pytest.approx(1.0)

    def test_zero_tail_returns_inf_sentinel(self):
        t = np.linspace(0, 1, 50)
        traj = Trajectory(t, np.zeros(50), np.zeros(50, int))
        est = estimate_decay_rate(traj)
        assert est.rate == math.inf

    def test_short_window_rejected(self):
        # the trailing half of 18 samples holds 9, of 19 samples 10
        t = np.linspace(0, 1, 19)
        traj = Trajectory(t[:18], np.exp(-t[:18]), np.zeros(18, int))
        with pytest.raises(ValueError, match="fewer than 10 samples"):
            estimate_decay_rate(traj)
        traj = Trajectory(t, np.exp(-t), np.zeros(19, int))
        assert estimate_decay_rate(traj).window == (t[9], 1.0)


class TestOdeIntegration:
    def test_linear_decay_rate(self):
        mode = Mode([[1.0]], [[2.0]], [[0.0]], [[0.0]], [0.0], RectDomain((1.0,)))
        act = Activation.uniform("identity", {}, 1.0, 1)
        config = SimConfig(dt=1e-4, horizon=5.0)
        traj = simulate_ode(mode, act, 0.0, config, lambda s: np.array([1.0]))
        est = estimate_decay_rate(traj)
        assert est.rate == pytest.approx(2.0, rel=1e-3)
        assert est.r_squared > 0.999

    def test_equilibrium_of_scalar_benchmark(self):
        problem = presets.boundary_layer_problem(11)
        config = SimConfig(dt=1e-3, horizon=20.0)
        traj = simulate_ode(problem.mode, problem.activation, presets.BOUNDARY_LAYER_TAU,
                            config, lambda s: np.zeros(1))
        assert math.sqrt(traj.V[-1]) == pytest.approx(200.0 / 357.0, abs=1e-6)

    def test_blow_up_guard(self):
        mode = Mode([[1.0]], [[1.0]], [[5.0]], [[0.0]], [0.0], RectDomain((1.0,)))
        act = Activation.uniform("identity", {}, 1.0, 1)
        config = SimConfig(dt=0.01, horizon=50.0)
        with pytest.raises(BlowUpError):
            simulate_ode(mode, act, 0.0, config, lambda s: np.array([1.0]))

    def test_vector_mode_rejected_before_stepping(self):
        mode = Mode(np.eye(2), np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)),
                    [0.0, 0.0], RectDomain((1.0,)))
        act = Activation.uniform("identity", {}, 1.0, 2)

        def phi(s):
            raise AssertionError("the history was seeded")
        with pytest.raises(ValueError, match="scalar mode, got n = 2"):
            simulate_ode(mode, act, 0.5, SimConfig(dt=0.01, horizon=1.0), phi)


def _sha1(a: np.ndarray) -> str:
    return hashlib.sha1(a.tobytes()).hexdigest()


class TestBitwiseTrajectories:
    """SHA-1 of traj.V.tobytes(): the scalar integrator's arithmetic is
    pinned bit for bit, so a change to its delay-window lookups, the ODE
    right-hand side or the recurrence that moves any sample by one rounding
    step fails here."""

    def test_statement1_ode(self):
        problem = presets.boundary_layer_problem(11)
        traj = simulate_ode(problem.mode, problem.activation,
                            presets.BOUNDARY_LAYER_TAU, SimConfig(dt=1e-3, horizon=20.0),
                            lambda s: np.zeros(1))
        assert len(traj.V) == 20001
        assert _sha1(traj.V) == "dc54071dbb06f908c9dfe3e4a14b9bd96877a5b9"

    def test_example35_ode(self):
        problem = presets.linear_variational_problem(11)
        traj = simulate_ode(problem.mode, problem.activation, 1.0,
                            SimConfig(dt=1e-3, horizon=20.0), lambda s: np.zeros(1))
        assert len(traj.V) == 20001
        assert _sha1(traj.V) == "9423fd4144001fd87ca77ed428d39070753d1fd6"


def _numpy_ode_rhs(mode, activation):
    """The reference right-hand side: -C u + A g(u) + B g(u_tau) + J on (1,)
    arrays with numpy products, as simulate_ode stepped before a scalar mode
    stepped on floats."""
    g, neg_C, A, B, J = activation, -mode.C, mode.A, mode.B, mode.J
    return lambda t, u, u_delay: neg_C @ u + A @ g(u) + B @ g(u_delay) + J


def _run(phi, shape: tuple[int, ...], tau: float, delay, config: SimConfig,
         explicit, implicit, norm2, guard, switch=None, snapshot=None) -> Trajectory:
    """The reference stepping loop of _reference_simulate_ode.

    A step is u <- implicit(mode, u + dt * explicit(mode, t, u, u_delay), out),
    then the history push and the blow-up guard, whose bound is guard(hist,
    u0). The state is a float array of the given shape. out is the history's
    ring slot that the push fills; implicit may write the new state into
    it, which the push then stores without a copy, or return another array,
    which the push copies into the ring. switch(u, mode) returns the new
    mode. At t = 0 and every snapshot_stride-th step the loop calls
    snapshot(t, copy), a copy the loop keeps no reference to; a stride
    without a snapshot callable raises before the history is seeded.
    """
    stride = config.snapshot_stride
    if stride and snapshot is None:
        raise ValueError("snapshot_stride needs a snapshot callable")
    dt = config.dt
    if tau > 0 and dt > tau:
        raise ValueError("dt must not exceed the delay bound")
    hist = _NumpyWindowSimHistory.from_sampler(phi, tau, dt)
    u = hist.value(0.0)
    if u.shape != shape:
        raise ValueError(f"initial state has shape {u.shape}, expected {shape}")
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
        snapshot(t, u.copy())
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
            snapshot(t, u.copy())
    return Trajectory(times, V, modes)


def _reference_simulate_ode(mode, activation, tau, config, phi):
    """simulate_ode on (1,) array states: the reference rhs through _run."""
    rhs = _numpy_ode_rhs(mode, activation)
    norm2 = lambda u: float(u @ u)
    return _run(phi, (mode.n,), tau, constant_delay(tau), config,
                explicit=lambda m, t, u, u_delay: rhs(t, u, u_delay),
                implicit=lambda m, x, out: x, norm2=norm2,
                guard=lambda hist, u0: BLOWUP_FACTOR * max(norm2(u0), 1.0))


def _outcome(run):
    """The trajectory's bytes, or the error's type and message of run()."""
    try:
        traj = run()
    except (ValueError, BlowUpError) as exc:
        return type(exc), str(exc)
    return traj.times.tobytes(), traj.V.tobytes(), traj.modes.tobytes()


_SIGNED = st.floats(-4.0, 4.0)      # hypothesis draws 0.0 and -0.0 often
_POSITIVE = st.floats(0.1, 4.0)


@st.composite
def _scalar_ode_cases(draw):
    """A scalar mode, one of the six registry activations, a constant delay
    (or none) and linear initial data; ±0.0 comes up in data and
    coefficients (phi is sampled at s = -0.0), and some cases raise: dt >
    tau or a blow-up. Runs of up to 400 steps cross several delay windows,
    and a dt that does not divide tau (0.03, 0.07) puts the first window's
    lookups between phi's samples and blow-ups inside a window."""
    name = draw(st.sampled_from(["affine", "identity", "scaled_sine",
                                 "piecewise_cbrt", "saturation", "tabulated"]))
    if name in ("affine", "scaled_sine"):
        params = {k: draw(_SIGNED) for k in ("a", "b", "c")[:2 + (name == "scaled_sine")]}
    elif name == "piecewise_cbrt":
        params = {k: draw(_POSITIVE) for k in ("d", "a_weight", "mu1")}
    elif name == "saturation":
        lo = draw(st.floats(-3.0, 0.0))
        params = {"lo": lo, "hi": lo + draw(_POSITIVE)}
    elif name == "tabulated":
        xs = sorted(draw(st.sets(st.floats(-5.0, 5.0), min_size=2, max_size=6)))
        params = {"x": xs, "y": [draw(_SIGNED) for _ in xs]}
    else:
        params = {}
    activation = Activation.uniform(name, params, 1.0, 1)
    mode = Mode([[1.0]], [[draw(_POSITIVE)]], [[draw(_SIGNED)]], [[draw(_SIGNED)]],
                [draw(_SIGNED)], RectDomain((1.0,)))
    dt = draw(st.sampled_from([0.01, 0.03, 0.05, 0.07, 0.1]))
    tau = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    config = SimConfig(dt=dt, horizon=dt * draw(st.integers(1, 400)))
    p0 = draw(st.one_of(st.sampled_from([0.0, -0.0]), _SIGNED))
    p1 = draw(_SIGNED)
    phi = lambda s: np.array([p0 + p1 * s])
    return mode, activation, tau, config, phi


class TestScalarOdeMatchesNumpyRhs:
    """A scalar mode steps by the method of steps on Python floats; its
    trajectory and errors must equal, bit for bit, those of the reference
    right-hand side run on (1,) arrays through the reference loop _run."""

    @given(_scalar_ode_cases())
    @settings(max_examples=400, deadline=None)
    def test_same_bits(self, case):
        got = _outcome(lambda: simulate_ode(*case))
        want = _outcome(lambda: _reference_simulate_ode(*case))
        assert got == want


class TestInitialShape:
    def test_simulate(self):
        net = _diffusion_only_network()
        grid = Grid(net.modes[0].domain, (15,))
        with pytest.raises(ValueError, match=re.escape(
                "initial state has shape (2, 15), expected (1, 15)")):
            simulate(net, grid, SimConfig(dt=0.01, horizon=0.1),
                     lambda s: np.zeros((2, 15)))

    @pytest.mark.parametrize("value", [np.zeros(2), 0.0, np.zeros((1, 1))])
    def test_scalar_simulate_ode(self, value):
        problem = presets.boundary_layer_problem(11)
        with pytest.raises(ValueError, match=re.escape(
                f"initial state has shape {np.shape(value)}, expected (1,)")):
            simulate_ode(problem.mode, problem.activation, 1.0,
                         SimConfig(dt=0.01, horizon=0.1), lambda s: value)


def _diffusion_only_network(d=0.1, c=1.0):
    mode = Mode([[d]], [[c]], [[0.0]], [[0.0]], [0.0], RectDomain((1.0,)))
    act = Activation.uniform("identity", {}, 1.0, 1)
    return SwitchedNetwork((mode,), act, tau_max=0.0, Psi=np.eye(1),
                           gamma=0.1)


class TestPdeSimulation:
    def test_zero_data_stays_exactly_zero(self):
        net = presets.switched_benchmark(1)
        grid = Grid(net.modes[0].domain, (15, 15))
        config = SimConfig(dt=0.05, horizon=2.0, switching=True)
        traj = simulate(net, grid, config, lambda s: np.zeros((2,) + grid.shape))
        assert np.all(traj.V == 0.0)

    def test_heat_equation_decay_rate(self):
        # u_t = d u_xx - c u from the first eigenfunction decays at
        # d lambda1 + c (norm rate = half the V rate)
        d, c = 0.1, 1.0
        net = _diffusion_only_network(d, c)
        grid = Grid(net.modes[0].domain, (63,))
        phi, lam = eigenfunction(grid, (1,))
        config = SimConfig(dt=1e-4, horizon=2.0)
        traj = simulate(net, grid, config, lambda s: phi[None])
        est = estimate_decay_rate(traj)
        h = grid.spacing[0]
        lam_h = (2.0 / h**2) * (1.0 - math.cos(math.pi * h))
        assert est.rate == pytest.approx(d * lam_h + c, rel=1e-3)
        assert est.r_squared > 0.9999

    def test_blow_up_guard_pde(self):
        # strong positive feedback overwhelms diffusion and decay
        mode = Mode([[0.01]], [[0.1]], [[10.0]], [[0.0]], [0.0],
                    RectDomain((1.0,)))
        act = Activation.uniform("identity", {}, 1.0, 1)
        net = SwitchedNetwork((mode,), act, tau_max=0.0, Psi=np.eye(1), gamma=0.1)
        grid = Grid(mode.domain, (31,))
        phi, _ = eigenfunction(grid, (1,))
        with pytest.raises(BlowUpError):
            simulate(net, grid, SimConfig(dt=0.01, horizon=50.0),
                     lambda s: phi[None])

    def test_switching_records_modes_and_count(self):
        net = presets.switched_benchmark(1)
        grid = Grid(net.modes[0].domain, (15, 15))
        phi = presets.switched_benchmark_initial(grid)
        config = SimConfig(dt=0.035, horizon=3.5, switching=True)
        traj = simulate(net, grid, config, phi)
        assert set(np.unique(traj.modes)).issubset({0, 1, 2})
        assert traj.switch_count == int(np.sum(np.diff(traj.modes) != 0))

    def test_snapshots_stride(self):
        net = _diffusion_only_network()
        grid = Grid(net.modes[0].domain, (15,))
        phi, _ = eigenfunction(grid, (1,))
        config = SimConfig(dt=0.1, horizon=1.0, snapshot_stride=5)
        snaps = []
        simulate(net, grid, config, lambda s: phi[None],
                 lambda t, u: snaps.append((t, u)))
        assert len(snaps) == 3   # t = 0, 0.5, 1.0
        assert snaps[1][0] == pytest.approx(0.5)

    def test_stride_without_snapshot_callable_raises_before_stepping(self):
        net = _diffusion_only_network()
        grid = Grid(net.modes[0].domain, (15,))
        sampled = []
        phi = lambda s: sampled.append(s) or np.zeros((1, 15))
        config = SimConfig(dt=0.1, horizon=1.0, snapshot_stride=5)
        with pytest.raises(ValueError, match="snapshot callable"):
            simulate(net, grid, config, phi)
        problem = presets.boundary_layer_problem(11)
        with pytest.raises(ValueError, match="snapshot callable"):
            simulate_ode(problem.mode, problem.activation, 1.0, config,
                         lambda s: sampled.append(s) or np.zeros(1))
        assert sampled == []

    def test_snapshots_are_copies(self):
        # the field handed out is the loop's to forget: overwriting each one
        # in the callable moves no later snapshot and no V sample
        net = presets.switched_benchmark(1)
        grid = Grid(net.modes[0].domain, (15, 15))
        phi = presets.switched_benchmark_initial(grid)
        config = SimConfig(dt=0.035, horizon=1.0, switching=True, snapshot_stride=1)
        runs = []
        for scribble in (False, True):
            snaps = []

            def snapshot(t, u):
                snaps.append((t, u.tobytes()))
                if scribble:
                    u[...] = np.nan
            runs.append((simulate(net, grid, config, phi, snapshot).V.tobytes(), snaps))
        assert len(runs[0][1]) == 30 and runs[0] == runs[1]

    def test_streamed_snapshots_hold_no_state(self):
        # a stride-1 run on 31x31 peaks below the delay ring plus a few
        # states; holding all 344 snapshots would take 344 states
        net = presets.switched_benchmark(1)
        grid = Grid(net.modes[0].domain, (31, 31))
        field = presets.switched_benchmark_initial(grid)(0.0)
        dt = net.tau_max / 100.0
        config = SimConfig(dt=dt, horizon=12.0, switching=True, snapshot_stride=1)
        times = []
        tracemalloc.start()
        try:
            simulate(net, grid, config, lambda s: field, lambda t, u: times.append(t))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ring_slots = math.ceil(net.tau_max / dt) + 3
        assert len(times) == 344
        assert peak < (ring_slots + 16) * field.nbytes

    def test_determinism(self):
        net = presets.switched_benchmark(1)
        grid = Grid(net.modes[0].domain, (11, 11))
        phi = presets.switched_benchmark_initial(grid)
        config = SimConfig(dt=0.05, horizon=1.0, switching=True)
        a = simulate(net, grid, config, phi)
        b = simulate(net, grid, config, phi)
        assert np.array_equal(a.V, b.V)
        assert np.array_equal(a.modes, b.modes)

    def test_dt_exceeding_delay_rejected(self):
        net = presets.switched_benchmark(1)
        grid = Grid(net.modes[0].domain, (11, 11))
        with pytest.raises(ValueError):
            simulate(net, grid, SimConfig(dt=5.0, horizon=10.0),
                     lambda s: np.zeros((2,) + grid.shape))


def _switching_pair(seed: int):
    """A seeded member of a two-mode family that has to switch to decay.

    Seed 0 is the plain pattern on (0, 1): D = 0.01 I, C = I, B = 0,
    A_1 = diag(1.4, 0), A_2 = diag(0, 1.4), the affine activation 0.5 s
    (L = 0.5), tau = 0.1 and Psi = 0.5 I. Other seeds rotate and scale it,
    A_k -> s R A_k R^T with R a random rotation and s in [0.9, 1.1] (Wicks,
    Peleties & DeCarlo, Eur. J. Control 4, 1998). Each mode is
    certificate-infeasible alone (its margin stays positive at any gamma),
    though it decays alone; only the combination beta = (0.5, 0.5) is
    feasible, so the certified rate gamma/2 rests on the switching law. The
    network carries the gamma search_certificate returns. Also returns the
    certificate and the start's amplitudes on (phi_1, phi_2) per neuron.
    """
    rng = np.random.default_rng(seed)
    amp = rng.uniform(-1.0, 1.0, (2, 2))
    theta, scale = (0.0, 1.0) if seed == 0 else \
        (rng.uniform(0.0, 2 * math.pi), rng.uniform(0.9, 1.1))
    R = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    dom = RectDomain((1.0,))
    modes = tuple(Mode(0.01 * np.eye(2), np.eye(2), scale * R @ np.diag(a) @ R.T,
                       np.zeros((2, 2)), np.zeros(2), dom)
                  for a in ([1.4, 0.0], [0.0, 1.4]))
    act = Activation.uniform("affine", {"a": 0.5, "b": 0.0}, 0.5, 2)
    net = SwitchedNetwork(modes, act, tau_max=0.1, Psi=0.5 * np.eye(2))
    cert = search_certificate(net, honor_theorem_constraint=True)
    return SwitchedNetwork(modes, act, tau_max=0.1, Psi=0.5 * np.eye(2),
                           gamma=cert.gamma), cert, amp


class TestSwitchingHappens:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_only_the_combination_is_feasible(self, seed):
        net, cert, _ = _switching_pair(seed)
        assert cert.feasible and cert.beta == (0.5, 0.5)
        assert cert.gamma == pytest.approx(0.5, abs=1e-8)   # the cap lambda_min(Psi)
        for beta in ((1.0, 0.0), (0.0, 1.0)):
            assert not verify_certificate(net, beta, 1e-3).feasible

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_switched_decay_meets_certified_rate(self, seed):
        net, cert, amp = _switching_pair(seed)
        grid = Grid(net.modes[0].domain, (41,))
        phi1, _ = eigenfunction(grid, (1,))
        phi2, _ = eigenfunction(grid, (2,))
        field = np.stack([a1 * phi1 + a2 * phi2 for a1, a2 in amp])
        config = SimConfig(dt=0.01, horizon=15.0, switching=True)
        traj = simulate(net, grid, config, lambda s: field)
        est = estimate_decay_rate(traj)
        assert traj.switch_count > 0
        assert est.rate >= cert.gamma / 2
        assert est.r_squared >= 0.99

    def _cli_report(self, tmp_path, *flags):
        net, cert, _ = _switching_pair(0)
        f = tmp_path / "sys.json"
        f.write_text(json.dumps(dump_system(net, Grid(net.modes[0].domain, (41,)))))
        code = cli.main(["--out", str(tmp_path), "simulate", str(f), *flags,
                         "--T", "15", "--dt", "0.01"])
        assert code == 0
        return json.loads((tmp_path / "simulate_report.json").read_text()), cert

    def test_cli_simulate_switches(self, tmp_path):
        report, cert = self._cli_report(tmp_path, "--switching")
        assert report["switch_count"] > 0
        assert report["min_dwell_time"] == pytest.approx(0.61, abs=1e-9)
        assert report["decay"]["rate"] >= cert.gamma / 2
        assert report["decay"]["r_squared"] >= 0.99

    def test_cli_min_dwell_time_null_without_two_switches(self, tmp_path):
        report, _ = self._cli_report(tmp_path)
        assert report["switch_count"] == 0 and report["min_dwell_time"] is None


class TestBitwiseSwitchedFields:
    """SHA-1 of traj.V and traj.modes and the exact switch count of switched
    field runs: the reaction term, the switch and the Helmholtz step are
    pinned bit for bit, so a rewiring of simulate that moves one sample or
    one switch fails here."""

    def test_switching_pair(self):
        net, _, amp = _switching_pair(0)
        grid = Grid(net.modes[0].domain, (41,))
        phi1, _ = eigenfunction(grid, (1,))
        phi2, _ = eigenfunction(grid, (2,))
        field = np.stack([a1 * phi1 + a2 * phi2 for a1, a2 in amp])
        config = SimConfig(dt=0.01, horizon=15.0, switching=True)
        traj = simulate(net, grid, config, lambda s: field)
        assert len(traj.V) == 1501 and traj.switch_count == 22
        assert _sha1(traj.V) == "2987bbb5b658712791a96b9731a52eb678b78acb"
        assert _sha1(traj.modes) == "11d4060b6bfd60165ce6bd6c2e00bcf22ccd4fd4"

    def test_case1_benchmark(self):
        net = presets.switched_benchmark(1)
        grid = Grid(net.modes[0].domain, (31, 31))
        config = SimConfig(dt=net.tau_max / 100.0, horizon=12.0, switching=True)
        traj = simulate(net, grid, config, presets.switched_benchmark_initial(grid))
        assert len(traj.V) == 344 and traj.switch_count == 0
        assert _sha1(traj.V) == "192d5cfff87158540a3d6683989c60bc4c000766"
        assert _sha1(traj.modes) == "60613ea38e3a68fabe5a4a9ad96b33b6fd21fbb1"

    def test_case1_without_delay(self):
        # tau = 0: every step reads the current field as its delayed one
        net = dataclasses.replace(presets.switched_benchmark(1), tau_max=0.0)
        grid = Grid(net.modes[0].domain, (15, 15))
        config = SimConfig(dt=0.05, horizon=3.0, switching=True)
        traj = simulate(net, grid, config, presets.switched_benchmark_initial(grid))
        assert len(traj.V) == 61 and traj.switch_count == 0
        assert _sha1(traj.V) == "93400ca3fab095c15b80d9af3044d2f2dc137c7e"
        assert _sha1(traj.modes) == "b3eca1862c3ea0da9b9a5ebba1f2f9d1789f0e9f"


def _verdicts_with_grid_eigenvalue(net: SwitchedNetwork, grid: Grid):
    """Per mode, as simulate builds it on the shared grid: (largest eigenvalue
    of Q with the continuum lambda1, the same with the grid's lambda1_h, and
    the spectral norm of the shift 2 (lambda1 - lambda1_h) D between them)."""
    lam_h = sum(float(lam[0]) for _, lam in grid.sine_basis)
    shared = dataclasses.replace(net, modes=tuple(
        Mode(m.D, m.C, m.A, m.B, m.J, grid.domain) for m in net.modes))
    out = []
    for m, Q in zip(shared.modes, margin_matrices(shared, np.eye(net.N), net.gamma, net.q)):
        shift = 2.0 * (m.lambda1 - lam_h) * m.D
        out.append((float(np.linalg.eigvalsh(Q).max()),
                    float(np.linalg.eigvalsh(Q + shift).max()),
                    float(np.abs(np.diag(shift)).max())))
    return out


class TestContinuumEigenvalue:
    """simulate builds the switching matrices with the continuum lambda1; the
    grid's lambda1_h is smaller, so Q(lambda1_h) = Q(lambda1) + 2 (lambda1 -
    lambda1_h) D. On every grid in use both give each mode the same
    negative-definiteness verdict, and by Weyl's inequality no lambda in
    between could flip it: the largest eigenvalue is farther from 0 than
    the shift's norm."""

    @pytest.mark.parametrize("nodes", [31, 61, 101, 151])
    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_benchmark_modes(self, case, nodes):
        net = presets.switched_benchmark(case)
        grid = Grid(net.modes[0].domain, (nodes, nodes))
        for top, top_h, shift in _verdicts_with_grid_eigenvalue(net, grid):
            assert top < 0 and top_h < 0
            assert 0 < shift < abs(top)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_switching_pair(self, seed):
        net, _, _ = _switching_pair(seed)
        grid = Grid(net.modes[0].domain, (41,))
        for top, top_h, shift in _verdicts_with_grid_eigenvalue(net, grid):
            assert top > 0 and top_h > 0
            assert 0 < shift < abs(top)


class TestDelays:
    def test_replaced_tau_max_sets_the_delay(self):
        # the network stores no delay of its own, so a copy with another
        # tau_max runs the constant delay of that tau_max
        net = dataclasses.replace(presets.switched_benchmark(1), tau_max=1.0)
        grid = Grid(net.modes[0].domain, (15, 15))
        config = SimConfig(dt=0.05, horizon=3.0, switching=True)
        field = presets.switched_benchmark_initial(grid)(0.0)
        derived, given = [
            simulate(n, grid, config, lambda s: (1.0 + s) * field)
            for n in (net, dataclasses.replace(net, delay=constant_delay(1.0)))]
        assert len(derived.V) == 61 and derived.V.tobytes() == given.V.tobytes()

    @pytest.mark.parametrize("bad", [-0.5, 2.0])
    def test_delay_outside_bound_rejected_pde(self, bad):
        mode = Mode([[0.1]], [[1.0]], [[0.0]], [[0.5]], [0.0], RectDomain((1.0,)))
        net = SwitchedNetwork((mode,), Activation.uniform("identity", {}, 1.0, 1),
                              tau_max=1.0, Psi=np.eye(1), delay=lambda t: bad)
        grid = Grid(mode.domain, (15,))
        phi, _ = eigenfunction(grid, (1,))
        with pytest.raises(ValueError, match=rf"t=0\.0 is {bad}"):
            simulate(net, grid, SimConfig(dt=0.01, horizon=1.0), lambda s: phi[None])

    def test_late_delay_outside_bound_rejected_before_phi_is_sampled(self):
        # every step's delay is checked up front, so the run stops before it
        # samples phi, takes a step or a snapshot, and names the first bad t
        mode = Mode([[0.1]], [[1.0]], [[0.0]], [[0.5]], [0.0], RectDomain((1.0,)))
        net = SwitchedNetwork((mode,), Activation.uniform("identity", {}, 1.0, 1),
                              tau_max=1.0, Psi=np.eye(1),
                              delay=lambda t: 2.0 if t > 0.5 else 0.5)

        def never(*args):
            raise AssertionError("the run started")
        with pytest.raises(ValueError, match=r"t=0\.51 is 2\.0, outside \[0, 1\.0\]"):
            simulate(net, Grid(mode.domain, (15,)),
                     SimConfig(dt=0.01, horizon=1.0, snapshot_stride=1), never, never)

    # m = round(tau / dt) = 345 here, and -(m * tau) / m sits about 1e-9 above
    # -tau, past the lookup slack of 1e-12
    BIG_TAU, BIG_DT, BIG_T = 6757159.8434330365, 19585.97056067547, 783438.8224270188

    def test_first_seed_time_is_minus_tau(self):
        tau, dt = self.BIG_TAU, self.BIG_DT
        m = round(tau / dt)
        assert -(m * tau) / m > -tau + 1e-12
        ts, zero = simulator._time_axis(tau, dt, 0)
        assert ts[0] == -tau and ts[zero] == 0.0
        hist = History(tau, dt)
        for s in ts.tolist():
            hist.push(np.array([s]))
        assert hist.value(*_pair(ts, -tau))[0] == -tau

    def test_simulate_at_large_delay(self):
        net = dataclasses.replace(presets.switched_benchmark(1), tau_max=self.BIG_TAU,
                                  gamma=1e-7)
        grid = Grid(net.modes[0].domain, (9, 9))
        field = presets.switched_benchmark_initial(grid)(0.0)
        config = SimConfig(dt=self.BIG_DT, horizon=self.BIG_T, switching=True)
        traj = simulate(net, grid, config, lambda s: field)
        assert len(traj.V) == 41 and np.all(np.isfinite(traj.V))

    def test_simulate_ode_at_large_delay(self):
        mode = Mode([[1.0]], [[1e-6]], [[0.0]], [[1e-7]], [0.0], RectDomain((1.0,)))
        act = Activation.uniform("identity", {}, 1.0, 1)
        traj = simulate_ode(mode, act, self.BIG_TAU,
                            SimConfig(dt=self.BIG_DT, horizon=self.BIG_T),
                            lambda s: np.array([1.0]))
        assert len(traj.V) == 41 and 0.0 < traj.V[-1] < 1.0

    # delay(t) = min(t, tau) makes every lookup before tau read phi(0) = 1, so
    # the scheme reduces to a scalar recurrence; a constant delay would read
    # phi(t - tau) = 1 + t - tau instead.
    tau, dt, c, b = 0.5, 0.05, 1.0, 0.5

    def test_time_varying_delay_pde(self):
        d = 0.1
        mode = Mode([[d]], [[self.c]], [[0.0]], [[self.b]], [0.0], RectDomain((1.0,)))
        net = SwitchedNetwork((mode,), Activation.uniform("identity", {}, 1.0, 1),
                              tau_max=self.tau, Psi=np.eye(1),
                              delay=lambda t: min(t, self.tau))
        grid = Grid(mode.domain, (31,))
        phi, _ = eigenfunction(grid, (1,))
        traj = simulate(net, grid, SimConfig(dt=self.dt, horizon=self.tau),
                        lambda s: (1.0 + s) * phi[None])
        h = grid.spacing[0]
        lam_h = (2.0 / h**2) * (1.0 - math.cos(math.pi * h))
        a = 1.0
        for _ in range(10):
            a = (a + self.dt * (-self.c * a + self.b)) / (1.0 + self.dt * d * lam_h)
        assert traj.V[-1] == pytest.approx(a**2, rel=1e-10)

import dataclasses
import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdnet import cli, presets, simulator
from rdnet.certificates import mode_margin_matrix, search_certificate, verify_certificate
from rdnet.geometry import Grid, RectDomain, eigenfunction
from rdnet.model import Activation, Mode, SwitchedNetwork, constant_delay
from rdnet.schema import dump_system
from rdnet.simulator import (BLOWUP_FACTOR, BlowUpError, History,
                             HistoryUnderrunError, SimConfig, Trajectory, _run,
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
    """The reference window behind simulate: seeded as History.from_sampler
    seeds, and handing the loop a fresh array where History hands a ring slot."""

    @classmethod
    def from_sampler(cls, sampler, tau, dt):
        hist = cls(tau)
        steps = max(1, int(round(tau / dt))) if tau > 0 else 0
        for k in range(steps, -1, -1):
            s = -k * tau / steps if steps else 0.0
            hist.push(s, np.asarray(sampler(s), dtype=float))
        return hist

    def slot(self):
        return np.empty_like(self._states[-1])


def _same_lookup(hist, ref, t):
    """Both windows return bitwise equal states at t, or both underrun."""
    try:
        want = ref.value(t)
    except HistoryUnderrunError as exc:
        with pytest.raises(HistoryUnderrunError) as got:
            hist.value(t)
        assert str(got.value) == str(exc)
        return
    got = hist.value(t)
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), t


class TestHistoryMatchesNumpyWindow:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_pushes_and_queries(self, seed):
        rng = np.random.default_rng(seed)
        tau = float(rng.uniform(0.05, 0.5))
        hist, ref = History(tau, 1e-4), _NumpyWindowHistory(tau)
        t = -tau
        for _ in range(3000):
            u = rng.normal(size=2)
            hist.push(t, u)
            ref.push(t, u)
            for q in t - rng.uniform(-0.1, 1.2, 4) * tau:
                _same_lookup(hist, ref, float(q))
            t += float(rng.uniform(1e-4, 0.05))

    def test_queries_on_stored_times(self):
        tau, dt = 0.2, 0.01
        hist, ref = History(tau, dt), _NumpyWindowHistory(tau)
        stored = []
        for k in range(500):
            t = k * dt
            stored.append(t)
            hist.push(t, np.array([math.sin(t), math.cos(3.0 * t)]))
            ref.push(t, np.array([math.sin(t), math.cos(3.0 * t)]))
            for q in stored[-25:]:
                _same_lookup(hist, ref, q)

    def test_queries_just_before_window_start(self):
        tau, dt = 0.1, 1e-3
        hist = History.from_sampler(lambda s: np.array([1.0 + s]), tau, dt)
        ref = _NumpyWindowHistory(tau)
        steps = int(round(tau / dt))
        for k in range(steps, -1, -1):
            s = -k * tau / steps
            ref.push(s, np.array([1.0 + s]))
        for k in range(1, 2000):
            t = k * dt
            hist.push(t, np.array([1.0 + t]))
            ref.push(t, np.array([1.0 + t]))
            start = float(ref._times[ref._start])
            for q in (start, start - 5e-13, start - 1e-12, start - 2e-12,
                      t - tau, t - tau - 1e-13):
                _same_lookup(hist, ref, q)

    def test_thousands_of_pushes_through_compaction(self):
        tau, dt = 0.05, 1e-3
        hist, ref = History(tau, dt), _NumpyWindowHistory(tau)
        for k in range(20000):
            t = k * dt
            u = np.array([float(k), -0.5 * k, k % 7])
            hist.push(t, u)
            ref.push(t, u)
            if k % 97 == 0 or k > 19900:
                for q in (t - tau, t - 0.37 * tau, t - dt / 3, t, t + 1.0):
                    _same_lookup(hist, ref, q)
        _same_lookup(hist, ref, 20000 * dt - 2 * tau)

    def test_full_window_raises_and_keeps_its_entries(self):
        # steps dt apart wrap the ring; steps closer than dt then make every
        # slot live, and neither a slot nor a push may overwrite one
        rng = np.random.default_rng(4)
        tau, dt = 1.0, 0.1
        hist, ref = History(tau, dt), _NumpyWindowHistory(tau)
        t, stored = 0.0, []
        with pytest.raises(ValueError, match="closer than dt"):
            for k in range(100):
                hist.slot()
                u = rng.normal(size=(2, 3))
                hist.push(t, u)
                ref.push(t, u)
                stored.append(t)
                t += dt if k < 50 else 0.03
        assert k > 50
        with pytest.raises(ValueError, match="closer than dt"):
            hist.push(t, rng.normal(size=(2, 3)))
        live = stored[stored.index(float(ref._times[ref._start])):]
        assert len(live) == math.ceil(tau / dt) + 3
        for a, b in zip(live, live[1:]):
            for q in (a, 0.75 * a + 0.25 * b, 0.5 * (a + b)):
                _same_lookup(hist, ref, q)
        for q in (live[0] - 5e-13, live[0] - 2e-12, live[-1], t, t + 1.0):
            _same_lookup(hist, ref, q)

    @settings(max_examples=200, deadline=None)
    @given(tau=st.one_of(st.just(0.0), st.floats(0.0, 5.0, exclude_min=True,
                                                  allow_subnormal=False)),
           ratio=st.integers(1, 300),
           offset=st.one_of(st.integers(-4, 4), st.floats(0.0, 1.0)))
    def test_stepping_loop_traffic_never_fills_the_window(self, tau, ratio, offset):
        # the pushes of _run: seeded by from_sampler, then one per step at
        # k * dt, each after a lookup a full delay back; the ratio tau / dt
        # is an integer, one a few ulps off, or between two integers
        if tau == 0.0:
            dt = 1.0 / ratio
        elif isinstance(offset, int):
            dt = tau / ratio
            for _ in range(abs(offset)):
                dt = math.nextafter(dt, math.copysign(math.inf, offset))
            dt = min(dt, tau)   # as _run requires
        else:
            dt = tau / (ratio + offset)
        hist = History.from_sampler(lambda s: np.array([s, -s]), tau, dt)
        for k in range(1, max(3 * math.ceil(tau / dt), 3) + 1):
            hist.value((k - 1) * dt - tau)
            out = hist.slot()
            out[:] = k, -k
            hist.push(k * dt, out)

    def test_simulate_with_time_varying_delay(self, monkeypatch):
        # dt does not divide tau, and the delay sweeps [tau/2, tau]
        net = presets.switched_benchmark(1)
        net = dataclasses.replace(
            net, delay=lambda t: net.tau_max * (0.5 + 0.5 * math.sin(t) ** 2))
        grid = Grid(net.modes[0].domain, (15, 15))
        config = SimConfig(dt=0.3, horizon=12.0, switching=True, snapshot_stride=1)
        phi = presets.switched_benchmark_initial(grid)
        field = phi(0.0)
        runs = []
        for window in (History, _NumpyWindowSimHistory):
            monkeypatch.setattr(simulator, "History", window)
            snaps = []
            traj = simulate(net, grid, config, lambda s: (1.0 + s / 7.0) * field,
                            lambda t, u: snaps.append((t, u)))
            runs.append((traj, snaps))
        (ring, ring_snaps), (ref, ref_snaps) = runs
        assert len(ring.V) == 41 and ring.V.tobytes() == ref.V.tobytes()
        assert ring.modes.tobytes() == ref.modes.tobytes()
        assert [(t, u.tobytes()) for t, u in ring_snaps] == \
            [(t, u.tobytes()) for t, u in ref_snaps]

    def test_stored_states_are_copies(self):
        # neither the caller's pushed buffer nor a returned state aliases
        # the ring
        tau, dt = 0.3, 0.05
        hist, ref = History(tau, dt), _NumpyWindowHistory(tau)
        buf = np.empty((2, 3))
        for k in range(200):
            t = k * dt
            buf[:] = np.arange(6.0).reshape(2, 3) * math.sin(t)
            hist.push(t, buf)
            ref.push(t, buf)
            buf[:] = np.nan
            hist.value(t)[:] = np.nan
            for q in (t - tau, t - 0.4 * tau, t - dt / 3, t, t + 1.0):
                _same_lookup(hist, ref, q)


class TestHistory:
    def test_linear_interpolation_exact(self):
        hist = History(2.0, 1.0)
        for t in (0.0, 1.0, 2.0):
            hist.push(t, np.array([2.0 * t]))
        assert hist.value(0.5)[0] == pytest.approx(1.0)
        assert hist.value(1.75)[0] == pytest.approx(3.5)

    def test_clamps_future_queries_to_latest(self):
        hist = History(1.0, 1.0)
        hist.push(0.0, np.array([1.0]))
        hist.push(1.0, np.array([3.0]))
        assert hist.value(5.0)[0] == 3.0

    def test_underrun_raises(self):
        hist = History(1.0, 1.0)
        hist.push(0.0, np.array([1.0]))
        with pytest.raises(HistoryUnderrunError):
            hist.value(-0.5)

    def test_single_entry_within_tolerance_returns_it(self):
        # a zero-delay window holds one entry until the first step
        hist = History.from_sampler(lambda s: np.array([3.0]), tau=0.0, dt=0.1)
        assert hist.value(-5e-13)[0] == 3.0

    def test_rejects_nonincreasing_times(self):
        hist = History(1.0, 1.0)
        hist.push(0.0, np.array([1.0]))
        with pytest.raises(ValueError):
            hist.push(0.0, np.array([2.0]))

    def test_rejects_other_state_kinds(self):
        hist = History(1.0, 1.0)
        hist.push(0.0, np.zeros(2))
        with pytest.raises(ValueError, match="shape"):
            hist.push(1.0, np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            hist.push(1.0, 0.5)
        floats = History(1.0, 1.0)
        floats.push(0.0, 0.5)
        with pytest.raises(ValueError, match="array"):
            floats.push(1.0, np.zeros(2))
        assert hist.value(2.0).shape == (2,) and floats.value(2.0) == 0.5

    def test_trims_but_keeps_delay_window(self):
        hist = History(0.5, 0.1)
        for k in range(100):
            hist.push(0.1 * k, np.array([float(k)]))
        # the full delay window must stay reachable
        assert hist.value(9.9 - 0.5)[0] == pytest.approx(94.0)

    def test_from_sampler_covers_window(self):
        hist = History.from_sampler(lambda s: np.array([s]), tau=1.0, dt=0.1)
        assert hist.value(-1.0)[0] == pytest.approx(-1.0)
        assert hist.value(0.0)[0] == pytest.approx(0.0)


    def test_values_survive_later_pushes(self):
        # the caller reuses one state buffer, as a stepping loop may
        hist, buf = History(0.5, 0.1), np.empty(2)
        for k in range(4):
            buf[:] = k, -k
            hist.push(0.1 * k, buf)
        at_node = hist.value(0.1)
        at_latest = hist.value(0.3)
        after_latest = hist.value(7.0)
        saved = [a.copy() for a in (at_node, at_latest, after_latest)]
        for k in range(4, 200):
            buf[:] = k, -k
            hist.push(0.1 * k, buf)
        for got, want in zip((at_node, at_latest, after_latest), saved):
            np.testing.assert_array_equal(got, want)

    def test_uneven_steps_refill_window_and_stay_exact(self):
        rng = np.random.default_rng(3)
        tau = 0.3
        hist = History(tau, 1e-3)
        t = 0.0
        for _ in range(5000):
            hist.push(t, np.array([3.0 * t - 1.0, -2.0 * t]))
            for q in t - tau * rng.random(3):
                if q >= 0.0:
                    np.testing.assert_allclose(hist.value(q), [3.0 * q - 1.0, -2.0 * q],
                                               rtol=1e-12, atol=1e-12)
            t += rng.uniform(1e-3, 2e-2)


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
    """SHA-1 of traj.V.tobytes(): the stepping loop's arithmetic is pinned
    bit for bit, so a change to History, the ODE right-hand side or the loop
    that moves any sample by one rounding step fails here."""

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
    tau or a blow-up."""
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
    dt = draw(st.sampled_from([0.01, 0.05, 0.1]))
    tau = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    config = SimConfig(dt=dt, horizon=dt * draw(st.integers(1, 150)))
    p0 = draw(st.one_of(st.sampled_from([0.0, -0.0]), _SIGNED))
    p1 = draw(_SIGNED)
    phi = lambda s: np.array([p0 + p1 * s])
    return mode, activation, tau, config, phi


class TestScalarOdeMatchesNumpyRhs:
    """A scalar mode steps on Python floats; its trajectory and errors must
    equal, bit for bit, those of the (1,) array run of the reference
    right-hand side."""

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


def _verdicts_with_grid_eigenvalue(net: SwitchedNetwork, grid: Grid):
    """Per mode, as simulate builds it on the shared grid: (largest eigenvalue
    of Q with the continuum lambda1, the same with the grid's lambda1_h, and
    the spectral norm of the shift 2 (lambda1 - lambda1_h) D between them)."""
    lam_h = sum(float(lam[0]) for _, lam in grid.sine_basis)
    out = []
    for m in net.modes:
        shared = Mode(m.D, m.C, m.A, m.B, m.J, grid.domain)
        Q = mode_margin_matrix(shared, net.activation.G, net.gamma, net.q,
                               net.tau_max, net.Psi)
        shift = 2.0 * (shared.lambda1 - lam_h) * shared.D
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

"""The two-thread split of a step's components: the bits, the worker's life.

helmholtz_solve on a stack, Activation.__call__ and each simulate step run
the odd components on one worker thread once a component has
SPLIT_MIN_NODES nodes, which the 31x31 pins never reach. Each split result
is checked byte for byte against serial calls in the same process, at one
and two BLAS threads.
"""

import dataclasses
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rdnet import cli, geometry, presets
from rdnet.certificates import margin_matrices
from rdnet.geometry import (SPLIT_MIN_NODES, Grid, RectDomain, _each_component,
                            eigenfunction, helmholtz_solve, l2_inner)
from rdnet.model import ACTIVATIONS, Activation, Mode, SwitchedNetwork, seeded_uniforms
from rdnet.simulator import (History, SimConfig, _lookups, _time_axis, simulate,
                             switching_decide)
from test_model import _REGISTRY_CASES
from test_schema_cli import _blas_threads, _write_benchmark
from test_simulator import _switching_pair


def _stack(n, shape, seed=0):
    """n fields of the given shape, uniform in [-1, 1)."""
    size = n * int(np.prod(shape))
    return (2.0 * seeded_uniforms(seed, size) - 1.0).reshape((n,) + tuple(shape))


def _check_helmholtz():
    for nodes in (65, 101):
        grid = Grid(RectDomain((1.0, 1.3)), (nodes, nodes))
        assert grid.size >= SPLIT_MIN_NODES
        for n in (2, 3):
            rhs = _stack(n, grid.shape, seed=nodes + n)
            for c in (2.5, np.linspace(0.5, 40.0, n)):
                each = [c[i] if np.ndim(c) else c for i in range(n)]
                want = np.stack([helmholtz_solve(grid, each[i], rhs[i])
                                 for i in range(n)]).tobytes()
                assert helmholtz_solve(grid, c, rhs).tobytes() == want, (nodes, n, c)


def _check_activation():
    assert sorted(name for name, _ in _REGISTRY_CASES) == sorted(ACTIVATIONS)
    for name, params in _REGISTRY_CASES:
        for n in (2, 3):
            act = Activation.uniform(name, params, 1.0, n)
            v = 5.0 * _stack(n, (71 * 71,), seed=n)
            assert act(v).tobytes() == act.fn(v).tobytes(), (name, n)


def _serial_simulate(net, grid, config, phi):
    """simulate's loop as it read before a step became one job per
    component: each stage one expression over the whole field, the delayed
    field read by History.value, and each component solved on the calling
    thread in turn. Returns the final field and the V and mode of every step."""
    n, tau, dt = net.n, net.tau_max, config.dt
    modes = [Mode(m.D, m.C, m.A, m.B, m.J, grid.domain) for m in net.modes]
    if config.switching:
        Q = margin_matrices(dataclasses.replace(net, modes=tuple(modes)), np.eye(net.N),
                            net.gamma, net.q)
    coef = [1.0 / (dt * np.diag(m.D)) for m in modes]
    g = net.activation.fn
    g0 = g(np.zeros((n, 1)))
    delay = net.delay or (lambda t: tau)
    ts, zero = _time_axis(tau, dt, config.steps)
    reads = [t - delay(t) for t in ts[zero:-1].tolist()]
    pairs = list(zip(*(a.tolist() for a in _lookups(ts, reads))))
    hist = History(tau, dt)
    for s in ts[:zero + 1].tolist():
        hist.push(np.asarray(phi(s), dtype=float))
    u, mode, V, visited = np.array(phi(0.0), dtype=float), 0, [], []
    for pair in pairs:
        if config.switching:
            mode = switching_decide(u, Q, mode)
        u_delay = hist.value(*pair) if tau > 0 else u
        m, flat, flat_delay = modes[mode], u.reshape(n, -1), u_delay.reshape(n, -1)
        x = u + dt * (-m.C @ flat + m.A @ (g(flat) - g0)
                      + m.B @ (g(flat_delay) - g0)).reshape(u.shape)
        u = np.stack([helmholtz_solve(grid, c, c * x[i]) for i, c in enumerate(coef[mode])])
        hist.push(u)
        V.append(l2_inner(grid, u, u))
        visited.append(mode)
    return u, V, visited


def _three_neuron_network(domain):
    """Two modes of a three-neuron network on domain, for an odd component count."""
    D = np.diag([0.05, 0.06, 0.07])
    C = np.diag([0.45, 0.44, 0.46])
    A = (np.array([[0.4, 0.01, 0.0], [-0.01, 0.42, 0.02], [0.0, 0.01, 0.41]]),
         np.array([[0.41, 0.0, 0.02], [0.0, 0.4, -0.01], [0.01, 0.0, 0.43]]))
    B = (np.array([[0.3, 0.0, 0.01], [0.02, 0.31, 0.0], [0.0, -0.01, 0.3]]),
         np.array([[0.29, 0.01, 0.0], [0.0, 0.3, 0.02], [-0.02, 0.0, 0.31]]))
    modes = tuple(Mode(D, C, a, b, np.array([0.1, -0.2, 0.05]), domain)
                  for a, b in zip(A, B))
    act = Activation.uniform("scaled_sine", {"a": 0.3, "b": 0.5, "c": 0.1}, 0.6, 3)
    return SwitchedNetwork(modes, act, tau_max=0.5, Psi=0.0002 * np.eye(3))


def _run_case(name):
    """(network, grid, config, phi) of a run whose steps must give the bits
    of _serial_simulate; each config snapshots its last step."""
    net = presets.switched_benchmark(1)
    grid = Grid(net.modes[0].domain, (71, 71))
    dt, steps, switching = net.tau_max / 100.0, 20, True
    e = lambda k: eigenfunction(grid, k)[0]
    field = np.stack([0.7 * e((1, 1)), -0.4 * e((2, 1))])
    phi = lambda s: field
    if name == "switching":            # switches once, at step 106
        net, _, amp = _switching_pair(0)
        dt, steps = 0.02, 125
        field = np.stack([a1 * e((1, 1)) + a2 * e((2, 1)) for a1, a2 in amp])
    elif name == "varying_delay":      # below dt up to step 5: reads the newest entry
        tau = net.tau_max
        net = dataclasses.replace(net, delay=lambda t: tau * math.sin(0.5 * t) ** 2)
        phi = lambda s: (1.0 + 0.2 * s) * field
    elif name == "no_delay":           # f(u_delay) is f(u)
        net, dt = dataclasses.replace(net, tau_max=0.0), 0.01
    elif name == "odd_count":
        grid = Grid(RectDomain((1.0, 1.0)), (65, 65))
        net, e1, e2 = _three_neuron_network(grid.domain), e((1, 1)), e((1, 2))
        field = np.stack([0.8 * e1, -0.5 * e2, 0.3 * e1 + 0.2 * e2])
        dt = net.tau_max / 10.0
    elif name == "one_component":
        m = net.modes[0]
        mode = Mode(m.D[:1, :1], m.C[:1, :1], m.A[:1, :1], m.B[:1, :1], m.J[:1], m.domain)
        act = Activation.uniform("scaled_sine", dict(net.activation.params), 0.51, 1)
        net = SwitchedNetwork((mode,), act, tau_max=net.tau_max, Psi=np.eye(1))
        field = field[:1]
    elif name == "one_dimension":
        grid = Grid(RectDomain((1.0,)), (101,))
        phi1, _ = eigenfunction(grid, (1,))
        phi2, _ = eigenfunction(grid, (2,))
        field = np.stack([0.7 * phi1, -0.4 * phi2])
    config = SimConfig(dt=dt, horizon=steps * dt, switching=switching,
                       snapshot_stride=steps)
    assert config.steps == steps
    return net, grid, config, phi


def _check_run(name):
    net, grid, config, phi = _run_case(name)
    snaps = []
    traj = simulate(net, grid, config, phi, lambda t, u: snaps.append(u))
    u, V, visited = _serial_simulate(net, grid, config, phi)
    assert snaps[-1].tobytes() == u.tobytes(), name
    assert traj.V[1:].tobytes() == np.array(V).tobytes(), name
    assert traj.modes[1:].tolist() == visited, name
    assert name != "switching" or traj.switch_count == 1


def _run_fresh(code, *args, timeout=120, **env):
    """python -c code args in a fresh interpreter that can import rdnet and
    this module."""
    path = os.pathsep.join([str(Path(cli.__file__).parents[1]), str(Path(__file__).parent)])
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True,
                          text=True, timeout=timeout, env={**os.environ, "PYTHONPATH": path, **env})


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("check", ["helmholtz", "activation", "simulate", "switching",
                                   "varying_delay", "no_delay", "odd_count",
                                   "one_component", "one_dimension"])
def test_split_matches_serial_bits(check, threads):
    call = f"_check_{check}()" if check in ("helmholtz", "activation") else \
        f"_check_run({check!r})"
    run = _run_fresh(f"import test_threads; test_threads.{call}", **_blas_threads(threads))
    assert run.returncode == 0, run.stderr


def test_callers_at_once_get_the_serial_bits():
    # three callers and the worker on two cores, switching threads often
    grid = Grid(RectDomain((1.0, 1.3)), (65, 65))
    rhs, c = _stack(3, grid.shape), np.array([0.5, 2.0, 30.0])
    want = np.stack([helmholtz_solve(grid, c[i], rhs[i]) for i in range(3)]).tobytes()
    got = [[], [], []]

    def caller(results):
        for _ in range(20):
            results.append(helmholtz_solve(grid, c, rhs).tobytes())
    callers = [threading.Thread(target=caller, args=(r,), daemon=True) for r in got]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers), "deadlock"
    assert got == [[want] * 20] * 3


def test_caller_error_waits_for_the_worker():
    done = []

    def fn(i):
        if i % 2 == 0:
            raise KeyError(i)
        time.sleep(0.05)
        done.append(i)
    with pytest.raises(KeyError):
        _each_component(fn, 2, SPLIT_MIN_NODES)
    assert done == [1]


def test_worker_error_reaches_the_caller():
    def fn(i):
        if i == 1:
            raise KeyError(i)
    with pytest.raises(KeyError):
        _each_component(fn, 3, SPLIT_MIN_NODES)


def test_each_component_runs_every_index_once():
    for n, nodes in ((1, SPLIT_MIN_NODES), (2, SPLIT_MIN_NODES - 1), (3, SPLIT_MIN_NODES),
                     (4, SPLIT_MIN_NODES)):
        seen = []
        _each_component(seen.append, n, nodes)
        assert sorted(seen) == list(range(n))


def test_step_working_set(monkeypatch):
    # beyond its delay ring and sine basis, a 71^2 run holds its four working
    # fields (f(u), f(u_delay), the explicit update and the partial
    # products), the initial field and one component's temporaries at a
    # time: 7.4 fields on the calling thread alone with numpy 2.4; the peak
    # of a run does not grow with its step count
    monkeypatch.setattr(geometry, "SPLIT_MIN_NODES", 72 * 72)
    net = presets.switched_benchmark(1)
    grid = Grid(net.modes[0].domain, (71, 71))
    grid.sine_basis
    phi1, _ = eigenfunction(grid, (1, 1))
    field = np.stack([0.7 * phi1, -0.4 * phi1])
    dt = net.tau_max / 100.0
    ring = (math.ceil(net.tau_max / dt) + 2) * field.nbytes
    peaks = []
    for steps in (5, 20, 80):
        tracemalloc.start()
        try:
            simulate(net, grid, SimConfig(dt=dt, horizon=steps * dt, switching=True),
                     lambda s: field)
            peaks.append((tracemalloc.get_traced_memory()[1] - ring) / field.nbytes)
        finally:
            tracemalloc.stop()
    assert max(peaks[1:]) < 8.0, peaks
    assert peaks[2] - peaks[1] < 0.5, peaks


FORK_THEN_SOLVE = """
import os, signal
import numpy as np
from rdnet.geometry import Grid, RectDomain, helmholtz_solve
grid = Grid(RectDomain((1.0, 1.0)), (65, 65))
rhs = np.ones((2, 65, 65))
want = helmholtz_solve(grid, 1.0, rhs).tobytes()
pid = os.fork()
if pid == 0:
    signal.alarm(30)   # a child left waiting on its parent's worker dies
    os._exit(0 if helmholtz_solve(grid, 1.0, rhs).tobytes() == want else 3)
_, status = os.waitpid(pid, 0)
raise SystemExit(os.waitstatus_to_exitcode(status))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_solves_with_its_own_worker():
    run = _run_fresh(FORK_THEN_SOLVE, timeout=60)
    assert run.returncode == 0, run.stderr


COUNT_THREADS = """
import sys, threading
import numpy as np
from rdnet import cli
from rdnet.geometry import Grid, RectDomain, helmholtz_solve
out, system = sys.argv[1:]
before = threading.active_count()
assert cli.main(["--out", out, "reproduce", "statement2"]) == 0
assert cli.main(["--out", out, "simulate", system, "--T", "4", "--switching"]) == 0
after = threading.active_count()
helmholtz_solve(Grid(RectDomain((1.0, 1.0)), (65, 65)), 1.0, np.ones((2, 65, 65)))
print(before, after, threading.active_count())
"""


def test_small_runs_start_no_thread(tmp_path):
    # a 2 x 65^2 solve then starts the one worker, which the count shows
    system = tmp_path / "case1_31.json"
    _write_benchmark(system, counts=(31, 31))
    run = _run_fresh(COUNT_THREADS, tmp_path / "out", system)
    assert run.returncode == 0, run.stderr
    before, after, worker = map(int, run.stdout.split()[-3:])
    assert after == before and worker == before + 1

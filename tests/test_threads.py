"""The two-thread split of a step's components: the bits, the worker's life.

helmholtz_solve on a stack and Activation.__call__ run the odd components on
one worker thread once a component has SPLIT_MIN_NODES nodes, which the 31x31
pins never reach. Each split result is checked byte for byte against serial
calls in the same process, at one and two BLAS threads.
"""

import dataclasses
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from rdnet import cli, presets
from rdnet.certificates import margin_matrices
from rdnet.geometry import (SPLIT_MIN_NODES, Grid, RectDomain, _each_component,
                            eigenfunction, helmholtz_solve, l2_inner)
from rdnet.model import ACTIVATIONS, Activation, Mode, seeded_uniforms
from rdnet.simulator import (History, SimConfig, _lookups, _time_axis, simulate,
                             switching_decide)
from test_model import _REGISTRY_CASES
from test_schema_cli import _blas_threads, _write_benchmark


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
                out = np.empty_like(rhs)
                assert helmholtz_solve(grid, c, rhs, out=out) is out
                assert out.tobytes() == want, (nodes, n, c, "out=")


def _check_activation():
    assert sorted(name for name, _ in _REGISTRY_CASES) == sorted(ACTIVATIONS)
    for name, params in _REGISTRY_CASES:
        for n in (2, 3):
            act = Activation.uniform(name, params, 1.0, n)
            v = 5.0 * _stack(n, (71 * 71,), seed=n)
            assert act(v).tobytes() == act.fn(v).tobytes(), (name, n)


def _serial_simulate(net, grid, config, field):
    """simulate's loop with switching and a constant delay, each component
    activated and solved on the calling thread in turn: the final field and
    the V and mode of every step."""
    n, tau, dt = net.n, net.tau_max, config.dt
    modes = [Mode(m.D, m.C, m.A, m.B, m.J, grid.domain) for m in net.modes]
    Q = margin_matrices(dataclasses.replace(net, modes=tuple(modes)), np.eye(net.N),
                        net.gamma, net.q)
    coef = [1.0 / (dt * np.diag(m.D)) for m in modes]
    g = net.activation.fn
    g0 = g(np.zeros((n, 1)))
    ts, zero = _time_axis(tau, dt, config.steps)
    pairs = list(zip(*(a.tolist() for a in _lookups(ts, [t - tau for t in ts[zero:-1]]))))
    hist = History(tau, dt)
    for _ in range(zero + 1):
        hist.push(field)
    u, mode, V, visited = field.copy(), 0, [], []
    for pair in pairs:
        mode = switching_decide(u, Q, mode)
        m, flat, flat_delay = modes[mode], u.reshape(n, -1), hist.value(*pair).reshape(n, -1)
        x = u + dt * (-m.C @ flat + m.A @ (g(flat) - g0)
                      + m.B @ (g(flat_delay) - g0)).reshape(u.shape)
        u = np.stack([helmholtz_solve(grid, c, c * x[i]) for i, c in enumerate(coef[mode])])
        hist.push(u)
        V.append(l2_inner(grid, u, u))
        visited.append(mode)
    return u, V, visited


def _check_simulate():
    net = presets.switched_benchmark(1)
    grid = Grid(net.modes[0].domain, (71, 71))
    phi1, _ = eigenfunction(grid, (1, 1))
    field = np.stack([0.7 * phi1, -0.4 * phi1])
    dt = net.tau_max / 100.0
    config = SimConfig(dt=dt, horizon=20 * dt, switching=True, snapshot_stride=20)
    assert config.steps == 20
    snaps = []
    traj = simulate(net, grid, config, lambda s: field, lambda t, u: snaps.append(u))
    u, V, visited = _serial_simulate(net, grid, config, field)
    assert snaps[-1].tobytes() == u.tobytes()
    assert traj.V[1:].tobytes() == np.array(V).tobytes()
    assert traj.modes[1:].tolist() == visited


def _run_fresh(code, *args, timeout=120, **env):
    """python -c code args in a fresh interpreter that can import rdnet and
    this module."""
    path = os.pathsep.join([str(Path(cli.__file__).parents[1]), str(Path(__file__).parent)])
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True,
                          text=True, timeout=timeout, env={**os.environ, "PYTHONPATH": path, **env})


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("check", ["helmholtz", "activation", "simulate"])
def test_split_matches_serial_bits(check, threads):
    run = _run_fresh(f"import test_threads; test_threads._check_{check}()",
                     **_blas_threads(threads))
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
        _each_component(fn, 2)
    assert done == [1]


def test_worker_error_reaches_the_caller():
    def fn(i):
        if i == 1:
            raise KeyError(i)
    with pytest.raises(KeyError):
        _each_component(fn, 3)


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

"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion is exercised at its stated tolerance; timed criteria measure
wall-clock time around the relevant calls only.
"""

import math
import time

import numpy as np
import pytest

from rdnet import presets
from rdnet.certificates import (check_uniqueness_A3, search_certificate,
                                solve_rate_equation, verify_certificate)
from rdnet.geometry import (Grid, RectDomain, apply_laplacian, eigenfunction,
                            first_eigenvalue, helmholtz_solve, l2_inner, l2_norm)
from rdnet.model import (Activation, Mode, SwitchedNetwork, check_A1_sampled)
from rdnet.simulator import SimConfig, estimate_decay_rate, simulate, simulate_ode
from rdnet.stationary import (StationaryProblem, energy_eval, energy_gradient,
                              find_stationary_multiplicity, fixed_point_solve,
                              residual, statement1_closed_form,
                              statement1_profile, variational_minimize)


_capsys = None


@pytest.fixture(autouse=True)
def _live_report(capsys):
    """Let _report bypass output capture so verdict lines reach the run log."""
    global _capsys
    _capsys = capsys
    yield
    _capsys = None


def _report(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    line = f"CRITERION {num}: {status} — {detail}"
    if _capsys is not None:
        with _capsys.disabled():
            print(line)
    else:
        print(line)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_eigenvalue_regression():
    domains = [RectDomain((1.0, 1.0)), RectDomain((1.3, 1.3)),
               RectDomain((1.5, 1.5))]
    computed = [first_eigenvalue(d) for d in domains]
    errs = [abs(c - e) for c, e in zip(computed, presets.REFERENCE_EIGENVALUES)]
    start = time.perf_counter()
    for d in domains:
        first_eigenvalue(d)
    elapsed = (time.perf_counter() - start) / 3
    ok = max(errs) < 1e-3 and elapsed < 1e-3
    _report(1, ok, f"eigenvalue errors {['%.2e' % e for e in errs]}, "
                   f"runtime {elapsed * 1e6:.1f} us/call")


def test_criterion_2_certificate_reproduction():
    start = time.perf_counter()
    certs = {}
    for case, point in presets.CASE_POINTS.items():
        net = presets.switched_benchmark(case)
        certs[case] = verify_certificate(net, point.beta, point.gamma)
    elapsed = time.perf_counter() - start
    rates = {c: certs[c].rate for c in certs}
    ok = (all(certs[c].feasible and certs[c].margin < 0 for c in certs)
          and rates[1] == pytest.approx(0.19)
          and rates[2] == pytest.approx(0.22)
          and rates[3] == pytest.approx(0.29)
          and rates[2] > rates[1] and rates[3] > rates[1]
          and all(certs[c].theorem_constraint_ok is False for c in certs)
          and elapsed < 1.0)
    _report(2, ok, f"rates {rates}, margins "
                   f"{ {c: round(certs[c].margin, 4) for c in certs} }, "
                   f"constraint flags all False, runtime {elapsed:.3f} s")


def test_criterion_3_uniqueness_condition():
    net = presets.switched_benchmark(1)
    results = check_uniqueness_A3(net.modes, epsilon=2.0, p=1.0,
                                  G=net.activation.G)
    modes_ok = all(r["holds"] for r in results)
    scalar = presets.linear_variational_problem(11)
    scalar_ok = check_uniqueness_A3([scalar.mode], epsilon=1.0, p=0.02,
                                    G=scalar.activation.G)[0]["holds"]
    ok = modes_ok and scalar_ok
    _report(3, ok, f"benchmark modes eps=2 p=1: {modes_ok}, "
                   f"scalar instance eps=1 p=0.02: {scalar_ok}")


def test_criterion_4_boundary_layer_closed_form():
    start = time.perf_counter()
    endpoint_ok = statement1_profile(0.0) == 0.0 and statement1_profile(1.0) == 0.0
    mid_err = abs(statement1_profile(0.5) - 0.560224)
    problem = presets.boundary_layer_problem(401)
    grid = problem.grid
    h = grid.spacing[0]
    field, _ = fixed_point_solve(problem)
    sup_err = float(np.max(np.abs(field[0] - statement1_closed_form(grid))))
    traj = simulate_ode(problem.mode, problem.activation, presets.BOUNDARY_LAYER_TAU,
                        SimConfig(dt=1e-3, horizon=20.0), lambda s: np.zeros(1))
    ode_err = abs(math.sqrt(traj.V[-1]) - 200.0 / 357.0)
    const = np.full((1,) + grid.shape, presets.BOUNDARY_LAYER_EQUILIBRIUM)
    const_res = residual(problem, const)
    elapsed = time.perf_counter() - start
    ok = (endpoint_ok and mid_err <= 1e-6 and sup_err <= max(1e-4, 5 * h**2)
          and ode_err <= 1e-6 and const_res > 1.0 and elapsed < 10.0)
    _report(4, ok, f"endpoints exact: {endpoint_ok}, |u(0.5)-0.560224|={mid_err:.2e}, "
                   f"solver sup err {sup_err:.2e} (tol {max(1e-4, 5 * h**2):.2e}), "
                   f"ode err {ode_err:.2e}, constant residual {const_res:.2f}, "
                   f"runtime {elapsed:.1f} s")


def test_criterion_5_linear_variational_benchmark():
    problem = presets.linear_variational_problem(401)
    grid = problem.grid
    analytic = presets.linear_variational_profile(grid.axes()[0])
    fp, _ = fixed_point_solve(problem)
    vm, _ = variational_minimize(problem, tol=1e-10)
    fp_err = float(np.max(np.abs(fp[0] - analytic)))
    vm_err = float(np.max(np.abs(vm - analytic)))
    traj = simulate_ode(problem.mode, problem.activation, 1.0,
                        SimConfig(dt=1e-3, horizon=20.0), lambda s: np.zeros(1))
    ode_err = abs(math.sqrt(traj.V[-1]) - presets.LINEAR_VARIATIONAL_EQUILIBRIUM)
    ok = fp_err <= 1e-4 and vm_err <= 1e-4 and ode_err <= 1e-8
    _report(5, ok, f"fixed-point err {fp_err:.2e}, variational err {vm_err:.2e}, "
                   f"ode equilibrium err {ode_err:.2e}")


def test_criterion_6_multiplicity():
    problem = presets.multiplicity_problem(201)
    grid = problem.grid
    h = grid.spacing[0]
    d = float(problem.mode.D[0, 0])
    phi1, _ = eigenfunction(grid, (1,))
    sup = float(np.max(np.abs(phi1)))
    worst_ratio = 0.0
    for t in np.linspace(-1.0, 1.0, 9):
        field = (t / sup * phi1)[None]
        scale = d * problem.mode.lambda1 * max(l2_norm(grid, field), 1e-12)
        worst_ratio = max(worst_ratio, residual(problem, field) / (5 * h**2 * scale))
    inits = [0.5 / sup * phi1[None], -0.5 / sup * phi1[None], problem.zeros()]
    sols = find_stationary_multiplicity(problem, inits, tol=1e-6)
    lip = float(problem.activation.lipschitz[0])
    verdict = check_A1_sampled(problem.activation, box=[-50.0, 50.0],
                               samples=20_000)
    lip_err = abs(verdict.worst_ratio * lip - lip) / lip
    ok = worst_ratio <= 1.0 and len(sols) >= 3 and lip_err <= 0.01
    _report(6, ok, f"residual/bound worst ratio {worst_ratio:.3f}, "
                   f"{len(sols)} distinct solutions, "
                   f"sampled Lipschitz within {lip_err * 100:.3f}%")


def _random_feasible_network(rng):
    """Single-mode 1D system whose certificate search succeeds while
    honoring the side constraint on the decay parameter."""
    n = 2
    D = np.diag(rng.uniform(0.05, 0.2, n))
    C = np.diag(rng.uniform(1.0, 2.0, n))
    A = rng.uniform(-0.05, 0.05, (n, n))
    B = rng.uniform(-0.05, 0.05, (n, n))
    mode = Mode(D, C, A, B, np.zeros(n), RectDomain((1.0,)))
    act = Activation.uniform("affine", {"a": 0.5, "b": 0.0}, 0.5, n)
    return SwitchedNetwork((mode,), act, tau_max=0.5, Psi=0.5 * np.eye(n))


def test_criterion_7_decay_soundness_suite():
    rng = np.random.default_rng(2024)
    grid = Grid(RectDomain((1.0,)), (41,))
    phi1, _ = eigenfunction(grid, (1,))
    phi2, _ = eigenfunction(grid, (2,))
    checked = 0
    sound = True
    worst_margin = math.inf
    for _ in range(200):
        if checked >= 20:
            break
        net = _random_feasible_network(rng)
        cert = search_certificate(net, honor_theorem_constraint=True)
        if not (cert.feasible and cert.theorem_constraint_ok):
            continue
        net = SwitchedNetwork(net.modes, net.activation, net.tau_max, net.Psi,
                              net.q, cert.gamma)
        amps = rng.uniform(-1.0, 1.0, (2, 2))
        field = np.stack([amps[i, 0] * phi1 + amps[i, 1] * phi2 for i in range(2)])
        config = SimConfig(dt=0.01, horizon=15.0)
        traj = simulate(net, grid, config, lambda s: field)
        est = estimate_decay_rate(traj)
        sound &= est.rate >= 0.9 * cert.rate and est.r_squared >= 0.99
        worst_margin = min(worst_margin, est.rate / (0.9 * cert.rate))
        checked += 1

    # zero data must stay identically zero
    bench = presets.switched_benchmark(1)
    zgrid = Grid(bench.modes[0].domain, (15, 15))
    ztraj = simulate(bench, zgrid, SimConfig(dt=0.05, horizon=2.0, switching=True),
                     lambda s: np.zeros((2,) + zgrid.shape))
    zero_ok = bool(np.all(ztraj.V == 0.0))

    start = time.perf_counter()
    net1 = presets.switched_benchmark(1)
    g101 = Grid(net1.modes[0].domain, (101, 101))
    phi = presets.switched_benchmark_initial(g101)
    traj1 = simulate(net1, g101, SimConfig(dt=net1.tau_max / 100.0,
                                           horizon=12.0, switching=True), phi)
    eta = estimate_decay_rate(traj1).rate
    elapsed = time.perf_counter() - start
    ok = checked == 20 and sound and zero_ok and eta >= 0.19 and elapsed < 60.0
    _report(7, ok, f"{checked} random systems sound (min rate/bound {worst_margin:.2f}x), "
                   f"zero data exactly zero: {zero_ok}, benchmark eta {eta:.3f} "
                   f">= 0.19 in {elapsed:.1f} s at 101^2")


def test_criterion_8_rate_equation_solver():
    a = 0.002 * math.pi**2 + 3.575
    lam = solve_rate_equation(a, 0.005, 1.0)
    res = abs(lam - a + 0.005 * math.exp(lam))
    oracle_err = abs(lam - 3.4389656289963535)
    edge_ok = (solve_rate_equation(2.0, 0.0, 1.0) == 2.0
               and solve_rate_equation(2.0, 0.5, 0.0) == 1.5)
    ok = res <= 1e-12 and oracle_err <= 1e-10 and edge_ok
    _report(8, ok, f"residual {res:.2e}, oracle deviation {oracle_err:.2e}, "
                   f"edge cases: {edge_ok}")


def test_criterion_9_numerics_hygiene():
    # second-order refinement of the screened solve
    def err(nodes):
        g = Grid(RectDomain((1.0,)), (nodes,))
        x = g.axes()[0]
        exact = np.sin(math.pi * x)
        return float(np.max(np.abs(
            helmholtz_solve(g, 2.0, (2.0 + math.pi**2) * exact) - exact)))

    ratio = err(50) / err(101)
    ratio_ok = 0.8 * 4 <= ratio <= 1.2 * 4

    # energy terms c0 = 2, source = 0.5, weight = 10: D = 1, C = 2, A = 10, J = 0.5
    mode = Mode([[1.0]], [[2.0]], [[10.0]], [[0.0]], [0.5], RectDomain((1.0,)))
    act = Activation.uniform("piecewise_cbrt", {"a_weight": 1.0, "d": 0.1, "mu1": 12.0},
                             1.0, 1)
    problem = StationaryProblem(mode, act, Grid(mode.domain, (31,)))
    g = problem.grid
    u = 0.4 * np.sin(math.pi * g.axes()[0])
    rng = np.random.default_rng(11)
    grad = energy_gradient(problem, u)
    grad_ok = True
    worst_rel = 0.0
    for _ in range(5):
        v = rng.standard_normal(g.shape)
        eps = 1e-6
        fd = (energy_eval(problem, u + eps * v)
              - energy_eval(problem, u - eps * v)) / (2 * eps)
        analytic = float(np.sum(grad * v)) * g.cell_volume
        rel = abs(fd - analytic) / max(abs(analytic), 1e-12)
        worst_rel = max(worst_rel, rel)
        grad_ok &= rel <= 1e-6

    # <u, Lap_h v> = <Lap_h u, v> on random fields, relative to the product
    sym = 0.0
    for counts in [(25,), (9, 13)]:
        grid = Grid(RectDomain((1.0,) * len(counts)), counts)
        for _ in range(3):
            a, b = rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
            lhs = l2_inner(grid, a, apply_laplacian(grid, b))
            rhs = l2_inner(grid, apply_laplacian(grid, a), b)
            sym = max(sym, abs(lhs - rhs) / abs(lhs))
    sym_ok = sym <= 1e-12

    ok = ratio_ok and grad_ok and sym_ok
    _report(9, ok, f"refinement ratio {ratio:.2f} (target 4 +/- 20%), "
                   f"gradient vs FD worst rel {worst_rel:.2e}, "
                   f"Laplacian asymmetry {sym:.1e}")

"""Command-line harness: certify, stationary, simulate, reproduce.

Exit codes: 0 success/feasible, 1 infeasible or diverged, 2 bad system file or argument.
Every report echoes the resolved configuration; the output directory comes
from --out or the RDNET_OUTDIR environment variable, defaulting to the
current directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import presets
from .certificates import (check_uniqueness_A3, search_certificate,
                           verify_certificate)
from .geometry import Grid, eigenfunction, l2_norm
from .model import check_A1_sampled, seeded_uniforms
from .schema import (dump_system, load_system, write_field_csv, write_report,
                     write_trajectory_csv)
from .simulator import (BlowUpError, SimConfig, estimate_decay_rate,
                        fit_window_start, simulate, simulate_ode)
from .stationary import (DivergenceError, StationaryProblem,
                         find_stationary_multiplicity, fixed_point_solve,
                         residual, statement1_closed_form, statement1_profile,
                         variational_minimize)

EXIT_OK, EXIT_FAIL, EXIT_PARSE = 0, 1, 2


def _outdir(args) -> Path:
    out = args.out or os.environ.get("RDNET_OUTDIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _eigenfunction_starts(grid: Grid, n: int, seed: int, count: int) -> list[np.ndarray]:
    """count fields a * phi1, phi1 the grid's first Dirichlet eigenfunction and
    the n amplitudes a of each drawn uniform in [-1, 1] from one seeded stream,
    the draws of np.random.default_rng(seed).uniform(-1.0, 1.0, n) count times."""
    phi1, _ = eigenfunction(grid, (1,) * grid.domain.dims)
    amplitudes = -1.0 + 2.0 * seeded_uniforms(seed, n * count)
    return [np.stack([a * phi1 for a in row]) for row in amplitudes.reshape(count, n)]


def cmd_certify(args) -> int:
    if args.search and (args.beta is not None or args.gamma is not None):
        raise ValueError("--search finds beta and gamma; --beta and --gamma "
                         "are for checking one point")
    if args.gamma_cap is not None and (not args.search or args.honor_theorem):
        raise ValueError("--gamma-cap bounds only a --search with --no-honor-theorem")
    network, grid = load_system(args.system)
    if args.search:
        cap = {} if args.gamma_cap is None else {"gamma_cap": args.gamma_cap}
        cert = search_certificate(network, q=args.q,
                                  honor_theorem_constraint=args.honor_theorem, **cap)
    else:
        beta = args.beta or [1.0 / network.N] * network.N
        gamma = args.gamma if args.gamma is not None else network.gamma
        cert = verify_certificate(network, beta, gamma, args.q)
    report = {
        "command": "certify",
        "system": dump_system(network, grid),
        "certificate": cert.to_dict(),
    }
    out = _outdir(args) / "certify_report.json"
    write_report(out, report)
    print(f"feasible={cert.feasible} margin={cert.margin:.6g} "
          f"gamma={cert.gamma} rate={cert.rate} "
          f"theorem_constraint_ok={cert.theorem_constraint_ok}")
    print(f"report: {out}")
    return EXIT_OK if cert.feasible else EXIT_FAIL


def cmd_stationary(args) -> int:
    if args.inits < 1:
        raise ValueError("--inits must be at least 1")
    network, grid = load_system(args.system)
    problem = StationaryProblem(network.modes[0], network.activation, grid)
    try:
        if args.inits > 1:
            inits = [problem.zeros()] + _eigenfunction_starts(
                grid, problem.n, args.seed, args.inits - 1)
            sols = find_stationary_multiplicity(problem, inits, tol=args.tol)
            report = {"command": "stationary", "distinct_solutions": len(sols),
                      "residuals": [residual(problem, s) for s in sols]}
            summary = f"distinct solutions: {len(sols)}"
        else:
            field, rep = fixed_point_solve(problem, tol=args.tol)
            sols = [field]
            report = {"command": "stationary", "iterations": rep.iterations,
                      "residual": rep.residual, "update_norm": rep.update_norm,
                      "error_bound": rep.error_bound}
            summary = (f"converged in {rep.iterations} iterations, "
                       f"residual {rep.residual:.3e}")
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    outdir = _outdir(args)   # once the solver has accepted --tol
    for i, sol in enumerate(sols):
        write_field_csv(outdir / f"stationary_{i}.csv", grid, sol)
    write_report(outdir / "stationary_report.json",
                 {**report, "system": dump_system(network, grid)})
    print(summary)
    return EXIT_OK


def cmd_simulate(args) -> int:
    network, grid = load_system(args.system)
    if args.tau is not None:
        network = dataclasses.replace(network, tau_max=args.tau)
    dt = args.dt if args.dt is not None else \
        (network.tau_max / 100.0 if network.tau_max > 0 else 1e-3)
    config = SimConfig(dt=dt, horizon=args.T, switching=args.switching,
                       snapshot_stride=args.snapshots)
    fit_window_start(config.steps + 1)   # simulate's sample count
    field, = _eigenfunction_starts(grid, network.n, args.seed, 1)
    index = itertools.count()

    def snapshot(t, snap):
        # the first snapshot comes after simulate has checked dt and shapes
        path = _outdir(args) / f"snapshot_{next(index):04d}.csv"
        write_field_csv(path, grid, snap)

    try:
        traj = simulate(network, grid, config, lambda s: field, snapshot)
    except BlowUpError as exc:   # the snapshots written so far stay
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    est = estimate_decay_rate(traj)
    outdir = _outdir(args)   # after simulate has checked dt against the delay
    write_trajectory_csv(outdir / "trajectory.csv", traj)
    write_report(outdir / "simulate_report.json", {
        "command": "simulate", "dt": dt, "horizon": args.T,
        "switching": args.switching, "seed": args.seed,
        "end_time": float(traj.times[-1]),   # after round(T / dt) steps
        "switch_count": traj.switch_count,
        "min_dwell_time": (float(np.diff(traj.switch_times).min())
                           if traj.switch_count > 1 else None),
        "decay": {"rate": est.rate, "prefactor": est.prefactor,
                  "window": est.window, "r_squared": est.r_squared},
        "system": dump_system(network, grid),
    })
    print(f"fitted decay rate {est.rate:.4g} (R^2={est.r_squared:.4f}), "
          f"{traj.switch_count} switches")
    return EXIT_OK


def _row(name, expected, computed, tol) -> dict:
    ok = abs(computed - expected) <= tol if math.isfinite(expected) else False
    return {"check": name, "expected": expected, "computed": computed,
            "tolerance": tol, "pass": bool(ok)}


def _flag_row(name, expected, computed) -> dict:
    return {"check": name, "expected": expected, "computed": computed,
            "tolerance": 0, "pass": bool(computed == expected)}


def _bound_row(name, bound, computed) -> dict:
    return {"check": name, "expected": f">= {bound}", "computed": computed,
            "tolerance": 0.0, "pass": bool(computed >= bound)}


def reproduce_tables() -> list[dict]:
    """Certificate rates for all three cases plus the two orderings."""
    rows = []
    rates = {}
    for case, point in presets.CASE_POINTS.items():
        network = presets.switched_benchmark(case)
        cert = verify_certificate(network, point.beta, point.gamma)
        rows.append(_flag_row(f"case{case}_feasible", True, cert.feasible))
        rate = cert.rate if cert.rate is not None else float("nan")
        rows.append(_row(f"case{case}_rate", point.rate, rate, 1e-12))
        rows.append(_flag_row(f"case{case}_theorem_constraint", False,
                              cert.theorem_constraint_ok))
        rates[case] = rate
    rows.append(_bound_row("diffusion_ordering_case2_gt_case1",
                           rates[1] + 1e-12, rates[2]))
    rows.append(_bound_row("delay_ordering_case3_gt_case1",
                           rates[1] + 1e-12, rates[3]))
    return rows


def reproduce_statement1() -> list[dict]:
    rows = []
    problem = presets.boundary_layer_problem()
    grid = problem.grid
    closed = statement1_closed_form(grid)
    rows.append(_row("closed_form_u(0)", 0.0, float(statement1_profile(0.0)), 0.0))
    rows.append(_row("closed_form_u(1)", 0.0, float(statement1_profile(1.0)), 0.0))
    rows.append(_row("closed_form_u(0.5)", 0.560224,
                     float(statement1_profile(0.5)), 1e-6))
    field, _ = fixed_point_solve(problem)
    h = grid.spacing[0]
    sup_err = float(np.max(np.abs(field[0] - closed)))
    rows.append(_row("fixed_point_vs_closed_form_sup", 0.0, sup_err,
                     max(1e-4, 5 * h**2)))
    config = SimConfig(dt=1e-3, horizon=20.0)
    traj = simulate_ode(problem.mode, problem.activation, presets.BOUNDARY_LAYER_TAU,
                        config, lambda s: np.zeros(1))
    final = math.sqrt(traj.V[-1])
    rows.append(_row("ode_equilibrium", presets.BOUNDARY_LAYER_EQUILIBRIUM,
                     final, 1e-6))
    const = np.full((1,) + grid.shape, presets.BOUNDARY_LAYER_EQUILIBRIUM)
    rows.append(_bound_row("constant_not_stationary_residual", 1.0,
                           residual(problem, const)))
    return rows


def reproduce_example35() -> list[dict]:
    rows = []
    problem = presets.linear_variational_problem()
    grid = problem.grid
    analytic = presets.linear_variational_profile(grid.axes()[0])
    fp, _ = fixed_point_solve(problem)
    rows.append(_row("fixed_point_vs_analytic_sup", 0.0,
                     float(np.max(np.abs(fp[0] - analytic))), 1e-4))
    vm, _ = variational_minimize(problem, tol=1e-10)
    rows.append(_row("variational_vs_analytic_sup", 0.0,
                     float(np.max(np.abs(vm - analytic))), 1e-4))
    rows.append(_row("cross_solver_sup", 0.0,
                     float(np.max(np.abs(vm - fp[0]))), 1e-4))
    traj = simulate_ode(problem.mode, problem.activation, 1.0,
                        SimConfig(dt=1e-3, horizon=20.0), lambda s: np.zeros(1))
    rows.append(_row("ode_equilibrium", presets.LINEAR_VARIATIONAL_EQUILIBRIUM,
                     math.sqrt(traj.V[-1]), 1e-8))
    return rows


def reproduce_statement2() -> list[dict]:
    rows = []
    problem = presets.multiplicity_problem()
    grid = problem.grid
    phi1, _ = eigenfunction(grid, (1,) * grid.domain.dims)
    sup_phi = float(np.max(np.abs(phi1)))
    h = max(grid.spacing)
    d = float(problem.mode.D[0, 0])
    lam1 = problem.mode.lambda1
    worst = 0.0
    for t in np.linspace(-1.0, 1.0, 9) / sup_phi:
        field = (t * phi1)[None]
        scale = d * lam1 * max(l2_norm(grid, field), 1e-12)
        worst = max(worst, residual(problem, field) / scale)
    rows.append({"check": "scaled_eigenfunction_residual",
                 "expected": f"<= {5 * h**2:.3e}", "computed": worst,
                 "tolerance": 5 * h**2, "pass": worst <= 5 * h**2})
    inits = [0.5 / sup_phi * phi1[None], -0.5 / sup_phi * phi1[None],
             problem.zeros()]
    sols = find_stationary_multiplicity(problem, inits, tol=1e-6)
    rows.append(_bound_row("distinct_solutions", 3, len(sols)))
    verdict = check_A1_sampled(problem.activation, box=[-50.0, 50.0],
                               samples=20000)
    lip = float(problem.activation.lipschitz[0])
    rows.append(_row("sampled_lipschitz_constant", lip,
                     verdict.worst_ratio * lip, 0.01 * lip))
    return rows


def reproduce_example41(case: int, grid_nodes: int) -> tuple[list[dict], object]:
    rows = []
    point = presets.CASE_POINTS[case]
    network = presets.switched_benchmark(case)
    cert = verify_certificate(network, point.beta, point.gamma)
    rows.append(_flag_row("certificate_feasible", True, cert.feasible))
    rate = cert.rate if cert.rate is not None else float("nan")
    rows.append(_row("certificate_rate", point.rate, rate, 1e-12))
    a3 = check_uniqueness_A3(network.modes, epsilon=2.0, p=1.0,
                             G=network.activation.G)
    rows.append(_flag_row("uniqueness_A3_all_modes", True,
                          all(r["holds"] for r in a3)))
    grid = Grid(network.modes[0].domain, (grid_nodes, grid_nodes))
    phi = presets.switched_benchmark_initial(grid)
    config = SimConfig(dt=network.tau_max / 100.0, horizon=12.0, switching=True)
    traj = simulate(network, grid, config, phi)
    est = estimate_decay_rate(traj)
    rows.append(_bound_row("fitted_decay_rate", point.rate, est.rate))
    return rows, traj


def cmd_reproduce(args) -> int:
    targets = {"tables": reproduce_tables, "statement1": reproduce_statement1,
               "example3_5": reproduce_example35, "statement2": reproduce_statement2}
    try:
        if args.target == "example4_1":
            rows, traj = reproduce_example41(args.case, grid_nodes=args.grid)
        else:
            rows = targets[args.target]()
    except (DivergenceError, BlowUpError) as exc:
        print(f"error: stage failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    outdir = _outdir(args)   # once the target has run
    report = {"command": "reproduce", "target": args.target, "rows": rows}
    if args.target == "example4_1":
        report["case"] = args.case
        write_trajectory_csv(outdir / f"example4_1_case{args.case}_trajectory.csv",
                             traj)
    write_report(outdir / f"reproduce_{args.target}.json", report)
    width = max(len(r["check"]) for r in rows)
    for r in rows:
        status = "PASS" if r["pass"] else "FAIL"
        print(f"{r['check']:<{width}}  expected={r['expected']}  "
              f"computed={r['computed']}  [{status}]")
    if all(r["pass"] for r in rows):
        return EXIT_OK
    failing = next(r["check"] for r in rows if not r["pass"])
    print(f"error: stage '{failing}' failed", file=sys.stderr)
    return EXIT_FAIL


def _seed(text: str) -> int:
    """--seed: a non-negative integer, checked at parse time."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return int(text)


def _finite(text: str) -> float:
    """A float option: a finite number, checked at parse time."""
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdnet",
        description="Switched delayed reaction-diffusion network laboratory")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=_seed, default=0,
                        help="start amplitudes of simulate and stationary --inits")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="check or search a stability certificate")
    p.add_argument("system")
    p.add_argument("--beta", type=_finite, nargs="+")
    p.add_argument("--gamma", type=_finite)
    p.add_argument("--q", type=_finite, default=None)
    p.add_argument("--search", action="store_true")
    p.add_argument("--honor-theorem", action=argparse.BooleanOptionalAction,
                   default=True)
    p.add_argument("--gamma-cap", type=_finite, default=None,
                   help="gamma bound of --search --no-honor-theorem (default 10)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("stationary", help="compute stationary solutions")
    p.add_argument("system")
    p.add_argument("--tol", type=_finite, default=1e-8)
    p.add_argument("--inits", type=int, default=1)
    p.set_defaults(func=cmd_stationary)

    p = sub.add_parser("simulate", help="integrate the delayed system")
    p.add_argument("system")
    p.add_argument("--T", type=_finite, default=10.0)
    p.add_argument("--dt", type=_finite, default=None)
    p.add_argument("--tau", type=_finite, default=None)
    p.add_argument("--switching", action="store_true")
    p.add_argument("--snapshots", type=int, default=0,
                   help="snapshot stride in steps (0 = none)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce", help="run a built-in benchmark bundle")
    p.add_argument("target", choices=["example4_1", "statement1", "example3_5",
                                      "statement2", "tables"])
    p.add_argument("--case", type=int, default=1, choices=[1, 2, 3])
    p.add_argument("--grid", type=int, default=61)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:   # a bad system file (SystemFileError) or argument
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set-up, then optionally one pass of a workload.

Started by run.py in a fresh interpreter for every pass, because every
``rdnet`` invocation starts with empty caches and users pay for that on every
run. Modes:

  prep   import rdnet.cli and write the case-1 system file (benchmark set-up)
  probe  set-up only: interpreter start, ``import rdnet.cli``, system load
  pass   set-up, then the workload's CLI calls, then output checks

The result is written as JSON to --result; CLI output goes to /dev/null.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import rdnet.cli  # timed as part of set-up
from rdnet import presets, schema, stationary
from rdnet.geometry import Grid

CASE1_GAMMA_FLOOR = 0.6111047 - 1e-6
CASE1_RATE = 0.19           # gamma/2 of the case-1 reference point
MIN_R_SQUARED = 0.99
# largest multiplicity residual accepted; rdnet 1.0.0 reaches 8.4e-7, and a
# solver that stops earlier must not slip past unseen
STATIONARY_RESIDUAL_CEILING = 1.05e-6


# the benchmark's workloads, each one pass made of pipeline parts run in turn
WORKLOADS = {"pde_2d": ("switched_pde", "simulate_2d"),
             "pde_1d_cert": ("reproduce_1d", "certificate_search")}


def grids(tiny: bool) -> dict:
    """Grid sizes of the parts; the 1-D ones are fixed by rdnet's presets."""
    return {"switched_pde": 31 if tiny else 101, "simulate_2d": 31 if tiny else 151,
            "reproduce_1d": "401 (statement1, example3_5), 201 (statement2)"}


def part_steps(part: str, seed: int, system: str, tiny: bool) -> list[list[str]]:
    """CLI argument lists of one pipeline part."""
    if part == "switched_pde":
        return [["reproduce", "example4_1", "--case", "1",
                 "--grid", str(grids(tiny)["switched_pde"])]]
    if part == "simulate_2d":
        return [["--seed", str(seed), "simulate", system, "--T", "12", "--switching",
                 "--snapshots", "50"]]
    if part == "reproduce_1d":
        targets = ["example3_5"] if tiny else ["statement1", "example3_5", "statement2"]
        return [["reproduce", t] for t in targets]
    if part == "certificate_search":
        searches = [] if tiny else [["certify", system, "--search", "--no-honor-theorem"]]
        return ([["reproduce", "tables"]] + searches
                + [["certify", system, "--search", "--honor-theorem"]])
    raise SystemExit(f"unknown part {part!r}")


def steps_for(workload: str, seed: int, system: str, tiny: bool) -> list[list[str]]:
    """CLI argument lists of one pass."""
    return [argv for part in WORKLOADS[workload]
            for argv in part_steps(part, seed, system, tiny)]


def user_setup(workload: str, system: str):
    """The system load and preset construction a user's runs start with.

    Returns the loaded case-1 network, which the certificate checks re-verify.
    """
    parts = WORKLOADS[workload]
    if "switched_pde" in parts:
        presets.switched_benchmark(1)
    if "reproduce_1d" in parts:
        presets.boundary_layer_problem()
        presets.linear_variational_problem()
        presets.multiplicity_problem()
    return schema.load_system(system)[0]


def check_step(argv: list[str], rc: int, out: Path, network, checks: list) -> None:
    """Append (name, ok, detail) output checks for one CLI call writing to out."""
    label = " ".join(a for a in argv if not a.endswith(".json"))
    checks.append((f"{label}: exit code", rc == 0, rc))
    if "reproduce" in argv:
        target = argv[argv.index("reproduce") + 1]
        report = json.loads((out / f"reproduce_{target}.json").read_text())
        for row in report["rows"]:
            checks.append((f"{label}: row {row['check']}", row["pass"] is True,
                           row["computed"]))
        if target == "statement2":
            n = next(r["computed"] for r in report["rows"]
                     if r["check"] == "distinct_solutions")
            checks.append((f"{label}: 3 distinct solutions", n == 3, n))
        if target == "example4_1":
            lines = (out / "example4_1_case1_trajectory.csv").read_text().count("\n")
            checks.append((f"{label}: 344 trajectory rows", lines == 345, lines - 1))
    elif "simulate" in argv:
        decay = json.loads((out / "simulate_report.json").read_text())["decay"]
        checks.append((f"{label}: rate >= {CASE1_RATE}", decay["rate"] >= CASE1_RATE,
                       decay["rate"]))
        checks.append((f"{label}: R^2 >= {MIN_R_SQUARED}",
                       decay["r_squared"] >= MIN_R_SQUARED, decay["r_squared"]))
        snaps = len(list(out.glob("snapshot_*.csv")))
        checks.append((f"{label}: 7 snapshots", snaps == 7, snaps))
    elif "certify" in argv:
        cert = json.loads((out / "certify_report.json").read_text())["certificate"]
        checks.append((f"{label}: feasible", cert["feasible"] is True, cert["margin"]))
        if "--no-honor-theorem" in argv:
            checks.append((f"{label}: gamma >= {CASE1_GAMMA_FLOOR}",
                           cert["gamma"] >= CASE1_GAMMA_FLOOR, cert["gamma"]))
            again = rdnet.cli.verify_certificate(network, cert["beta"], cert["gamma"],
                                                 cert["q"])
            checks.append((f"{label}: re-verifies feasible", again.feasible, again.margin))
        else:
            checks.append((f"{label}: theorem constraint",
                           cert["theorem_constraint_ok"] is True, cert["gamma"]))


def check_residual(found: list, checks: list) -> float:
    """Check the statement2 solutions kept by capture_returns; return the residual."""
    args, solutions = found[-1]
    res = max(stationary.residual(args[0], s) for s in solutions)
    checks.append((f"statement2: residual <= {STATIONARY_RESIDUAL_CEILING}",
                   0 < res <= STATIONARY_RESIDUAL_CEILING, res))
    return res


def run_pass(args, network) -> dict:
    out = Path(args.out)
    # the benchmark's tracer, next to this file
    from spans import Tracer, all_unwrapped, capture_returns
    steps = steps_for(args.workload, args.seed, args.system, args.tiny)
    tracer = Tracer(args.pass_id) if args.trace else None
    step_s, codes = [], []
    outs = [out / f"step-{i}" for i in range(len(steps))]
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            tracer.install()
            stack.callback(tracer.uninstall)
        # keeps statement2's solutions; removed before the tracer, which it wraps
        found = stack.enter_context(
            capture_returns("stationary", "find_stationary_multiplicity"))
        sink = stack.enter_context(open(os.devnull, "w"))
        stack.enter_context(contextlib.redirect_stdout(sink))
        for argv, step_out in zip(steps, outs):
            t0 = time.perf_counter()
            try:
                rc = rdnet.cli.main(["--out", str(step_out)] + argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a pass that raises is a failed check
                rc = f"{type(exc).__name__}: {exc}"
            step_s.append(time.perf_counter() - t0)
            codes.append(rc)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    checks: list = []
    for argv, rc, step_out in zip(steps, codes, outs):
        try:
            check_step(argv, rc, step_out, network, checks)
        except Exception as exc:  # a check that raises counts as failed
            checks.append((f"{' '.join(argv)}: checks", False, repr(exc)))
    residual = 0.0
    if ["reproduce", "statement2"] in steps:
        try:
            residual = check_residual(found, checks)
        except Exception as exc:
            checks.append(("statement2: residual", False, repr(exc)))
    result = {"wall_s": sum(step_s), "step_s": step_s, "peak_rss_mb": peak_kb / 1024.0,
              "bytes_written": written}
    if tracer is not None:
        result["layers"] = dict(tracer.layer_metrics(), stationary_residual=residual)
        if args.dump_spans:
            sp = tracer.spans()
            Path(args.dump_spans).write_text(json.dumps(
                {k: (v.tolist() if hasattr(v, "tolist") else v) for k, v in sp.items()}))
    result["unwrapped"] = all_unwrapped()
    result["checks"] = checks
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=["prep", "probe", "pass"], required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--system", required=True)
    parser.add_argument("--out")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--dump-spans")
    args = parser.parse_args()

    if args.mode == "prep":
        net = presets.switched_benchmark(1)
        n = grids(args.tiny)["simulate_2d"]
        schema.write_report(args.system, schema.dump_system(
            net, Grid(net.modes[0].domain, (n, n))))
        import mpmath
        import numpy
        import scipy
        result = {"rdnet": str(Path(rdnet.cli.__file__).resolve().parents[1]),
                  "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "mpmath": mpmath.__version__, "grids": grids(args.tiny)}
    else:
        network = user_setup(args.workload, args.system)
        # --spawned is the parent's CLOCK_MONOTONIC reading, which
        # time.monotonic() shares across processes
        result = {"setup_s": time.monotonic() - args.spawned}
        if args.mode == "pass":
            result.update(run_pass(args, network))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

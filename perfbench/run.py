"""rdnet benchmark: two pipeline workloads, one fresh interpreter per pass.

Usage (from the repository root):

    python3 perfbench/run.py --workload pde_2d --seed 1 --seconds 55 --trace 0

A run is a closed loop with one client: the next pass starts when the
previous one has returned, while it is expected to end within half a pass of
--seconds (at least two passes).
Every pass is a new ``python3`` process that imports ``rdnet.cli``, loads its
system and then makes the workload's ``rdnet`` CLI calls in-process; each
pass writes into its own temporary ``--out`` directory, which is removed
afterwards. With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced passes
and reports the per-layer metrics, including the tracing overhead. The last
line of standard output is the JSON result; the line before it carries the
environment, sample counts and upper percentiles.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pde_2d", "pde_1d_cert")   # their passes are defined in child.py
SETUP_PROBES = 2            # set-up-only processes before each pass
MIN_PASSES = 2
DEADLINE_S = 170.0          # every child is killed once the run reaches this
# one thread per BLAS pool: scipy-openblas would otherwise start up to 64
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_share": "1"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    last = name.rsplit(".", 1)[-1]
    if last == "s" or last.endswith("_s"):
        return "s"
    if last.endswith(("_us", "_ms")) or last == "bytes":
        return last.rsplit("_", 1)[-1]
    if last in ("free", "honor"):
        return "calls/beta"
    if name in ("cert_gamma", "stationary_residual"):
        return "1"
    return "count"


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ, **CHILD_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Run:
    """One benchmark run: a scratch directory and the processes it starts."""

    def __init__(self, args):
        self.args = args
        self.t0 = time.monotonic()
        base = ROOT / ".perfbench_tmp"
        base.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=base))
        self.system = self.work / "system.json"
        self.env = child_env()
        self.next_id = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    def child(self, mode: str, trace: int = 0, dump_spans: str | None = None) -> dict:
        """Start child.py, wait for it, and return its result."""
        self.next_id += 1
        out = self.work / f"out-{self.next_id}"
        out.mkdir()
        result = self.work / f"result-{self.next_id}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--system", str(self.system), "--out", str(out), "--result", str(result),
               "--trace", str(trace), "--pass-id", str(self.next_id)]
        if self.args.tiny:
            cmd.append("--tiny")
        if dump_spans:
            cmd += ["--dump-spans", dump_spans]
        remaining = DEADLINE_S - (time.monotonic() - self.t0)
        if remaining <= 0:
            raise BenchError("run exceeded its deadline")
        cmd += ["--spawned", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, cwd=out, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process timed out") from exc
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if proc.returncode != 0 or not result.exists():
            raise BenchError(f"{mode} process failed ({proc.returncode}):\n"
                             f"{proc.stderr[-2000:]}")
        data = json.loads(result.read_text())
        result.unlink()
        return data

    def elapsed(self) -> float:
        return time.monotonic() - self.t0


def summary(values: list[float]) -> dict:
    """Median, maximum and count of a run's samples, with the samples.

    The highest percentile with at least ten samples beyond it needs 20
    samples; a run has fewer, so the maximum is the top order statistic.
    """
    return {"median": statistics.median(values), "max": max(values),
            "n": len(values), "samples": values}


def measure(run: Run) -> tuple[list[dict], list[dict], list[dict]]:
    """Closed loop until --seconds: (untraced passes, traced passes, probes)."""
    args = run.args
    start = run.elapsed()
    plain, traced, probes = [], [], []
    durations: list[float] = []
    while True:
        used = run.elapsed() - start
        done = len(plain) + len(traced)
        # start a pass only if it should end within half a pass of --seconds
        est = statistics.median(durations) if durations else 0.0
        if done >= MIN_PASSES and used + est / 2 > args.seconds:
            break
        t = run.elapsed()
        # probes spread over the whole run, so set-up sees the host as the passes do
        probes += [run.child("probe") for _ in range(SETUP_PROBES)]
        if args.trace and done % 2 == 1:
            traced.append(run.child("pass", trace=1, dump_spans=args.dump_spans))
        else:
            plain.append(run.child("pass"))
        durations.append(run.elapsed() - t)
    return plain, traced, probes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="31x31 grids and short passes, for the self-test")
    parser.add_argument("--dump-spans", help="write the last traced pass's spans here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rdnet" / "cli.py").is_file():
        print(f"error: no rdnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args)
    try:
        env = run.child("prep")
        plain, traced, probes = measure(run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()

    passes = plain + traced
    checks = [c for p in passes for c in p["checks"]]
    failed = [c for c in checks if not c[1]]
    for name, _, detail in failed:
        print(f"FAILED CHECK: {name} ({detail})", file=sys.stderr)
    walls = [p["wall_s"] for p in plain]
    setups = [p["setup_s"] for p in probes + plain]
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "nproc": os.cpu_count(),
        "child_env": CHILD_THREADS, **env,
        "wall_s": summary(walls), "setup_s": summary(setups),
        "step_s": [statistics.median(s) for s in zip(*(p["step_s"] for p in plain))],
        "bytes_written": statistics.median(p["bytes_written"] for p in plain),
        "unwrapped_after_untraced": all(p["unwrapped"] for p in plain),
        "passes": {"untraced": len(plain), "traced": len(traced)},
    }
    if args.trace:
        layers = {k: statistics.median(p["layers"][k] for p in traced)
                  for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(walls))
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
                  "pass_share": 1.0 - len(failed) / max(len(checks), 1)}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in E2E_UNITS.items()}
    print("perfbench info: " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

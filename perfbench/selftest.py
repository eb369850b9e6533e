"""Self-test of the benchmark on tiny inputs (31x31 grids, short passes).

    python3 perfbench/selftest.py

For every workload it makes one untraced and one traced run with ``--tiny``
and checks that
  * every metric BENCHMARK.json names is printed, with the unit given there;
  * every traced child span lies inside its parent span;
  * every self time is >= 0;
  * untraced passes leave every rdnet function object unwrapped;
and finally that the benchmark exits non-zero, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Takes about a minute; exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int, spans: Path | None = None,
          root: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    if spans is not None:
        cmd += ["--dump-spans", str(spans)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def check_spans(workload: str, path: Path) -> None:
    sp = json.loads(path.read_text())
    start, end = np.array(sp["start"]), np.array(sp["end"])
    parent = np.array(sp["parent"])
    has = parent >= 0
    p = parent[has]
    inside = (start[p] <= start[has]) & (end[has] <= end[p])
    check(bool(inside.all()) and len(start) > 0,
          f"{workload}: {len(start)} spans, each child inside its parent")
    dur = end - start
    child = np.bincount(p, weights=dur[has], minlength=len(dur))
    check(bool((dur - child >= 0).all()), f"{workload}: self times >= 0")
    check(isinstance(sp["pass_id"], int), f"{workload}: spans carry a pass id")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json lists the workloads run.py runs")
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        for workload in WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                spans = tmp / f"{workload}.json" if trace else None
                proc = bench(workload, trace, spans)
                check(proc.returncode == 0, f"{workload} trace={trace}: exit code 0"
                      + (f"\n{proc.stderr[-1500:]}" if proc.returncode else ""))
                if proc.returncode:
                    continue
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                info = json.loads(lines[-2].split(": ", 1)[1])
                check(sorted(result) == ["attempted", "correct", "failed", "metrics"]
                      and result["correct"] and result["attempted"] >= 1,
                      f"{workload} trace={trace}: correct result line")
                want = {m["name"]: m["unit"] for m in spec[kind]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                check(got == want, f"{workload} trace={trace}: every {kind} metric "
                      "printed with its unit")
                check(all(isinstance(v["value"], (int, float)) and np.isfinite(v["value"])
                          for v in result["metrics"].values()),
                      f"{workload} trace={trace}: every value a finite number")
                check(info["unwrapped_after_untraced"],
                      f"{workload} trace={trace}: untraced passes leave rdnet unwrapped")
                if trace:
                    check_spans(workload, spans)
        bare = tmp / "bare"
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in HERE.glob("*.py"):
            shutil.copy(f, bare / "perfbench")
        proc = bench(WORKLOADS[0], 0, root=bare)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without the rdnet sources: non-zero exit and no result")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(f"selftest: {'FAILED' if failures else 'OK'} ({len(failures)} failing)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

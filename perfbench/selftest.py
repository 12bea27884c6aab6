"""Self-test of the benchmark harness, on tiny inputs (about ten seconds).

    python3 perfbench/selftest.py

Checks that:
  * a tiny run of every workload prints every metric BENCHMARK.json names,
    each with its unit, untraced (end-to-end) and traced (per-layer);
  * a deliberately wrong expected digest is counted as a failure and makes
    the run exit non-zero;
  * the per-layer counts repeat exactly across two traced runs.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
from pathlib import Path
import subprocess
import sys

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
REPEATABLE = ("linsolve.unknowns", "linsolve.sccs",
              "execution.accept_path_sum_calls", "space.cells")


def run(workload: str, trace: int, *extra: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.2", "--trace", str(trace),
         "--size", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    return proc.returncode, json.loads(last)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    counts = {}
    for wl in spec["workloads"]:
        name = wl["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(name, trace)
            if code != 0 or result.get("correct") is not True:
                problems.append(f"{name} trace {trace}: exit {code}, {result}")
                continue
            got = result["metrics"]
            for m in spec[key]:
                entry = got.get(m["name"])
                if entry is None or entry.get("unit") != m["unit"]:
                    problems.append(f"{name} trace {trace}: {m['name']} "
                                    f"missing or not in {m['unit']}: {entry}")
            if trace == 1:
                counts[name] = {k: got[k]["value"] for k in REPEATABLE}
        _, again = run(name, 1)
        second = {k: again["metrics"][k]["value"] for k in REPEATABLE}
        if counts.get(name) != second:
            problems.append(f"{name}: traced counts differ: {counts.get(name)} "
                            f"vs {second}")
        code, result = run(name, 0, "--expect-digest", "0" * 64)
        if code == 0 or result.get("failed", 0) < 1 or result.get("correct"):
            problems.append(f"{name}: a wrong digest was not counted as a "
                            f"failure (exit {code}, {result})")
    for p in problems:
        print("FAIL " + p)
    print(f"perfbench self-test: {'FAIL' if problems else 'PASS'} "
          f"({len(spec['workloads'])} workloads)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

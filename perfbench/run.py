"""Closed-loop benchmark harness for graphings: one client, one process.

    python3 perfbench/run.py --workload pushdown-accept --seed 1 \\
        --seconds 5 --trace 0

Runs from the root of a source checkout and imports the library from
``src/``.  The workload's seeded choices that are not set-up (``plan``) run
once, untimed.  Set-up (import, input generation, compilation) is then
repeated ``SETUP_ROUNDS`` times and its median reported.  The timed phase
then runs whole passes over the workload's requests, one at a time, until
``--seconds`` have passed (at least one pass); every answer is checked
against the independent route and hashed into a digest, which must match
the recorded one when the seed has one.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then one pass with every layer wrapped from outside (see
``tracer.py``), and prints the per-layer metrics plus the tracing overhead;
its spans go to ``perfbench/out/``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when every
request was correct, 1 when any failed, 2 when the library is missing or the
arguments are wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
from pathlib import Path
import platform
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter
import traceback
from types import SimpleNamespace

from speed import SpeedSampler
from tracer import REQUEST, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_ROUNDS = 5
MODULES = ("automata", "compiler", "corpus", "execution", "generators",
           "graphing", "linsolve", "measurement", "space", "words")


def load_library() -> SimpleNamespace:
    """Import the library afresh, so each set-up round pays for the import."""
    for name in [m for m in sys.modules
                 if m == "graphings" or m.startswith("graphings.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"graphings.{m}")
                              for m in MODULES})


def set_up(workload, seed: int, size: str, plan):
    g = load_library()
    inputs = workload.generate(g, seed, size, plan)
    # Interleave the machines, so that every kind of request samples the
    # machine's speed over the whole pass rather than one stretch of it.
    random.Random(f"order:{seed}").shuffle(inputs.requests)
    compiled = {a.name: g.compiler.compile_automaton(a) for a in inputs.automata}
    return g, inputs, compiled


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples beyond it."""
    return max(50, 100 - -(-1000 // n))


def nearest_rank(sorted_values: list, pct: int) -> float:
    return sorted_values[max(0, -(-pct * len(sorted_values) // 100) - 1)]


class Pass:
    """Latencies, failures and answers of one pass over the requests."""

    def __init__(self):
        self.intervals: list[tuple] = []   # (start, end) of each request
        self.answers: list = []
        self.failed = 0
        self.wall = 0.0

    def latencies(self) -> list[float]:
        return [end - start for start, end in self.intervals]

    def scaled(self, speed) -> list[float]:
        """Request latencies at the reference speed (see ``speed.py``)."""
        return [speed.scaled(start, end) for start, end in self.intervals]

    def digest(self) -> str:
        h = hashlib.sha256()
        for ans in self.answers:
            h.update("\x1f".join(ans).encode())
            h.update(b"\n")
        return h.hexdigest()


def run_pass(workload, g, inputs, compiled, tracer=None) -> Pass:
    out = Pass()
    start = perf_counter()
    for rid, req in enumerate(inputs.requests):
        t0 = perf_counter()
        try:
            if tracer is None:
                ok, ans = workload.run(g, inputs, compiled, req)
            else:
                tracer.request_id = rid
                ok, ans = tracer.span(REQUEST, workload.run, g, inputs,
                                      compiled, req)
        except Exception as exc:  # a raising request is a failed request
            traceback.print_exc(file=sys.stderr)
            ok, ans = False, ("raised", type(exc).__name__, str(exc))
        out.intervals.append((t0, perf_counter()))
        if not ok:
            out.failed += 1
            print(f"# FAILED request {rid}: {ans}", file=sys.stderr)
        out.answers.append(ans)
    out.wall = perf_counter() - start
    return out


def mismatches(first: Pass, other: Pass) -> int:
    return sum(a != b for a, b in zip(first.answers, other.answers))


def expected_digest(workload: str, size: str, seed: int, override):
    if override:
        return override, "given"
    recorded = json.loads((HERE / "digests.json").read_text())
    value = recorded.get(workload, {}).get(size, {}).get(str(seed))
    return value, "recorded" if value else "none recorded for this seed"


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30,
                              check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp(args) -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "unknown")
    except OSError:
        cpu = platform.processor() or "unknown"
    source = hashlib.sha256()
    for path in sorted((SRC / "graphings").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "size": args.size,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": f"{platform.python_implementation()} "
                      f"{platform.python_version()}",
            "git_commit": git_commit(), "source_sha256": source.hexdigest()}


def _timings(setup, latencies, pct):
    """setup_s, throughput_rps, latency_p50_ms, latency_tail_ms."""
    latencies = sorted(latencies)
    return (statistics.median(setup), len(latencies) / sum(latencies),
            statistics.median(latencies) * 1e3,
            nearest_rank(latencies, pct) * 1e3)


def end_to_end(speed, setup_rounds, passes, n_requests):
    pct = tail_percentile(n_requests)
    scaled = _timings([speed.scaled(*r) for r in setup_rounds],
                      [x for p in passes for x in p.scaled(speed)], pct)
    raw = _timings([end - start for start, end in setup_rounds],
                   [x for p in passes for x in p.latencies()], pct)
    n = n_requests * len(passes)
    info = [f"latency_tail_ms is p{pct} over {n} samples ({len(passes)} "
            f"pass(es) of {n_requests} requests); setup_s is the median of "
            f"{len(setup_rounds)} rounds",
            "raw wall-clock, not rescaled: setup_s {:.4f}, throughput_rps "
            "{:.4f}, latency_p50_ms {:.4f}, latency_tail_ms {:.4f}".format(*raw)]
    names = (("setup_s", "s"), ("throughput_rps", "1/s"),
             ("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"))
    metrics = {name: (value, unit) for (name, unit), value in zip(names, scaled)}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                              / 1024, "MB")
    return metrics, info


def per_layer(speed, tracer, compiled, pruned, untraced: Pass, traced: Pass):
    totals = tracer.totals()

    def t(layer):
        return totals.get(layer, (0, 0.0, 0.0))

    edges = sum(len(m.graphing.edges) for m in compiled.values())
    reachable = sum(len(m.graphing.edges) for m in pruned.values())
    layer_of = [s[0] for s in tracer.spans]
    nested_sums = sum(1 for layer, _, _, parent, _ in tracer.spans
                      if layer == "execution.accept_path_sum" and parent >= 0
                      and layer_of[parent] == "measurement.membership")
    verdicts = t("measurement.membership")[0]
    c = tracer.counts
    # request time of each pass at the reference speed
    plain, wrapped = sum(untraced.scaled(speed)), sum(traced.scaled(speed))
    metrics = {
        "compiler.compile_s": (t("compiler.compile_automaton")[1], "s"),
        "compiler.edges": (edges, "count"),
        "compiler.reachable_edges": (reachable, "count"),
        "compiler.reachable_share": (reachable / edges if edges else 0.0, "share"),
        "automata.accept_probability_s": (t("automata.accept_probability")[1], "s"),
        "automata.accept_probability_calls": (t("automata.accept_probability")[0], "count"),
        "automata.self_s": (t("automata.accept_probability")[2], "s"),
        "execution.accept_path_sum_s": (t("execution.accept_path_sum")[1], "s"),
        "execution.accept_path_sum_calls": (t("execution.accept_path_sum")[0], "count"),
        "execution.path_sum_self_s": (t("execution.accept_path_sum")[2], "s"),
        "execution.plug_s": (t("execution.plug")[1], "s"),
        "execution.plug_calls": (t("execution.plug")[0], "count"),
        "execution.plug_self_s": (t("execution.plug")[2], "s"),
        "space.refine_regions_s": (t("space.refine_regions")[1], "s"),
        "space.refine_regions_calls": (t("space.refine_regions")[0], "count"),
        "space.cells": (c["space.cells"], "count"),
        "linsolve.solve_affine_s": (t("linsolve.solve_affine")[1], "s"),
        "linsolve.solve_affine_calls": (t("linsolve.solve_affine")[0], "count"),
        "linsolve.unknowns": (c["linsolve.unknowns"], "count"),
        "linsolve.nonzeros": (c["linsolve.nonzeros"], "count"),
        "linsolve.largest_system": (c["linsolve.largest_system"], "count"),
        "linsolve.strongly_connected_s": (t("linsolve.strongly_connected")[1], "s"),
        "linsolve.sccs": (c["linsolve.sccs"], "count"),
        "linsolve.largest_scc": (c["linsolve.largest_scc"], "count"),
        "linsolve.dense_entries": (c["linsolve.dense_entries"], "count"),
        "measurement.membership_s": (t("measurement.membership")[1], "s"),
        "measurement.membership_calls": (verdicts, "count"),
        "measurement.path_sums_per_verdict": (nested_sums / verdicts if verdicts
                                              else 0.0, "ratio"),
        "words.canonical_representation_s": (t("words.canonical_representation")[1], "s"),
        "words.canonical_representation_calls": (t("words.canonical_representation")[0], "count"),
        "graphing.checks_s": (t("graphing.checks")[1], "s"),
        "trace.untraced_pass_s": (plain, "s"),
        "trace.traced_pass_s": (wrapped, "s"),
        "trace.overhead_share": (wrapped / plain - 1, "share"),
    }
    # self time of each layer inside requests, largest first
    own = {
        "linsolve.solve_affine_s": t("linsolve.solve_affine")[1],
        "automata.self_s": t("automata.accept_probability")[2],
        "execution.path_sum_self_s": t("execution.accept_path_sum")[2],
        "execution.plug_self_s": t("execution.plug")[2],
        "space.refine_regions_s": t("space.refine_regions")[2],
        "measurement.self_s": t("measurement.membership")[2],
        "words.canonical_representation_s": t("words.canonical_representation")[2],
        "graphing.checks_self_s": t("graphing.checks")[2],
        "bench.self_s": t(REQUEST)[2],
    }
    ranking = ", ".join(f"{k}={v:.3f}" for k, v in
                        sorted(own.items(), key=lambda kv: -kv[1]))
    return metrics, [f"self time by layer, largest first: {ranking}",
                     f"tracing overhead: traced pass {traced.wall:.3f} s, "
                     f"untraced pass {untraced.wall:.3f} s wall-clock"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few requests, for the self-test")
    ap.add_argument("--expect-digest", default=None,
                    help="compare against this digest instead of the recorded one")
    args = ap.parse_args(argv)

    if not (SRC / "graphings" / "__init__.py").is_file():
        print(f"error: no library at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    with SpeedSampler() as speed:
        return measure(args, workload, speed)


def measure(args, workload, speed) -> int:
    plan = workload.plan(load_library(), args.seed, args.size)
    setup_rounds = []  # (start, end)
    for _ in range(SETUP_ROUNDS):
        start = perf_counter()
        g, inputs, compiled = set_up(workload, args.seed, args.size, plan)
        setup_rounds.append((start, perf_counter()))
    n_requests = len(inputs.requests)
    tracer = Tracer(vars(g))
    tracer.assert_clean()  # the untraced passes run the library's own functions

    passes = []
    start = perf_counter()
    while not passes or (args.trace == 0
                         and perf_counter() - start < args.seconds):
        passes.append(run_pass(workload, g, inputs, compiled))
    first = passes[0]
    failed = sum(p.failed for p in passes)
    failed += sum(mismatches(first, p) for p in passes[1:])
    attempted = n_requests * len(passes)

    lines = []
    if args.trace == 0:
        metrics, info = end_to_end(speed, setup_rounds, passes, n_requests)
    else:
        tracer.install()
        try:
            compiled_t = {a.name: g.compiler.compile_automaton(a)
                          for a in inputs.automata}
            pruned = {k: g.compiler.prune_reachable(m)
                      for k, m in compiled_t.items()}
            traced = run_pass(workload, g, inputs, compiled_t, tracer)
        finally:
            tracer.uninstall()
        attempted += n_requests
        failed += traced.failed + mismatches(first, traced)
        metrics, info = per_layer(speed, tracer, compiled_t, pruned, first,
                                  traced)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}-{args.size}.jsonl"
        tracer.write(spans)
        lines.append(f"{len(tracer.spans)} spans written to "
                     f"{spans.relative_to(ROOT)}")

    digest = first.digest()
    want, source = expected_digest(args.workload, args.size, args.seed,
                                   args.expect_digest)
    digest_ok = want is None or want == digest
    if not digest_ok:
        failed = min(attempted, failed + 1)
    lines.append(f"digest {digest} (expected: {want or '-'}, {source}): "
                 f"{'match' if digest_ok else 'MISMATCH'}" if want else
                 f"digest {digest} ({source})")
    lines.append(f"{attempted} requests attempted, {failed} failed, "
                 f"failed_share {failed / attempted}")
    lines += info

    print("# stamp " + json.dumps(stamp(args), sort_keys=True))
    for line in lines:
        print("# " + line)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

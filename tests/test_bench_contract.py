"""The benchmark runs against the library: every name it reads must exist.

``perfbench/tracer.py`` looks up each ``(module, attribute)`` pair of
``TRACED_NAMES`` whenever a ``Tracer`` is built, traced or not, so a library
refactor that drops one of those names would fail every benchmark run.  The
tracer also refuses a name that is already wrapped (one carrying
``__wrapped__``, as every ``functools`` decorator leaves), so a traced name
must stay the library's own undecorated function.
"""

import importlib
import importlib.util
import json
from pathlib import Path
import subprocess
import sys

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED_NAMES


def test_every_traced_name_resolves_to_a_library_callable():
    names = _traced_names()
    assert names
    for module, attr, _ in names:
        mod = importlib.import_module(f"graphings.{module}")
        assert callable(getattr(mod, attr, None)), f"graphings.{module}.{attr}"


def test_every_traced_name_is_the_library_s_own_undecorated_function():
    for module, attr, _ in _traced_names():
        fn = getattr(importlib.import_module(f"graphings.{module}"), attr)
        where = f"graphings.{module}.{attr}"
        assert fn.__module__.startswith("graphings."), where
        assert not hasattr(fn, "__wrapped__"), f"{where} is decorated"


@pytest.mark.parametrize("workload",
                         ["pushdown-accept", "multihead-laws", "plug-closure"])
def test_tiny_workload_runs_and_matches_its_recorded_digest(workload, tmp_path):
    # seed 7 at the tiny size has a recorded answer digest, so every answer
    # is checked; a name the harness reads and the library lost shows up
    # here rather than as a failed benchmark run
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.2", "--trace", "0", "--size", "tiny"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert list(tmp_path.iterdir()) == []  # an untraced run writes no file


def test_traced_plug_closure_run_counts_its_refinements(tmp_path):
    # the traced pass wraps every traced name; on plug-closure it reaches
    # refine_regions and counts the cells each call returns
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "plug-closure",
         "--seed", "7", "--seconds", "0.2", "--trace", "1", "--size", "tiny"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["space.refine_regions_calls"]["value"] > 0
    assert metrics["space.cells"]["value"] > 0

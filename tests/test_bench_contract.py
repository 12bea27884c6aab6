"""The benchmark's tracer wraps library names; every one must exist.

``perfbench/tracer.py`` looks up each ``(module, attribute)`` pair of
``TRACED_NAMES`` whenever a ``Tracer`` is built, traced or not, so a library
refactor that drops one of those names would fail every benchmark run.  The
tracer also refuses a name that is already wrapped (one carrying
``__wrapped__``, as every ``functools`` decorator leaves), so a traced name
must stay the library's own undecorated function.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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

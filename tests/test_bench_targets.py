"""Every function the benchmark tracer times or counts, and every name the
benchmark imports, exists in fglcheck.

perfbench/tracer.py names its targets by (module, qualname) and wraps them
at run time; a renamed or moved target would read as a silent 0 in every
traced run.  The tracer file is loaded as it is, without importing the rest
of the benchmark.  The benchmark's own imports from fglcheck are read from
the source of perfbench/*.py, so a deleted name fails here before a
benchmark run fails on it.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _wrapped_by_tracer(mod, qual):
    """The tracer wraps a plain function defined in the named fglcheck module."""
    obj = importlib.import_module(f"fglcheck.{mod}")
    for part in qual.split("."):
        obj = getattr(obj, part, None)
    return (inspect.isfunction(obj) and obj.__module__ == f"fglcheck.{mod}"
            and obj.__qualname__ == qual)


def test_every_traced_target_resolves():
    tracer = _load_tracer()
    targets = [t for ts in tracer.TIMED.values() for t in ts] + list(tracer.COUNTED.values())
    assert targets
    assert [t for t in targets if not _wrapped_by_tracer(*t)] == []


def test_every_criterion_stem_has_its_function():
    tracer = _load_tracer()
    acceptance = importlib.import_module("fglcheck.acceptance")
    stems = {tracer._criterion_stem(fn) for _, fn in acceptance.CRITERIA}
    assert {s for s in tracer.TIMED if s.startswith("acceptance.")} == stems


def _benchmark_imports():
    """(module, name) for each `from fglcheck.<module> import name` in perfbench/*.py."""
    out = set()
    for path in sorted(TRACER.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fglcheck."):
                out.update((node.module, alias.name) for alias in node.names)
    return out


def test_every_name_the_benchmark_imports_resolves():
    names = _benchmark_imports()
    assert names
    assert [(m, n) for m, n in sorted(names)
            if not hasattr(importlib.import_module(m), n)] == []

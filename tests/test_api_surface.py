"""Guards on the public surface: exported names and benchmark targets.

The benchmark tracer (``perfbench/spans.py``) wraps a fixed list of
functions and methods by name, so deleting or renaming one of them
would break the benchmark without failing any other test.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import cyworkbench as cw

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_all_names_resolve():
    assert [name for name in cw.__all__ if not hasattr(cw, name)] == []


def _target(modname, owner, attr):
    module = importlib.import_module(f"cyworkbench.{modname}")
    if owner is None:
        return getattr(module, attr)
    obj = getattr(module, owner).__dict__[attr]
    return getattr(obj, "__func__", obj)  # classmethods


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans
    try:
        spec.loader.exec_module(spans)
        tracer = spans.Tracer()
        try:
            tracer.install(cw)
            unwrapped = [t[0] for t in spans.TARGETS
                         if not hasattr(_target(*t[1:]), "__wrapped__")]
        finally:
            tracer.uninstall()
    finally:
        del sys.modules[spec.name]
    assert unwrapped == []
    assert not any(hasattr(_target(*t[1:]), "__wrapped__")
                   for t in spans.TARGETS)

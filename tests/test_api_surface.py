"""Guards on the public surface: exported names and benchmark targets.

The benchmark tracer (``perfbench/spans.py``) wraps a fixed list of
functions and methods by name, so deleting or renaming one of them
would break the benchmark without failing any other test.
"""

import contextlib
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import cyworkbench as cw

from conftest import shipped_family

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


@contextlib.contextmanager
def perfbench_runner():
    """``perfbench/run.py`` loaded as a module, with the sibling modules it
    imports (``metrics``, ``spans``, ``workloads``, ``grids``) found on a
    temporary path entry and dropped again afterwards."""
    before = set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(
        "_perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run
    try:
        spec.loader.exec_module(run)
        yield run
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in (spec.name, "metrics", "spans", "workloads", "grids"):
            if name not in before:
                sys.modules.pop(name, None)


def test_size_measures_read_real_outputs():
    """The benchmark's size measures read attributes of what the traced
    calls return (``basis.omegas``, ``z_of_q``, ``z_nodes``...)."""
    basis = cw.frobenius_solve(shipped_family("quintic").pf, 12)
    mm = cw.build_mirror_map(basis)
    with perfbench_runner() as run:
        grid_text, _ = sys.modules["grids"].make_grid_texts(7, 4, 3)
        outputs = {
            "picard_fuchs.frobenius_solve": basis,
            "genus0.build_mirror_map": mm,
            "series.revert": mm.q_of_z.revert(),
            "anomaly.AnomalyGrid.from_json":
                cw.AnomalyGrid.from_json(json.loads(grid_text)),
        }
        assert set(run.SIZE_MEASURES) == set(outputs)
        sizes = {}
        for name, out in outputs.items():
            sizes.update(run.SIZE_MEASURES[name](out))
    assert all(type(v) is int and v > 0 for v in sizes.values()), sizes
    assert sizes["picard_fuchs.order"] == 12
    assert sizes["series.revert.order"] == 13  # q = z exp(u) to z^13
    assert sizes["anomaly.grid_points"] == 4 * 3
    # f_0 has 12 nonzero terms, f_1..f_3 11 each; omega_k holds f_0..f_k
    assert sizes["picard_fuchs.terms"] == 4 * 12 + 6 * 11

"""Runtime dependencies: the package imports with mpmath alone, the exact
layer does not import it at all, the rounding kernel stands on its own,
and the run path does not import the grid checker."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# modules that compute in Fraction only; errors is their one other import
EXACT_LAYER = ("series", "picard_fuchs", "frames", "genus0")


def test_import_does_not_load_sympy():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import cyworkbench; "
            "print('sympy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def _imports(name):
    """(level, module) for every import statement in cyworkbench.<name>."""
    tree = ast.parse((SRC / "cyworkbench" / f"{name}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((0, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.level, node.module or ""


def test_exact_layer_is_float_free():
    allowed = set(EXACT_LAYER) | {"errors"}
    for name in EXACT_LAYER:
        imports = list(_imports(name))
        assert not [m for level, m in imports
                    if level == 0 and m.split(".")[0] == "mpmath"], name
        # relative imports stay inside the exact layer, so none of them
        # pulls mpmath in either
        assert {m for level, m in imports if level} <= allowed, name


def test_kernel_imports_stdlib_and_mpmath_only():
    imports = list(_imports("kernel"))
    assert not [m for level, m in imports if level]
    assert {m.split(".")[0] for level, m in imports} \
        <= set(sys.stdlib_module_names) | {"mpmath"}


@pytest.mark.parametrize("name", ["hodge", "pipeline"])
def test_does_not_import_anomaly(name):
    """The run path (periods to hodge.json) has no import of its own
    from the grid checker."""
    assert "anomaly" not in {m for level, m in _imports(name) if level}


def test_anomaly_imports_kernel_and_errors_only():
    assert {m for level, m in _imports("anomaly") if level} \
        <= {"kernel", "errors"}


def test_pipeline_imports_no_mpmath():
    assert not [m for level, m in _imports("pipeline")
                if level == 0 and m.split(".")[0] == "mpmath"]

"""Runtime dependencies: the package imports with mpmath alone."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_does_not_load_sympy():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import cyworkbench; "
            "print('sympy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"

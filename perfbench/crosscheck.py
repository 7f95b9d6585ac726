"""Traced exact-path split of the quintic at N = 20 and N = 40.

    python3 perfbench/crosscheck.py        (from the root of a checkout)

Prints the inclusive seconds of ``LogSeries.revert``, the symplectic
frame solve and ``flat_yukawa`` in one traced ``run_pipeline`` call per
N, next to the figures the ROADMAP baseline table gives for them, so a
disagreement between the two measurements shows.  The same numbers go
to ``.perfbench_out/crosscheck.json`` for ``baseline.py``.
"""

from __future__ import annotations

import json
import shutil
import sys
from collections import defaultdict
from pathlib import Path

from spans import Tracer

# ROADMAP baseline, quintic exact path in seconds: revert, frame, flat_yukawa
ROADMAP = {20: (0.29, 1.13, 0.09), 40: (2.1, 3.9, 0.23)}
COLUMNS = ("series.revert", "frames.solve_symplectic_frame",
           "genus0.flat_yukawa")


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import cyworkbench as cw
    out = root / ".perfbench_out" / "crosscheck"
    rows = {}
    tracer = Tracer()
    tracer.install(cw)
    try:
        for n in ROADMAP:
            doc = json.loads((root / "configs" / "quintic.json").read_text())
            doc["truncation_order"] = n
            doc["samples"]["count"] = 4
            tracer.spans.clear()
            cw.run_pipeline(cw.WorkbenchConfig.from_json(doc), out)
            total = defaultdict(float)
            for span in tracer.spans:
                total[span.name] += span.seconds
            rows[n] = [total[c] for c in COLUMNS]
    finally:
        tracer.uninstall()
        shutil.rmtree(out, ignore_errors=True)
    print(f"{'N':>3s} " + " ".join(f"{c:>30s}" for c in COLUMNS))
    for n, measured in rows.items():
        cells = [f"{m:8.3f} (roadmap {r:5.2f})"
                 for m, r in zip(measured, ROADMAP[n])]
        print(f"{n:3d} " + " ".join(f"{c:>30s}" for c in cells))
    doc = {label: {str(n): dict(zip(COLUMNS, v)) for n, v in table.items()}
           for label, table in (("roadmap", ROADMAP), ("measured", rows))}
    (root / ".perfbench_out" / "crosscheck.json").write_text(
        json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

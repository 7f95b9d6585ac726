"""Set-up time in a fresh interpreter: import cyworkbench, parse inputs.

    python3 perfbench/setup_probe.py --config C.json ... --data D.json ...

Configs go through ``WorkbenchConfig.from_json``; data files (grid and
propagator documents) are parsed as JSON text.  Prints one JSON line
with ``import_s``, ``parse_s`` and ``setup_s``.
"""

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", action="append", default=[])
    parser.add_argument("--data", action="append", default=[])
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import cyworkbench
    t1 = time.perf_counter()
    for path in args.config:
        doc = json.loads(Path(path).read_text())
        cyworkbench.WorkbenchConfig.from_json(doc)
    for path in args.data:
        json.loads(Path(path).read_text())
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1,
                      "setup_s": t2 - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

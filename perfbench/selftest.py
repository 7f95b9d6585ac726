"""Self-test of the benchmark harness at tiny problem sizes.

    python3 perfbench/selftest.py        (from the root of a checkout)

Checks that each workload emits every metric with its unit in both
modes, that BENCHMARK.json agrees with ``metrics.py``, that the traced
run sees the calls ``pipeline.py`` makes through its own namespace, and
that a wrong expected value is counted as a failure instead of passing.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import run
from metrics import GATED, LAYERS, REPORT
from workloads import TINY, WORKLOADS


def _run(workload: str, trace: int, sizes=TINY):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        line = run.main(["--workload", workload, "--seed", "7",
                         "--seconds", "0.1", "--trace", str(trace)], sizes)
    return line, buf.getvalue()


def check_benchmark_json(root: Path) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == {n: REPORT[n] for n in GATED}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == {n: LAYERS[n][:2] for n in LAYERS}


def check_workload(name: str) -> dict:
    plain, text = _run(name, 0)
    assert plain["correct"] and plain["failed"] == 0, text
    assert list(plain["metrics"]) == list(GATED), plain
    for metric, entry in plain["metrics"].items():
        assert entry["unit"] == REPORT[metric][0] and entry["value"] > 0
    for metric, (unit, _) in REPORT.items():
        assert any(ln.split()[:1] == [metric] and f" {unit} " in ln
                   for ln in text.splitlines()), (metric, text)
    traced, text = _run(name, 1)
    assert traced["correct"], text
    assert list(traced["metrics"]) == list(LAYERS), traced
    for metric, entry in traced["metrics"].items():
        assert entry["unit"] == LAYERS[metric][0], metric
        assert entry["value"] is not None, metric
    return {k: v["value"] for k, v in traced["metrics"].items()}


def main() -> int:
    root = Path.cwd()
    check_benchmark_json(root)
    layers = {name: check_workload(name) for name in WORKLOADS}
    # pipeline.py binds its callees by name; the spans must still see them
    for key in ("genus0.build_mirror_map.self_s",
                "frames.solve_symplectic_frame.self_s",
                "picard_fuchs.frobenius_solve.self_s"):
        assert layers["exact-deep"][key] > 0, key
    assert layers["anomaly-grid"]["series.self_s"] == 0
    assert layers["anomaly-grid"]["anomaly.self_s"] > 0
    wrong = replace(TINY, expected_n={"quintic": {1: 2876}})
    line, _ = _run("exact-deep", 0, wrong)
    assert not line["correct"] and line["failed"] > 0, line
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

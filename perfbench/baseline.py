"""Collect result files into one committed ``BENCH_<label>.json``.

    python3 perfbench/baseline.py --label baseline

Reads every ``.perfbench_out/<workload>-seed<n>-trace<t>.json`` and
``.perfbench_out/crosscheck.json``; for each workload and end-to-end
metric it keeps the median, the quartiles and their distance as a share
of the median over the untraced runs, and it keeps the per-layer values
of the traced runs as they are.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median if median else None,
            "runs": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    out = Path.cwd() / ".perfbench_out"
    plain, traced, env = defaultdict(list), defaultdict(list), {}
    records = [json.loads(p.read_text())
               for p in out.glob("*-seed*-trace*.json")]
    for record in sorted(records, key=lambda r: r["environment"]["seed"]):
        by_workload = traced if record["trace"] else plain
        by_workload[record["workload"]].append(record)
        env = record["environment"]
    doc = {"label": args.label, "environment": env, "workloads": {}}
    for workload in sorted(set(plain) | set(traced)):
        metrics = defaultdict(list)
        for record in plain[workload]:
            for name, value in record["end_to_end"].items():
                if value is not None:
                    metrics[name].append(value)
        doc["workloads"][workload] = {
            "seeds": [r["environment"]["seed"] for r in plain[workload]],
            "sizes": (plain[workload] or traced[workload])[0]["sizes"],
            "end_to_end": {k: summary(v) for k, v in metrics.items()
                           if len(v) >= 2},
            "traced": [{"seed": r["environment"]["seed"],
                        "per_layer": r["per_layer"]}
                       for r in traced[workload]],
        }
    cross = out / "crosscheck.json"
    if cross.exists():
        doc["crosscheck"] = json.loads(cross.read_text())
    target = HERE / f"BENCH_{args.label}.json"
    target.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

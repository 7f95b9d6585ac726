"""cyworkbench benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload exact-deep --seed 1 --seconds 40 \
        --trace 0

Run from the root of a checkout; the program is imported from its
``src/``.  With ``--trace 0`` the rounds run untraced and the last line
of standard output is a JSON object with the gated end-to-end metrics
(``metrics.GATED``).  With ``--trace 1`` every second round runs with
spans around the calls into each module (``spans.py``) and the last
line carries the per-layer metrics (``metrics.LAYERS``), normalised per
traced round.  Lines before it are a human-readable report of every
metric with its unit; the same record, with the environment and the
problem sizes, is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from metrics import GATED, LAYERS, MODULES, REPORT
from spans import Tracer
from workloads import FULL, WORKLOADS, Ledger

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7           # plain set-up probes per untraced run
IMPORTTIME_REPEATS = 3      # -X importtime probes per traced run


def _bits(series) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for _, c in series.items()), default=0)


# size measures taken from the objects the program returns; the largest
# value over the traced calls is kept
SIZE_MEASURES = {
    "series.revert": lambda s: {"series.revert.order": math.ceil(s.order)},
    "genus0.build_mirror_map": lambda mm: {
        "series.coeff_bits_max": _bits(mm.z_of_q),
        "series.z_of_q.terms": len(list(mm.z_of_q.items()))},
    "picard_fuchs.frobenius_solve": lambda basis: {
        "picard_fuchs.coeff_bits_max": max(_bits(w) for w in basis.omegas),
        "picard_fuchs.order": math.ceil(basis.order),
        "picard_fuchs.terms": sum(len(list(w.items())) for w in basis.omegas)},
    "anomaly.AnomalyGrid.from_json": lambda grid: {
        "anomaly.grid_points": len(grid.z_nodes) * len(grid.zbar_nodes)},
}


def probe_setup(workload, importtime: bool) -> dict:
    """Run the set-up probe once in a fresh interpreter."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "setup_probe.py"), *workload.setup_args()]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if importtime:
        record.update(_import_split(proc.stderr))
    return record


def _import_split(stderr: str) -> dict:
    """sympy and mpmath cumulative, cyworkbench self import seconds."""
    sympy_us = mpmath_us = cw_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name == "sympy" and not sympy_us:
            sympy_us = int(cum_us)
        elif name == "mpmath" and not mpmath_us:
            mpmath_us = int(cum_us)
        elif name == "cyworkbench" or name.startswith("cyworkbench."):
            cw_us += int(self_us)
    return {"setup.sympy_import_s": sympy_us / 1e6,
            "setup.mpmath_import_s": mpmath_us / 1e6,
            "setup.cyworkbench_import_self_s": cw_us / 1e6}


def measure(cw, workload, seconds: float, trace: bool, ledger: Ledger):
    """Repeat rounds until the next one would overrun ``seconds``.

    The first round warms caches and lazy set-up; its operations are
    checked and counted but its timings are dropped.  Traced runs then
    alternate traced and untraced rounds, so both see the same machine
    state and the ratio of their run_s values is the tracing overhead.
    The set-up probes are spread between the rounds for the same
    reason: a slow spell of the machine should not land on all of them
    at once.
    """
    plain, traced = defaultdict(list), defaultdict(list)
    tracer = Tracer(measures=SIZE_MEASURES) if trace else None
    repeats = IMPORTTIME_REPEATS if trace else SETUP_REPEATS
    setup = [probe_setup(workload, trace)]
    start = time.perf_counter()
    deadline = start + seconds
    rounds = traced_rounds = 0
    while True:
        t0 = time.perf_counter()
        if len(setup) < repeats:
            setup.append(probe_setup(workload, trace))
        if trace and rounds % 2 == 1:
            tracer.install(cw)
            index = tracer.open("bench.round")
            try:
                workload.round(ledger, traced)
            finally:
                tracer.close(index)
                tracer.uninstall()
            traced_rounds += 1
        else:
            workload.round(ledger, plain if rounds else defaultdict(list))
        rounds += 1
        now = time.perf_counter()
        if now + (now - t0) > deadline and rounds >= (3 if trace else 2):
            break
    while len(setup) < repeats:
        setup.append(probe_setup(workload, trace))
    return {"setup": setup, "plain": plain, "traced": traced, "tracer": tracer,
            "rounds": rounds, "traced_rounds": traced_rounds,
            "measured_s": time.perf_counter() - start}


def _median(values):
    return statistics.median(values) if values else None


def slowest_quarter(values):
    """Mean of the slowest quarter of ``values`` (at least one)."""
    return statistics.fmean(sorted(values)[-max(1, len(values) // 4):])


def job_seconds(samples: dict, stat=slowest_quarter):
    """``stat`` of each kind of job's call times, averaged over the kinds.

    run_s takes the mean of the slowest quarter of each kind's calls.
    Other tenants of the host slow a call by up to 1.8x in spells of
    seconds to minutes, and the share of a run they cover drifts from
    run to run, which moves a run's median call and, further, its
    fastest call.  Every run spends a quarter of its calls or more in
    such a spell, and the time of a call inside one holds still from
    run to run, so the slow end is the steady reading; it scales with
    the program's own cost like any other.
    """
    kinds = [v for k, v in samples.items() if k.startswith("run_s.") and v]
    return statistics.fmean(stat(v) for v in kinds) if kinds else None


def end_to_end(samples: dict, setup: list, ledger: Ledger) -> dict:
    out = {"setup_s": _median([r["setup_s"] for r in setup]),
           "run_s": job_seconds(samples),
           "run_s_p50": job_seconds(samples, statistics.median),
           "run_s_min": job_seconds(samples, min)}
    for name, values in samples.items():
        if name.startswith("run_s."):
            continue
        if name.startswith("hodge_point_"):
            base = name[:-len("_ms")]
            out[f"{base}_ms_p50"] = _median(values)
            # a percentile needs ten samples beyond it
            if len(values) >= 100:
                out[f"{base}_ms_p90"] = statistics.quantiles(values, n=10)[8]
        else:
            out[name] = _median(values)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    out["fail_ratio"] = ledger.failed / max(ledger.attempted, 1)
    return out


def per_layer(result: dict, workload, setup: list) -> dict:
    tracer = result["tracer"]
    rounds = result["traced_rounds"]
    calls, self_s, total_s = (defaultdict(int), defaultdict(float),
                              defaultdict(float))
    for span in tracer.spans:
        calls[span.name] += 1
        self_s[span.name] += span.self_s
        total_s[span.name] += span.seconds
    out = {}
    for name in LAYERS:
        key, _, kind = name.rpartition(".")
        if name in tracer.sizes:
            out[name] = tracer.sizes[name]
        elif kind == "self_s" and key in MODULES:
            out[name] = sum(v for k, v in self_s.items()
                            if k.startswith(key + ".")) / rounds
        elif kind == "self_s":
            out[name] = self_s[key] / rounds
        elif kind == "calls":
            out[name] = calls[key] / rounds
        elif kind == "build_s":
            out[name] = total_s[key] / rounds
    for name in ("setup.sympy_import_s", "setup.mpmath_import_s",
                 "setup.cyworkbench_import_self_s"):
        out[name] = _median([r[name] for r in setup])
    jobs = [s for s in tracer.spans if s.name == workload.job_span]
    out["trace.coverage"] = (sum(s.children_s for s in jobs)
                             / sum(s.seconds for s in jobs))
    plain = job_seconds(result["plain"])
    traced = job_seconds(result["traced"])
    out["trace.overhead_ratio"] = traced / plain if plain and traced else None
    for name in LAYERS:       # a size the workload never produced
        out.setdefault(name, 0)
    return out


def environment(seed: int, cw) -> dict:
    import mpmath
    return {"python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": os.cpu_count(),
            "loadavg_at_start": os.getloadavg(),
            "platform": platform.platform(),
            "cyworkbench": cw.__version__,
            "seed": seed}


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None, sizes=FULL) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "cyworkbench" / "__init__.py").is_file():
        raise SystemExit(f"no cyworkbench sources under {src}; run from the "
                         "root of a cyworkbench checkout")
    sys.path.insert(0, str(src))
    import cyworkbench as cw
    if Path(cw.__file__).resolve().parent != (src / "cyworkbench").resolve():
        raise SystemExit(f"imported cyworkbench from {cw.__file__}, "
                         f"not from {src}")

    env = environment(args.seed, cw)
    base = root / ".perfbench_out"
    out = base / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](cw, root, out, args.seed, sizes)
    ledger = Ledger()
    try:
        workload.make_inputs()
        workload.prepare()
        result = measure(cw, workload, args.seconds, bool(args.trace), ledger)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    setup = result["setup"]

    report = end_to_end(result["plain"], setup, ledger)
    record = {"workload": args.workload, "trace": args.trace,
              "environment": env, "sizes": workload.size_record(),
              "rounds": result["rounds"],
              "measured_s": result["measured_s"],
              "samples": dict(result["plain"]),
              "end_to_end": report,
              "attempted": ledger.attempted, "failed": ledger.failed,
              "errors": ledger.errors}
    if args.trace:
        record["per_layer"] = per_layer(result, workload, setup)
        record["sizes"].update(result["tracer"].sizes)
    base.mkdir(exist_ok=True)
    path = base / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {result['rounds']}  measured {result['measured_s']:.1f} s")
    print("environment " + json.dumps(env))
    print("sizes " + json.dumps(record["sizes"]))
    counts = {k: len(v) for k, v in result["plain"].items()}
    counts["setup_s"] = len(setup)
    counts["run_s"] = sum(n for k, n in counts.items()
                          if k.startswith("run_s."))
    for name, (unit, better) in REPORT.items():
        n = counts.get(name.removesuffix("_p50").removesuffix("_p90"))
        value = report.get(name)
        note = f"n={n}" if n else ""
        if value is None:
            note = (f"withheld: fewer than 10 samples beyond it (n={n})"
                    if n else "not measured on this workload")
        print(f"  {name:26s} {_fmt(value):>12s} {unit:9s} "
              f"{better} is better  {note}")
    if args.trace:
        print(f"per-layer, per traced round ({result['traced_rounds']} "
              f"traced of {result['rounds']})")
        for name, (unit, *_rest) in LAYERS.items():
            print(f"  {name:40s} {_fmt(record['per_layer'][name]):>12s} "
                  f"{unit}")
    for err in ledger.errors[:10]:
        print(f"  FAILED {err}")
    print(f"result file {path.relative_to(root)}")

    names = list(LAYERS) if args.trace else list(GATED)
    source = record["per_layer"] if args.trace else report
    units = {n: spec[0] for n, spec in (LAYERS | REPORT).items()}
    line = {"correct": ledger.failed == 0 and ledger.attempted > 0,
            "attempted": ledger.attempted, "failed": ledger.failed,
            "metrics": {n: {"value": source[n], "unit": units[n]}
                        for n in names}}
    print(json.dumps(line))
    return line


if __name__ == "__main__":
    main()

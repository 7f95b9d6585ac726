"""Command-line front door.

    workbench run <config.json> [--out DIR] [--order N] [--precision-bits P]
    workbench report <manifest|dir>
    workbench hae-check <grid.json> [--genus G] [--tolerance T]
    workbench ehae-check <grid.json> --genus G --holes H [--tolerance T]
    workbench genus2 <grid.json> --propagator <file> [--tolerance T] [--out DIR]
    workbench hodge-report <config.json> [--samples N] [--radius-fraction F] ...

Exit codes: 0 success, 1 configuration or usage error, 2 violated
mathematical precondition, 3 numeric tolerance failure.  The output
directory is --out, else WORKBENCH_OUT, else the config's output_dir.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from mpmath import mp

from .anomaly import (AnomalyGrid, PropagatorSpec, ehae_residual,
                      genus2_integrate, hae_residual)
from .errors import ConfigError, WorkbenchError
from .kernel import RESIDUAL_TOLERANCE
from .pipeline import (WorkbenchConfig, config_hash, coupling_and_frame,
                       hodge_stage, load_manifest, report, run_pipeline,
                       solve_periods, write_json)


def _load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


def _resolve_out(args, cfg: WorkbenchConfig | None = None) -> str | None:
    """--out, then WORKBENCH_OUT, then the config's output_dir.

    A command with a config falls back to "workbench-out"; one without
    (genus2) writes nothing when no directory is named.
    """
    out = args.out or os.environ.get("WORKBENCH_OUT")
    if cfg is not None:
        out = out or cfg.output_dir or "workbench-out"
    return out


def _load_config(args) -> WorkbenchConfig:
    cfg = WorkbenchConfig.from_json(_load_json(args.config))
    names = {f.name for f in fields(WorkbenchConfig)}
    overrides = {name: value for name, value in vars(args).items()
                 if name in names and value is not None}  # 0 overrides too
    return replace(cfg, **overrides)  # replace() revalidates them


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    out = _resolve_out(args, cfg)
    entry = run_pipeline(cfg, out)
    print(f"run complete: {out} (config {entry['config_hash'][:16]})")
    for a in entry["artifacts"]:
        print(f"  {a['path']}  sha256={a['sha256'][:16]}")
    return 0


def _cmd_report(args) -> int:
    entry = load_manifest(args.manifest)
    sys.stdout.write(report(entry))
    return 0


def _cmd_residual_check(args) -> int:
    grid = AnomalyGrid.from_json(_load_json(args.grid))
    if args.command == "hae-check":
        rep = hae_residual(grid, args.genus)
        label = f"hae residual (g={args.genus})"
    else:
        rep = ehae_residual(grid, args.genus, args.holes)
        label = f"ehae residual (g={args.genus}, h={args.holes})"
    print(f"{label}: max {mp.nstr(rep.max_abs, 8)} "
          f"mean {mp.nstr(rep.mean_abs, 8)}")
    if args.tolerance is not None and not rep.max_abs <= args.tolerance:
        print(f"FAIL: above tolerance {args.tolerance}")
        return 3
    return 0


def _cmd_genus2(args) -> int:
    grid = AnomalyGrid.from_json(_load_json(args.grid))
    prop = PropagatorSpec.from_json(_load_json(args.propagator))
    f2, rep = genus2_integrate(grid, prop, tolerance=args.tolerance)
    print(f"genus-2 integration: residual max {mp.nstr(rep.max_abs, 8)} "
          f"mean {mp.nstr(rep.mean_abs, 8)}")
    out = _resolve_out(args)
    if out:
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        write_json(outdir / "genus2.json", grid.with_field("F2", f2).to_json())
        print(f"wrote {outdir / 'genus2.json'}")
    return 0


def _cmd_hodge_report(args) -> int:
    cfg = _load_config(args)
    basis, hodge_basis = solve_periods(cfg)
    _, frame = coupling_and_frame(cfg, basis)
    doc = hodge_stage(cfg, hodge_basis, frame, config_hash(cfg))
    outdir = Path(_resolve_out(args, cfg))
    outdir.mkdir(parents=True, exist_ok=True)
    write_json(outdir / "hodge.json", doc)
    ok = all(p["chern_form_positive"] for p in doc["points"])
    print(f"hodge report: {len(doc['points'])} points, signs_ok={ok} "
          f"-> {outdir / 'hodge.json'}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a ConfigError (exit 1)
        raise ConfigError(f"usage: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="workbench",
        description="Exact B-model workbench for one-parameter families")
    sub = parser.add_subparsers(dest="command", required=True)

    # a config and its overrides; each dest is a WorkbenchConfig field
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("config")
    config.add_argument("--out")
    config.add_argument("--order", type=int, dest="truncation_order")
    config.add_argument("--precision-bits", type=int)
    config.add_argument("--samples", type=int, dest="sample_count")
    config.add_argument("--radius-fraction", type=float)

    p = sub.add_parser("run", parents=[config],
                       help="run the full pipeline on a family config")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="format tables from a run manifest")
    p.add_argument("manifest")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("hae-check", help="closed-string residual on a grid")
    p.add_argument("grid")
    p.add_argument("--genus", type=int, default=2)
    p.add_argument("--tolerance", type=float)
    p.set_defaults(func=_cmd_residual_check)

    p = sub.add_parser("ehae-check", help="open-string residual on a grid")
    p.add_argument("grid")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--holes", type=int, required=True)
    p.add_argument("--tolerance", type=float)
    p.set_defaults(func=_cmd_residual_check)

    p = sub.add_parser("genus2", help="integrate genus 2 with a propagator")
    p.add_argument("grid")
    p.add_argument("--propagator", required=True)
    p.add_argument("--tolerance", type=float, default=RESIDUAL_TOLERANCE)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_genus2)

    p = sub.add_parser("hodge-report", parents=[config],
                       help="point reports on a sample disk")
    p.set_defaults(func=_cmd_hodge_report)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except WorkbenchError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

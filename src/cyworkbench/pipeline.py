"""Batch orchestration: config ingestion, pipeline stages, manifests.

``run_pipeline`` executes periods -> mirror map -> coupling ->
invariants -> Hodge report for one family and persists each stage as a
JSON artifact.  All exact artifacts are deterministic byte for byte:
keys are sorted, rationals are decimal strings, and nothing
time-dependent enters artifact files.  Every artifact carries the
sha256 hash of its canonical config so runs cannot be mixed up.

Manifests are append-only: each run appends one JSON line to
``manifest.jsonl`` in the output directory.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .anomaly import constant_map_contribution
from .errors import (ConfigError, MissingArtifact, WorkbenchError,
                     malformed_input)
from .families import family_from_json, family_to_json
from .frames import solve_symplectic_frame
from .genus0 import (CYFamilyConfig, assemble_genus0, build_mirror_map,
                     coupling_from_potential, extract_instantons, flat_yukawa,
                     genus0_export, yukawa_theta)
from .hodge import HodgeEvaluator, hodge_report_json, sample_points
from .picard_fuchs import frobenius_solve
from .series import format_rational

DEFAULT_TOLERANCES = {
    "fd_curvature": 1e-6,
    "residual": 1e-8,
}


@dataclass
class WorkbenchConfig:
    """Validated run configuration."""

    family: CYFamilyConfig
    truncation_order: int = 20
    precision_bits: int = 256
    sample_count: int = 24
    radius_fraction: float = 0.5
    hodge_order: int | None = None
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    output_dir: str | None = None

    def __post_init__(self):
        if self.truncation_order < 5:
            raise ConfigError("truncation order must be at least 5")
        if self.precision_bits < 64:
            raise ConfigError("precision must be at least 64 bits")
        if not 0 < self.radius_fraction < 1:
            raise ConfigError("radius fraction must lie in (0, 1)")
        if self.sample_count < 1:
            raise ConfigError("sample count must be positive")

    @classmethod
    def from_json(cls, obj) -> "WorkbenchConfig":
        if not isinstance(obj, dict) or "family" not in obj:
            raise ConfigError("config must be a JSON object with a 'family'")
        with malformed_input("config"):
            samples = obj.get("samples", {})
            tolerances = dict(DEFAULT_TOLERANCES)
            tolerances.update(obj.get("tolerances", {}))
            return cls(
                family=family_from_json(obj["family"]),
                truncation_order=int(obj.get("truncation_order", 20)),
                precision_bits=int(obj.get("precision_bits", 256)),
                sample_count=int(samples.get("count", 24)),
                radius_fraction=float(samples.get("radius_fraction", 0.5)),
                hodge_order=(int(obj["hodge_order"])
                             if "hodge_order" in obj else None),
                tolerances=tolerances,
                output_dir=obj.get("output_dir"),
            )

    def to_json(self) -> dict:
        doc = {
            "family": family_to_json(self.family),
            "truncation_order": self.truncation_order,
            "precision_bits": self.precision_bits,
            "samples": {"count": self.sample_count,
                        "radius_fraction": self.radius_fraction},
            "tolerances": dict(sorted(self.tolerances.items())),
        }
        if self.hodge_order is not None:
            doc["hodge_order"] = self.hodge_order
        return doc


def config_hash(config: WorkbenchConfig) -> str:
    canon = json.dumps(config.to_json(), sort_keys=True,
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_json(path: Path, doc) -> str:
    payload = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    path.write_text(payload)
    return hashlib.sha256(payload.encode()).hexdigest()


def default_hodge_order(radius_fraction: float) -> int:
    """Truncation making the series tail < 1e-20 of the leading term."""
    if radius_fraction >= 1:
        raise ConfigError("radius fraction must lie in (0, 1)")
    base = math.ceil(20 * math.log(10) / -math.log(radius_fraction))
    return max(48, base + 16)


def hodge_stage(config: WorkbenchConfig, basis, frame, chash: str) -> dict:
    """The hodge.json document: point reports on the sample disk.

    ``basis`` and ``frame`` are solved at the truncation order; the
    basis is solved again at the Hodge order when that is higher.
    """
    order = config.hodge_order or default_hodge_order(config.radius_fraction)
    hodge_basis = (basis if order <= config.truncation_order
                   else frobenius_solve(config.family.pf, order))
    evaluator = HodgeEvaluator(hodge_basis, frame,
                               prec_bits=config.precision_bits)
    points = sample_points(config.family.pf.singular_radius,
                           config.radius_fraction, config.sample_count)
    return hodge_report_json([evaluator.point(z0) for z0 in points], chash)


def run_pipeline(config: WorkbenchConfig, out_dir) -> dict:
    """Execute all stages, write artifacts, append a manifest line."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    chash = config_hash(config)
    stages = []
    artifacts = []
    current_stage = "setup"

    def stage(name):
        nonlocal current_stage
        current_stage = name
        stages.append({"name": name, "start": time.perf_counter()})

    def finish_stage():
        rec = stages[-1]
        rec["seconds"] = round(time.perf_counter() - rec.pop("start"), 6)

    try:
        stage("periods")
        basis = frobenius_solve(config.family.pf, config.truncation_order)
        periods_doc = {
            "config_hash": chash,
            "family": config.family.name,
            "order": format_rational(basis.order),
            "omegas": [w.to_json() for w in basis.omegas],
        }
        digest = _write_json(out / "periods.json", periods_doc)
        artifacts.append({"path": "periods.json", "sha256": digest})
        finish_stage()

        stage("mirror_map")
        mm = build_mirror_map(basis)
        finish_stage()

        stage("yukawa")
        coupling = yukawa_theta(config.family)
        c_ttt = flat_yukawa(coupling, basis, mm)
        frame = solve_symplectic_frame(
            basis, coupling.series(basis.order),
            config.family.triple_intersection)
        finish_stage()

        stage("instantons")
        result = extract_instantons(c_ttt, config.family, strict=True)
        potential = assemble_genus0(config.family, result.gw, c_ttt.order,
                                    instantons=result.integers)
        if coupling_from_potential(potential) != c_ttt:
            raise WorkbenchError(
                "internal consistency failure: the two coupling routes differ")
        doc = genus0_export(config.family, result, mm, c_ttt)
        doc["config_hash"] = chash
        doc["yukawa_theta"] = {"string": str(coupling),
                               **coupling.to_json()}
        digest = _write_json(out / "instantons.json", doc)
        artifacts.append({"path": "instantons.json", "sha256": digest})
        finish_stage()

        stage("hodge_report")
        digest = _write_json(out / "hodge.json",
                             hodge_stage(config, basis, frame, chash))
        artifacts.append({"path": "hodge.json", "sha256": digest})
        finish_stage()
    except WorkbenchError as exc:
        entry = {
            "tool_version": __version__,
            "config_hash": chash,
            "config": config.to_json(),
            "status": "error",
            "failed_stage": current_stage,
            "error": f"{type(exc).__name__}: {exc}",
        }
        _append_manifest(out, entry)
        raise

    entry = {
        "tool_version": __version__,
        "config_hash": chash,
        "config": config.to_json(),
        "status": "ok",
        "stages": stages,
        "artifacts": artifacts,
    }
    _append_manifest(out, entry)
    return entry


def _append_manifest(out: Path, entry: dict) -> None:
    with (out / "manifest.jsonl").open("a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def load_manifest(path) -> dict:
    """Read the last run entry from a manifest file."""
    path = Path(path)
    if path.is_dir():
        path = path / "manifest.jsonl"
    if not path.exists():
        raise MissingArtifact(f"no manifest at {path}")
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not lines:
        raise MissingArtifact(f"manifest {path} is empty")
    entry = json.loads(lines[-1])
    entry["_dir"] = str(path.parent)
    return entry


def report(manifest_entry: dict) -> str:
    """Human-readable tables for a completed run."""
    base = Path(manifest_entry.get("_dir", "."))
    if manifest_entry.get("status") != "ok":
        raise MissingArtifact(
            f"run failed at stage {manifest_entry.get('failed_stage')}: "
            f"{manifest_entry.get('error')}")
    inst_path = base / "instantons.json"
    hodge_path = base / "hodge.json"
    for p in (inst_path, hodge_path):
        if not p.exists():
            raise MissingArtifact(f"artifact {p} is missing")
    inst = json.loads(inst_path.read_text())
    hodge = json.loads(hodge_path.read_text())
    family = family_from_json(manifest_entry["config"]["family"])

    lines = []
    lines.append(f"family: {inst['family']}")
    lines.append(f"config: {manifest_entry['config_hash'][:16]}")
    lines.append("")
    lines.append("instanton numbers")
    n_table = {int(d): v for d, v in inst["n"].items()}
    if all(v == "0" for v in inst["n"].values()):
        lines.append("  no quantum corrections")
    else:
        for d in sorted(n_table):
            lines.append(f"  d={d} | n_d={n_table[d]} "
                         f"| N0_d={inst['N0'][str(d)]}")
    lines.append("")
    lines.append(f"constant-map contributions (chi = {family.euler})")
    for g in range(2, 7):
        value = constant_map_contribution(g, family.euler)
        if g == 2:
            lines.append(f"  g=2 | chi/5760 = {format_rational(value)}")
        else:
            lines.append(f"  g={g} | {format_rational(value)}")
    lines.append("")
    lines.append("hodge sign checks")
    pts = hodge["points"]
    all_pos = all(p["chern_form_positive"] for p in pts)
    min_g = min(float(p["G_wp"]) for p in pts) if pts else float("nan")
    lines.append(f"  samples: {len(pts)} | signs_ok: {all_pos} "
                 f"| min G_wp: {min_g:.6g}")
    return "\n".join(lines) + "\n"

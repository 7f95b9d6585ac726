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
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .errors import (ConfigError, MissingArtifact, WorkbenchError,
                     config_int, malformed_input)
from .frames import solve_symplectic_frame
from .genus0 import (CYFamilyConfig, assemble_genus0, build_mirror_map,
                     constant_map_contribution, coupling_from_potential,
                     extract_instantons, flat_yukawa, genus0_export,
                     yukawa_theta)
from .hodge import (FD_TOLERANCE, HodgeEvaluator, hodge_report_json,
                    sample_points)
from .kernel import MAX_PRECISION_BITS, RESIDUAL_TOLERANCE, _conj
from .picard_fuchs import PeriodBasis, frobenius_solve
from .series import format_rational

# The largest Hodge order a run may solve to; the exact solve takes ~2 s at
# order 2100, and a radius fraction of 0.999 would ask for 46045 terms.
MAX_HODGE_ORDER = 4096
# The largest truncation order N a run may ask for; the exact path grows
# like N^4.8, and a quintic run at N = 320 takes about a minute.
MAX_TRUNCATION_ORDER = 320
# The largest Hodge sample count a run may ask for; a point writes about
# 2.5 KB of hodge.json, and 512 quintic points at MAX_PRECISION_BITS take 37 s.
MAX_SAMPLE_COUNT = 512

DEFAULT_TOLERANCES = {
    "fd_curvature": FD_TOLERANCE,
    "residual": RESIDUAL_TOLERANCE,
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
        if self.precision_bits > MAX_PRECISION_BITS:
            raise ConfigError(
                f"precision {self.precision_bits} bits exceeds the cap "
                f"MAX_PRECISION_BITS = {MAX_PRECISION_BITS}")
        if not 0 < self.radius_fraction < 1:
            raise ConfigError("radius fraction must lie in (0, 1)")
        if self.sample_count < 1:
            raise ConfigError("sample count must be positive")
        if self.sample_count > MAX_SAMPLE_COUNT:
            raise ConfigError(
                f"sample count {self.sample_count} exceeds the cap "
                f"MAX_SAMPLE_COUNT = {MAX_SAMPLE_COUNT}")
        if self.hodge_order is not None and self.hodge_order < 1:
            raise ConfigError("hodge order must be at least 1")

    @classmethod
    def from_json(cls, obj) -> "WorkbenchConfig":
        if not isinstance(obj, dict) or "family" not in obj:
            raise ConfigError("config must be a JSON object with a 'family'")
        with malformed_input("config"):
            samples = obj.get("samples", {})
            tolerances = dict(DEFAULT_TOLERANCES)
            tolerances.update(obj.get("tolerances", {}))
            return cls(
                family=CYFamilyConfig.from_json(obj["family"]),
                truncation_order=config_int(obj, "truncation_order",
                                            cls.truncation_order),
                precision_bits=config_int(obj, "precision_bits",
                                          cls.precision_bits),
                sample_count=config_int(samples, "count", cls.sample_count,
                                        "config samples"),
                radius_fraction=float(samples.get("radius_fraction",
                                                  cls.radius_fraction)),
                hodge_order=(config_int(obj, "hodge_order")
                             if "hodge_order" in obj else None),
                tolerances=tolerances,
                output_dir=obj.get("output_dir"),
            )

    def to_json(self) -> dict:
        doc = {
            "family": self.family.to_json(),
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


def write_json(path: Path, doc) -> str:
    """Write an artifact (indent 1, sorted keys); its sha256."""
    payload = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    path.write_text(payload)
    return hashlib.sha256(payload.encode()).hexdigest()


def default_hodge_order(radius_fraction: float) -> int:
    """Truncation making the series tail < 1e-20 of the leading term."""
    base = math.ceil(20 * math.log(10) / -math.log(radius_fraction))
    return max(48, base + 16)


def solve_periods(config: WorkbenchConfig) -> tuple[PeriodBasis, PeriodBasis]:
    """The basis at the truncation order N and the one the Hodge stage
    reads: one prefix-stable solve to max(N, Hodge order), cut to N."""
    n = config.truncation_order
    if n > MAX_TRUNCATION_ORDER:
        raise ConfigError(f"truncation order {n} exceeds the cap "
                          f"MAX_TRUNCATION_ORDER = {MAX_TRUNCATION_ORDER}")
    hodge_order = (default_hodge_order(config.radius_fraction)
                   if config.hodge_order is None else config.hodge_order)
    if hodge_order > MAX_HODGE_ORDER:
        raise ConfigError(f"hodge order {hodge_order} exceeds the cap "
                          f"MAX_HODGE_ORDER = {MAX_HODGE_ORDER}")
    full = frobenius_solve(config.family.pf, max(n, hodge_order))
    return full.truncate(n), full


def coupling_and_frame(config: WorkbenchConfig, basis: PeriodBasis):
    """The theta-coordinate coupling Y and the symplectic frame it fixes."""
    coupling = yukawa_theta(config.family)
    frame = solve_symplectic_frame(basis, coupling.series(basis.order),
                                   config.family.triple_intersection)
    return coupling, frame


def hodge_stage(config: WorkbenchConfig, basis, frame, chash: str) -> dict:
    """The hodge.json document: point reports on the sample disk.

    ``basis`` is the Hodge-order basis of ``solve_periods``.  A sample
    whose exact conjugate came earlier takes that report's ``conjugate()``
    instead of a ``point()`` call (16 calls for the 24 shipped samples).
    """
    evaluator = HodgeEvaluator(basis, frame, prec_bits=config.precision_bits)
    points = sample_points(config.family.pf.singular_radius,
                           config.radius_fraction, config.sample_count)
    done, reports = {}, []
    for z0 in points:
        mirror = done.get(_conj(z0)._mpc_)
        reports.append(mirror.conjugate() if mirror else evaluator.point(z0))
        done[z0._mpc_] = reports[-1]
    return hodge_report_json(reports, chash)


def run_pipeline(config: WorkbenchConfig, out_dir) -> dict:
    """Execute all stages, write artifacts, append a manifest line."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    chash = config_hash(config)
    entry = {"tool_version": __version__, "config_hash": chash,
             "config": config.to_json()}
    stages = []
    artifacts = []

    @contextmanager
    def stage(name):
        stages.append({"name": name})
        start = time.perf_counter()
        yield
        stages[-1]["seconds"] = round(time.perf_counter() - start, 6)

    def artifact(path, doc):
        artifacts.append({"path": path, "sha256": write_json(out / path, doc)})

    try:
        with stage("periods"):
            basis, hodge_basis = solve_periods(config)
            artifact("periods.json", {
                "config_hash": chash,
                "family": config.family.name,
                "order": format_rational(basis.order),
                "omegas": [w.to_json() for w in basis.omegas],
            })

        with stage("mirror_map"):
            mm = build_mirror_map(basis)

        with stage("yukawa"):
            coupling, frame = coupling_and_frame(config, basis)
            c_ttt = flat_yukawa(coupling, basis, mm)

        with stage("instantons"):
            result = extract_instantons(c_ttt, config.family)
            potential = assemble_genus0(config.family, result.gw, c_ttt.order)
            if coupling_from_potential(potential) != c_ttt:
                raise WorkbenchError("internal consistency failure: "
                                     "the two coupling routes differ")
            doc = genus0_export(config.family, result, mm, c_ttt)
            doc["config_hash"] = chash
            doc["yukawa_theta"] = {"string": str(coupling),
                                   **coupling.to_json()}
            artifact("instantons.json", doc)

        with stage("hodge_report"):
            artifact("hodge.json",
                     hodge_stage(config, hodge_basis, frame, chash))
    except WorkbenchError as exc:
        _append_manifest(out, {**entry, "status": "error",
                               "failed_stage": stages[-1]["name"],
                               "error": f"{type(exc).__name__}: {exc}"})
        raise

    entry.update(status="ok", stages=stages, artifacts=artifacts)
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
    with malformed_input(f"manifest {path}"):
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
    with malformed_input(f"run record in {base}"):
        inst = json.loads(inst_path.read_text())
        hodge = json.loads(hodge_path.read_text())
        family = CYFamilyConfig.from_json(manifest_entry["config"]["family"])
        lines = [f"family: {inst['family']}",
                 f"config: {manifest_entry['config_hash'][:16]}",
                 "", "instanton numbers"]
        n_table = {int(d): v for d, v in inst["n"].items()}
        if all(v == "0" for v in inst["n"].values()):
            lines.append("  no quantum corrections")
        else:
            for d in sorted(n_table):
                lines.append(f"  d={d} | n_d={n_table[d]} "
                             f"| N0_d={inst['N0'][str(d)]}")
        lines += ["", f"constant-map contributions (chi = {family.euler})"]
        for g in range(2, 7):
            value = format_rational(constant_map_contribution(g, family.euler))
            lines.append(f"  g={g} | {'chi/5760 = ' if g == 2 else ''}{value}")
        lines += ["", "hodge sign checks"]
        pts = hodge["points"]
        all_pos = all(p["chern_form_positive"] for p in pts)
        min_g = min(float(p["G_wp"]) for p in pts) if pts else float("nan")
        lines.append(f"  samples: {len(pts)} | signs_ok: {all_pos} "
                     f"| min G_wp: {min_g:.6g}")
    return "\n".join(lines) + "\n"

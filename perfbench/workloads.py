"""The three workloads: inputs, one measured round, correctness checks.

Each workload drives cyworkbench through its public API only.  A round
is a fixed bundle of work; the runner repeats rounds until its time is
up and summarises the samples the rounds collect.  Every
operation (a pipeline call, a point, a residual, a grid read...) is
counted in ``Ledger.attempted``; one that raises or fails its check is
counted in ``Ledger.failed``.

A job's wall time goes to ``samples["run_s.<kind>"]``, one list per kind
of job (a family's pipeline call, or a grid pass), so that the runner
summarises each kind on its own.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from mpmath import mp

from grids import make_grid_texts

# Exact reference values: quintic n_1..n_3 and sextic n_1.
EXPECTED_N = {"quintic": {1: 2875, 2: 609250, 3: 317206375},
              "sextic": {1: 7884}}


class CheckFailed(Exception):
    """An output of the program did not match its expected value."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Ledger:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    @contextlib.contextmanager
    def op(self, what: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # operation boundary: count it, keep going
            self.failed += 1
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")


@dataclass(frozen=True)
class Sizes:
    """Per-workload problem sizes; ``TINY`` is the self-test scale."""

    truncation_order: int = 24      # exact-deep
    hodge_samples: int = 4          # exact-deep Hodge stage
    point_count: int = 120          # hodge-dense seeded points
    points_per_round: tuple = (13, 2)    # per precision
    precisions: tuple = (256, 2048)
    grid_n: int = 32                # anomaly-grid nodes per axis
    expected_n: dict = field(default_factory=lambda: EXPECTED_N)


FULL = Sizes()
TINY = Sizes(truncation_order=8, hodge_samples=1, point_count=4,
             points_per_round=(2, 1), precisions=(128, 256), grid_n=8)


class Workload:
    """Base: inputs under ``out``, config parsing, pipeline jobs."""

    name = ""
    job_span = "pipeline.run_pipeline"     # the span one job runs under
    config_files: tuple = ()               # configs the set-up probe parses

    def __init__(self, cw, root: Path, out: Path, seed: int,
                 sizes: Sizes = FULL):
        self.cw = cw
        self.root = root
        self.out = out
        self.seed = seed
        self.sizes = sizes
        self.digests: dict = {}
        self.tolerances = json.loads(
            (root / "configs" / "quintic.json").read_text())["tolerances"]

    def data_files(self) -> list:
        return []

    def setup_args(self) -> list:
        args = []
        for name in self.config_files:
            args += ["--config", str(self.root / "configs" / name)]
        for path in self.data_files():
            args += ["--data", str(path)]
        return args

    def load_config(self, filename: str, samples=None, **top):
        doc = json.loads((self.root / "configs" / filename).read_text())
        doc.update(top)
        doc["samples"].update(samples or {})
        return self.cw.WorkbenchConfig.from_json(doc)

    def pipeline_job(self, ledger: Ledger, cfg) -> float | None:
        """One run_pipeline call with its checks; its wall seconds."""
        family = cfg.family.name
        out = self.out / family
        seconds = None
        with ledger.op(f"run_pipeline {family}"):
            t0 = time.perf_counter()
            entry = self.cw.run_pipeline(cfg, out)
            elapsed = time.perf_counter() - t0
            inst = json.loads((out / "instantons.json").read_text())
            for d, n in self.sizes.expected_n.get(family, {}).items():
                got = inst["n"].get(str(d))
                check(got == str(n), f"{family} n_{d} = {got}, expected {n}")
            shas = {a["path"]: a["sha256"] for a in entry["artifacts"]}
            ref = self.digests.setdefault(family, shas)
            changed = sorted(k for k in ref if ref[k] != shas.get(k))
            check(shas == ref,
                  f"{family} artifacts differ between repeats: {changed}")
            seconds = elapsed
        return seconds

    def make_inputs(self) -> None:
        """Write generated input files before the set-up probe runs."""

    def prepare(self) -> None:
        """Parse configs and build fixed state before the timed rounds."""


class ExactDeep(Workload):
    """Quintic and sextic at raised N: revert, compose, frame solve."""

    name = "exact-deep"
    config_files = ("quintic.json", "sextic.json")

    def prepare(self):
        # the families are fixed, so the seed is recorded but unused
        self.configs = [
            self.load_config(f, truncation_order=self.sizes.truncation_order,
                             samples={"count": self.sizes.hodge_samples})
            for f in self.config_files]

    def round(self, ledger: Ledger, samples: dict) -> None:
        for cfg in self.configs:
            seconds = self.pipeline_job(ledger, cfg)
            if seconds is not None:
                samples[f"run_s.{cfg.family.name}"].append(seconds)

    def size_record(self):
        return {"truncation_order": self.sizes.truncation_order,
                "hodge_samples": self.sizes.hodge_samples,
                "precision_bits": self.configs[0].precision_bits}


# run_pipeline's Hodge order for radius fraction 1/2 at the commit that
# defined this benchmark; fixed so that the point workload stays the same
HODGE_ORDER = 83


class HodgeDense(Workload):
    """Shipped quintic run plus point() and fd checks at two precisions."""

    name = "hodge-dense"
    config_files = ("quintic.json",)

    def prepare(self):
        cw = self.cw
        self.config = self.load_config("quintic.json")
        fam = self.config.family
        basis = cw.frobenius_solve(fam.pf, self.config.truncation_order)
        frame = cw.solve_symplectic_frame(
            basis, cw.yukawa_theta(fam).series(basis.order),
            fam.triple_intersection)
        hodge_basis = cw.frobenius_solve(fam.pf, HODGE_ORDER)
        self.evaluators = [cw.HodgeEvaluator(hodge_basis, frame, prec_bits=p)
                           for p in self.sizes.precisions]
        self.points = self._seeded_points(fam.pf.singular_radius)
        self.cursor = 0
        self.rounds = 0

    def _seeded_points(self, radius):
        """Points with |z| <= R/2 on the slit disk, |arg z| <= 2.6."""
        rng = random.Random(self.seed)
        pts = []
        with mp.workprec(64):
            rad = mp.mpf(radius.numerator) / radius.denominator
            for _ in range(self.sizes.point_count):
                r = rad * mp.mpf(rng.randint(100, 500)) / 1000
                arg = mp.mpf(rng.randint(-2600, 2600)) / 1000
                pts.append(r * mp.expj(arg))
        return pts

    def round(self, ledger: Ledger, samples: dict) -> None:
        seconds = self.pipeline_job(ledger, self.config)
        if seconds is not None:
            samples["run_s.quintic"].append(seconds)
        for k, (ev, count) in enumerate(zip(self.evaluators,
                                             self.sizes.points_per_round)):
            key = "hodge_point_ms" if k == 0 else \
                f"hodge_point_{ev.prec_bits}_ms"
            for _ in range(count):
                z0 = self.points[self.cursor % len(self.points)]
                self.cursor += 1
                with ledger.op(f"point {ev.prec_bits} bits"):
                    t0 = time.perf_counter()
                    rep = ev.point(z0)
                    elapsed = time.perf_counter() - t0
                    check(rep.pairing_value > 0 and rep.dd_pairing < 0
                          and rep.weil_petersson > 0
                          and rep.chern_form_positive,
                          f"sign laws fail at {z0}")
                    samples[key].append(elapsed * 1000)
        # one finite-difference check per round, the precisions taking
        # turns every two rounds so traced and untraced rounds see both
        k = self.rounds // 2 % len(self.evaluators)
        ev = self.evaluators[k]
        key = "fd_check_s" if k == 0 else f"fd_check_{ev.prec_bits}_s"
        z0 = self.points[self.rounds % len(self.points)]
        tol = self.tolerances["fd_curvature"]
        with ledger.op(f"fd_curvature_check {ev.prec_bits} bits"):
            t0 = time.perf_counter()
            chk = self.cw.fd_curvature_check(ev, z0, "1e-10", tolerance=tol)
            elapsed = time.perf_counter() - t0
            check(chk.rel_error <= tol,
                  f"fd curvature off by {chk.rel_error} at {z0}")
            samples[key].append(elapsed)
        self.rounds += 1

    def size_record(self):
        return {"truncation_order": self.config.truncation_order,
                "hodge_order": HODGE_ORDER,
                "precisions": list(self.sizes.precisions),
                "hodge_samples": self.config.sample_count,
                "points": len(self.points),
                "points_per_round": list(self.sizes.points_per_round)}


class AnomalyGridWorkload(Workload):
    """Read, check, integrate and write seeded exact anomaly grids."""

    name = "anomaly-grid"
    job_span = "bench.round"
    config_files = ("quintic.json",)   # for the residual tolerance

    def data_files(self):
        return [self.grid_path, self.prop_path]

    @property
    def grid_path(self):
        return self.out / "grid.json"

    @property
    def prop_path(self):
        return self.out / "propagator.json"

    def make_inputs(self):
        n = self.sizes.grid_n
        grid_text, prop_text = make_grid_texts(self.seed, n, n)
        self.out.mkdir(parents=True, exist_ok=True)
        self.grid_path.write_text(grid_text)
        self.prop_path.write_text(prop_text)

    def round(self, ledger: Ledger, samples: dict) -> None:
        cw = self.cw
        tol = self.tolerances["residual"]
        n = self.sizes.grid_n
        t_job = time.perf_counter()
        grid = f2 = None
        with ledger.op("grid read"):
            t0 = time.perf_counter()
            grid = cw.AnomalyGrid.from_json(
                json.loads(self.grid_path.read_text()))
            prop = cw.PropagatorSpec.from_json(
                json.loads(self.prop_path.read_text()))
            read_s = time.perf_counter() - t0
            check(len(grid.z_nodes) == n and len(grid.zbar_nodes) == n,
                  "grid shape changed on read")
        if grid is None:
            return
        for label, call, key in (
                ("hae_residual g=2", lambda: cw.hae_residual(grid, 2),
                 "hae_points_per_s"),
                ("ehae_residual g=1 h=1",
                 lambda: cw.ehae_residual(grid, 1, 1), "ehae_points_per_s")):
            with ledger.op(label):
                t0 = time.perf_counter()
                rep = call()
                elapsed = time.perf_counter() - t0
                check(rep.max_abs < tol,
                      f"{label} residual {rep.max_abs} >= {tol}")
                points = rep.residual.valid_count()
                check(points > 0, f"{label} has no valid points")
                samples[key].append(points / elapsed)
        with ledger.op("genus2_integrate"):
            t0 = time.perf_counter()
            f2, rep = cw.genus2_integrate(grid, prop, tolerance=tol)
            samples["genus2_s"].append(time.perf_counter() - t0)
            check(rep.max_abs < tol,
                  f"genus-2 residual {rep.max_abs} >= {tol}")
        if f2 is None:
            return
        with ledger.op("grid write"):
            t0 = time.perf_counter()
            text = json.dumps(grid.with_field("F2", f2).to_json(),
                              indent=1, sort_keys=True) + "\n"
            (self.out / "genus2.json").write_text(text)
            samples["grid_io_s"].append(read_s + time.perf_counter() - t0)
            sha = hashlib.sha256(text.encode()).hexdigest()
            check(sha == self.digests.setdefault("genus2.json", sha),
                  "integrated grid differs between repeats")
        samples["run_s.grid"].append(time.perf_counter() - t_job)

    def size_record(self):
        return {"grid_n": self.sizes.grid_n,
                "grid_points": self.sizes.grid_n ** 2,
                "precision_bits": 256}


WORKLOADS = {cls.name: cls for cls in (ExactDeep, HodgeDense,
                                       AnomalyGridWorkload)}

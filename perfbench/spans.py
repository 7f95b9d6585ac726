"""Spans around the calls into cyworkbench's public functions.

The tracer replaces each listed function or method with a wrapper that
records a span (name, start, end, parent) in memory.  Functions bound
into other modules with ``from .x import name`` are replaced there as
well: ``pipeline.py`` calls ``build_mirror_map`` and friends through its
own namespace, so patching only the defining module would leave the
genus0, frames and picard_fuchs spans empty.  ``uninstall`` restores
every original object.

Self time of a span is its duration minus the durations of its direct
children; nested spans never overlap because the program is
single-threaded.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

# (span name, module, owner class or None, attribute)
TARGETS = (
    ("series.mul", "series", "LogSeries", "__mul__"),
    ("series.invert", "series", "LogSeries", "invert"),
    ("series.exp", "series", "LogSeries", "exp"),
    ("series.theta", "series", "LogSeries", "theta"),
    ("series.compose", "series", "LogSeries", "compose"),
    ("series.revert", "series", "LogSeries", "revert"),
    ("picard_fuchs.frobenius_solve", "picard_fuchs", None, "frobenius_solve"),
    ("genus0.build_mirror_map", "genus0", None, "build_mirror_map"),
    ("genus0.yukawa_theta", "genus0", None, "yukawa_theta"),
    ("genus0.YukawaCoupling.series", "genus0", "YukawaCoupling", "series"),
    ("genus0.flat_yukawa", "genus0", None, "flat_yukawa"),
    ("genus0.extract_instantons", "genus0", None, "extract_instantons"),
    ("genus0.assemble_genus0", "genus0", None, "assemble_genus0"),
    ("genus0.coupling_from_potential", "genus0", None,
     "coupling_from_potential"),
    ("genus0.genus0_export", "genus0", None, "genus0_export"),
    ("frames.solve_symplectic_frame", "frames", None,
     "solve_symplectic_frame"),
    ("frames.pairing_series", "frames", "SymplecticFrame", "pairing_series"),
    ("hodge.HodgeEvaluator", "hodge", "HodgeEvaluator", "__init__"),
    ("hodge.point", "hodge", "HodgeEvaluator", "point"),
    ("hodge.kahler", "hodge", "HodgeEvaluator", "kahler"),
    ("hodge.fd_curvature_check", "hodge", None, "fd_curvature_check"),
    ("hodge.sample_points", "hodge", None, "sample_points"),
    ("hodge.hodge_report_json", "hodge", None, "hodge_report_json"),
    ("anomaly.AnomalyGrid.from_json", "anomaly", "AnomalyGrid", "from_json"),
    ("anomaly.AnomalyGrid.to_json", "anomaly", "AnomalyGrid", "to_json"),
    ("anomaly.PropagatorSpec.from_json", "anomaly", "PropagatorSpec",
     "from_json"),
    ("anomaly.PropagatorSpec.verify", "anomaly", "PropagatorSpec", "verify"),
    ("anomaly.covariant_derivative", "anomaly", None, "covariant_derivative"),
    ("anomaly.hae_residual", "anomaly", None, "hae_residual"),
    ("anomaly.ehae_residual", "anomaly", None, "ehae_residual"),
    ("anomaly.genus2_integrate", "anomaly", None, "genus2_integrate"),
    ("pipeline.run_pipeline", "pipeline", None, "run_pipeline"),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    children_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.children_s


@dataclass
class Tracer:
    """In-memory span recorder.

    ``measures`` maps a span name to a function of the returned object
    that gives size measures; ``sizes`` keeps the largest value of each.
    """

    measures: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    sizes: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].children_s += span.seconds

    def _wrap(self, name, fn):
        measure = self.measures.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(index)
            if measure is not None:
                for key, value in measure(out).items():
                    self.sizes[key] = max(value, self.sizes.get(key, value))
            return out

        return wrapper

    def install(self, package) -> None:
        """Wrap every target; rebind module-level names wherever bound."""
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__
                   or key.startswith(package.__name__ + ".")]
        for name, modname, owner, attr in TARGETS:
            module = sys.modules[f"{package.__name__}.{modname}"]
            if owner is None:
                original = getattr(module, attr)
                wrapped = self._wrap(name, original)
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
                continue
            cls = getattr(module, owner)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            self._saved.append((cls, attr, original))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved.clear()

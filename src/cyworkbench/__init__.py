"""Exact-arithmetic B-model workbench for one-parameter families.

Frobenius periods at a maximal unipotent monodromy point, the mirror
map, the genus-zero coupling and integer instanton numbers, numeric
Hodge and Weil-Petersson geometry on the moduli disk, constant-map
contributions, and residual verification of the holomorphic anomaly
recursion (closed and open-string extended).
"""

__version__ = "0.1.0"

from .anomaly import (AnomalyGrid, GridField, PropagatorSpec, ResidualReport,
                      covariant_derivative, ehae_residual, genus2_integrate,
                      hae_residual)
from .errors import WorkbenchError
from .frames import SymplecticFrame, solve_symplectic_frame
from .genus0 import (CYFamilyConfig, InstantonResult, MirrorMap,
                     YukawaCoupling, assemble_genus0, bernoulli,
                     build_mirror_map, constant_map_contribution,
                     coupling_from_potential, extract_instantons, flat_yukawa,
                     genus0_export, yukawa_theta)
from .hodge import (HodgeEvaluator, HodgePointReport, fd_curvature_check,
                    hodge_report_json, sample_points)
from .picard_fuchs import PeriodBasis, PFOperator, frobenius_solve
from .pipeline import (WorkbenchConfig, config_hash, load_manifest, report,
                       run_pipeline)
from .series import LogSeries, format_rational, parse_rational

__all__ = [
    "AnomalyGrid", "CYFamilyConfig",
    "GridField", "HodgeEvaluator", "HodgePointReport", "InstantonResult",
    "LogSeries", "MirrorMap", "PFOperator", "PeriodBasis",
    "PropagatorSpec", "ResidualReport", "SymplecticFrame",
    "WorkbenchConfig", "WorkbenchError", "YukawaCoupling",
    "assemble_genus0", "bernoulli", "build_mirror_map", "config_hash",
    "constant_map_contribution", "coupling_from_potential",
    "covariant_derivative", "ehae_residual", "extract_instantons",
    "fd_curvature_check", "flat_yukawa", "frobenius_solve",
    "genus0_export", "genus2_integrate", "hae_residual",
    "hodge_report_json",
    "load_manifest", "parse_rational", "format_rational", "report",
    "run_pipeline", "sample_points", "solve_symplectic_frame",
    "yukawa_theta",
]

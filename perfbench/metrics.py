"""Metric names, units and the layer -> end-to-end -> workload map.

``GATED`` are the end-to-end metrics every workload emits on its last
output line with tracing off; ``BENCHMARK.json`` lists them with their
regression bounds.  ``REPORT`` holds every end-to-end metric the report
prints; the ones that belong to a single workload are reported there
and in the result file only, because a gated metric must be measured on
every workload.  ``LAYERS`` are the per-layer metrics of a traced run.
"""

GATED = ("run_s", "setup_s", "peak_rss_mb")

REPORT = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "run_s_p50": ("s", "lower"),
    "run_s_min": ("s", "lower"),
    "hodge_point_ms_p50": ("ms", "lower"),
    "hodge_point_ms_p90": ("ms", "lower"),
    "hodge_point_2048_ms_p50": ("ms", "lower"),
    "hodge_point_2048_ms_p90": ("ms", "lower"),
    "fd_check_s": ("s", "lower"),
    "fd_check_2048_s": ("s", "lower"),
    "hae_points_per_s": ("points/s", "higher"),
    "ehae_points_per_s": ("points/s", "higher"),
    "genus2_s": ("s", "lower"),
    "grid_io_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "fail_ratio": ("ratio", "lower"),
}

# name -> (unit, better, end-to-end metric it should move, workloads)
LAYERS = {
    "series.revert.self_s": ("s", "lower", "run_s", "exact-deep"),
    "series.compose.self_s": ("s", "lower", "run_s", "exact-deep"),
    "series.compose.calls": ("count", "lower", "run_s", "exact-deep"),
    "series.mul.calls": ("count", "lower", "run_s", "exact-deep"),
    "series.mul.self_s": ("s", "lower", "run_s", "exact-deep"),
    "series.invert.self_s": ("s", "lower", "run_s", "exact-deep"),
    "series.exp.self_s": ("s", "lower", "run_s", "exact-deep"),
    "series.theta.self_s": ("s", "lower", "run_s", "hodge-dense"),
    "series.self_s": ("s", "lower", "run_s", "exact-deep"),
    "series.revert.order": ("count", "higher", "run_s", "exact-deep"),
    "series.coeff_bits_max": ("bits", "lower", "run_s", "exact-deep"),
    "picard_fuchs.frobenius_solve.self_s": (
        "s", "lower", "run_s", "exact-deep hodge-dense"),
    "picard_fuchs.frobenius_solve.calls": (
        "count", "lower", "run_s", "exact-deep hodge-dense"),
    "picard_fuchs.coeff_bits_max": (
        "bits", "lower", "run_s", "exact-deep hodge-dense"),
    "genus0.build_mirror_map.self_s": ("s", "lower", "run_s", "exact-deep"),
    "genus0.flat_yukawa.self_s": ("s", "lower", "run_s", "exact-deep"),
    "genus0.extract_instantons.self_s": ("s", "lower", "run_s", "exact-deep"),
    "genus0.coupling_from_potential.self_s": (
        "s", "lower", "run_s", "exact-deep"),
    "genus0.yukawa_theta.self_s": (
        "s", "lower", "run_s", "exact-deep hodge-dense"),
    "genus0.self_s": ("s", "lower", "run_s", "exact-deep"),
    "frames.solve_symplectic_frame.self_s": (
        "s", "lower", "run_s", "exact-deep hodge-dense"),
    "frames.pairing_series.calls": (
        "count", "lower", "run_s", "exact-deep hodge-dense"),
    "frames.pairing_series.self_s": (
        "s", "lower", "run_s", "exact-deep hodge-dense"),
    "frames.self_s": ("s", "lower", "run_s", "exact-deep"),
    "hodge.HodgeEvaluator.build_s": ("s", "lower", "run_s", "hodge-dense"),
    "hodge.point.self_s": ("s", "lower", "hodge_point_ms_p50", "hodge-dense"),
    "hodge.point.calls": ("count", "lower", "hodge_point_ms_p50",
                          "hodge-dense"),
    "hodge.kahler.self_s": ("s", "lower", "fd_check_s", "hodge-dense"),
    "hodge.kahler.calls": ("count", "lower", "fd_check_s", "hodge-dense"),
    "hodge.hodge_report_json.self_s": ("s", "lower", "run_s", "hodge-dense"),
    "hodge.self_s": ("s", "lower", "run_s", "hodge-dense"),
    "anomaly.hae_residual.self_s": (
        "s", "lower", "hae_points_per_s", "anomaly-grid"),
    "anomaly.ehae_residual.self_s": (
        "s", "lower", "ehae_points_per_s", "anomaly-grid"),
    "anomaly.genus2_integrate.self_s": ("s", "lower", "genus2_s",
                                        "anomaly-grid"),
    "anomaly.covariant_derivative.calls": (
        "count", "lower", "hae_points_per_s ehae_points_per_s genus2_s",
        "anomaly-grid"),
    "anomaly.covariant_derivative.self_s": (
        "s", "lower", "hae_points_per_s ehae_points_per_s genus2_s",
        "anomaly-grid"),
    "anomaly.AnomalyGrid.from_json.self_s": ("s", "lower", "grid_io_s",
                                             "anomaly-grid"),
    "anomaly.AnomalyGrid.to_json.self_s": ("s", "lower", "grid_io_s",
                                           "anomaly-grid"),
    "anomaly.grid_points": ("count", "higher", "run_s", "anomaly-grid"),
    "anomaly.self_s": ("s", "lower", "run_s", "anomaly-grid"),
    "pipeline.run_pipeline.self_s": (
        "s", "lower", "run_s", "exact-deep hodge-dense"),
    "setup.sympy_import_s": ("s", "lower", "setup_s", "all"),
    "setup.mpmath_import_s": ("s", "lower", "setup_s", "all"),
    "setup.cyworkbench_import_self_s": ("s", "lower", "setup_s", "all"),
    "trace.overhead_ratio": ("ratio", "lower", "none", "all"),
    "trace.coverage": ("ratio", "higher", "none", "all"),
}

MODULES = ("series", "picard_fuchs", "genus0", "frames", "hodge", "anomaly",
           "pipeline")

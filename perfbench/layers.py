"""Where the benchmark hooks the package, and the per-layer metrics.

Each hook names the attribute the package itself looks the callable up
at: the estimator imported ``kde_binned`` and ``mean_entry`` by name, the
simulation harness imported ``op_norm``, ``denoise`` and friends, and the
pipeline calls ``np.linalg.svd`` through the numpy module.  The ``theory``
module is scalar closed-form code and is left unmeasured on purpose.
"""

from __future__ import annotations

import os

from spans import Hook


def _svd_with_vectors(args, kwargs) -> bool:
    if "compute_uv" in kwargs:
        return bool(kwargs["compute_uv"])
    return bool(args[2]) if len(args) > 2 else True


def _svd_layer(args, kwargs) -> str:
    return "linalg.svd" if _svd_with_vectors(args, kwargs) else "linalg.svd_values"


def _svd_gflop(args, kwargs, result) -> dict:
    """Computed, not measured: Golub & Van Loan's R-SVD operation counts
    for a p x q matrix with p >= q (6 p q^2 + 20 q^3 with thin U and V,
    2 p q^2 + 2 q^3 for the values alone)."""
    shape = getattr(args[0], "shape", ())
    if len(shape) != 2:
        return {}
    p, q = max(shape), min(shape)
    if _svd_with_vectors(args, kwargs):
        flop = 6.0 * p * q * q + 20.0 * q ** 3
    else:
        flop = 2.0 * p * q * q + 2.0 * q ** 3
    return {"gflop": flop / 1e9}


def _eval_points(args, kwargs, result) -> dict:
    x = args[1] if len(args) > 1 else kwargs.get("x")
    return {"points": int(getattr(x, "size", 1))}


def _grid_resolution(args, kwargs, result) -> dict:
    grid = getattr(result, "grid", None)
    if grid is None or len(grid) < 2:
        return {}
    return {"min_h_over_spacing": float(result.h / (grid[1] - grid[0]))}


def _bytes_written(args, kwargs, result) -> dict:
    path = args[1] if len(args) > 1 else kwargs.get("path")
    try:
        return {"bytes": os.path.getsize(path)}
    except (OSError, TypeError):
        return {}


HOOKS = (
    Hook("adadenoise.estimator", "mean_entry", "kde.center"),
    Hook("adadenoise.estimator", "kde_binned", "kde.build",
         measure=_grid_resolution),
    Hook("adadenoise.kde", "DensityEstimate.evaluate", "kde.eval",
         measure=_eval_points),
    Hook("numpy.linalg", "svd", _svd_layer, measure=_svd_gflop),
    Hook("adadenoise.estimator", "shrink_adaptive", "shrinkage.shrink"),
    Hook("adadenoise.estimator", "shrink_known_sd", "shrinkage.shrink"),
    Hook("adadenoise.sim", "run_trial", "sim.trial", new_call=True),
    Hook("adadenoise.sim", "make_signal", "sim.make_signal"),
    Hook("adadenoise.noise", "GaussianMixture.sample", "noise.sample"),
    Hook("adadenoise.sim", "denoise", "estimator.denoise"),
    Hook("adadenoise.sim", "baseline_estimate", "estimator.baseline"),
    Hook("adadenoise.sim", "op_norm", "linalg.op_norm"),
    Hook("adadenoise.sim", "subspace_overlap", "linalg.overlap"),
    Hook("adadenoise.sim", "write_records_csv", "sim.csv_write"),
    Hook("adadenoise.cli", "denoise", "estimator.denoise"),
    Hook("adadenoise.cli", "read_matrix_csv", "linalg.csv_read"),
    Hook("adadenoise.cli", "write_matrix_csv", "linalg.csv_write",
         measure=_bytes_written),
)

# (metric, unit, better, span name, field).  "self_s" becomes self time in
# ms per workload call; counts are per workload call; min_* stay as is.
# A layer a workload never reaches, or whose hook is absent, reads 0.
PER_LAYER = (
    ("kde.eval_ms", "ms", "lower", "kde.eval", "self_s"),
    ("kde.eval_points", "count", "lower", "kde.eval", "points"),
    ("kde.build_ms", "ms", "lower", "kde.build", "self_s"),
    ("kde.build_count", "count", "lower", "kde.build", "spans"),
    ("kde.h_over_spacing", "ratio", "higher", "kde.build", "min_h_over_spacing"),
    ("kde.center_ms", "ms", "lower", "kde.center", "self_s"),
    ("linalg.svd_ms", "ms", "lower", "linalg.svd", "self_s"),
    ("linalg.svd_count", "count", "lower", "linalg.svd", "spans"),
    ("linalg.svd_gflop", "GFLOP", "lower", "linalg.svd", "gflop"),
    ("linalg.svd_values_ms", "ms", "lower", "linalg.svd_values", "self_s"),
    ("linalg.svd_values_count", "count", "lower", "linalg.svd_values", "spans"),
    ("linalg.op_norm_ms", "ms", "lower", "linalg.op_norm", "self_s"),
    ("linalg.overlap_ms", "ms", "lower", "linalg.overlap", "self_s"),
    ("estimator.denoise_self_ms", "ms", "lower", "estimator.denoise", "self_s"),
    ("estimator.baseline_self_ms", "ms", "lower", "estimator.baseline", "self_s"),
    ("shrinkage.shrink_ms", "ms", "lower", "shrinkage.shrink", "self_s"),
    ("noise.sample_ms", "ms", "lower", "noise.sample", "self_s"),
    ("sim.make_signal_ms", "ms", "lower", "sim.make_signal", "self_s"),
    ("sim.trial_self_ms", "ms", "lower", "sim.trial", "self_s"),
    ("sim.csv_write_ms", "ms", "lower", "sim.csv_write", "self_s"),
    ("linalg.csv_read_ms", "ms", "lower", "linalg.csv_read", "self_s"),
    ("linalg.csv_write_ms", "ms", "lower", "linalg.csv_write", "self_s"),
    ("linalg.csv_bytes", "bytes", "lower", "linalg.csv_write", "bytes"),
    ("cli.self_ms", "ms", "lower", "cli.main", "self_s"),
)

# Filled from the two phases of a traced run rather than from one span.
TRACE_METRICS = (
    ("trace.call_ms", "ms", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)


def per_layer_metrics(totals: dict, calls: int) -> dict[str, float]:
    """Per-layer values for one traced phase of `calls` workload calls."""
    out = {}
    for name, _unit, _better, span, key in PER_LAYER:
        value = totals.get(span, {}).get(key, 0.0)
        if key == "self_s":
            value = 1e3 * value / calls
        elif not key.startswith("min_"):
            value = value / calls
        out[name] = float(value)
    return out

"""What the traced run wraps, what it counts, and the per-layer metrics.

Each traced function is named ``<module>.<function>`` (``scan`` for the
private ``_scan`` module, as a metric name starts with a letter); the metrics are
its calls, total seconds and self seconds per op.  Counts and ratios
come from hooks that look at a traced call's arguments and result.  A
function the package no longer has is skipped and reads as 0 calls.
"""

from __future__ import annotations

import importlib

import numpy as np

from tracer import Tracer, modules_under
from workloads import EPSILON

# (metric prefix, module, attribute, class holding the method or None)
LAYERS = (
    ("fibration.local_triviality_check", "perplex.fibration", "local_triviality_check", None),
    ("fibration.critical_values", "perplex.fibration", "critical_values", None),
    ("fibration.fiber_solve", "perplex.fibration", "fiber_solve", None),
    ("fibration.fiber_cloud", "perplex.fibration", "fiber_cloud", None),
    ("scan.trace_zero_curve", "perplex._scan", "trace_zero_curve", None),
    ("scan.zero_points_on_grid", "perplex._scan", "zero_points_on_grid", None),
    ("scipy.least_squares", "scipy.optimize", "least_squares", None),
    ("scipy.minimize", "scipy.optimize", "minimize", None),
    ("realpoly.eval_many", "perplex.realpoly", "eval_many", "RealPoly"),
    ("multivar.to_polymap", "perplex.multivar", "to_polymap", "PerplexPolyN"),
    ("multivar.loja_scan", "perplex.multivar", "loja_scan", None),
    ("structure.classify", "perplex.structure", "classify", None),
    ("algebra.validate_params", "perplex.algebra", "validate_params", None),
    ("algebra.mul", "perplex.algebra", "mul", "PerplexAlgebra"),
    ("approximation.fit_linear", "perplex.approximation", "fit_linear", None),
    ("approximation.quad_T_matrix", "perplex.approximation", "quad_T_matrix", None),
    ("calculus.gcr_residual", "perplex.calculus", "gcr_residual", None),
    ("calculus.derivative_polymap", "perplex.calculus", "derivative_polymap", None),
)
# exact counts, reported per op
COUNTS = (
    "fibration.components",
    "fibration.probes",
    "fibration.halvings",
    "fibration.discriminant_samples",
    "fibration.fiber_solve.roots",
    "scan.trace_zero_curve.points",
)
# (metric, numerator, denominator) over the whole traced run
RATIOS = (
    ("scan.trace_ratio", "scan.trace_zero_curve.calls", "scan.grid_seeds"),
    ("fibration.nullvec.hit_ratio", "fibration.nullvec.hits", "scipy.least_squares.calls"),
    ("fibration.fiber_cloud.kept_ratio", "fibration.fiber_cloud.kept", "fibration.fiber_cloud.seeds"),
    ("multivar.loja_scan.usable_ratio", "multivar.loja_scan.usable", "multivar.loja_scan.samples"),
    ("realpoly.eval_many.rows_per_call", "realpoly.eval_many.rows", "realpoly.eval_many.calls"),
)
# fibration._critical_values_nullvec keeps a least-squares solve whose
# residual is at most this and whose point (all but the two null-vector
# entries) lies in the source ball, of radius workloads.EPSILON here
NULLVEC_RESIDUAL = 1e-8


def _on_check(counts, args, kwargs, report):
    counts["fibration.components"] += len(report.components)
    counts["fibration.probes"] += sum(len(c.counts) for c in report.components)
    counts["fibration.halvings"] += report.halvings


def _on_cloud(counts, args, kwargs, cloud):
    counts["fibration.fiber_cloud.kept"] += len(cloud.points)
    counts["fibration.fiber_cloud.seeds"] += kwargs["cloud_size"]  # the workload passes it


def _on_least_squares(counts, args, kwargs, sol):
    if np.abs(sol.fun).max() <= NULLVEC_RESIDUAL and np.linalg.norm(sol.x[:-2]) <= EPSILON:
        counts["fibration.nullvec.hits"] += 1


def _on_loja(counts, args, kwargs, fit):
    counts["multivar.loja_scan.usable"] += fit.sample_count
    counts["multivar.loja_scan.samples"] += args[4] if len(args) > 4 else kwargs["samples"]


def _adder(key: str, size=len):
    def hook(counts, args, kwargs, result):
        counts[key] += size(result)

    return hook


HOOKS = {
    "fibration.local_triviality_check": _on_check,
    "fibration.critical_values": _adder("fibration.discriminant_samples"),
    "fibration.fiber_solve": _adder("fibration.fiber_solve.roots"),
    "fibration.fiber_cloud": _on_cloud,
    "scan.trace_zero_curve": _adder("scan.trace_zero_curve.points"),
    "scan.zero_points_on_grid": _adder("scan.grid_seeds", lambda r: len(r[0])),
    "scipy.least_squares": _on_least_squares,
    "realpoly.eval_many": _adder("realpoly.eval_many.rows"),
    "multivar.loja_scan": _on_loja,
}


def install(tracer: Tracer) -> None:
    holders = modules_under("perplex")
    for name, module, attr, cls in LAYERS:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            continue
        if cls:
            owner = getattr(mod, cls, None)
            if owner is not None and attr in vars(owner):
                tracer.patch_method(owner, attr, name, HOOKS.get(name))
        elif hasattr(mod, attr):
            tracer.patch_function(getattr(mod, attr), name, holders + [mod], HOOKS.get(name))


def metric_names() -> list[tuple[str, str]]:
    out = []
    for name, *_ in LAYERS:
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s"), (f"{name}.self_s", "s")]
    out += [(name, "count") for name in COUNTS]
    out += [(name, "ratio") for name, _, _ in RATIOS]
    return out


def metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-op calls, seconds and counts, and run-wide ratios."""
    summary = tracer.summary()
    totals = dict(tracer.counts)
    out: dict[str, float] = {}
    for name, *_ in LAYERS:
        calls, total, own = summary.get(name, (0, 0.0, 0.0))
        totals[f"{name}.calls"] = calls
        out[f"{name}.calls"] = calls / ops
        out[f"{name}.s"] = total / ops
        out[f"{name}.self_s"] = own / ops
    for name in COUNTS:
        out[name] = totals.get(name, 0.0) / ops
    for name, num, den in RATIOS:
        out[name] = totals.get(num, 0.0) / totals[den] if totals.get(den) else 0.0
    return out

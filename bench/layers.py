"""Which ``pfa`` functions the benchmark times, and the per-layer metrics.

Every patch targets the namespace the caller resolves the name in, so a
function imported into several modules is patched once per calling
module (``rasterize`` is reached through ``pfa.raster``, ``pfa.exemplars``
and ``pfa.flow``). Counts and times are reported per unit of work (one
refine trial, or one generated exemplar) over the first traced pass;
the layers that build inputs are reported per set-up where the timed loop
does not run them.
"""

from __future__ import annotations

import os

import pfa.exemplars
import pfa.flow
import pfa.pipeline
import pfa.pnp
import pfa.raster
import pfa.refine
from pfa.errors import SolverError

from tracer import Patch

TRIAL_SPAN = "bench.trial"
FLOW_FOR = "flow.flow_for"
RASTER_SPANS = ("raster.rasterize", "flow.rerasterize")


def _count_valid(tracer, name, args, kwargs, field):
    tracer.count("flow.valid_px", int(field.valid.sum()))


def _count_raster(tracer, name, args, kwargs, cmap):
    tracer.count("raster.triangles", len(args[0].triangles))
    tracer.count("raster.px_covered", int(cmap.mask.sum()))


def _count_lift(tracer, name, args, kwargs, corr):
    tracer.count("correspond.lift.in", int(args[1].valid.sum()))
    tracer.count("correspond.lift.out", len(corr))


def _count_subsample(tracer, name, args, kwargs, kept):
    tracer.count("correspond.subsample.in", sum(len(s) for s in args[0]))
    tracer.count("correspond.subsample.out", sum(len(s) for s in kept))


def _count_consensus(tracer, name, args, kwargs, estimate):
    tracer.count("refine.ransac.inliers", estimate.inlier_count)
    tracer.count("refine.ransac.correspondences", len(args[0]))


def _count_degenerate(tracer, name, args, kwargs, degenerate):
    if degenerate:
        tracer.count("refine.ransac.degenerate")


def _count_solved(tracer, name, args, kwargs, pose):
    if name == "refine.ransac.hypotheses":
        tracer.count("refine.ransac.solved")


def _count_solver_failure(tracer, name, exc):
    if name == "refine.ransac.hypotheses" and isinstance(exc, SolverError):
        tracer.count("refine.ransac.solver_failures")


def _count_gn(tracer, name, args, kwargs, result):
    tracer.count("pnp.gauss_newton.iterations", len(result[1]) - 1)


def _count_saved(tracer, name, args, kwargs, result):
    tracer.count("exemplars.save_set.bytes", os.path.getsize(args[1]))
    tracer.count("exemplars.save_set.exemplars", len(args[0]))


def _pnp_stage(args, kwargs):
    # ransac_pnp solves minimal 4-point samples, then refits on consensus sets
    points = args[0] if args else kwargs["points"]
    return "refine.ransac.hypotheses" if len(points) == 4 else "refine.ransac.refit"


def flow_timer_patches() -> list:
    """The one timer the untraced run keeps: time spent producing flow."""
    return [
        Patch(pfa.flow.OracleFlowSource, "flow_for", FLOW_FOR),
        Patch(pfa.pipeline.DirectoryFlowSource, "flow_for", FLOW_FOR),
    ]


def layer_patches() -> list:
    """Every call boundary the traced run records."""
    return [
        Patch(pfa.flow.OracleFlowSource, "flow_for", FLOW_FOR, _count_valid),
        Patch(pfa.pipeline.DirectoryFlowSource, "flow_for", FLOW_FOR, _count_valid),
        Patch(pfa.flow, "oracle_flow", "flow.oracle_flow"),
        Patch(pfa.flow, "scene_depth_map", "flow.scene_depth_map"),
        Patch(pfa.flow, "rasterize", "flow.rerasterize", _count_raster),
        Patch(pfa.flow, "degrade_flow", "flow.degrade_flow"),
        Patch(pfa.pipeline, "load_flow", "flow.load_flow"),
        Patch(pfa.exemplars.Exemplar, "coordinate_map", "exemplars.coordinate_map"),
        Patch(pfa.refine, "query_nearest", "exemplars.query_nearest"),
        Patch(pfa.refine, "compute_crop", "crops.compute_crop"),
        Patch(pfa.refine, "lift_correspondences", "correspond.lift", _count_lift),
        Patch(pfa.refine, "subsample_per_exemplar", "correspond.subsample", _count_subsample),
        Patch(pfa.refine, "aggregate", "correspond.aggregate"),
        Patch(pfa.refine, "ransac_pnp", "refine.ransac_pnp", _count_consensus),
        Patch(pfa.refine, "is_degenerate_sample", "refine.ransac.sample_check",
              _count_degenerate),
        Patch(pfa.refine, "solve_pnp", _pnp_stage, _count_solved, _count_solver_failure),
        Patch(pfa.refine, "reprojection_residuals", "refine.ransac.score"),
        Patch(pfa.pnp, "gauss_newton", "pnp.gauss_newton", _count_gn),
        Patch(pfa.raster, "rasterize", "raster.rasterize", _count_raster),
        Patch(pfa.exemplars, "rasterize", "raster.rasterize", _count_raster),
        Patch(pfa.exemplars, "save_set", "exemplars.save_set", _count_saved),
        Patch(pfa.exemplars, "load_set", "exemplars.load_set"),
        Patch(pfa.pipeline, "synth_scene_manifest", "pipeline.synth_scene_manifest"),
        Patch(pfa.pipeline, "pose_error_report", "metrics.pose_error_report"),
    ]


# (metric, span) pairs reported as inclusive ms per unit of work
_SPAN_MS = [
    ("flow.flow_for.ms", FLOW_FOR),
    ("flow.oracle_flow.ms", "flow.oracle_flow"),
    ("flow.scene_depth_map.ms", "flow.scene_depth_map"),
    ("flow.rerasterize.ms", "flow.rerasterize"),
    ("flow.degrade_flow.ms", "flow.degrade_flow"),
    ("flow.load_flow.ms", "flow.load_flow"),
    ("exemplars.coordinate_map.ms", "exemplars.coordinate_map"),
    ("exemplars.query_nearest.ms", "exemplars.query_nearest"),
    ("crops.compute_crop.ms", "crops.compute_crop"),
    ("correspond.lift.ms", "correspond.lift"),
    ("correspond.aggregate.ms", "correspond.aggregate"),
    ("refine.ransac_pnp.ms", "refine.ransac_pnp"),
    ("refine.ransac.hypotheses.ms", "refine.ransac.hypotheses"),
    ("refine.ransac.score.ms", "refine.ransac.score"),
    ("refine.ransac.refit.ms", "refine.ransac.refit"),
    ("exemplars.save_set.ms", "exemplars.save_set"),
    ("exemplars.load_set.ms", "exemplars.load_set"),
    ("pipeline.synth_scene_manifest.ms", "pipeline.synth_scene_manifest"),
    ("metrics.pose_error_report.ms", "metrics.pose_error_report"),
    ("bench.trial.ms", TRIAL_SPAN),
]

# spans with children, whose own share is reported as well
_SPAN_SELF_MS = [
    ("flow.flow_for.self_ms", FLOW_FOR),
    ("flow.oracle_flow.self_ms", "flow.oracle_flow"),
    ("correspond.lift.self_ms", "correspond.lift"),
    ("refine.ransac_pnp.self_ms", "refine.ransac_pnp"),
    ("bench.trial.self_ms", TRIAL_SPAN),
]

_SPAN_CALLS = [
    ("flow.rerasterize.calls", "flow.rerasterize"),
    ("exemplars.coordinate_map.calls", "exemplars.coordinate_map"),
    ("refine.ransac.iterations", "refine.ransac.sample_check"),
    ("refine.ransac.hypotheses.calls", "refine.ransac.hypotheses"),
    ("refine.ransac.refit_rounds", "refine.ransac.refit"),
    ("pnp.gauss_newton.calls", "pnp.gauss_newton"),
]

_COUNTS = [
    "flow.valid_px",
    "refine.ransac.degenerate",
    "refine.ransac.solver_failures",
    "pnp.gauss_newton.iterations",
    "raster.triangles",
    "raster.px_covered",
]

OVERHEAD = "bench.trace_overhead_ratio"

# layers that build inputs; reported per set-up unless the timed loop runs them
SETUP_SPANS = ("exemplars.save_set", "exemplars.load_set", "pipeline.synth_scene_manifest")
SETUP_COUNTS = ("exemplars.save_set.bytes", "exemplars.save_set.exemplars")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, loop_units, setup_units) -> dict:
    """Per-layer figures from one traced set-up and one traced pass.

    Loop layers are divided by the pass's unit count. The input-building
    layers fall back to the set-up figures, divided by the set-up count,
    when the timed loop does not run them. Ratios are formed from totals,
    so they weight every call equally.
    """
    loop = tracer.totals(loop_units)
    setup = tracer.totals(setup_units)
    n_loop = max(len(loop_units), 1)
    n_setup = max(len(setup_units), 1)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name):
        if name in loop or name not in SETUP_SPANS:
            return loop.get(name, empty), n_loop
        return setup.get(name, empty), n_setup

    def counted(name):
        total = tracer.counter_total(name, loop_units)
        if total or name not in SETUP_COUNTS:
            return total
        return tracer.counter_total(name, setup_units)

    out = {}
    for metric, name in _SPAN_MS:
        entry, n = span(name)
        out[metric] = 1000.0 * entry["total_s"] / n
    for metric, name in _SPAN_SELF_MS:
        entry, n = span(name)
        out[metric] = 1000.0 * entry["self_s"] / n
    for metric, name in _SPAN_CALLS:
        entry, n = span(name)
        out[metric] = entry["calls"] / n
    for name in _COUNTS:
        out[name] = counted(name) / n_loop

    raster = [span(name)[0] for name in RASTER_SPANS]
    raster_s = sum(entry["total_s"] for entry in raster) / n_loop
    out["raster.rasterize.calls"] = sum(entry["calls"] for entry in raster) / n_loop
    out["raster.rasterize.ms"] = 1000.0 * raster_s
    out["raster.us_per_triangle"] = _ratio(1e6 * raster_s, out["raster.triangles"])

    out["correspond.lift.keep_ratio"] = _ratio(
        counted("correspond.lift.out"), counted("correspond.lift.in"))
    out["correspond.subsample.keep_ratio"] = _ratio(
        counted("correspond.subsample.out"), counted("correspond.subsample.in"))
    out["refine.ransac.useful_ratio"] = _ratio(
        counted("refine.ransac.solved"), span("refine.ransac.sample_check")[0]["calls"])
    out["refine.ransac.inlier_ratio"] = _ratio(
        counted("refine.ransac.inliers"), counted("refine.ransac.correspondences"))
    out["exemplars.save_set.bytes_per_exemplar"] = _ratio(
        counted("exemplars.save_set.bytes"), counted("exemplars.save_set.exemplars"))
    return out

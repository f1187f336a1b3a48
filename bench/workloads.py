"""The benchmark's workloads: inputs, the timed loop, and output checks.

BENCHMARK.json lists the standing ones; gen-icosphere runs on demand
(``--workload gen-icosphere``) for work on the rasterizer.

One process, one closed-loop client: units of work (refine trials, or
generated exemplars) run back to back, as ``pfa refine`` runs trials. Each
workload has a fixed list of units built from the seed. The loop runs
them in order, pass after pass, until the requested time has passed; the
first pass always completes, so accuracy figures and per-unit counts
depend only on the seed. Repeated passes double as a determinism check.

Calls into ``pfa`` that the tracer must see go through module attributes
(``exemplars.save_set``, ``pipeline.synth_scene_manifest``), because a
name imported into this module would keep pointing at the original.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from pfa import exemplars, pipeline
from pfa.crops import DEFAULT_CROP_SIZE, compute_crop
from pfa.flow import FlowNoiseSpec, OracleFlowSource, save_flow
from pfa.mesh import MeshModel, load_mesh, make_box, save_obj

import layers
from tracer import Tracer

# Scenes (poses, occluders, initial jitter) are frozen, like a test split;
# the run's seed draws everything stochastic on top of them: flow noise,
# RANSAC samples and exemplar rotations. Accuracy then varies across seeds
# by the noise, not by which scenes happened to be drawn.
SCENE_SEED = 2203

BOX_EXTENTS = (0.10, 0.08, 0.06)
BOX_SET_SEED = 21
BOX_Z_BAR = 1.0
N_EXEMPLARS = 4

ICO_RADIUS = 0.05
ICO_Z_BAR = 0.6


@dataclass
class Sizes:
    """How much work one run does; the benchmark's tests shrink these."""

    occluded_trials: int = 80
    occluded_rerun_checks: int = 8
    flowfile_trials: int = 32
    flowfile_oracle_checks: int = 4
    gen_exemplars: int = 24
    gen_refine_checks: int = 3
    setup_repeats: int = 3
    box_set_count: int = 512
    ico_subdivisions: int = 4  # 20 * 4**4 = 5120 triangles


@dataclass
class Result:
    """What one workload run reports."""

    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)  # (name, ok, detail)
    metrics: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)  # printed, not part of the metrics
    unit_seconds: list = field(default_factory=list)  # timed loop, in run order
    trace: dict | None = None

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


# ---------------------------------------------------------------------------
# The timed loop
# ---------------------------------------------------------------------------


@dataclass
class LoopRun:
    seconds: list = field(default_factory=list)  # wall time of every unit
    flow_seconds: list = field(default_factory=list)  # of which inside flow_for
    first: list = field(default_factory=list)  # outputs of the first pass
    complete: int = 0  # complete passes
    mismatches: set = field(default_factory=set)  # units whose repeat differed
    errors: list = field(default_factory=list)  # (unit index, exception repr)
    units: list = field(default_factory=list)  # tracer unit ids of the first pass


def run_loop(arms, count: int, run_unit, seconds: float) -> list:
    """Run units 0..count-1 in passes until ``seconds`` have passed.

    ``arms`` is a list of (tracer, phase). Every unit runs once under each
    arm's tracer, back to back, so arms see the same machine state; one
    LoopRun per arm is returned. The first pass always completes.
    ``run_unit(i)`` returns the unit's output without timing fields; a
    later pass must reproduce the first pass's output exactly.
    """
    runs = [LoopRun(first=[None] * count) for _ in arms]
    start = time.perf_counter()
    complete = 0
    while True:
        for i in range(count):
            if complete and time.perf_counter() - start >= seconds:
                return runs
            for (tracer, phase), run in zip(arms, runs):
                with tracer:
                    _time_unit(tracer, run, (phase, complete, i), run_unit)
        complete += 1
        for run in runs:
            run.complete = complete


def _time_unit(tracer, run: LoopRun, unit, run_unit) -> None:
    _, complete, i = unit
    tracer.unit = unit
    span = tracer.open(layers.TRIAL_SPAN)
    t0 = time.perf_counter()
    output = None
    try:
        output = run_unit(i)
    except Exception as exc:  # one crashing unit must not end the run
        run.errors.append((i, repr(exc)))
    run.seconds.append(time.perf_counter() - t0)
    tracer.close(span)
    run.flow_seconds.append(sum(
        end - begin
        for name, begin, end, _, owner in tracer.spans[span + 1:]
        if name == layers.FLOW_FOR and owner == unit
    ))
    if complete == 0:
        run.first[i] = output
        run.units.append(unit)
    elif output != run.first[i]:
        run.mismatches.add(i)


def ms_percentile(values, q: float) -> float:
    return 1000.0 * float(np.percentile(np.asarray(values, dtype=float), q))


class Setups:
    """Times the set-up ``repeats`` times: once before the timed loop, the
    rest after it.

    The machine's speed drifts over tens of seconds, so spacing the set-ups
    around the loop samples it at different moments and their median
    moves less from run to run than back-to-back set-ups would.
    """

    def __init__(self, build, repeats: int):
        self.build = build
        self.repeats = repeats
        self.seconds = []

    def run(self, r: int):
        t0 = time.perf_counter()
        state = self.build(r)
        self.seconds.append(time.perf_counter() - t0)
        return state

    def first(self):
        return self.run(0)

    def rest(self) -> float:
        """Run the remaining set-ups; returns the median set-up time."""
        for r in range(1, self.repeats):
            self.run(r)
        return statistics.median(self.seconds)


def check_loop(result: Result, *runs) -> None:
    errors = [e for run in runs for e in run.errors]
    mismatched = sorted(set().union(*(run.mismatches for run in runs)))
    result.attempted = sum(len(run.seconds) for run in runs)
    result.failed = len(errors)
    result.check("no unit raised", not errors,
                 "; ".join(f"unit {i}: {e}" for i, e in errors[:3]))
    result.check("repeated passes reproduce the first pass", not mismatched,
                 f"mismatched units {mismatched[:10]}" if mismatched else "")


def loop_metrics(result: Result, run: LoopRun) -> None:
    refine = [t - f for t, f in zip(run.seconds, run.flow_seconds)]
    result.metrics["trial_ms_p50"] = ms_percentile(run.seconds, 50)
    result.metrics["trial_ms_p90"] = ms_percentile(run.seconds, 90)
    result.metrics["refine_ms_p50"] = ms_percentile(refine, 50)
    result.info["samples"] = len(run.seconds)
    result.info["complete_passes"] = run.complete
    result.unit_seconds = run.seconds
    check_loop(result, run)


def timed_loop(count: int, run_unit, seconds: float) -> LoopRun:
    """The untraced loop; only the flow timer is installed."""
    return run_loop([(Tracer(layers.flow_timer_patches()), "loop")],
                    count, run_unit, seconds)[0]


def traced_loops(result: Result, count: int, run_unit, seconds: float, tracer):
    """Each unit runs untraced, then traced, until ``seconds`` have passed.

    ``tracer`` already holds the traced set-up. The traced outputs must
    equal the untraced ones, and the ratio of the two median unit times is
    the tracing overhead.
    """
    setup_units = sorted({span[4] for span in tracer.spans}, key=repr)
    arms = [(Tracer(layers.flow_timer_patches()), "untraced"), (tracer, "traced")]
    untraced, traced = run_loop(arms, count, run_unit, seconds)
    check_loop(result, untraced, traced)
    differing = sum(a != b for a, b in zip(untraced.first, traced.first))
    result.check("traced outputs equal untraced outputs", differing == 0,
                 f"{differing} of {count} units differ" if differing else "")
    result.metrics.update(layers.layer_metrics(tracer, traced.units, setup_units))
    result.metrics[layers.OVERHEAD] = (
        statistics.median(traced.seconds) / statistics.median(untraced.seconds) - 1.0
    )
    result.info["samples"] = [len(untraced.seconds), len(traced.seconds)]
    result.trace = tracer.dump()
    return untraced, traced


def traced_setup(build):
    with Tracer(layers.layer_patches()) as tracer:
        tracer.unit = ("setup", 0)
        state = build(0)
    return state, tracer


def accuracy_metrics(result: Result, config, mesh, records) -> None:
    """Refined ADD accuracy and AUC over one pass; failures count as misses."""
    summary = pipeline.summarize_records(_records_document(config, mesh, records))
    failures = summary["refined"]["failure_count"]
    result.metrics["add_01d"] = summary["refined"]["add_01d"]
    result.metrics["auc_add"] = summary["refined"]["auc_add"]
    result.metrics["trial_success_rate"] = 1.0 - failures / len(records)
    result.info["trial_failure_rate"] = failures / len(records)


# ---------------------------------------------------------------------------
# Refine workloads: a 512-exemplar box set written to .pfax and loaded back
# ---------------------------------------------------------------------------


def _strip_timing(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "wall_time_ms"}


def _records_document(config, mesh, records) -> dict:
    return {
        "label": config.label,
        "n_exemplars": config.n_exemplars,
        "diameter": mesh.diameter,
        "trials": records,
    }


def report_bytes(config, mesh, records) -> bytes:
    """The report ``pfa refine`` would write for these records."""
    summary = pipeline.summarize_records(_records_document(config, mesh, records))
    return json.dumps(summary, indent=2, sort_keys=True).encode("utf-8")


def _write_oracle_flows(config, mesh, exemplar_set, manifest, flow_dir: Path) -> None:
    """The oracle stands in for an external flow network and writes PFAF files.

    Retrieval and crops follow ``refine_pose``. The oracle check after the
    timed loop shows that refining from these files gives the poses an
    oracle run gives.
    """
    flow_dir.mkdir()
    for entry in manifest["trials"]:
        trial_id = int(entry["trial_id"])
        scene, gt, initial = pipeline.scene_from_manifest_entry(
            entry, mesh, config.target_camera)
        source = OracleFlowSource(
            scene, gt, config.noise,
            base_seed=pipeline.derive_seed(config.seed, "noise", trial_id),
        )
        crop_target = compute_crop(
            initial, exemplar_set.camera, mesh, DEFAULT_CROP_SIZE, config.crop_pad)
        neighbors = exemplars.query_nearest(exemplar_set, initial, config.n_exemplars)
        for rank, exemplar in enumerate(neighbors):
            crop_exemplar = compute_crop(
                exemplar.pose, exemplar.camera, mesh, DEFAULT_CROP_SIZE, config.crop_pad)
            flow = source.flow_for(exemplar, rank, crop_exemplar, crop_target)
            save_flow(flow, flow_dir / pipeline.flow_file_name(trial_id, rank))


def _box_inputs(work: Path, sizes: Sizes, config, flows: bool):
    """Set-up as the CLI does it: gen-exemplars, synth-scenes, then files."""

    def build(r):
        inputs = work / f"setup{r}"
        inputs.mkdir()
        mesh = make_box(BOX_EXTENTS)
        generated = exemplars.generate_exemplar_set(
            mesh, sizes.box_set_count, BOX_Z_BAR, pipeline.DEFAULT_EXEMPLAR_CAMERA,
            BOX_SET_SEED, "box",
        )
        set_path = inputs / "box.pfax"
        exemplars.save_set(generated, set_path)
        loaded = exemplars.load_set(set_path)
        cfg = replace(config, exemplar_path=str(set_path))
        manifest_path = inputs / "manifest.json"
        manifest = pipeline.synth_scene_manifest(replace(cfg, seed=SCENE_SEED), mesh)
        pipeline.write_json(manifest, manifest_path)
        with open(manifest_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
        if flows:
            flow_dir = inputs / "flows"
            _write_oracle_flows(cfg, mesh, loaded, manifest, flow_dir)
            cfg = replace(cfg, flow_source="files", flow_directory=str(flow_dir))
        return cfg, mesh, loaded, manifest["trials"]

    return build


def _spread_sample(count: int, k: int, seed: int) -> list:
    """``k`` evenly spaced unit indices, rotated by the seed."""
    step = max(count // k, 1)
    return sorted({(seed + j * step) % count for j in range(k)})


def _refine_workload(work, seconds, trace, sizes, config, flows=False):
    """Shared body of the refine workloads; returns the result and context."""
    result = Result()
    build = _box_inputs(work, sizes, config, flows)
    if trace:
        state, setup_tracer = traced_setup(build)
    else:
        setups = Setups(build, sizes.setup_repeats)
        state = setups.first()
    cfg, mesh, loaded, entries = state

    def run_unit(i):
        return _strip_timing(pipeline.run_trial(cfg, mesh, loaded, entries[i]))

    if trace:
        first = traced_loops(result, len(entries), run_unit, seconds, setup_tracer)[0].first
    else:
        run = timed_loop(len(entries), run_unit, seconds)
        loop_metrics(result, run)
        first = run.first
        if None not in first:
            accuracy_metrics(result, cfg, mesh, first)
        result.metrics["setup_s"] = setups.rest()
    return result, (cfg, mesh, loaded, entries, first)


def occluded_oracle(work: Path, seed: int, seconds: float, trace: bool,
                    sizes: Sizes) -> Result:
    """Oracle flow through three occluders, refined from a loaded .pfax set."""
    config = pipeline.ExperimentConfig(
        label="occluded-oracle",
        trials=sizes.occluded_trials,
        seed=seed,
        n_exemplars=N_EXEMPLARS,
        occluder_count=3,
        occluder_coverage=0.8,
        noise=FlowNoiseSpec.default_preset(dropout_ratio=0.6),
    )
    result, (cfg, mesh, loaded, entries, first) = _refine_workload(
        work, seconds, trace, sizes, config)

    picked = _spread_sample(len(entries), sizes.occluded_rerun_checks, seed)
    again = [_strip_timing(pipeline.run_trial(cfg, mesh, loaded, entries[i])) for i in picked]
    same = None not in first and report_bytes(
        cfg, mesh, [first[i] for i in picked]) == report_bytes(cfg, mesh, again)
    result.check("reports of two runs of one seed are byte-identical", same,
                 f"trials {picked} run twice")
    return result


def flowfile_outliers(work: Path, seed: int, seconds: float, trace: bool,
                      sizes: Sizes) -> Result:
    """Refinement from PFAF files written during set-up, 50% flow outliers."""
    config = pipeline.ExperimentConfig(
        label="flowfile-outliers",
        trials=sizes.flowfile_trials,
        seed=seed,
        n_exemplars=N_EXEMPLARS,
        noise=replace(FlowNoiseSpec.default_preset(), outlier_ratio=0.5),
    )
    result, (cfg, mesh, loaded, entries, first) = _refine_workload(
        work, seconds, trace, sizes, config, flows=True)

    oracle_cfg = replace(cfg, flow_source="oracle", flow_directory=None)
    picked = _spread_sample(len(entries), sizes.flowfile_oracle_checks, seed)
    differing = []
    for i in picked:
        oracle = pipeline.run_trial(oracle_cfg, mesh, loaded, entries[i])
        from_files = first[i]
        if from_files is None or (
            oracle["refined_pose"], oracle["failure_reason"]
        ) != (from_files["refined_pose"], from_files["failure_reason"]):
            differing.append(i)
    result.check("file-run poses equal oracle-run poses", not differing,
                 f"trials {picked} checked, {differing} differ")
    return result


# ---------------------------------------------------------------------------
# Exemplar generation for a 5120-triangle icosphere
# ---------------------------------------------------------------------------

_ICOSAHEDRON_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


def icosphere(radius: float, subdivisions: int) -> MeshModel:
    """Icosahedron split ``subdivisions`` times, vertices pushed to the sphere."""
    t = (1.0 + 5.0**0.5) / 2.0
    vertices = [
        (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
        (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
        (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
    ]
    vertices = [np.array(v, dtype=float) / np.linalg.norm(v) for v in vertices]
    faces = _ICOSAHEDRON_FACES
    for _ in range(subdivisions):
        midpoints = {}

        def midpoint(a, b):
            key = (min(a, b), max(a, b))
            if key not in midpoints:
                m = vertices[a] + vertices[b]
                vertices.append(m / np.linalg.norm(m))
                midpoints[key] = len(vertices) - 1
            return midpoints[key]

        split = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            split += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = split
    return MeshModel(np.array(vertices) * radius, np.array(faces))


def gen_icosphere(work: Path, seed: int, seconds: float, trace: bool,
                  sizes: Sizes) -> Result:
    """gen-exemplars for a dense mesh: render, save, load back, one at a time."""
    result = Result()

    def build(r):
        path = work / f"icosphere{r}.obj"
        save_obj(icosphere(ICO_RADIUS, sizes.ico_subdivisions), path)
        return load_mesh(path)

    if trace:
        mesh, setup_tracer = traced_setup(build)
    else:
        setups = Setups(build, sizes.setup_repeats)
        mesh = setups.first()

    generated = [None] * sizes.gen_exemplars

    def run_unit(i):
        s = exemplars.generate_exemplar_set(
            mesh, 1, ICO_Z_BAR, pipeline.DEFAULT_EXEMPLAR_CAMERA,
            pipeline.derive_seed(seed, "exemplar", i), "icosphere",
        )
        path = work / "exemplar.pfax"
        exemplars.save_set(s, path)
        same = exemplars.load_set(path).equals(s)
        generated[i] = s.exemplars[0]
        return same, hashlib.sha256(path.read_bytes()).hexdigest()

    if trace:
        runs = traced_loops(result, sizes.gen_exemplars, run_unit, seconds, setup_tracer)
        first = runs[0].first
    else:
        run = timed_loop(sizes.gen_exemplars, run_unit, seconds)
        loop_metrics(result, run)
        result.metrics["setup_s"] = setups.rest()
        first = run.first
    result.check("load_set(save_set(s)).equals(s)",
                 None not in first and all(same for same, _ in first))
    if not trace and None not in generated:
        _refine_on_generated(result, mesh, generated, seed, sizes)
    return result


def _refine_on_generated(result: Result, mesh, generated, seed: int, sizes: Sizes) -> None:
    """Refine a few exact-flow trials against the exemplars just written.

    This runs after the timed loop. It guards the write side: a faster
    rasterizer that renders wrong coordinate maps shows as lost accuracy.
    """
    set_ = exemplars.ExemplarSet(
        "icosphere", generated[0].mesh_hash, ICO_Z_BAR, generated[0].camera,
        [replace(e, id=i) for i, e in enumerate(generated)],
    )
    config = pipeline.ExperimentConfig(
        label="gen-icosphere", trials=sizes.gen_refine_checks, seed=seed,
        n_exemplars=1, gen_z_bar=ICO_Z_BAR,
    )
    entries = pipeline.synth_scene_manifest(replace(config, seed=SCENE_SEED), mesh)["trials"]
    records = [_strip_timing(pipeline.run_trial(config, mesh, set_, e)) for e in entries]
    accuracy_metrics(result, config, mesh, records)


WORKLOADS = {
    "occluded-oracle": occluded_oracle,
    "flowfile-outliers": flowfile_outliers,
    "gen-icosphere": gen_icosphere,
}

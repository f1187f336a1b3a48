"""Experiment harness: configs, synthetic scenes, trial runs, and reports.

Configs and manifests are versioned JSON; per-trial outcome records are
JSON; aggregate tables are CSV plus JSON. Every random quantity derives
from the master seed and the trial id, so reruns of the same config are
byte-identical except for the per-trial wall-clock fields, which live only
in the records file and never in reports.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .crops import DEFAULT_CROP_PAD
from .errors import (
    ArtifactMismatchError,
    ConfigurationError,
    FileFormatError,
    FlowFileMissingError,
    MeshHashMismatchError,
    PfaError,
    UndefinedInputError,
    naming_file,
)
from .exemplars import (
    EXEMPLAR_SIZE,
    ExemplarSet,
    ensure_mesh_binding,
    generate_exemplar_set,
    load_set,
)
from .flow import FlowNoiseSpec, OracleFlowSource, load_flow, save_flow
from .geometry import (
    CameraIntrinsics,
    RigidPose,
    backproject,
    pose_jitter,
    project_camera_points,
    random_rotation,
)
from .mesh import MeshModel, make_box
from .metrics import DEFAULT_AUC_THRESHOLD, PoseErrorReport, auc_metric, pose_error_report
from .raster import SceneSpec
from .refine import MAX_CORRESPONDENCES, RansacConfig, refine_pose
from .seeds import derive_seed

SCHEMA_VERSION = 1

DEFAULT_TARGET_CAMERA = CameraIntrinsics(600.0, 600.0, 320.0, 240.0, 640, 480)
DEFAULT_EXEMPLAR_CAMERA = CameraIntrinsics(
    400.0, 400.0, 128.0, 128.0, EXEMPLAR_SIZE, EXEMPLAR_SIZE
)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Everything one refinement experiment needs, JSON round-trippable.

    ``CONFIG_JSON_PATHS`` gives each field's key path in the JSON file.
    Precedence: a ``pfa`` flag, then the file's key, then the
    ``flow.noise.preset`` value, then the default written here (for an absent
    key, or one in an absent or null section). Settings objects nest whole
    (cameras, ``noise``, ``ransac``); a noise or RANSAC object takes defaults
    for absent keys. Every float is finite. Per-trial seeds derive from
    ``seed`` and the trial id; the file holds none.
    """

    mesh_path: str = ""
    trials: int = 100
    seed: int = 0
    label: str = "experiment"
    n_exemplars: int = 4

    exemplar_path: str | None = None
    gen_count: int = 2048
    gen_z_bar: float = 1.0
    gen_seed: int = 0
    gen_name: str = "object"
    exemplar_camera: CameraIntrinsics = field(default_factory=lambda: DEFAULT_EXEMPLAR_CAMERA)

    target_camera: CameraIntrinsics = field(default_factory=lambda: DEFAULT_TARGET_CAMERA)
    occluder_count: int = 0
    occluder_coverage: float = 0.4
    lateral_range: float = 0.05
    depth_fraction: float = 0.2
    z_center: float | None = None

    jitter_max_rot_deg: float = 20.0
    jitter_max_reproj_px: float = 10.0

    flow_source: str = "oracle"  # "oracle" | "files"
    flow_directory: str | None = None
    noise: FlowNoiseSpec | None = None
    dump_flow_dir: str | None = None

    ransac: RansacConfig = field(default_factory=RansacConfig)

    crop_pad: float = DEFAULT_CROP_PAD
    max_correspondences: int = MAX_CORRESPONDENCES

    def __post_init__(self):
        """Refuse a non-finite float, then a setting out of range, by its JSON path."""
        for name, keys in CONFIG_JSON_PATHS.items():
            value, path = getattr(self, name), ("config",) + keys
            numbers = asdict(value) if is_dataclass(value) else {None: value}  # settings objects
            for key, number in numbers.items():
                _refuse_non_finite(number, path if key is None else path + (key,))
        for names, ok, requirement in (
            (("trials", "n_exemplars", "gen_count", "max_correspondences"),
             lambda v: v >= 1, ">= 1"),
            (("lateral_range", "jitter_max_rot_deg", "jitter_max_reproj_px", "occluder_count",
              "occluder_coverage", "gen_seed"), lambda v: v >= 0, ">= 0"),
            (("gen_z_bar", "crop_pad"), lambda v: v > 0, "positive"),
            (("z_center",), lambda v: v is None or v > 0, "positive or null"),
            (("depth_fraction",), lambda v: 0 <= v < 1, "in [0, 1)"),
            (("flow_source",), lambda v: v in ("oracle", "files"), "'oracle' or 'files'"),
        ):
            for name in names:
                value = getattr(self, name)
                if not ok(value):
                    where = _where(("config",) + CONFIG_JSON_PATHS[name])
                    raise ConfigurationError(f"{where} must be {requirement}, got {value!r}")
        if (self.flow_source == "files") != bool(self.flow_directory):  # the oracle reads none
            raise ConfigurationError("config flow.directory: must be set exactly when "
                                     f"flow.source is 'files', got {self.flow_directory!r}")

    @property
    def scene_z_center(self) -> float:
        return self.z_center if self.z_center is not None else self.gen_z_bar

    def to_dict(self) -> dict:
        values = asdict(self)  # nested settings objects become JSON objects
        out = {"schema_version": SCHEMA_VERSION}
        for name, path in CONFIG_JSON_PATHS.items():
            node = out
            for key in path[:-1]:
                node = node.setdefault(key, {})
            node[path[-1]] = values[name]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigurationError("config must be a JSON object")
        version = data.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigurationError(
                f"config schema version {version} unsupported, expected {SCHEMA_VERSION}"
            )
        kinds = {f.name: f.type for f in fields(cls)}
        values = {}
        for name, keys in CONFIG_JSON_PATHS.items():
            path = ("config",) + keys
            section = data
            for depth in range(2, len(path)):
                section = _object(section.get(path[depth - 1]), path[:depth])
            if keys[-1] in section:
                values[name] = _parse_value(kinds[name], section[keys[-1]], path)
        _refuse_unknown_keys(data, ("config",))
        return cls(**values)


# ExperimentConfig field -> its key path in the config JSON, in file order
CONFIG_JSON_PATHS = {
    "label": ("label",),
    "mesh_path": ("mesh",),
    "trials": ("trials",),
    "seed": ("seed",),
    "n_exemplars": ("n_exemplars",),
    "exemplar_path": ("exemplars", "path"),
    "gen_count": ("exemplars", "generate", "count"),
    "gen_z_bar": ("exemplars", "generate", "z_bar"),
    "gen_seed": ("exemplars", "generate", "seed"),
    "gen_name": ("exemplars", "generate", "name"),
    "exemplar_camera": ("exemplars", "generate", "camera"),
    "target_camera": ("target_camera",),
    "occluder_count": ("scene", "occluder_count"),
    "occluder_coverage": ("scene", "occluder_coverage"),
    "lateral_range": ("scene", "lateral_range"),
    "depth_fraction": ("scene", "depth_fraction"),
    "z_center": ("scene", "z_center"),
    "jitter_max_rot_deg": ("jitter", "max_rot_deg"),
    "jitter_max_reproj_px": ("jitter", "max_reproj_px"),
    "flow_source": ("flow", "source"),
    "flow_directory": ("flow", "directory"),
    "noise": ("flow", "noise"),
    "dump_flow_dir": ("flow", "dump_dir"),
    "ransac": ("ransac",),
    "crop_pad": ("crop", "pad"),
    "max_correspondences": ("crop", "max_correspondences"),
}

# every key path a config may hold: each section and field, and the fields of
# the settings objects it nests (a noise object may also name a preset);
# ``from_dict`` refuses any other key
_OBJECT_KEYS = {
    cls.__name__: tuple(f.name for f in fields(cls))
    for cls in (CameraIntrinsics, FlowNoiseSpec, RansacConfig)
}
_OBJECT_KEYS["FlowNoiseSpec"] += ("preset",)
_CONFIG_KEYS = {("schema_version",)} | {
    keys[:depth] for keys in CONFIG_JSON_PATHS.values() for depth in range(1, len(keys) + 1)
} | {
    CONFIG_JSON_PATHS[f.name] + (key,)
    for f in fields(ExperimentConfig)
    for key in _OBJECT_KEYS.get(f.type.removesuffix(" | None"), ())
}

# manifest key -> the kind of its value, checked by ``load_manifest`` before
# the manifest's mesh, camera and scenes
MANIFEST_FIELDS = {"trials": "list[manifest trial]"}
MANIFEST_TRIAL_FIELDS = {
    "trial_id": "int",
    "gt_pose": "RigidPose",
    "initial_pose": "RigidPose",
    "occluders": "list[occluder]",
}
_OCCLUDER_FIELDS = {"extents": "extents", "pose": "RigidPose"}

# records key -> the kind of its value, for every key ``pfa eval`` reads
RECORDS_FIELDS = {
    "label": "str",
    "n_exemplars": "int",
    "diameter": "float",
    "trials": "list[record trial]",
}
_RECORD_TRIAL_FIELDS = {"initial_report": "report | None", "refined_report": "report | None"}
_REPORT_FIELDS = {f.name: f.type for f in fields(PoseErrorReport)}


def _where(path: tuple) -> str:
    """A JSON path for messages: the document, then its keys (``manifest trials[3].gt_pose``)."""
    keys = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path[1:])
    return f"{path[0]} {keys.removeprefix('.')}" if keys else path[0]


def _refuse_non_finite(value, path: tuple) -> None:
    """Refuse ``value``, found at ``path``, if it is a float that is not finite."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigurationError(f"{_where(path)} must be finite, got {value}")


def _object(value, path: tuple) -> dict:
    """A JSON object found at ``path`` (document name, then keys); null reads as {}."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigurationError(f"{_where(path)}: expected an object, got {value!r}")
    return value


def _parse_value(kind: str, value, path: tuple):
    """A JSON value read as a field annotated ``kind``, found at ``path``.

    Raises:
        ConfigurationError: naming the path, if the value is malformed.
    """
    if value is None and kind.endswith(" | None"):
        return None
    parse = _PARSERS[kind.removesuffix(" | None")]
    try:
        parsed = parse(value, path)
    except KeyError as exc:
        raise ConfigurationError(f"{_where(path)}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{_where(path)}: {exc}, got {value!r}") from exc
    _refuse_non_finite(parsed, path)
    return parsed


def _refuse_unknown_keys(value: dict, path: tuple) -> None:
    """Refuse a key, at any depth of the config object ``value``, that ``_CONFIG_KEYS`` lacks."""
    for key, item in value.items():
        if path[1:] + (key,) not in _CONFIG_KEYS:
            raise ConfigurationError(f"{_where(path + (key,))}: unknown key")
        if isinstance(item, dict):
            _refuse_unknown_keys(item, path + (key,))


def _check_fields(value, table: dict, path: tuple) -> dict:
    """A JSON object at ``path`` holding every key of ``table``, each of its kind."""
    value = _object(value, path)
    for key, kind in table.items():
        if key not in value:
            raise ConfigurationError(f"{_where(path)}: missing key {key!r}")
        _parse_value(kind, value[key], path + (key,))
    return value


def _parse_string(value, path) -> str:
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def _parse_int(value, path) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("expected an integer")
    return value


def _parse_float(value, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected a number")
    return float(value)


def _setting_values(cls, value, path: tuple, partial: bool) -> dict:
    """The fields of the settings class ``cls`` read from the object ``value``:
    all of them, or with ``partial`` only those it holds."""
    value = _object(value, path)
    return {f.name: _parse_value(f.type, value[f.name], path + (f.name,))
            for f in fields(cls) if not partial or f.name in value}


def _parse_noise(value, path) -> FlowNoiseSpec:
    given = _setting_values(FlowNoiseSpec, value, path, partial=True)
    preset = _object(value, path).get("preset")
    if preset not in (None, "none", "default"):
        raise ValueError(f"unknown noise preset {preset!r}")
    base = FlowNoiseSpec.default_preset() if preset == "default" else FlowNoiseSpec()
    return replace(base, **given)


def _parse_pose(value, path) -> RigidPose:
    value = _object(value, path)
    pose = RigidPose(np.array(value["rotation"], dtype=np.float64),
                     np.array(value["translation"], dtype=np.float64))
    if not np.isfinite(pose.translation).all():
        raise ValueError("translation must be finite")
    return pose


def _parse_extents(value, path) -> np.ndarray:
    extents = np.array(value, dtype=np.float64)
    if extents.shape != (3,) or not (np.isfinite(extents) & (extents > 0)).all():
        raise ValueError("expected three positive extents")
    return extents


def _list_of(kind: str, least: int = 0):
    def parse(value, path) -> list:
        if not isinstance(value, list):
            raise TypeError("expected a list")
        if len(value) < least:
            raise ValueError(f"expected at least {least} {kind}")
        return [_parse_value(kind, item, path + (i,)) for i, item in enumerate(value)]
    return parse


_PARSERS = {
    "int": _parse_int,
    "float": _parse_float,
    "str": _parse_string,
    "CameraIntrinsics": lambda value, path: CameraIntrinsics(
        **_setting_values(CameraIntrinsics, value, path, partial=False)),
    "FlowNoiseSpec": _parse_noise,
    "RansacConfig": lambda value, path: RansacConfig(
        **_setting_values(RansacConfig, value, path, partial=True)),
    "RigidPose": _parse_pose,
    "extents": _parse_extents,
    "list[occluder]": _list_of("occluder"),
    "occluder": lambda value, path: _check_fields(value, _OCCLUDER_FIELDS, path),
    "list[manifest trial]": _list_of("manifest trial", least=1),
    "manifest trial": lambda value, path: _check_fields(value, MANIFEST_TRIAL_FIELDS, path),
    "list[record trial]": _list_of("record trial", least=1),
    "record trial": lambda value, path: _check_fields(value, _RECORD_TRIAL_FIELDS, path),
    "report": lambda value, path: _check_fields(value, _REPORT_FIELDS, path),
}


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"invalid JSON: {exc}") from exc


def _load_document(path, document: str, table: dict) -> dict:
    """A JSON file of the current schema holding every key of ``table``.

    Raises:
        ConfigurationError: naming the file and the JSON path of the first
            malformed value.
    """
    with naming_file(path):
        data = _object(_read_json(path), (document,))
        if data.get("schema_version") != SCHEMA_VERSION:
            raise ConfigurationError(
                f"{document}: schema version {data.get('schema_version')!r} unsupported, "
                f"expected {SCHEMA_VERSION}"
            )
        return _check_fields(data, table, (document,))


def load_config(path) -> ExperimentConfig:
    """Read a config file; errors name the file."""
    with naming_file(path):
        return ExperimentConfig.from_dict(_read_json(path))


def resolve_exemplar_set(config: ExperimentConfig, mesh: MeshModel) -> ExemplarSet:
    """The set at ``config.exemplar_path``, or one generated for ``mesh``.

    A loaded set must be built for ``mesh`` (``MeshHashMismatchError``
    otherwise) and may name only the mesh's triangles; either refusal names
    the set's file, and the first names ``config.mesh_path`` too.
    """
    if config.exemplar_path:
        exemplar_set = load_set(config.exemplar_path)
        with naming_file(config.exemplar_path):
            ensure_mesh_binding(exemplar_set, mesh, f"mesh {config.mesh_path}")
            top = max(int(ex.tri.max(initial=-1)) for ex in exemplar_set.exemplars)
            if top >= len(mesh.triangles):
                raise FileFormatError(
                    f"triangle id {top} is out of range "
                    f"for a mesh of {len(mesh.triangles)} triangles"
                )
        return exemplar_set
    return generate_exemplar_set(
        mesh, config.gen_count, config.gen_z_bar, config.exemplar_camera,
        config.gen_seed, config.gen_name,
    )


# ---------------------------------------------------------------------------
# Pose / manifest serialization
# ---------------------------------------------------------------------------


def pose_to_dict(pose: RigidPose) -> dict:
    return {
        "rotation": [[float(x) for x in row] for row in pose.rotation],
        "translation": [float(x) for x in pose.translation],
    }


def synth_scene_manifest(config: ExperimentConfig, mesh: MeshModel) -> dict:
    """Sample ground-truth poses, occluder layouts, and jittered initials;
    refuse (``ConfigurationError``) a trial whose scene cannot be built."""
    z_center = config.scene_z_center
    cam = config.target_camera
    trials = []
    for trial_id in range(config.trials):
        rng = np.random.default_rng(derive_seed(config.seed, "scene", trial_id))
        rotation = random_rotation(rng)
        lateral = rng.uniform(-config.lateral_range, config.lateral_range, size=2)
        depth = z_center * (1.0 + rng.uniform(-config.depth_fraction, config.depth_fraction))
        gt = RigidPose(rotation, [lateral[0], lateral[1], depth])

        occluders = []
        for _ in range(config.occluder_count):
            frac = rng.uniform(0.45, 0.70)
            z_occ = depth * frac
            radius_px = cam.fx * mesh.bounding_radius / depth
            offset = rng.uniform(-0.7, 0.7, size=2) * radius_px
            target_px = project_camera_points(cam, gt.translation) + offset
            center = backproject(cam, target_px, z_occ)
            side = config.occluder_coverage * mesh.diameter * frac
            extents = [float(e) for e in (side, side, side * 0.2)]
            occluders.append((extents, RigidPose(random_rotation(rng), center)))
        try:  # the scene refinement will build from this trial
            SceneSpec(mesh, gt, [(make_box(e), pose) for e, pose in occluders], cam)
        except PfaError as exc:
            coverage = (
                f"; scene.occluder_coverage is {config.occluder_coverage}" if occluders else ""
            )
            raise ConfigurationError(f"trial {trial_id}: {exc}{coverage}") from exc

        initial = pose_jitter(
            gt, cam, mesh,
            config.jitter_max_rot_deg, config.jitter_max_reproj_px,
            seed=derive_seed(config.seed, "jitter", trial_id),
        )
        trials.append(
            {
                "trial_id": trial_id,
                "gt_pose": pose_to_dict(gt),
                "initial_pose": pose_to_dict(initial),
                "occluders": [{"extents": e, "pose": pose_to_dict(pose)} for e, pose in occluders],
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "label": config.label,
        "mesh_hash": mesh.digest.hex(),
        "z_center": z_center,
        "target_camera": asdict(cam),
        "trials": trials,
    }


def load_manifest(path, config: ExperimentConfig, mesh: MeshModel) -> dict:
    """Read a scene manifest and check once every value refinement reads;
    every refusal names the file.

    Raises:
        ConfigurationError: naming the JSON path of a malformed value or a
            repeated trial id, or ``trials[i]``, whose scene cannot be built.
        MeshHashMismatchError: naming ``config.mesh_path``, if the manifest
            was built for another mesh.
        ArtifactMismatchError: if its target camera is missing or is not
            the config's.
    """
    manifest = _load_document(path, "manifest", MANIFEST_FIELDS)
    with naming_file(path):
        built_for = _parse_value("CameraIntrinsics | None", manifest.get("target_camera"),
                                 ("manifest", "target_camera"))
        if manifest.get("mesh_hash") != mesh.digest.hex():
            raise MeshHashMismatchError(f"mesh {config.mesh_path} is not the mesh the manifest "
                                        "was built from (mesh digests differ)")
        if built_for != config.target_camera:
            raise ArtifactMismatchError(
                f"manifest target_camera {built_for or 'missing'} differs from "
                f"config target camera {config.target_camera}"
            )
        trial_ids = set()
        for i, entry in enumerate(manifest["trials"]):
            trial = ("manifest", "trials", i)
            if entry["trial_id"] in trial_ids:  # flow files are named by trial id
                raise ConfigurationError(f"{_where(trial + ('trial_id',))}: "
                                         f"trial id {entry['trial_id']} repeats an earlier trial's")
            trial_ids.add(entry["trial_id"])
            try:
                scene_from_manifest_entry(entry, mesh, built_for)
            except PfaError as exc:
                raise ConfigurationError(f"{_where(trial)}: {exc}") from exc
    return manifest


def check_flow_directory(config: ExperimentConfig) -> None:
    """Refuse a run from flow files whose ``flow.directory`` is not a directory.

    A missing or unreadable file inside it fails only its own trial; a
    directory that is not there would fail every trial.
    """
    if config.flow_source == "files" and not Path(config.flow_directory).is_dir():
        raise ConfigurationError(
            f"config flow.directory: {config.flow_directory} is not a directory"
        )


def scene_from_manifest_entry(
    entry: dict, mesh: MeshModel, camera: CameraIntrinsics
) -> tuple[SceneSpec, RigidPose, RigidPose]:
    gt = _parse_pose(entry["gt_pose"], ("manifest", "gt_pose"))
    initial = _parse_pose(entry["initial_pose"], ("manifest", "initial_pose"))
    occluders = tuple(
        (make_box(o["extents"]), _parse_pose(o["pose"], ("manifest", "pose")))
        for o in entry["occluders"]
    )
    scene = SceneSpec(mesh, gt, occluders, camera)
    return scene, gt, initial


# ---------------------------------------------------------------------------
# Flow sources for the harness
# ---------------------------------------------------------------------------


def flow_file_name(trial_id: int, rank: int) -> str:
    return f"trial{trial_id:05d}_rank{rank}.pfaf"


class DirectoryFlowSource:
    """Reads externally produced flow files named trialNNNNN_rankR.pfaf."""

    def __init__(self, directory, trial_id: int):
        self.directory = Path(directory)
        self.trial_id = trial_id

    def flow_for(self, exemplar, rank, crop_exemplar, crop_target):
        path = self.directory / flow_file_name(self.trial_id, rank)
        try:
            flow = load_flow(path)
        except FileNotFoundError:
            raise FlowFileMissingError(f"flow file not found: {path}") from None
        except OSError as exc:  # a directory in its place, no read permission
            raise FlowFileMissingError(f"flow file unreadable: {path}: {exc.strerror}") from exc
        size = crop_exemplar.out_size
        if flow.width != size or flow.height != size:
            raise FileFormatError(
                f"{path}: flow is {flow.width}x{flow.height}, crops are {size}x{size}"
            )
        return flow


class _DumpingSource:
    def __init__(self, inner, directory, trial_id: int):
        self.inner = inner
        self.directory = Path(directory)
        self.trial_id = trial_id

    def flow_for(self, exemplar, rank, crop_exemplar, crop_target):
        field = self.inner.flow_for(exemplar, rank, crop_exemplar, crop_target)
        self.directory.mkdir(parents=True, exist_ok=True)
        save_flow(field, self.directory / flow_file_name(self.trial_id, rank))
        return field


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------


def run_trial(
    config: ExperimentConfig,
    mesh: MeshModel,
    exemplar_set: ExemplarSet,
    entry: dict,
) -> dict:
    """Refine one manifest trial and return its record.

    A failed refinement is a record too: ``refine_pose``'s ``failure_reason``
    is copied into it, ``refined_pose`` and ``refined_report`` stay None,
    and ``exemplars`` holds whatever reports the failure kept.
    ``wall_time_ms`` times the refinement and the record it fills.
    """
    trial_id = int(entry["trial_id"])
    scene, gt, initial = scene_from_manifest_entry(entry, mesh, config.target_camera)

    if config.flow_source == "files":
        source = DirectoryFlowSource(config.flow_directory, trial_id)
    else:
        source = OracleFlowSource(
            scene, gt, config.noise, base_seed=derive_seed(config.seed, "noise", trial_id)
        )
    if config.dump_flow_dir:
        source = _DumpingSource(source, config.dump_flow_dir, trial_id)

    record = {
        "trial_id": trial_id,
        "gt_pose": entry["gt_pose"],
        "initial_pose": entry["initial_pose"],
        "refined_pose": None,
        "failure_reason": None,
        "exemplars": [],
        "initial_report": asdict(pose_error_report(gt, initial, mesh)),
        "refined_report": None,
        "wall_time_ms": 0.0,
    }

    start = time.perf_counter()
    result = refine_pose(
        initial, exemplar_set, mesh, config.target_camera, source,
        config.n_exemplars, config.ransac, derive_seed(config.seed, "ransac", trial_id),
        crop_pad=config.crop_pad,
        max_correspondences=config.max_correspondences,
    )
    if result.estimate is not None:
        refined = result.estimate.pose
        record["refined_pose"] = pose_to_dict(refined)
        record["refined_report"] = asdict(pose_error_report(gt, refined, mesh))
    record["failure_reason"] = result.failure_reason
    record["exemplars"] = [asdict(r) for r in result.exemplar_reports]
    record["wall_time_ms"] = (time.perf_counter() - start) * 1000.0
    return record


def run_refinement(
    config: ExperimentConfig,
    mesh: MeshModel,
    exemplar_set: ExemplarSet,
    manifest: dict,
    workers: int = 1,
) -> dict:
    """Run every trial of a manifest from ``load_manifest`` or ``synth_scene_manifest``,
    which check it against ``config`` and ``mesh``, on ``workers`` threads;
    returns the records document."""
    entries = sorted(manifest["trials"], key=lambda e: int(e["trial_id"]))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        records = list(pool.map(lambda e: run_trial(config, mesh, exemplar_set, e), entries))

    return {
        "schema_version": SCHEMA_VERSION,
        "label": config.label,
        "n_exemplars": config.n_exemplars,
        "mesh_hash": mesh.digest.hex(),
        "diameter": mesh.diameter,
        "z_bar": exemplar_set.z_bar,
        "config": config.to_dict(),
        "trials": records,
    }


# ---------------------------------------------------------------------------
# Aggregation and reports
# ---------------------------------------------------------------------------


def _errors_with_failures(trials: list, which: str, key: str) -> np.ndarray:
    values = []
    for t in trials:
        report = t.get(which)
        values.append(float("inf") if report is None else float(report[key]))
    return np.array(values)


def summarize_records(records: dict) -> dict:
    """Aggregate metrics of one records document (failures count as inf)."""
    trials = records["trials"]
    if not trials:
        raise UndefinedInputError("metrics over a records document with no trials are undefined")
    diameter = float(records["diameter"])
    out = {}
    for stage in ("initial_report", "refined_report"):
        add = _errors_with_failures(trials, stage, "add")
        add_s = _errors_with_failures(trials, stage, "add_s")
        rot = _errors_with_failures(trials, stage, "rotation_err_deg")
        trans = _errors_with_failures(trials, stage, "translation_err_m")
        good = np.isfinite(add)
        summary = {
            "add_01d": float(np.mean(add < 0.1 * diameter)),
            "add_05d": float(np.mean(add < 0.5 * diameter)),
            "auc_add": auc_metric(add),
            "auc_add_s": auc_metric(add_s),
            "mean_rotation_err_deg": float(rot[good].mean()) if good.any() else None,
            "mean_translation_err_m": float(trans[good].mean()) if good.any() else None,
            "failure_count": int(np.sum(~good)),
        }
        out["initial" if stage == "initial_report" else "refined"] = summary
    return {
        "schema_version": SCHEMA_VERSION,
        "label": records["label"],
        "n_exemplars": records["n_exemplars"],
        "trials": len(trials),
        "diameter": diameter,
        "initial": out["initial"],
        "refined": out["refined"],
    }


_SUMMARY_COLUMNS = [
    "add_01d", "add_05d", "auc_add", "auc_add_s",
    "mean_rotation_err_deg", "mean_translation_err_m", "failure_count",
]


def write_json(document: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(document, f, indent=2, sort_keys=True)
        f.write("\n")


def write_report_csv(summary: dict, path) -> None:
    write_table_csv([
        {"stage": stage, **{c: summary[stage][c] for c in _SUMMARY_COLUMNS}}
        for stage in ("initial", "refined")
    ], path)


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return value


def evaluate_records(record_documents: list) -> tuple[list, list]:
    """Metric table plus accuracy-vs-threshold curve rows for many runs.

    Rows are keyed by (label, n_exemplars); curves sample the refined ADD
    accuracy on [0, ``DEFAULT_AUC_THRESHOLD``] mesh units, for AUC plots.
    Takes at least one document with trials, as ``load_records_documents`` does.
    """
    table = []
    curves = []
    thresholds = np.linspace(0.0, DEFAULT_AUC_THRESHOLD, 101)
    for records in record_documents:
        summary = summarize_records(records)
        row = {
            "label": summary["label"],
            "n_exemplars": summary["n_exemplars"],
            "trials": summary["trials"],
        }
        for stage in ("initial", "refined"):
            for column in _SUMMARY_COLUMNS:
                row[f"{stage}_{column}"] = summary[stage][column]
        table.append(row)

        add = _errors_with_failures(records["trials"], "refined_report", "add")
        for threshold in thresholds:
            curves.append(
                {
                    "label": summary["label"],
                    "n_exemplars": summary["n_exemplars"],
                    "threshold_m": float(threshold),
                    "accuracy": float(np.mean(add < threshold)),
                }
            )
    table.sort(key=lambda r: (r["label"], r["n_exemplars"]))
    curves.sort(key=lambda r: (r["label"], r["n_exemplars"], r["threshold_m"]))
    return table, curves


def write_table_csv(rows: list, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(row[h]) for h in header])


def load_records_documents(records_dir) -> list:
    root = Path(records_dir)
    if root.is_file():
        paths = [root]
    else:
        paths = sorted(root.rglob("records*.json"))
    documents = [_load_document(path, "records", RECORDS_FIELDS) for path in paths]
    if not documents:
        raise ConfigurationError(f"no records files found under {records_dir}")
    return documents

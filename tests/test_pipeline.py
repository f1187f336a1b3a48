"""Harness behavior: manifests, records, reports, eval, CLI exit codes."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pfa.cli
from helpers import make_tetrahedron
from pfa.cli import main
from pfa.crops import DEFAULT_CROP_SIZE
from pfa.errors import ConfigurationError
from pfa.exemplars import generate_exemplar_set, load_set, save_set
from pfa.flow import FlowField, FlowNoiseSpec, save_flow
from pfa.geometry import CameraIntrinsics
from pfa.mesh import load_mesh, make_box, save_obj
from pfa.pipeline import (
    CONFIG_JSON_PATHS,
    DEFAULT_EXEMPLAR_CAMERA,
    ExperimentConfig,
    derive_seed,
    evaluate_records,
    flow_file_name,
    load_config,
    load_manifest,
    run_refinement,
    scene_from_manifest_entry,
    summarize_records,
    synth_scene_manifest,
    write_json,
)
from pfa.refine import RansacConfig

BOX_EXTENTS = (0.10, 0.08, 0.06)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("ws")
    mesh_path = root / "box.obj"
    save_obj(make_box(BOX_EXTENTS), mesh_path)
    config = {
        "schema_version": 1,
        "label": "demo",
        "mesh": str(mesh_path),
        "trials": 4,
        "seed": 11,
        "n_exemplars": 2,
        "exemplars": {"generate": {"count": 96, "z_bar": 1.0, "seed": 3}},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    return root, mesh_path, config_path


DEFAULT_CONFIG_DICT = {
    "schema_version": 1,
    "label": "experiment",
    "mesh": "",
    "trials": 100,
    "seed": 0,
    "n_exemplars": 4,
    "exemplars": {
        "path": None,
        "generate": {
            "count": 2048, "z_bar": 1.0, "seed": 0, "name": "object",
            "camera": {
                "fx": 400.0, "fy": 400.0, "cx": 128.0, "cy": 128.0,
                "width": 256, "height": 256,
            },
        },
    },
    "target_camera": {
        "fx": 600.0, "fy": 600.0, "cx": 320.0, "cy": 240.0, "width": 640, "height": 480,
    },
    "scene": {
        "occluder_count": 0, "occluder_coverage": 0.4, "lateral_range": 0.05,
        "depth_fraction": 0.2, "z_center": None,
    },
    "jitter": {"max_rot_deg": 20.0, "max_reproj_px": 10.0},
    "flow": {"source": "oracle", "directory": None, "noise": None, "dump_dir": None},
    "ransac": {
        "inlier_threshold": 2.0, "max_iterations": 1000, "confidence": 0.999, "min_inliers": 12,
    },
    "crop": {"pad": 1.2, "max_correspondences": 20000},
}

FULL_CONFIG = ExperimentConfig(
    mesh_path="meshes/duck.ply", trials=7, seed=42, label="sweep-n8", n_exemplars=8,
    exemplar_path="sets/duck.pfax", gen_count=512, gen_z_bar=0.75, gen_seed=9, gen_name="duck",
    exemplar_camera=CameraIntrinsics(350.0, 360.0, 127.5, 126.5, 256, 256),
    target_camera=CameraIntrinsics(572.4, 573.6, 325.3, 242.0, 640, 480),
    occluder_count=2, occluder_coverage=0.6, lateral_range=0.03, depth_fraction=0.1,
    z_center=0.9, jitter_max_rot_deg=15.0, jitter_max_reproj_px=8.0,
    flow_source="files", flow_directory="flows/in",
    noise=FlowNoiseSpec(
        gaussian_sigma=0.5, outlier_ratio=0.3, outlier_range=16.0, dropout_ratio=0.4
    ),
    dump_flow_dir="flows/out",
    ransac=RansacConfig(inlier_threshold=3.0, max_iterations=500, confidence=0.99, min_inliers=20),
    crop_pad=1.4, max_correspondences=5000,
)

FULL_CONFIG_DICT = {
    "schema_version": 1,
    "label": "sweep-n8",
    "mesh": "meshes/duck.ply",
    "trials": 7,
    "seed": 42,
    "n_exemplars": 8,
    "exemplars": {
        "path": "sets/duck.pfax",
        "generate": {
            "count": 512, "z_bar": 0.75, "seed": 9, "name": "duck",
            "camera": {
                "fx": 350.0, "fy": 360.0, "cx": 127.5, "cy": 126.5,
                "width": 256, "height": 256,
            },
        },
    },
    "target_camera": {
        "fx": 572.4, "fy": 573.6, "cx": 325.3, "cy": 242.0, "width": 640, "height": 480,
    },
    "scene": {
        "occluder_count": 2, "occluder_coverage": 0.6, "lateral_range": 0.03,
        "depth_fraction": 0.1, "z_center": 0.9,
    },
    "jitter": {"max_rot_deg": 15.0, "max_reproj_px": 8.0},
    "flow": {
        "source": "files",
        "directory": "flows/in",
        "noise": {
            "gaussian_sigma": 0.5, "outlier_ratio": 0.3, "outlier_range": 16.0,
            "dropout_ratio": 0.4,
        },
        "dump_dir": "flows/out",
    },
    "ransac": {
        "inlier_threshold": 3.0, "max_iterations": 500, "confidence": 0.99, "min_inliers": 20,
    },
    "crop": {"pad": 1.4, "max_correspondences": 5000},
}

# each is malformed at the JSON path given with it
MALFORMED_CONFIGS = [
    ({"flow": {"noise": 3}}, "flow.noise"),
    ({"flow": {"source": "files", "directory": 7}}, "flow.directory"),
    ({"scene": [1]}, "scene"),
    ({"exemplars": {"generate": {"camera": {"fx": "a"}}}}, "exemplars.generate.camera.fx"),
    ({"flow": {"noise": {"preset": "bogus"}}}, "flow.noise"),
    ({"flow": {"noise": {"outlier_ratio": 1.5}}}, "flow.noise"),
    ({"target_camera": {"fx": 600.0}}, "target_camera"),
    ({"label": {"a": 1}}, "label"),
    ({"trials": None}, "trials"),
    # a key the layout lacks, at each depth and in each kind of object
    ({"trails": 5}, "trails"),
    ({"ransac": {"inlier_treshold": 3.0}}, "ransac.inlier_treshold"),
    ({"exemplars": {"generate": {"camera": {**DEFAULT_CONFIG_DICT["target_camera"], "k1": 0.0}}}},
     "exemplars.generate.camera.k1"),
    ({"target_camera": {**DEFAULT_CONFIG_DICT["target_camera"], "skew": 0.0}},
     "target_camera.skew"),
    ({"flow": {"noise": {"preset": "default", "sigma": 1.0}}}, "flow.noise.sigma"),
    # a flow directory that nothing would read: the source is the oracle
    ({"flow": {"directory": "flows"}}, "flow.directory"),
]

# (subcommand, flag, the config field it sets, a value in the file, the flag's value)
FLAG_FIELDS = [
    ("gen-exemplars", "--mesh", "mesh_path", "file.obj", "flag.obj"),
    ("gen-exemplars", "--count", "gen_count", 64, 32),
    ("gen-exemplars", "--zbar", "gen_z_bar", 0.8, 1.25),
    ("gen-exemplars", "--seed", "gen_seed", 3, 5),
    ("gen-exemplars", "--name", "gen_name", "file", "flag"),
    ("synth-scenes", "--mesh", "mesh_path", "file.obj", "flag.obj"),
    ("synth-scenes", "--trials", "trials", 4, 9),
    ("synth-scenes", "--seed", "seed", 11, 12),
    ("refine", "--mesh", "mesh_path", "file.obj", "flag.obj"),
    ("refine", "--exemplars", "exemplar_path", "file.pfax", "flag.pfax"),
    ("refine", "--n-exemplars", "n_exemplars", 2, 3),
    ("refine", "--seed", "seed", 11, 12),
    ("refine", "--label", "label", "file", "flag"),
    ("refine", "--flow-dir", "flow_directory", "file-flows", "flag-flows"),
    ("refine", "--dump-flows", "dump_flow_dir", "file-dump", "flag-dump"),
]


def _drop_gt_pose(manifest):
    del manifest["trials"][0]["gt_pose"]


def _bad_extents(manifest):
    pose = manifest["trials"][1]["gt_pose"]
    manifest["trials"][1]["occluders"] = [{"extents": [0.1, 0.1], "pose": pose}]


def _bad_rotation(manifest):
    manifest["trials"][0]["initial_pose"]["rotation"][2][2] = 2.0


# each edit leaves the manifest malformed at the JSON path given with it
MALFORMED_MANIFESTS = [
    (lambda m: [m], "manifest: expected an object"),
    (_drop_gt_pose, "manifest trials[0]: missing key 'gt_pose'"),
    (lambda m: m.update(trials={}), "manifest trials: expected a list"),
    (_bad_extents, "manifest trials[1].occluders[0].extents:"),
    (_bad_rotation, "manifest trials[0].initial_pose:"),
    (lambda m: m["trials"][2].update(trial_id="x"), "manifest trials[2].trial_id:"),
    (lambda m: m.update(target_camera={"fx": 600.0}), "manifest target_camera: missing key 'fy'"),
    (lambda m: m["trials"][0].update(trial_id=1.5),
     "manifest trials[0].trial_id: expected an integer, got 1.5"),
    (lambda m: m["trials"][1].update(trial_id=True),
     "manifest trials[1].trial_id: expected an integer, got True"),
    (lambda m: m.update(trials=[]), "manifest trials: expected at least 1 manifest trial, got []"),
    (lambda m: m["trials"][1].update(trial_id=0),
     "manifest trials[1].trial_id: trial id 0 repeats an earlier trial's"),
]


# each edit leaves a records document malformed at the JSON path given with it
MALFORMED_RECORDS = [
    (lambda d: [1], "records: expected an object"),
    (lambda d: d.update(trials=[1]), "records trials[0]: expected an object"),
    (lambda d: d["trials"][1].update(refined_report={"add": 0.0}),
     "records trials[1].refined_report: missing key 'add_s'"),
    (lambda d: d.pop("diameter"), "records: missing key 'diameter'"),
    (lambda d: d.update(trials=[]), "records trials: expected at least 1 record trial, got []"),
    (lambda d: d.update(n_exemplars=True), "records n_exemplars: expected an integer, got True"),
    (lambda d: d.update(diameter="0.1"), "records diameter: expected a number, got '0.1'"),
]


class TestConfig:
    def test_defaults_round_trip(self):
        config = ExperimentConfig(mesh_path="m.obj")
        back = ExperimentConfig.from_dict(config.to_dict())
        assert back == config

    @pytest.mark.parametrize(
        "config, expected",
        [(ExperimentConfig(), DEFAULT_CONFIG_DICT), (FULL_CONFIG, FULL_CONFIG_DICT)],
        ids=["default", "all-non-default"],
    )
    def test_to_dict_layout_and_round_trip(self, config, expected):
        assert json.dumps(config.to_dict(), sort_keys=True) == json.dumps(expected, sort_keys=True)
        assert ExperimentConfig.from_dict(expected) == config

    def test_noise_keys_win_over_the_preset(self):
        # the flowfile-outliers benchmark noise, written as a config
        data = {"flow": {"noise": {"preset": "default", "outlier_ratio": 0.5}}}
        noise = ExperimentConfig.from_dict(data).noise
        assert noise == replace(FlowNoiseSpec.default_preset(), outlier_ratio=0.5)

    def test_default_noise_preset(self):
        data = {"flow": {"noise": {"preset": "default", "dropout_ratio": 0.6}}}
        noise = ExperimentConfig.from_dict(data).noise
        assert noise == FlowNoiseSpec.default_preset(dropout_ratio=0.6)
        assert ExperimentConfig.from_dict({"flow": {"noise": {"preset": "none"}}}).noise == (
            FlowNoiseSpec()
        )

    def test_null_or_absent_sections_take_defaults(self):
        data = {"exemplars": {"generate": None}, "scene": None, "flow": {"noise": None}}
        assert ExperimentConfig.from_dict(data) == ExperimentConfig()

    @pytest.mark.parametrize("data, path", MALFORMED_CONFIGS)
    def test_malformed_value_names_its_path(self, data, path):
        with pytest.raises(ConfigurationError, match=f"config {path}:"):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("data, path, message", [
        ({"trials": 2.9}, "trials", "expected an integer, got 2.9"),
        ({"seed": True}, "seed", "expected an integer, got True"),
        ({"jitter": {"max_rot_deg": "12.5"}}, "jitter.max_rot_deg", "expected a number, got '12.5'"),
        ({"scene": {"occluder_coverage": False}}, "scene.occluder_coverage",
         "expected a number, got False"),
        ({"ransac": {"max_iterations": 1e3}}, "ransac.max_iterations",
         "expected an integer, got 1000.0"),
        ({"target_camera": {**DEFAULT_CONFIG_DICT["target_camera"], "width": 640.0}},
         "target_camera.width", "expected an integer, got 640.0"),
    ])
    def test_numbers_keep_their_json_type(self, data, path, message):
        with pytest.raises(ConfigurationError, match=re.escape(f"config {path}: {message}")):
            ExperimentConfig.from_dict(data)

    def test_integer_reads_as_float_setting(self):
        config = ExperimentConfig.from_dict({"jitter": {"max_rot_deg": 12}})
        assert type(config.jitter_max_rot_deg) is float and config.jitter_max_rot_deg == 12.0

    def test_ransac_fields_validated_on_construction(self):
        with pytest.raises(ConfigurationError, match="confidence"):
            ExperimentConfig.from_dict({"ransac": {"confidence": 1.5}})
        with pytest.raises(ConfigurationError, match="min_inliers"):
            ExperimentConfig.from_dict({"ransac": {"min_inliers": 3}})

    @pytest.mark.parametrize("text, message", [
        ('{"trials": "x"}', "config trials:"),
        pytest.param('{"ransac": {"confidence": 2}}',
                     "config ransac: confidence must be in (0, 1), got {'confidence': 2}",
                     id="ransac-confidence"),
        ("{", "invalid JSON"),
    ])
    def test_file_errors_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(ConfigurationError) as info:
            load_config(path)
        assert str(info.value).startswith(f"{path}: ") and message in str(info.value)

    @pytest.mark.parametrize("key, value", [
        ("z_bar", float("inf")), ("z_bar", float("nan")), ("z_bar", 0.0), ("z_bar", -1.0),
        ("seed", -1),
    ])
    def test_bad_generate_settings_rejected(self, key, value):
        with pytest.raises(ConfigurationError, match=f"exemplars.generate.{key} must be"):
            ExperimentConfig.from_dict({"exemplars": {"generate": {key: value}}})

    def test_unknown_schema_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict({"schema_version": 99})

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(mesh_path="m", trials=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(mesh_path="m", flow_source="files")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(mesh_path="m", depth_fraction=1.5)
        with pytest.raises(ConfigurationError, match="exemplars.generate.count must be >= 1"):
            ExperimentConfig.from_dict({"exemplars": {"generate": {"count": 0}}})

    @pytest.mark.parametrize("key, value", [
        ("max_correspondences", 0), ("max_correspondences", -5),
        ("pad", 0.0), ("pad", -1.0), ("pad", float("nan")), ("pad", float("inf")),
    ])
    def test_bad_crop_settings_rejected(self, key, value):
        with pytest.raises(ConfigurationError, match=f"crop.{key} must be"):
            ExperimentConfig.from_dict({"crop": {key: value}})

    @pytest.mark.parametrize("ransac", [
        {"confidence": 0.99},
        {"inlier_threshold": 3.0, "max_iterations": 500, "confidence": 0.99, "min_inliers": 20},
    ], ids=["partial", "full"])
    def test_ransac_object_round_trip(self, ransac):
        config = ExperimentConfig.from_dict({"ransac": ransac})
        assert config.ransac == RansacConfig(**ransac)
        written = config.to_dict()
        assert written["ransac"] == {**DEFAULT_CONFIG_DICT["ransac"], **ransac}
        assert ExperimentConfig.from_dict(written) == config
        assert ExperimentConfig.from_dict({"ransac": None}) == ExperimentConfig()

    @pytest.mark.parametrize("data, path", [
        ({"ransac": {"seed": 3}}, "ransac.seed"),
        ({"flow": {"noise": {"gaussian_sigma": 1.0, "seed": 3}}}, "flow.noise.seed"),
    ])
    def test_per_trial_seeds_are_not_settings(self, data, path):
        with pytest.raises(ConfigurationError, match=f"config {path}: unknown key"):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("path", [
        "jitter.max_rot_deg", "jitter.max_reproj_px", "scene.z_center", "scene.occluder_coverage",
        "ransac.inlier_threshold", "target_camera.fx", "flow.noise.gaussian_sigma",
    ])
    def test_non_finite_setting_refused(self, path, value):
        data = value
        for key in reversed(path.split(".")):
            data = {key: data}
        with pytest.raises(ConfigurationError, match=rf"config {re.escape(path)} must be finite"):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("setting, path", [
        ({"jitter_max_rot_deg": math.nan}, "jitter.max_rot_deg"),
        ({"z_center": math.inf}, "scene.z_center"),
        ({"target_camera": CameraIntrinsics(math.inf, 600.0, 320.0, 240.0, 640, 480)},
         "target_camera.fx"),
        ({"ransac": RansacConfig(inlier_threshold=math.inf)}, "ransac.inlier_threshold"),
    ])
    def test_non_finite_setting_refused_on_construction(self, setting, path):
        with pytest.raises(ConfigurationError, match=rf"config {path} must be finite"):
            ExperimentConfig(**setting)

    def test_seed_derivation_stable_and_distinct(self):
        a = derive_seed(5, "scene", 0)
        assert a == derive_seed(5, "scene", 0)
        assert a != derive_seed(5, "scene", 1)
        assert a != derive_seed(5, "jitter", 0)


class TestManifest:
    def test_bit_identical_on_rerun(self, workspace):
        _, mesh_path, _ = workspace
        mesh = load_mesh(mesh_path)
        config = ExperimentConfig(mesh_path=str(mesh_path), trials=20, seed=1)
        a = synth_scene_manifest(config, mesh)
        b = synth_scene_manifest(config, mesh)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert len(a["trials"]) == 20

    def test_zero_jitter_initial_equals_gt(self, workspace):
        _, mesh_path, _ = workspace
        mesh = load_mesh(mesh_path)
        config = ExperimentConfig(
            mesh_path=str(mesh_path), trials=5, seed=2,
            jitter_max_rot_deg=0.0, jitter_max_reproj_px=0.0,
        )
        manifest = synth_scene_manifest(config, mesh)
        for entry in manifest["trials"]:
            _, gt, init = scene_from_manifest_entry(entry, mesh, config.target_camera)
            assert np.abs(gt.rotation - init.rotation).max() < 1e-12
            assert np.abs(gt.translation - init.translation).max() < 1e-12

    def test_occluder_count_respected(self, workspace):
        _, mesh_path, _ = workspace
        mesh = load_mesh(mesh_path)
        config = ExperimentConfig(mesh_path=str(mesh_path), trials=3, seed=3, occluder_count=2)
        manifest = synth_scene_manifest(config, mesh)
        assert all(len(e["occluders"]) == 2 for e in manifest["trials"])


@pytest.fixture(scope="module")
def run_artifacts(workspace):
    _, mesh_path, _ = workspace
    mesh = load_mesh(mesh_path)
    config = ExperimentConfig(
        mesh_path=str(mesh_path), trials=4, seed=11, n_exemplars=2,
        gen_count=96, gen_seed=3,
    )
    exemplar_set = generate_exemplar_set(mesh, 96, 1.0, DEFAULT_EXEMPLAR_CAMERA, 3)
    manifest = synth_scene_manifest(config, mesh)
    records = run_refinement(config, mesh, exemplar_set, manifest)
    return config, mesh, exemplar_set, manifest, records


@pytest.fixture(scope="module")
def dumped_flows(run_artifacts, tmp_path_factory):
    """The flow files of run_artifacts' oracle run."""
    config, mesh, exemplar_set, manifest, _ = run_artifacts
    flows = tmp_path_factory.mktemp("flows")
    run_refinement(replace(config, dump_flow_dir=str(flows)), mesh, exemplar_set, manifest)
    return flows


def _empty_flows(flows, trial_id):
    for rank in range(2):
        empty = FlowField(DEFAULT_CROP_SIZE, DEFAULT_CROP_SIZE, [], [])
        save_flow(empty, flows / flow_file_name(trial_id, rank))


# (error, edit of the failing trial's flow files, or its initial depth): each fails one trial
TRIAL_FAILURE_KINDS = [
    ("RobustFailureError", _empty_flows, None),  # no correspondence reaches RANSAC
    ("FlowFileMissingError", lambda flows, t: (flows / flow_file_name(t, 0)).unlink(), None),
    ("FileFormatError",  # a flow file sized for other crops
     lambda flows, t: save_flow(FlowField(8, 8, [], []), flows / flow_file_name(t, 0)), None),
    ("DegeneracyError", None, 1e13),  # the target's crop collapses to a point
    ("BehindCameraError", None, -1.0),  # the target's crop projects points behind the camera
]


_NO_SCIPY_RUN = """
import sys
from pfa.exemplars import generate_exemplar_set
from pfa.mesh import make_box
from pfa.pipeline import DEFAULT_EXEMPLAR_CAMERA, ExperimentConfig, run_refinement
from pfa.pipeline import synth_scene_manifest
mesh = make_box((0.10, 0.08, 0.06))
config = ExperimentConfig(trials=2, n_exemplars=2, occluder_count=1)
exemplar_set = generate_exemplar_set(mesh, 32, 1.0, DEFAULT_EXEMPLAR_CAMERA, 3)
records = run_refinement(config, mesh, exemplar_set, synth_scene_manifest(config, mesh))
assert len(records["trials"]) == 2
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_box_refinement_imports_no_scipy():
    # scipy.spatial's first import costs about 0.5 s and 36 MB, which a box never needs
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    run = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.strip() == "[]"


class TestRunRefinement:
    def test_all_trials_recorded_in_order(self, run_artifacts):
        *_, records = run_artifacts
        assert [t["trial_id"] for t in records["trials"]] == [0, 1, 2, 3]
        for trial in records["trials"]:
            assert trial["refined_report"] is not None
            assert trial["wall_time_ms"] > 0
            assert len(trial["exemplars"]) == 2

    def test_exact_oracle_gives_perfect_add01(self, run_artifacts):
        *_, records = run_artifacts
        summary = summarize_records(records)
        assert summary["refined"]["add_01d"] == 1.0
        assert summary["refined"]["failure_count"] == 0

    def test_mesh_hash_mismatch_panics(self, run_artifacts, tmp_path):
        config, mesh, exemplar_set, manifest, _ = run_artifacts
        from pfa.errors import MeshHashMismatchError

        other = make_tetrahedron(0.06)
        with pytest.raises(MeshHashMismatchError):
            run_refinement(config, other, exemplar_set, manifest)
        write_json(dict(manifest, mesh_hash="00" * 32), tmp_path / "bad.json")
        with pytest.raises(MeshHashMismatchError):
            load_manifest(tmp_path / "bad.json", config, mesh)

    def test_records_ignore_wall_time_deterministic(self, run_artifacts):
        config, mesh, exemplar_set, manifest, records = run_artifacts
        again = run_refinement(config, mesh, exemplar_set, manifest)

        def strip(doc):
            doc = json.loads(json.dumps(doc))
            for t in doc["trials"]:
                t["wall_time_ms"] = 0.0
            return json.dumps(doc, sort_keys=True)

        assert strip(records) == strip(again)

    def test_reports_identical_across_thread_counts(self, run_artifacts):
        # noisy flow from two exemplars: RANSAC sees more than 2048 points
        config, mesh, exemplar_set, manifest, _ = run_artifacts
        noisy = replace(config, noise=FlowNoiseSpec.default_preset(dropout_ratio=0.3))
        reports = []
        for workers in (1, 2):
            records = run_refinement(noisy, mesh, exemplar_set, manifest, workers)
            assert min(sum(e["n_correspondences"] for e in t["exemplars"])
                       for t in records["trials"]) > 2048
            reports.append(json.dumps(summarize_records(records), sort_keys=True).encode())
        assert reports[0] == reports[1]

    def test_threaded_run_matches_sequential(self, run_artifacts):
        config, mesh, exemplar_set, manifest, records = run_artifacts
        threaded = run_refinement(config, mesh, exemplar_set, manifest, workers=4)

        def strip(doc):
            doc = json.loads(json.dumps(doc))
            for t in doc["trials"]:
                t["wall_time_ms"] = 0.0
            return json.dumps(doc, sort_keys=True)

        assert strip(records) == strip(threaded)

    def test_manifest_with_background_seed_refines_the_same(self, run_artifacts, tmp_path):
        config, mesh, exemplar_set, manifest, _ = run_artifacts
        older = json.loads(json.dumps(manifest))
        for entry in older["trials"]:
            entry["background_seed"] = derive_seed(config.seed, "background", entry["trial_id"])
        runs = []
        for name, document in (("new", manifest), ("old", older)):
            write_json(document, tmp_path / f"{name}.json")
            loaded = load_manifest(tmp_path / f"{name}.json", config, mesh)
            records = run_refinement(config, mesh, exemplar_set, loaded)
            for trial in records["trials"]:
                trial["wall_time_ms"] = 0.0
            runs.append(json.dumps(records, sort_keys=True))
        assert "background_seed" not in json.dumps(manifest)
        assert runs[0] == runs[1]

    def test_robust_failure_keeps_exemplar_reports(self, run_artifacts, tmp_path):
        # on 1-px noise a 1e-6 px threshold leaves little but a P3P sample's own points
        config, mesh, exemplar_set, manifest, _ = run_artifacts
        noisy = replace(config, noise=FlowNoiseSpec(gaussian_sigma=1.0))
        records = run_refinement(noisy, mesh, exemplar_set, manifest)
        failed = run_refinement(replace(noisy, ransac=RansacConfig(inlier_threshold=1e-6)), mesh,
                                exemplar_set, manifest)
        for good, bad in zip(records["trials"], failed["trials"]):
            found = re.search(r"best consensus (\d+)/(\d+)\)$", bad["failure_reason"])
            assert good["failure_reason"] is None
            assert bad["failure_reason"].startswith("RobustFailureError: ") and found
            consensus, total = int(found[1]), int(found[2])
            assert len(bad["exemplars"]) == config.n_exemplars
            for a, b in zip(good["exemplars"], bad["exemplars"]):
                assert {**a, "inlier_count": 0} == {**b, "inlier_count": 0}
            assert sum(e["n_correspondences"] for e in bad["exemplars"]) == total
            assert sum(e["inlier_count"] for e in bad["exemplars"]) == consensus
        assert sum(e["inlier_count"] for t in failed["trials"] for e in t["exemplars"]) > 0

        # a fully hidden target: no flow file holds a valid pixel, so RANSAC
        # gets no correspondence, and every retrieved exemplar still reports
        for trial_id in range(config.trials):
            for rank in range(config.n_exemplars):
                empty = FlowField(DEFAULT_CROP_SIZE, DEFAULT_CROP_SIZE, [], [])
                save_flow(empty, tmp_path / flow_file_name(trial_id, rank))
        hidden = run_refinement(replace(noisy, flow_source="files", flow_directory=str(tmp_path)),
                                mesh, exemplar_set, manifest)
        for good, bad in zip(records["trials"], hidden["trials"]):
            assert bad["failure_reason"] == (
                "RobustFailureError: need at least min_inliers=12 correspondences, got 0")
            assert bad["exemplars"] == [
                {**e, "n_correspondences": 0, "inlier_count": 0} for e in good["exemplars"]]

    def test_missing_flow_file_recorded_as_failure(self, run_artifacts, tmp_path):
        config, mesh, exemplar_set, manifest, _ = run_artifacts
        from dataclasses import replace

        broken = replace(config, flow_source="files", flow_directory=str(tmp_path))
        records = run_refinement(broken, mesh, exemplar_set, manifest)
        for trial in records["trials"]:
            assert trial["failure_reason"] is not None
            assert "FlowFileMissing" in trial["failure_reason"]
        summary = summarize_records(records)
        assert summary["refined"]["failure_count"] == len(records["trials"])

    def test_dumped_flows_reproduce_oracle_run(self, run_artifacts, tmp_path):
        config, mesh, exemplar_set, manifest, records = run_artifacts
        from dataclasses import replace

        dump_dir = tmp_path / "flows"
        dumping = replace(config, dump_flow_dir=str(dump_dir))
        run_refinement(dumping, mesh, exemplar_set, manifest)
        assert len(list(dump_dir.glob("*.pfaf"))) == 4 * 2

        ingesting = replace(config, flow_source="files", flow_directory=str(dump_dir))
        replayed = run_refinement(ingesting, mesh, exemplar_set, manifest)
        for a, b in zip(records["trials"], replayed["trials"]):
            assert a["refined_pose"] == b["refined_pose"]


    def test_corrupt_flow_file_fails_only_its_trial(self, run_artifacts, tmp_path):
        config, mesh, exemplar_set, manifest, records = run_artifacts
        from dataclasses import replace

        dump_dir = tmp_path / "flows"
        run_refinement(replace(config, dump_flow_dir=str(dump_dir)), mesh, exemplar_set, manifest)
        (dump_dir / flow_file_name(1, 0)).write_bytes(b"garbage!")

        ingesting = replace(config, flow_source="files", flow_directory=str(dump_dir))
        replayed = run_refinement(ingesting, mesh, exemplar_set, manifest)
        assert [t["trial_id"] for t in replayed["trials"]] == [0, 1, 2, 3]
        for a, b in zip(records["trials"], replayed["trials"]):
            if b["trial_id"] == 1:
                assert b["failure_reason"].startswith("BadMagicError")
                assert b["refined_pose"] is None and b["refined_report"] is None
            else:
                assert b["failure_reason"] is None
                assert a["refined_pose"] == b["refined_pose"]

    @pytest.mark.parametrize("error, edit_flows, depth", TRIAL_FAILURE_KINDS,
                             ids=[row[0] for row in TRIAL_FAILURE_KINDS])
    def test_each_failure_kind_fails_only_its_trial(
        self, run_artifacts, dumped_flows, tmp_path, error, edit_flows, depth
    ):
        config, mesh, exemplar_set, manifest, records = run_artifacts
        edited = json.loads(json.dumps(manifest))
        if edit_flows is None:
            edited["trials"][1]["initial_pose"]["translation"][2] = depth
        else:
            flows = shutil.copytree(dumped_flows, tmp_path / "flows")
            edit_flows(flows, 1)
            config = replace(config, flow_source="files", flow_directory=str(flows))
        write_json(edited, tmp_path / "manifest.json")
        loaded = load_manifest(tmp_path / "manifest.json", config, mesh)
        trials = run_refinement(config, mesh, exemplar_set, loaded)["trials"]

        bad = trials[1]
        assert bad["failure_reason"].startswith(f"{error}: ")
        assert bad["refined_pose"] is None and bad["refined_report"] is None
        if error == "RobustFailureError":  # every retrieved exemplar reports, with nothing lifted
            assert bad["exemplars"] == [{**e, "n_correspondences": 0, "inlier_count": 0}
                                        for e in records["trials"][1]["exemplars"]]
        else:
            assert bad["exemplars"] == []
        for before, after in zip(records["trials"], trials):
            if after is not bad:
                assert after["failure_reason"] is None
                assert after["refined_pose"] == before["refined_pose"]


def _occluded_run_in_units(scale: float) -> list:
    """Ten occluded-oracle trials with every length multiplied by ``scale``:
    the mesh, ``z_bar`` (so the scene depth) and the lateral range."""
    mesh = make_box(np.array(BOX_EXTENTS) * scale)
    config = ExperimentConfig(
        trials=10, seed=3, n_exemplars=4, gen_z_bar=scale, lateral_range=0.05 * scale,
        occluder_count=3, occluder_coverage=0.8,
        noise=FlowNoiseSpec.default_preset(dropout_ratio=0.6),
    )
    exemplar_set = generate_exemplar_set(mesh, 256, scale, DEFAULT_EXEMPLAR_CAMERA, 21)
    return run_refinement(config, mesh, exemplar_set, synth_scene_manifest(config, mesh))["trials"]


@pytest.fixture(scope="module")
def metre_run():
    return _occluded_run_in_units(1.0)


@pytest.mark.parametrize("scale", [0.01, 1000.0])
def test_same_scene_in_other_length_units(metre_run, scale):
    # the same scene in metres and in units 100x longer or 1000x shorter:
    # no length in the engine may be a fixed number of metres
    base, scaled = metre_run, _occluded_run_in_units(scale)
    assert [t["refined_pose"] is None for t in scaled] == [t["refined_pose"] is None for t in base]
    for a, b in zip(base, scaled):
        assert [e["id"] for e in b["exemplars"]] == [e["id"] for e in a["exemplars"]]
        for x, y in zip(a["exemplars"], b["exemplars"]):
            assert abs(x["n_correspondences"] - y["n_correspondences"]) <= 1
        if a["refined_report"] is not None:
            ra, rb = a["refined_report"], b["refined_report"]
            assert abs(rb["rotation_err_deg"] - ra["rotation_err_deg"]) <= 0.05
            shift = abs(rb["translation_err_m"] / scale - ra["translation_err_m"])
            assert shift <= math.radians(0.05)  # what a 0.05 degree turn moves at depth 1


class TestEval:
    @staticmethod
    def _perfect_records():
        pose = {"rotation": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "translation": [0, 0, 1]}
        report = {"add": 0.0, "add_s": 0.0, "rotation_err_deg": 0.0, "translation_err_m": 0.0}
        return {
            "schema_version": 1,
            "label": "perfect",
            "n_exemplars": 4,
            "mesh_hash": "00" * 32,
            "diameter": 0.14,
            "z_bar": 1.0,
            "config": {},
            "trials": [
                {
                    "trial_id": i,
                    "gt_pose": pose,
                    "initial_pose": pose,
                    "refined_pose": pose,
                    "failure_reason": None,
                    "exemplars": [],
                    "initial_report": report,
                    "refined_report": report,
                    "wall_time_ms": 1.0,
                }
                for i in range(3)
            ],
        }

    def test_perfect_predictions_score_one(self):
        table, curves = evaluate_records([self._perfect_records()])
        assert table[0]["refined_add_01d"] == 1.0
        assert table[0]["refined_auc_add"] == 1.0
        assert curves[-1]["accuracy"] == 1.0

    def test_one_row_per_sweep_point(self):
        a = self._perfect_records()
        b = json.loads(json.dumps(a))
        b["n_exemplars"] = 1
        table, _ = evaluate_records([a, b])
        assert [row["n_exemplars"] for row in table] == [1, 4]

    def test_matches_independent_recomputation(self, workspace):
        # recompute ADD-0.1d from the raw trial records with plain python
        _, mesh_path, _ = workspace
        mesh = load_mesh(mesh_path)
        config = ExperimentConfig(
            mesh_path=str(mesh_path), trials=4, seed=11, n_exemplars=1,
            gen_count=96, gen_seed=3,
            noise=FlowNoiseSpec.default_preset(),
        )
        exemplar_set = generate_exemplar_set(mesh, 96, 1.0, DEFAULT_EXEMPLAR_CAMERA, 3)
        manifest = synth_scene_manifest(config, mesh)
        records = run_refinement(config, mesh, exemplar_set, manifest)
        table, _ = evaluate_records([records])
        threshold = 0.1 * records["diameter"]
        share = sum(
            1
            for t in records["trials"]
            if t["refined_report"] is not None and t["refined_report"]["add"] < threshold
        ) / len(records["trials"])
        assert table[0]["refined_add_01d"] == share


class TestCli:
    @staticmethod
    def _config(tmp_path, command, data, *flags):
        """The config ``pfa <command>`` runs with, for a file holding ``data``."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        argv = [command, "--config", str(config_path), "--out", "out", *flags]
        if command == "refine":
            argv += ["--manifest", "manifest.json"]
        return pfa.cli._config_from_args(pfa.cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("command, flag, name, file_value, flag_value", FLAG_FIELDS,
                             ids=[f"{command}{flag}" for command, flag, *_ in FLAG_FIELDS])
    def test_flag_wins_over_the_file(self, tmp_path, command, flag, name, file_value, flag_value):
        settings = {"mesh_path": "m.obj", name: file_value}
        if name == "flow_directory":
            settings["flow_source"] = "files"
        in_file = ExperimentConfig(**settings)
        assert self._config(tmp_path, command, in_file.to_dict()) == in_file
        flagged = self._config(tmp_path, command, in_file.to_dict(), flag, str(flag_value))
        assert flagged == replace(in_file, **{name: flag_value})

    def test_every_config_flag_is_checked(self):
        subparsers = pfa.cli.build_parser()._subparsers._group_actions[0].choices
        declared = {
            (command, action.option_strings[0], action.dest)
            for command, parser in subparsers.items()
            for action in parser._actions if action.dest in CONFIG_JSON_PATHS
        }
        assert declared == {row[:3] for row in FLAG_FIELDS}

    def test_flow_dir_flag_reads_flow_files(self, tmp_path):
        config = self._config(tmp_path, "refine", {"mesh": "m.obj"}, "--flow-dir", "flows")
        assert (config.flow_source, config.flow_directory) == ("files", "flows")

    def test_full_chain_and_exit_codes(self, workspace, tmp_path, capsys):
        root, mesh_path, config_path = workspace
        out_set = tmp_path / "set.pfax"
        assert main(["gen-exemplars", "--config", str(config_path), "--out", str(out_set)]) == 0
        printed = capsys.readouterr().out
        assert "96 exemplars" in printed and "bytes" in printed

        manifest_path = tmp_path / "manifest.json"
        assert main(["synth-scenes", "--config", str(config_path), "--out", str(manifest_path)]) == 0

        run_dir = tmp_path / "run"
        code = main([
            "refine", "--config", str(config_path), "--manifest", str(manifest_path),
            "--out", str(run_dir), "--exemplars", str(out_set),
        ])
        assert code == 0
        assert (run_dir / "records.json").exists()
        assert (run_dir / "report.csv").exists()

        eval_dir = tmp_path / "eval"
        assert main(["eval", "--records", str(run_dir), "--out", str(eval_dir)]) == 0
        assert (eval_dir / "metrics.csv").exists()
        assert (eval_dir / "curves.csv").exists()

    @pytest.mark.parametrize("command", ["synth-scenes", "refine"])
    @pytest.mark.parametrize("data, path", MALFORMED_CONFIGS)
    def test_malformed_config_is_exit_2(self, workspace, tmp_path, capsys, command, data, path):
        _, mesh_path, _ = workspace
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(dict(data, mesh=str(mesh_path))))
        argv = [command, "--config", str(config_path), "--out", str(tmp_path / "out")]
        if command == "refine":
            argv += ["--manifest", str(tmp_path / "manifest.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"config {path}:" in err and "Traceback" not in err

    @staticmethod
    def _refine_with_bad_flow_file(workspace, tmp_path, corrupt, error="FileFormatError"):
        """Three trials refined from dumped flow files, trial 1's rank-0 file corrupted."""
        _, _, config_path = workspace
        set_path, manifest_path = tmp_path / "set.pfax", tmp_path / "manifest.json"
        flows, run_dir = tmp_path / "flows", tmp_path / "run"
        common = ["--config", str(config_path), "--manifest", str(manifest_path),
                  "--exemplars", str(set_path)]
        assert main(["gen-exemplars", "--config", str(config_path), "--out", str(set_path)]) == 0
        assert main(["synth-scenes", "--config", str(config_path), "--trials", "3",
                     "--out", str(manifest_path)]) == 0
        assert main(["refine", *common, "--out", str(tmp_path / "dump"),
                     "--dump-flows", str(flows)]) == 0
        bad = flows / "trial00001_rank0.pfaf"
        corrupt(bad)

        assert main(["refine", *common, "--out", str(run_dir), "--flow-dir", str(flows)]) == 0
        trials = json.loads((run_dir / "records.json").read_text())["trials"]
        assert [t["trial_id"] for t in trials] == [0, 1, 2]
        assert [t["failure_reason"] is not None for t in trials] == [False, True, False]
        assert trials[1]["failure_reason"].startswith(error)
        assert str(bad) in trials[1]["failure_reason"]
        return trials[1]["failure_reason"]

    def test_unreadable_flow_file_fails_only_its_trial(self, workspace, tmp_path):
        def make_directory(bad):
            bad.unlink()
            bad.mkdir()

        reason = self._refine_with_bad_flow_file(
            workspace, tmp_path, make_directory, error="FlowFileMissingError")
        assert "unreadable" in reason

    def test_flow_dir_that_is_no_directory_is_exit_2(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        _, _, config_path = workspace
        manifest_path = tmp_path / "manifest.json"
        assert main(["synth-scenes", "--config", str(config_path), "--out", str(manifest_path)]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("the exemplar set was built for a refused flow directory")

        monkeypatch.setattr("pfa.pipeline.generate_exemplar_set", refuse)
        a_file = tmp_path / "flows.txt"
        a_file.write_text("not a directory")
        for flow_dir in (tmp_path / "nosuchdir", a_file):
            run_dir = tmp_path / "run"
            capsys.readouterr()
            assert main(["refine", "--config", str(config_path), "--manifest", str(manifest_path),
                         "--out", str(run_dir), "--flow-dir", str(flow_dir)]) == 2
            err = capsys.readouterr().err
            assert "flow.directory" in err and str(flow_dir) in err and "Traceback" not in err
            assert not run_dir.exists()

    def test_wrong_size_flow_file_fails_only_its_trial(self, workspace, tmp_path):
        self._refine_with_bad_flow_file(
            workspace, tmp_path,
            lambda bad: save_flow(FlowField(8, 8, np.arange(64), np.zeros((64, 2))), bad),
        )

    def test_non_finite_flow_vector_fails_only_its_trial(self, workspace, tmp_path):
        def put_nan(bad):
            data = bytearray(bad.read_bytes())
            data[-4:] = np.array([np.nan], dtype="<f4").tobytes()  # the last dv
            bad.write_bytes(bytes(data))

        reason = self._refine_with_bad_flow_file(workspace, tmp_path, put_nan)
        assert "finite" in reason

    def test_gen_zero_count_is_config_error(self, workspace, tmp_path):
        _, mesh_path, config_path = workspace
        code = main([
            "gen-exemplars", "--config", str(config_path),
            "--count", "0", "--out", str(tmp_path / "x.pfax"),
        ])
        assert code == 2

    def test_gen_unwritable_path_is_io_error(self, workspace, capsys):
        _, mesh_path, config_path = workspace
        code = main([
            "gen-exemplars", "--config", str(config_path),
            "--out", "/nonexistent-dir/set.pfax",
        ])
        assert code == 3
        assert "/nonexistent-dir/set.pfax" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["two", "0", "-4"])
    def test_pfa_threads_must_be_a_positive_integer(
        self, workspace, tmp_path, capsys, monkeypatch, threads
    ):
        _, _, config_path = workspace
        manifest_path, run_dir = tmp_path / "manifest.json", tmp_path / "run"
        assert main(["synth-scenes", "--config", str(config_path), "--out", str(manifest_path)]) == 0
        monkeypatch.setenv("PFA_THREADS", threads)
        assert main(["refine", "--config", str(config_path), "--manifest", str(manifest_path),
                     "--out", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert f"PFA_THREADS must be a positive integer, got {threads!r}" in err
        assert not run_dir.exists()

    def test_pfa_threads_is_refused_before_any_input_is_read(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        # the config names a mesh that does not exist; the thread count is refused first
        _, _, config_path = workspace
        config = json.loads(config_path.read_text())
        config["mesh"] = str(tmp_path / "no-such-mesh.obj")
        no_mesh = tmp_path / "config.json"
        no_mesh.write_text(json.dumps(config))
        monkeypatch.setenv("PFA_THREADS", "0")
        run_dir = tmp_path / "run"
        assert main(["refine", "--config", str(no_mesh), "--manifest", str(tmp_path / "m.json"),
                     "--out", str(run_dir)]) == 2
        assert "PFA_THREADS" in capsys.readouterr().err
        assert not run_dir.exists()

    def test_out_that_cannot_be_made_is_refused_before_the_first_trial(
        self, workspace, tmp_path, capsys
    ):
        _, _, config_path = workspace
        manifest_path = tmp_path / "manifest.json"
        assert main(["synth-scenes", "--config", str(config_path), "--out", str(manifest_path)]) == 0
        a_file, flows = tmp_path / "out.txt", tmp_path / "flows"
        a_file.write_text("not a directory")
        flows.mkdir()
        assert main(["refine", "--config", str(config_path), "--manifest", str(manifest_path),
                     "--out", str(a_file), "--dump-flows", str(flows)]) == 3
        assert str(a_file) in capsys.readouterr().err
        assert list(flows.iterdir()) == []

    def test_refine_mesh_mismatch_is_exit_4(self, workspace, tmp_path):
        root, mesh_path, config_path = workspace
        other_mesh = tmp_path / "tetra.obj"
        save_obj(make_tetrahedron(0.06), other_mesh)
        manifest_path = tmp_path / "m.json"
        assert main(["synth-scenes", "--config", str(config_path), "--out", str(manifest_path)]) == 0
        code = main([
            "refine", "--config", str(config_path), "--manifest", str(manifest_path),
            "--out", str(tmp_path / "r"), "--mesh", str(other_mesh),
        ])
        assert code == 4

    @pytest.mark.parametrize("missing", [None, "absent", "null"],
                             ids=["other-camera", "no-camera", "null-camera"])
    def test_refine_camera_mismatch_is_exit_4(self, workspace, tmp_path, capsys, missing):
        _, _, config_path = workspace
        manifest_path = tmp_path / "manifest.json"
        assert main(["synth-scenes", "--config", str(config_path), "--out", str(manifest_path)]) == 0
        config = json.loads(config_path.read_text())
        if missing:
            manifest = json.loads(manifest_path.read_text())
            if missing == "absent":
                del manifest["target_camera"]
            else:
                manifest["target_camera"] = None
            manifest_path.write_text(json.dumps(manifest))
        else:
            config["target_camera"] = {
                "fx": 300.0, "fy": 300.0, "cx": 100.0, "cy": 100.0, "width": 200, "height": 200,
            }
        refine_config = tmp_path / "refine.json"
        refine_config.write_text(json.dumps(config))
        capsys.readouterr()
        assert main(["refine", "--config", str(refine_config), "--manifest", str(manifest_path),
                     "--out", str(tmp_path / "run")]) == 4
        err = capsys.readouterr().err
        assert "target camera" in err and "Traceback" not in err
        assert "width=640" in err and ("missing" if missing else "width=200") in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("mismatch", ["mesh", "camera"])
    def test_refused_refine_builds_no_exemplar_set(
        self, workspace, tmp_path, monkeypatch, mismatch
    ):
        _, _, config_path = workspace
        manifest_path = tmp_path / "manifest.json"
        assert main(["synth-scenes", "--config", str(config_path), "--out", str(manifest_path)]) == 0
        manifest = json.loads(manifest_path.read_text())
        if mismatch == "mesh":
            manifest["mesh_hash"] = "0" * 64
        else:
            manifest["target_camera"]["fx"] += 1.0
        manifest_path.write_text(json.dumps(manifest))

        def refuse(*args, **kwargs):
            raise AssertionError("the exemplar set was built for a refused manifest")

        monkeypatch.setattr("pfa.pipeline.generate_exemplar_set", refuse)
        assert main(["refine", "--config", str(config_path), "--manifest", str(manifest_path),
                     "--out", str(tmp_path / "run")]) == 4
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key, value", [("max_correspondences", -5), ("pad", 0.0)])
    def test_refine_bad_crop_setting_is_exit_2(self, workspace, tmp_path, capsys, key, value):
        _, _, config_path = workspace
        manifest_path = tmp_path / "manifest.json"
        assert main(["synth-scenes", "--config", str(config_path), "--out", str(manifest_path)]) == 0
        config = dict(json.loads(config_path.read_text()), crop={key: value})
        bad_config = tmp_path / "bad.json"
        bad_config.write_text(json.dumps(config))
        capsys.readouterr()
        assert main(["refine", "--config", str(bad_config), "--manifest", str(manifest_path),
                     "--out", str(tmp_path / "run")]) == 2
        assert f"crop.{key} must be" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_refine_zero_generate_count_is_exit_2_before_the_mesh(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        _, _, config_path = workspace
        manifest_path = tmp_path / "manifest.json"
        assert main(["synth-scenes", "--config", str(config_path), "--out", str(manifest_path)]) == 0
        bad_config = tmp_path / "bad.json"
        bad_config.write_text(json.dumps(
            dict(json.loads(config_path.read_text()), exemplars={"generate": {"count": 0}})))
        capsys.readouterr()

        def no_mesh(path):
            raise AssertionError(f"loaded the mesh {path}")

        monkeypatch.setattr(pfa.cli, "load_mesh", no_mesh)
        assert main(["refine", "--config", str(bad_config), "--manifest", str(manifest_path),
                     "--out", str(tmp_path / "run")]) == 2
        assert "config exemplars.generate.count must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("edit, message", MALFORMED_MANIFESTS)
    def test_malformed_manifest_is_exit_2(self, workspace, tmp_path, capsys, edit, message):
        _, _, config_path = workspace
        manifest_path = tmp_path / "manifest.json"
        assert main(["synth-scenes", "--config", str(config_path), "--out", str(manifest_path)]) == 0
        manifest = json.loads(manifest_path.read_text())
        manifest = edit(manifest) or manifest
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["refine", "--config", str(config_path), "--manifest", str(manifest_path),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert f"{manifest_path}: {message}" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("extents, translation, message", [
        ([1e-200] * 3, None, "triangle 0 has zero area"),
        ([0.1] * 3, [0.0, 0.0, -0.5], "scene mesh reaches depth -0.5"),
    ], ids=["degenerate-occluder", "occluder-behind-camera"])
    def test_unbuildable_scene_is_exit_2(
        self, workspace, tmp_path, capsys, monkeypatch, extents, translation, message
    ):
        _, _, config_path = workspace
        manifest_path = tmp_path / "manifest.json"
        assert main(["synth-scenes", "--config", str(config_path), "--out", str(manifest_path)]) == 0
        manifest = json.loads(manifest_path.read_text())
        pose = json.loads(json.dumps(manifest["trials"][2]["gt_pose"]))
        if translation is not None:
            pose["translation"] = translation
        manifest["trials"][2]["occluders"] = [{"extents": extents, "pose": pose}]
        manifest_path.write_text(json.dumps(manifest))

        def refuse(*args, **kwargs):
            raise AssertionError("the exemplar set was built for a refused manifest")

        monkeypatch.setattr("pfa.pipeline.generate_exemplar_set", refuse)
        capsys.readouterr()
        assert main(["refine", "--config", str(config_path), "--manifest", str(manifest_path),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert f"{manifest_path}: manifest trials[2]: {message}" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_occluder_behind_camera_is_exit_2(self, workspace, tmp_path, capsys):
        # a coverage of 30 makes an occluder about 30 diameters wide, reaching behind the camera
        _, _, config_path = workspace
        config = dict(json.loads(config_path.read_text()),
                      scene={"occluder_count": 3, "occluder_coverage": 30.0})
        bad_config, manifest_path = tmp_path / "bad.json", tmp_path / "manifest.json"
        bad_config.write_text(json.dumps(config))
        capsys.readouterr()
        assert main(["synth-scenes", "--config", str(bad_config),
                     "--out", str(manifest_path)]) == 2
        err = capsys.readouterr().err
        assert re.search(r"trial 0: scene mesh reaches depth -[0-9.]+; all meshes must be "
                         r"fully in front of the camera; scene\.occluder_coverage is 30\.0", err)
        assert "Traceback" not in err and not manifest_path.exists()

    @pytest.mark.parametrize("section, key", [
        ("jitter", "max_rot_deg"), ("jitter", "max_reproj_px"), ("scene", "z_center"),
    ])
    def test_synth_non_finite_setting_is_exit_2(self, workspace, tmp_path, capsys, section, key):
        _, _, config_path = workspace
        config = dict(json.loads(config_path.read_text()), **{section: {key: math.nan}})
        bad_config, manifest_path = tmp_path / "bad.json", tmp_path / "manifest.json"
        bad_config.write_text(json.dumps(config))
        capsys.readouterr()
        assert main(["synth-scenes", "--config", str(bad_config),
                     "--out", str(manifest_path)]) == 2
        err = capsys.readouterr().err
        assert f"{bad_config}: config {section}.{key} must be finite, got nan" in err
        assert "Traceback" not in err and not manifest_path.exists()

    @pytest.mark.parametrize("z_center", [0.0, -0.5])
    def test_synth_non_positive_z_center_is_exit_2(self, workspace, tmp_path, capsys, z_center):
        # with an occluder, a zero z_center used to divide by zero
        _, _, config_path = workspace
        config = dict(json.loads(config_path.read_text()),
                      scene={"occluder_count": 1, "z_center": z_center})
        bad_config, manifest_path = tmp_path / "bad.json", tmp_path / "manifest.json"
        bad_config.write_text(json.dumps(config))
        capsys.readouterr()
        assert main(["synth-scenes", "--config", str(bad_config),
                     "--out", str(manifest_path)]) == 2
        err = capsys.readouterr().err
        assert f"{bad_config}: config scene.z_center must be positive or null, got {z_center}" in err
        assert "Traceback" not in err and not manifest_path.exists()

    def test_unbuildable_scene_without_occluders_names_no_coverage(
        self, workspace, tmp_path, capsys
    ):
        # the box reaches about 0.07 m from its center, behind a camera 0.01 m away
        _, _, config_path = workspace
        config = dict(json.loads(config_path.read_text()), scene={"z_center": 0.01})
        bad_config, manifest_path = tmp_path / "bad.json", tmp_path / "manifest.json"
        bad_config.write_text(json.dumps(config))
        capsys.readouterr()
        assert main(["synth-scenes", "--config", str(bad_config),
                     "--out", str(manifest_path)]) == 2
        err = capsys.readouterr().err
        assert re.search(r"trial 0: scene mesh reaches depth -[0-9.]+; all meshes must be "
                         r"fully in front of the camera$", err.strip())
        assert "Traceback" not in err and not manifest_path.exists()

    def test_set_naming_a_missing_triangle_is_exit_2(self, workspace, tmp_path, capsys):
        _, _, config_path = workspace
        set_path, manifest_path = tmp_path / "set.pfax", tmp_path / "manifest.json"
        assert main(["gen-exemplars", "--config", str(config_path), "--out", str(set_path)]) == 0
        assert main(["synth-scenes", "--config", str(config_path), "--out", str(manifest_path)]) == 0
        exemplar_set = load_set(set_path)
        for exemplar in exemplar_set.exemplars:
            exemplar.tri[:] = 1000  # the box has 12 triangles
        save_set(exemplar_set, set_path)
        capsys.readouterr()
        assert main(["refine", "--config", str(config_path), "--manifest", str(manifest_path),
                     "--exemplars", str(set_path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert f"{set_path}: triangle id 1000 is out of range for a mesh of 12 triangles" in err
        assert "Traceback" not in err and not (tmp_path / "run").exists()

    def test_set_for_another_mesh_is_exit_4_whatever_its_triangle_ids(self, workspace, tmp_path):
        # box exemplars name triangles up to 11, past the tetrahedron's 4
        _, _, config_path = workspace
        tetra, set_path = tmp_path / "tetra.obj", tmp_path / "box.pfax"
        manifest_path = tmp_path / "manifest.json"
        save_obj(make_tetrahedron(0.06), tetra)
        assert main(["gen-exemplars", "--config", str(config_path), "--out", str(set_path)]) == 0
        assert main(["synth-scenes", "--config", str(config_path), "--mesh", str(tetra),
                     "--out", str(manifest_path)]) == 0
        assert main(["refine", "--config", str(config_path), "--mesh", str(tetra),
                     "--manifest", str(manifest_path), "--exemplars", str(set_path),
                     "--out", str(tmp_path / "run")]) == 4

    def test_set_for_another_mesh_names_the_file_and_the_mesh(self, workspace, tmp_path, capsys):
        _, mesh_path, config_path = workspace
        other_mesh, other_set = tmp_path / "other.obj", tmp_path / "other.pfax"
        manifest_path = tmp_path / "manifest.json"
        save_obj(make_box((0.12, 0.08, 0.06)), other_mesh)
        assert main(["gen-exemplars", "--config", str(config_path), "--mesh", str(other_mesh),
                     "--out", str(other_set)]) == 0
        assert main(["synth-scenes", "--config", str(config_path), "--out", str(manifest_path)]) == 0
        capsys.readouterr()
        assert main(["refine", "--config", str(config_path), "--manifest", str(manifest_path),
                     "--exemplars", str(other_set), "--out", str(tmp_path / "run")]) == 4
        err = capsys.readouterr().err
        assert f"{other_set}: mesh {mesh_path} is not the mesh the exemplar set was built from" in err
        assert "Traceback" not in err and not (tmp_path / "run").exists()

    def test_manifest_for_another_mesh_names_the_file_and_the_mesh(
        self, workspace, tmp_path, capsys
    ):
        _, _, config_path = workspace
        other_mesh, manifest_path = tmp_path / "other.obj", tmp_path / "manifest.json"
        save_obj(make_box((0.12, 0.08, 0.06)), other_mesh)
        assert main(["synth-scenes", "--config", str(config_path), "--out", str(manifest_path)]) == 0
        capsys.readouterr()
        assert main(["refine", "--config", str(config_path), "--manifest", str(manifest_path),
                     "--mesh", str(other_mesh), "--out", str(tmp_path / "run")]) == 4
        err = capsys.readouterr().err
        assert (f"{manifest_path}: mesh {other_mesh} is not the mesh the manifest was built "
                "from (mesh digests differ)") in err
        assert "Traceback" not in err and not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag, value, path", [
        ("--zbar", "inf", "exemplars.generate.z_bar"),
        ("--seed", "-1", "exemplars.generate.seed"),
    ])
    def test_gen_bad_flag_is_exit_2(self, workspace, tmp_path, capsys, flag, value, path):
        _, _, config_path = workspace
        out = tmp_path / "x.pfax"
        capsys.readouterr()
        assert main(["gen-exemplars", "--config", str(config_path), flag, value,
                     "--out", str(out)]) == 2
        assert f"{path} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", MALFORMED_RECORDS)
    def test_malformed_records_is_exit_2(self, tmp_path, capsys, edit, message):
        records = TestEval._perfect_records()
        edited = edit(records)
        path = tmp_path / "records.json"
        path.write_text(json.dumps(edited if isinstance(edited, list) else records))
        assert main(["eval", "--records", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: {message}" in err and "Traceback" not in err

    def test_internal_value_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        # exit 2 means bad input; a ValueError from an invariant is a programming error
        def broken(path):
            raise ValueError("internal invariant broken")

        monkeypatch.setattr(pfa.cli, "load_records_documents", broken)
        with pytest.raises(ValueError, match="internal invariant broken"):
            main(["eval", "--records", str(tmp_path), "--out", str(tmp_path / "o")])

    def test_eval_without_records_is_config_error(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["eval", "--records", str(empty), "--out", str(tmp_path / "o")]) == 2

    def test_byte_identical_reports(self, workspace, tmp_path):
        _, mesh_path, config_path = workspace
        manifest_path = tmp_path / "manifest.json"
        main(["synth-scenes", "--config", str(config_path), "--out", str(manifest_path)])
        outputs = []
        for name in ("r1", "r2"):
            run_dir = tmp_path / name
            assert main([
                "refine", "--config", str(config_path), "--manifest", str(manifest_path),
                "--out", str(run_dir),
            ]) == 0
            outputs.append(run_dir)
        assert (outputs[0] / "report.json").read_bytes() == (outputs[1] / "report.json").read_bytes()
        assert (outputs[0] / "report.csv").read_bytes() == (outputs[1] / "report.csv").read_bytes()

"""Acceptance criteria: one test per criterion, printed pass/fail lines.

Every tolerance is pinned here. The synthetic geometry backing each
criterion (meshes, cameras, occlusion levels, seeds) is frozen so the
suite is fully deterministic; reruns produce identical outcomes.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    make_plate,
    make_tetrahedron,
    oracle_flow_for,
    ray_trace_reference,
    random_small_mesh,
)
from pfa.correspond import CorrespondenceSet
from pfa.crops import CropTransform, align_intrinsics, compute_crop, lift_to_image
from pfa.exemplars import (
    generate_exemplar_set,
    load_set,
    mean_query_distance,
    save_set,
)
from pfa.flow import FlowNoiseSpec, OracleFlowSource, load_flow, save_flow
from pfa.geometry import (
    CameraIntrinsics,
    RigidPose,
    geodesic_distance,
    pose_jitter,
    project_points,
    rotation_about_axis,
    rotation_from_rotvec,
    sample_rotations,
)
from pfa.mesh import make_box, save_obj
from pfa.metrics import add_error, add_s_error, auc_metric
from pfa.pipeline import (
    DEFAULT_EXEMPLAR_CAMERA,
    ExperimentConfig,
    run_refinement,
    summarize_records,
    synth_scene_manifest,
)
from pfa.pnp import reprojection_jacobian, reprojection_residuals, solve_pnp
from pfa.raster import SceneSpec, rasterize
from pfa.refine import RansacConfig, ransac_pnp, refine_pose

K_T = CameraIntrinsics(600.0, 600.0, 320.0, 240.0, 640, 480)
BOX = make_box((0.10, 0.08, 0.06))
Z_BAR = 1.0


def _announce(number: int, description: str):
    def _mark(passed: bool):
        status = "PASS" if passed else "FAIL"
        print(f"\nACCEPTANCE {number} {status}: {description}")

    return _mark


@pytest.fixture(scope="module")
def box_set():
    return generate_exemplar_set(BOX, 512, Z_BAR, DEFAULT_EXEMPLAR_CAMERA, seed=11)


@pytest.fixture(scope="module")
def box_mesh_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("mesh") / "box.obj"
    save_obj(BOX, path)
    return path


def test_criterion_1_exact_flow_recovery(box_set):
    mark = _announce(1, "exact-flow recovery: 100/100 within 0.1 deg / 1e-3 z_bar, "
                        ">=30% of initial poses fail ADD-0.1d, runtime < 2 min")
    passed = False
    try:
        start = time.time()
        rng = np.random.default_rng(100)
        initial_fail = 0
        refined_ok = 0
        refined_add_ok = 0
        for trial in range(100):
            rotation = sample_rotations(1, 3000 + trial)[0]
            gt = RigidPose(
                rotation,
                [rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05),
                 Z_BAR * (1 + rng.uniform(-0.2, 0.2))],
            )
            initial = pose_jitter(gt, K_T, BOX, 20.0, 10.0, seed=4000 + trial)
            scene = SceneSpec(BOX, gt, (), K_T)
            source = OracleFlowSource(scene, gt)
            result = refine_pose(
                initial, box_set, BOX, K_T, source, 1, RansacConfig(), trial
            )
            if add_error(gt, initial, BOX) >= 0.1 * BOX.diameter:
                initial_fail += 1
            refined = result.estimate.pose
            rot_err = geodesic_distance(gt.rotation, refined.rotation)
            trans_err = float(np.linalg.norm(gt.translation - refined.translation))
            if rot_err < 0.1 and trans_err < 1e-3 * Z_BAR:
                refined_ok += 1
            if add_error(gt, refined, BOX) < 0.1 * BOX.diameter:
                refined_add_ok += 1
        elapsed = time.time() - start
        assert refined_ok == 100, f"only {refined_ok}/100 within pose tolerance"
        assert refined_add_ok == 100, f"refined ADD-0.1d {refined_add_ok}/100"
        assert initial_fail >= 30, f"only {initial_fail}/100 initial poses fail ADD-0.1d"
        assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2 min"
        passed = True
    finally:
        mark(passed)


def test_criterion_2_outlier_robustness():
    mark = _announce(2, "RANSAC-PnP: 30% outliers, 1 px noise, 2 px threshold -> "
                        "within 0.5 deg / 1e-3 z_bar in >= 95/100, runtime < 5 min")
    passed = False
    try:
        start = time.time()
        k_tele = CameraIntrinsics(1000.0, 1000.0, 320.0, 240.0, 640, 480)
        rng = np.random.default_rng(72)
        ok = 0
        for trial in range(100):
            pts = rng.uniform(-0.2, 0.2, size=(2000, 3))
            rotation = sample_rotations(1, int(rng.integers(1 << 30)))[0]
            gt = RigidPose(
                rotation,
                [rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05), rng.uniform(0.8, 1.2)],
            )
            uv = project_points(k_tele, gt, pts) + rng.normal(0, 1.0, size=(2000, 2))
            outliers = rng.choice(2000, size=600, replace=False)
            uv[outliers] = rng.uniform([0, 0], [640, 480], size=(600, 2))
            corr = CorrespondenceSet(pts, uv, np.zeros(2000, dtype=np.int32))
            est = ransac_pnp(corr, k_tele, RansacConfig(), trial)
            rot_err = geodesic_distance(gt.rotation, est.pose.rotation)
            trans_err = float(np.linalg.norm(gt.translation - est.pose.translation))
            if rot_err < 0.5 and trans_err < 1e-3 * Z_BAR:
                ok += 1
        elapsed = time.time() - start
        assert ok >= 95, f"{ok}/100 trials within tolerance"
        assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5 min"
        passed = True
    finally:
        mark(passed)


def test_criterion_3_aggregation_trend(box_mesh_path):
    mark = _announce(3, "aggregation trend: ADD-0.1d(N=4) >= ADD-0.1d(N=1) and "
                        "ADD-0.1d(N=2) >= ADD-0.1d(N=1) over 200 trials with 60% "
                        "dropout + default degradation")
    passed = False
    try:
        mesh = BOX
        exemplar_set = generate_exemplar_set(mesh, 512, Z_BAR, DEFAULT_EXEMPLAR_CAMERA, 21)
        base = ExperimentConfig(
            mesh_path=str(box_mesh_path), trials=200, seed=77,
            occluder_count=3, occluder_coverage=0.8,
            noise=FlowNoiseSpec.default_preset(dropout_ratio=0.6),
        )
        manifest = synth_scene_manifest(base, mesh)
        add01 = {}
        for n in (1, 2, 4):
            records = run_refinement(
                replace(base, n_exemplars=n), mesh, exemplar_set, manifest, workers=4)
            add01[n] = summarize_records(records)["refined"]["add_01d"]
        print(f"\n  ADD-0.1d by N: {add01}")
        assert add01[4] >= add01[1], f"N=4 ({add01[4]}) worse than N=1 ({add01[1]})"
        assert add01[2] >= add01[1], f"N=2 ({add01[2]}) worse than N=1 ({add01[1]})"
        passed = True
    finally:
        mark(passed)


def test_criterion_4_exemplar_granularity():
    mark = _announce(4, "mean query distance strictly decreases over nested "
                        "2.5K -> 5K -> 10K exemplar sets, runtime < 1 min")
    passed = False
    try:
        start = time.time()
        mesh = make_tetrahedron(0.05)
        full = generate_exemplar_set(mesh, 10000, Z_BAR, DEFAULT_EXEMPLAR_CAMERA, seed=0)
        distances = [
            mean_query_distance(full.prefix(n), 1000, seed=123)
            for n in (2500, 5000, 10000)
        ]
        elapsed = time.time() - start
        print(f"\n  mean nearest-exemplar distance (deg): {distances}")
        assert distances[0] > distances[1] > distances[2], f"not strict: {distances}"
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 1 min"
        passed = True
    finally:
        mark(passed)


def test_criterion_5_pnp_oracle_equivalence():
    mark = _announce(5, "PnP on noise-free projections of 8-100 points recovers the "
                        "pose within 0.01 deg / 1e-5 m on 100 seeded instances")
    passed = False
    try:
        rng = np.random.default_rng(500)
        for trial in range(100):
            n = int(rng.integers(8, 101))
            pts = rng.uniform(-0.06, 0.06, size=(n, 3))
            rotation = sample_rotations(1, 7000 + trial)[0]
            gt = RigidPose(
                rotation,
                [rng.uniform(-0.08, 0.08), rng.uniform(-0.08, 0.08), rng.uniform(0.7, 1.4)],
            )
            uv = project_points(K_T, gt, pts)
            est = solve_pnp(pts, uv, K_T)
            assert geodesic_distance(gt.rotation, est.rotation) < 0.01
            assert np.linalg.norm(gt.translation - est.translation) < 1e-5
        passed = True
    finally:
        mark(passed)


def test_criterion_6_rasterizer_oracle_equivalence():
    mark = _announce(6, "rasterizer matches brute-force ray casting on mask and "
                        "depth (<= 1e-6 m) for 20 random meshes at 16x16")
    passed = False
    try:
        camera = CameraIntrinsics(12.0, 12.0, 8.0, 8.0, 16, 16)
        rng = np.random.default_rng(600)
        for _ in range(20):
            mesh = random_small_mesh(rng, int(rng.integers(4, 21)))
            cmap = rasterize(mesh, RigidPose.identity(), camera, 16)
            mask_ref, depth_ref = ray_trace_reference(mesh, RigidPose.identity(), camera, 16)
            assert np.array_equal(cmap.mask, mask_ref)
            if mask_ref.any():
                assert np.abs(cmap.depth[mask_ref] - depth_ref[mask_ref]).max() <= 1e-6
        passed = True
    finally:
        mark(passed)


def test_criterion_7_jacobian_check():
    mark = _announce(7, "analytic reprojection Jacobian matches central finite "
                        "differences within 1e-5 relative at 100 configurations")
    passed = False
    try:
        rng = np.random.default_rng(700)
        h = 1e-6
        for trial in range(100):
            rotation = sample_rotations(1, 9000 + trial)[0]
            pose = RigidPose(
                rotation,
                [rng.uniform(-0.08, 0.08), rng.uniform(-0.08, 0.08), rng.uniform(0.7, 1.4)],
            )
            pts = rng.uniform(-0.08, 0.08, size=(4, 3))
            analytic = reprojection_jacobian(K_T, pose, pts)
            numeric = np.zeros_like(analytic)
            obs = np.zeros((len(pts), 2))
            for k in range(6):
                delta = np.zeros(6)
                delta[k] = h
                plus = RigidPose(
                    rotation_from_rotvec(delta[:3]) @ pose.rotation,
                    pose.translation + delta[3:],
                )
                minus = RigidPose(
                    rotation_from_rotvec(-delta[:3]) @ pose.rotation,
                    pose.translation - delta[3:],
                )
                diff = reprojection_residuals(K_T, plus, pts, obs) - reprojection_residuals(
                    K_T, minus, pts, obs
                )
                numeric[:, :, k] = diff / (2 * h)
            rel = np.abs(analytic - numeric).max() / max(1e-12, np.abs(analytic).max())
            assert rel < 1e-5, f"relative error {rel:.2e} at configuration {trial}"
        passed = True
    finally:
        mark(passed)


def test_criterion_8_round_trips(box_set, box_mesh_path, tmp_path):
    mark = _announce(8, "bit-exact container round-trips, transform compositions "
                        "within 1e-9, byte-identical pipeline reports")
    passed = False
    try:
        # exemplar container
        set_path = tmp_path / "set.pfax"
        save_set(box_set, set_path)
        loaded = load_set(set_path)
        assert loaded.equals(box_set)
        resaved = tmp_path / "set2.pfax"
        save_set(loaded, resaved)
        assert set_path.read_bytes() == resaved.read_bytes()

        # flow container
        ex = box_set.exemplars[0]
        scene = SceneSpec(BOX, ex.pose, (), DEFAULT_EXEMPLAR_CAMERA)
        field = oracle_flow_for(ex, CropTransform.identity(256), scene, CropTransform.identity(256))
        flow_path = tmp_path / "f.pfaf"
        save_flow(field, flow_path)
        back = load_flow(flow_path)
        assert np.array_equal(back.valid, field.valid)
        assert np.array_equal(back.indices, field.indices)
        assert np.array_equal(back.vectors, field.vectors)

        # transform compositions
        rng = np.random.default_rng(800)
        k_r = DEFAULT_EXEMPLAR_CAMERA
        pose = RigidPose(sample_rotations(1, 13)[0], [0.01, -0.02, Z_BAR])
        crop = compute_crop(pose, k_r, BOX)
        pixels = rng.uniform(0, 640, size=(1000, 2))
        warped = crop.apply(align_intrinsics(pixels, k_r, K_T))
        assert np.abs(lift_to_image(warped, crop, k_r, K_T) - pixels).max() < 1e-9
        assert np.abs(align_intrinsics(align_intrinsics(pixels, k_r, K_T), K_T, k_r) - pixels).max() < 1e-9

        # byte-identical reports for two identical runs
        config = ExperimentConfig(
            mesh_path=str(box_mesh_path), trials=5, seed=42, n_exemplars=2,
            noise=FlowNoiseSpec.default_preset(),
        )
        manifest = synth_scene_manifest(config, BOX)
        reports = []
        for _ in range(2):
            records = run_refinement(config, BOX, box_set, manifest)
            summary = summarize_records(records)
            reports.append(json.dumps(summary, sort_keys=True).encode())
        assert reports[0] == reports[1]
        passed = True
    finally:
        mark(passed)


def test_criterion_9_metric_sanity():
    mark = _announce(9, "ADD(identity)=0; ADD-S <= ADD on 1000 random pose pairs; "
                        "AUC(perfect)=1; symmetric plate ADD-S = 0 within 1e-9")
    passed = False
    try:
        pose = RigidPose(sample_rotations(1, 90)[0], [0.01, 0.02, 1.0])
        assert add_error(pose, pose, BOX) == 0.0

        rng = np.random.default_rng(900)
        for _ in range(1000):
            ra = sample_rotations(1, int(rng.integers(1 << 30)))[0]
            rb = sample_rotations(1, int(rng.integers(1 << 30)))[0]
            gt = RigidPose(ra, rng.uniform(-0.2, 0.2, size=3) + [0, 0, 1])
            pred = RigidPose(rb, rng.uniform(-0.2, 0.2, size=3) + [0, 0, 1])
            assert add_s_error(gt, pred, BOX) <= add_error(gt, pred, BOX) + 1e-12

        assert auc_metric([0.0] * 10, 0.10) == 1.0

        plate = make_plate(0.2)
        gt = RigidPose(np.eye(3), [0, 0, 1.0])
        pred = RigidPose(rotation_about_axis([0, 0, 1], 180.0), [0, 0, 1.0])
        assert add_s_error(gt, pred, plate) < 1e-9
        passed = True
    finally:
        mark(passed)

"""Correspondence lifting, aggregation, RANSAC-PnP, and the one-shot pass."""

import re

import numpy as np
import pytest

from helpers import oracle_flow_for
from pfa.correspond import (
    CorrespondenceSet,
    aggregate,
    lift_correspondences,
    subsample_per_exemplar,
)
from pfa.crops import CropTransform, compute_crop
from pfa.errors import RobustFailureError
from pfa.exemplars import generate_exemplar_set
from pfa.flow import OracleFlowSource
from pfa.geometry import (
    CameraIntrinsics,
    RigidPose,
    geodesic_distance,
    pose_jitter,
    project_camera_points,
    project_points,
    rotation_about_axis,
    sample_rotations,
)
from pfa.mesh import make_box
from pfa.metrics import add_error
from pfa.pnp import gauss_newton, reprojection_residuals, solve_pnp
from pfa.raster import SceneSpec
from pfa import refine
from pfa.refine import (
    RansacConfig,
    _adaptive_iterations,
    _draw_samples,
    ransac_pnp,
    refine_pose,
    score_hypotheses,
)

K_R = CameraIntrinsics(400.0, 400.0, 128.0, 128.0, 256, 256)
K_T = CameraIntrinsics(600.0, 600.0, 320.0, 240.0, 640, 480)
BOX = make_box((0.10, 0.08, 0.06))
IDENTITY_CROP = CropTransform.identity(256)


@pytest.fixture(scope="module")
def box_set():
    return generate_exemplar_set(BOX, 128, 1.0, K_R, seed=8)


def _random_target(rng):
    r = sample_rotations(1, int(rng.integers(1 << 30)))[0]
    return RigidPose(
        r, [rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05), rng.uniform(0.8, 1.2)]
    )


class TestLift:
    def test_zero_flow_self_consistency(self, box_set):
        ex = box_set.exemplars[0]
        scene = SceneSpec(BOX, ex.pose, (), K_R)
        field = oracle_flow_for(ex, IDENTITY_CROP, scene, IDENTITY_CROP)
        corr = lift_correspondences(ex, field, IDENTITY_CROP, IDENTITY_CROP, K_R)
        assert len(corr) == int(field.valid.sum())
        direct = project_points(K_R, ex.pose, corr.points)
        assert np.linalg.norm(direct - corr.pixels, axis=1).max() < 0.75

    def test_count_matches_valid_pixels(self, box_set):
        rng = np.random.default_rng(61)
        ex = box_set.exemplars[1]
        target = _random_target(rng)
        scene = SceneSpec(BOX, target, (), K_T)
        crop_r = compute_crop(ex.pose, K_R, BOX)
        crop_t = compute_crop(target, K_R, BOX)
        field = oracle_flow_for(ex, crop_r, scene, crop_t)
        corr = lift_correspondences(ex, field, crop_r, crop_t, K_T)
        assert len(corr) == int(field.valid.sum())
        assert np.all(corr.exemplar_ids == ex.id)

    def test_monte_carlo_reprojection_residuals(self, box_set):
        rng = np.random.default_rng(62)
        residuals = []
        for trial in range(10):
            target = _random_target(rng)
            initial = pose_jitter(target, K_T, BOX, 15.0, 8.0, seed=trial)
            scene = SceneSpec(BOX, target, (), K_T)
            from pfa.exemplars import query_nearest

            ex = query_nearest(box_set, initial, 1)[0]
            crop_r = compute_crop(ex.pose, K_R, BOX)
            crop_t = compute_crop(initial, K_R, BOX)
            field = oracle_flow_for(ex, crop_r, scene, crop_t)
            corr = lift_correspondences(ex, field, crop_r, crop_t, K_T)
            res = np.linalg.norm(
                reprojection_residuals(K_T, target, corr.points, corr.pixels), axis=1
            )
            residuals.append(res)
        residuals = np.concatenate(residuals)
        assert np.mean(residuals < 0.75) >= 0.99

    def test_points_gathered_after_subsampling_only(self, box_set, monkeypatch):
        # the cheap pass fixes the counts; only the rows subsampling keeps
        # are bilinearly gathered, once, when aggregation reads them
        from pfa.flow import CropSampler

        rng = np.random.default_rng(64)
        target = _random_target(rng)
        scene = SceneSpec(BOX, target, (), K_T)
        crop_t = compute_crop(target, K_R, BOX)
        inputs = []
        for ex in box_set.exemplars[:3]:
            crop_r = compute_crop(ex.pose, K_R, BOX)
            inputs.append((ex, oracle_flow_for(ex, crop_r, scene, crop_t), crop_r))
        gathered = []
        gather = CropSampler.points
        monkeypatch.setattr(
            CropSampler, "points",
            lambda self, pixels: gathered.append(len(pixels)) or gather(self, pixels),
        )
        sets = [lift_correspondences(ex, f, crop_r, crop_t, K_T) for ex, f, crop_r in inputs]
        total = sum(len(s) for s in sets)
        assert gathered == [] and total > 300
        merged = aggregate(subsample_per_exemplar(sets, total // 3))
        assert sum(gathered) == len(merged) <= total // 3
        assert len(gathered) == 3


class TestColumnLayout:
    def test_lift_to_refit_keeps_one_column_layout(self, box_set, monkeypatch):
        # lifting, thinning and aggregation store C-contiguous (3, N) points
        # and (2, N) pixels; the row views share that storage, and
        # Gauss-Newton on the row views computes on it without a copy
        import pfa.pnp

        rng = np.random.default_rng(65)
        target = _random_target(rng)
        scene = SceneSpec(BOX, target, (), K_T)
        crop_t = compute_crop(target, K_R, BOX)
        sets = []
        for ex in box_set.exemplars[:3]:
            crop_r = compute_crop(ex.pose, K_R, BOX)
            field = oracle_flow_for(ex, crop_r, scene, crop_t)
            sets.append(lift_correspondences(ex, field, crop_r, crop_t, K_T))
        merged = aggregate(subsample_per_exemplar(sets, sum(len(s) for s in sets) // 2))
        n = len(merged)
        assert n > 100
        for columns, rows, width in (
            (merged.point_columns, merged.points, 3),
            (merged.pixel_columns, merged.pixels, 2),
        ):
            assert columns.shape == (width, n) and columns.dtype == np.float64
            assert columns.flags.c_contiguous
            assert rows.shape == (n, width) and np.shares_memory(rows, columns)

        seen = []
        terms = pfa.pnp._reprojection_terms
        monkeypatch.setattr(
            pfa.pnp, "_reprojection_terms",
            lambda camera, pose, pts, obs: seen.append((pts, obs)) or terms(camera, pose, pts, obs),
        )
        gauss_newton(K_T, target, merged.points, merged.pixels)
        assert seen
        for pts, obs in seen:
            assert np.shares_memory(pts, merged.point_columns)
            assert np.shares_memory(obs, merged.pixel_columns)

    def test_rows_are_stored_as_columns(self):
        rng = np.random.default_rng(66)
        pts, uv = rng.normal(size=(50, 3)), rng.normal(size=(50, 2))
        corr = CorrespondenceSet(pts, uv, np.zeros(50, dtype=np.int32))
        assert corr.point_columns.flags.c_contiguous and corr.pixel_columns.flags.c_contiguous
        assert np.array_equal(corr.points, pts) and np.array_equal(corr.pixels, uv)
        kept = corr.take(np.arange(0, 50, 3))
        assert kept.point_columns.flags.c_contiguous and kept.pixel_columns.flags.c_contiguous
        assert np.array_equal(kept.points, pts[::3]) and np.array_equal(kept.pixels, uv[::3])


class TestAggregate:
    def _set_for(self, exemplar_id, n, seed):
        rng = np.random.default_rng(seed)
        return CorrespondenceSet(
            rng.normal(size=(n, 3)), rng.normal(size=(n, 2)),
            np.full(n, exemplar_id, dtype=np.int32),
        )

    def test_single_set_identity(self):
        s = self._set_for(3, 40, 1)
        merged = aggregate([s])
        assert np.array_equal(merged.points, s.points)
        assert np.array_equal(merged.pixels, s.pixels)

    def test_sizes_sum_and_order(self):
        sets = [self._set_for(i, 10 * (i + 1), i) for i in (2, 0, 1)]
        merged = aggregate(sets)
        assert len(merged) == 30 + 10 + 20
        assert np.all(np.diff(merged.exemplar_ids) >= 0)

    def test_subsample_caps_total_proportionally(self):
        sets = [self._set_for(0, 15000, 4), self._set_for(1, 5000, 5)]
        thinned = subsample_per_exemplar(sets, 10000)
        total = sum(len(s) for s in thinned)
        assert total <= 10000
        assert len(thinned[0]) == 7500 and len(thinned[1]) == 2500
        # deterministic, evenly spaced, no duplicates
        again = subsample_per_exemplar(sets, 10000)
        assert np.array_equal(thinned[0].points, again[0].points)
        assert len(np.unique(thinned[0].points, axis=0)) == len(thinned[0])

    def test_subsample_noop_below_cap(self):
        sets = [self._set_for(0, 100, 6)]
        assert subsample_per_exemplar(sets, 10000)[0] is sets[0]


def _synthetic_correspondences(rng, n, outlier_ratio=0.0, sigma=0.0):
    pts = rng.uniform(-0.06, 0.06, size=(n, 3))
    gt = _random_target(rng)
    uv = project_points(K_T, gt, pts)
    if sigma > 0:
        uv = uv + rng.normal(0, sigma, size=uv.shape)
    n_out = int(round(outlier_ratio * n))
    if n_out:
        idx = rng.choice(n, size=n_out, replace=False)
        uv[idx] = rng.uniform([0, 0], [K_T.width, K_T.height], size=(n_out, 2))
    return gt, CorrespondenceSet(pts, uv, np.zeros(n, dtype=np.int32))


class TestRansac:
    def test_all_inliers_matches_plain_solve(self):
        rng = np.random.default_rng(71)
        gt, corr = _synthetic_correspondences(rng, 500)
        est = ransac_pnp(corr, K_T, RansacConfig(), 5)
        assert est.inlier_count == 500
        direct = solve_pnp(corr.points, corr.pixels, K_T)
        assert np.abs(est.pose.rotation - direct.rotation).max() < 1e-9
        assert np.abs(est.pose.translation - direct.translation).max() < 1e-9

    def test_thirty_percent_outliers(self):
        # full 100-trial sweep lives in the acceptance suite
        k_tele = CameraIntrinsics(1000.0, 1000.0, 320.0, 240.0, 640, 480)
        rng = np.random.default_rng(72)
        ok = 0
        for trial in range(20):
            pts = rng.uniform(-0.2, 0.2, size=(2000, 3))
            gt = _random_target(rng)
            uv = project_points(k_tele, gt, pts) + rng.normal(0, 1.0, size=(2000, 2))
            idx = rng.choice(2000, size=600, replace=False)
            uv[idx] = rng.uniform([0, 0], [640, 480], size=(600, 2))
            corr = CorrespondenceSet(pts, uv, np.zeros(2000, dtype=np.int32))
            est = ransac_pnp(corr, k_tele, RansacConfig(), trial)
            rot = geodesic_distance(gt.rotation, est.pose.rotation)
            trans = np.linalg.norm(gt.translation - est.pose.translation)
            if rot < 0.5 and trans < 1e-3:
                ok += 1
        assert ok >= 19

    def test_all_outliers_fails_robustly(self):
        rng = np.random.default_rng(73)
        pts = rng.uniform(-0.06, 0.06, size=(300, 3))
        uv = rng.uniform([0, 0], [K_T.width, K_T.height], size=(300, 2))
        corr = CorrespondenceSet(pts, uv, np.zeros(300, dtype=np.int32))
        with pytest.raises(RobustFailureError):
            ransac_pnp(corr, K_T, RansacConfig(max_iterations=50), 1)

    def test_too_few_correspondences(self):
        rng = np.random.default_rng(74)
        _, corr = _synthetic_correspondences(rng, 8)
        with pytest.raises(RobustFailureError) as info:
            ransac_pnp(corr, K_T, RansacConfig(min_inliers=12), 0)
        assert np.array_equal(info.value.inliers, np.zeros(8, dtype=bool))

    def test_inlier_mean_error_below_threshold(self):
        rng = np.random.default_rng(75)
        _, corr = _synthetic_correspondences(rng, 1000, outlier_ratio=0.2, sigma=1.0)
        cfg = RansacConfig()
        est = ransac_pnp(corr, K_T, cfg, 9)
        # the refit's fixed point: the inliers are exactly the points within the threshold
        res = reprojection_residuals(K_T, est.pose, corr.points, corr.pixels)
        assert np.array_equal(est.inlier_ids, np.linalg.norm(res, axis=1) < cfg.inlier_threshold)
        assert est.inlier_count == int(est.inlier_ids.sum())

    def test_deterministic(self):
        rng = np.random.default_rng(76)
        _, corr = _synthetic_correspondences(rng, 800, outlier_ratio=0.25, sigma=1.0)
        a = ransac_pnp(corr, K_T, RansacConfig(), 33)
        b = ransac_pnp(corr, K_T, RansacConfig(), 33)
        assert np.array_equal(a.pose.rotation, b.pose.rotation)
        assert np.array_equal(a.inlier_ids, b.inlier_ids)

    def test_coplanar_correspondences(self):
        # every minimal sample is coplanar; each is still a valid hypothesis
        rng = np.random.default_rng(77)
        pts = np.zeros((500, 3))
        pts[:, :2] = rng.uniform(-0.06, 0.06, size=(500, 2))
        gt = _random_target(rng)
        uv = project_points(K_T, gt, pts) + rng.normal(0, 0.05, size=(500, 2))
        corr = CorrespondenceSet(pts, uv, np.zeros(500, dtype=np.int32))
        direct = solve_pnp(pts, uv, K_T)
        assert geodesic_distance(gt.rotation, direct.rotation) < 0.1
        est = ransac_pnp(corr, K_T, RansacConfig(), 0)
        assert est.inlier_count == 500
        assert geodesic_distance(gt.rotation, est.pose.rotation) < 0.1
        assert np.linalg.norm(gt.translation - est.pose.translation) < 1e-3

    def test_points_behind_the_camera_cast_no_votes(self):
        # for model points on z=0, R' = -R diag(1, 1, -1), t' = -t maps every
        # point to -q: behind the camera, on the same projection ray
        rng = np.random.default_rng(78)
        pts = np.zeros((50, 3))
        pts[:, :2] = rng.uniform(-0.06, 0.06, size=(50, 2))
        front = _random_target(rng)
        mirrored = RigidPose(-front.rotation @ np.diag([1.0, 1.0, -1.0]), -front.translation)
        uv = project_points(K_T, front, pts)
        assert np.all(mirrored.transform(pts)[:, 2] < 0)
        assert np.abs(reprojection_residuals(K_T, mirrored, pts, uv)).max() < 1e-9
        rotations = np.stack([front.rotation, mirrored.rotation])
        translations = np.stack([front.translation, mirrored.translation])
        votes = score_hypotheses(rotations, translations, pts, uv, K_T, 2.0)
        assert votes.shape == (2, 50)
        assert votes[0].all()
        assert not votes[1].any()

    def test_refit_keeps_no_point_behind_the_camera(self):
        # 20 model points sit behind the camera under the true pose, each
        # observed where its mirror -q in front of the camera projects
        rng = np.random.default_rng(80)
        gt, exact = _synthetic_correspondences(rng, 300)
        mirror = -gt.transform(rng.uniform(-0.06, 0.06, size=(20, 3)))
        behind = (mirror - gt.translation) @ gt.rotation  # R^T (q - t), row-wise
        pts = np.concatenate([exact.points, behind])
        uv = np.concatenate([exact.pixels, project_camera_points(K_T, -mirror)])
        corr = CorrespondenceSet(pts, uv, np.zeros(320, dtype=np.int32))
        assert np.abs(reprojection_residuals(K_T, gt, pts, uv)).max() < 1e-6
        est = ransac_pnp(corr, K_T, RansacConfig(), 0)
        assert est.inlier_count == 300
        assert np.all(est.pose.transform(pts[est.inlier_ids])[:, 2] > 0)

    def test_score_matches_residual_threshold(self):
        rng = np.random.default_rng(79)
        gt, corr = _synthetic_correspondences(rng, 3000, outlier_ratio=0.3, sigma=1.5)
        poses = [gt] + [pose_jitter(gt, K_T, BOX, 2.0, 1.0, seed=s) for s in range(5)]
        votes = score_hypotheses(
            np.stack([p.rotation for p in poses]), np.stack([p.translation for p in poses]),
            corr.points, corr.pixels, K_T, 2.0,
        )
        for pose, row in zip(poses, votes):
            res = np.linalg.norm(
                reprojection_residuals(K_T, pose, corr.points, corr.pixels), axis=1
            )
            assert np.array_equal(row, res < 2.0)

    def test_three_point_sample_budget(self):
        # 50% inliers at 0.999 confidence: 52 samples, one round of 64
        assert _adaptive_iterations(0.5, 0.999, 1000) == 52
        assert _adaptive_iterations(1.0, 0.999, 1000) == 0
        assert _adaptive_iterations(0.0, 0.999, 1000) == 1000

    def test_mirrored_planar_minimum_left_by_the_first_refit(self, monkeypatch):
        # a tilted plane seen from afar: the depth-mirrored pose is a second
        # local minimum of the reprojection error with most points within
        # the threshold; Gauss-Newton started there stays there
        rng = np.random.default_rng(90)
        pts = np.zeros((400, 3))
        pts[:, :2] = rng.uniform(-0.05, 0.05, size=(400, 2))
        truth = RigidPose(rotation_about_axis([1.0, 0.3, 0.0], 35.0), [0.02, -0.01, 1.0])
        uv = project_points(K_T, truth, pts) + rng.normal(0, 0.5, size=(400, 2))
        ray = truth.translation / np.linalg.norm(truth.translation)
        flip = np.eye(3) - 2.0 * np.outer(ray, ray)
        start = RigidPose(flip @ truth.rotation @ np.diag([1.0, 1.0, -1.0]), truth.translation)
        mirrored, _ = gauss_newton(K_T, start, pts, uv)
        assert geodesic_distance(truth.rotation, mirrored.rotation) > 60.0
        votes = score_hypotheses(
            mirrored.rotation[None], mirrored.translation[None], pts, uv, K_T, 2.0
        )
        assert votes.sum() >= 380

        # make the mirrored pose the only root of every sample: the refit's
        # first round (EPnP on the consensus set) must still find the truth
        def mirrored_roots(points, pixels, camera):
            k = len(points)
            rotations = np.tile(np.eye(3), (k, 4, 1, 1))
            translations = np.zeros((k, 4, 3))
            rotations[:, 0], translations[:, 0] = mirrored.rotation, mirrored.translation
            valid = np.zeros((k, 4), dtype=bool)
            valid[:, 0] = True
            return rotations, translations, valid

        monkeypatch.setattr("pfa.refine.p3p_batch", mirrored_roots)
        corr = CorrespondenceSet(pts, uv, np.zeros(400, dtype=np.int32))
        est = ransac_pnp(corr, K_T, RansacConfig(), 0)
        assert geodesic_distance(truth.rotation, est.pose.rotation) < 1.0
        assert np.linalg.norm(truth.translation - est.pose.translation) < 0.01

    @staticmethod
    def _scored_shapes(monkeypatch, corr, seed):
        """Run ransac_pnp; returns its estimate and, per score_hypotheses call,
        the (poses, columns) shape and the points scored."""
        shapes, columns = [], []

        def recording(rotations, translations, points, pixels, camera, threshold):
            shapes.append((len(rotations), len(points)))
            columns.append(points)
            return score_hypotheses(rotations, translations, points, pixels, camera, threshold)

        monkeypatch.setattr("pfa.refine.score_hypotheses", recording)
        return ransac_pnp(corr, K_T, RansacConfig(), seed), shapes, columns

    def test_subset_first_scoring(self, monkeypatch):
        # above _SCORE_SUBSET points every root is scored on one fixed sorted
        # subset and only each round's winner on all points
        self._check_subset_first(monkeypatch, 6000)

    def test_subset_drawn_from_1500_points(self, monkeypatch):
        # 1500 points fill more than the subset, so they are drawn from too
        self._check_subset_first(monkeypatch, 1500)

    def _check_subset_first(self, monkeypatch, n):
        rng = np.random.default_rng(91)
        gt, corr = _synthetic_correspondences(rng, n, outlier_ratio=0.5, sigma=1.0)
        est, shapes, columns = self._scored_shapes(monkeypatch, corr, 4)
        assert geodesic_distance(gt.rotation, est.pose.rotation) < 0.5
        assert len(shapes) % 2 == 0
        for (k, n_subset), (one, n_all) in zip(shapes[::2], shapes[1::2]):
            assert n_subset == refine._SCORE_SUBSET and k >= 1
            assert one == 1 and n_all == n
        subset = columns[0]
        assert all(np.array_equal(c, subset) for c in columns[::2])
        rows = [np.flatnonzero((corr.points == p).all(axis=1))[0] for p in subset[:50]]
        assert rows == sorted(rows)

    @pytest.mark.parametrize("n", [400, 512])
    def test_small_set_votes_on_every_point(self, monkeypatch, n):
        # at most _SCORE_SUBSET points: every root votes on all N in order,
        # and the generator's first draw is the first sample, not a subset
        rng = np.random.default_rng(94)
        gt, corr = _synthetic_correspondences(rng, n, outlier_ratio=0.3, sigma=1.0)
        first_state = []

        def draw(rng, n, k):
            first_state.append(rng.bit_generator.state)
            return _draw_samples(rng, n, k)

        monkeypatch.setattr("pfa.refine._draw_samples", draw)
        est, shapes, columns = self._scored_shapes(monkeypatch, corr, 8)
        assert geodesic_distance(gt.rotation, est.pose.rotation) < 0.5
        assert first_state[0] == np.random.default_rng(8).bit_generator.state
        assert len(shapes) % 2 == 0
        for (k, n_votes), (one, n_all) in zip(shapes[::2], shapes[1::2]):
            assert n_votes == n and k >= 1
            assert one == 1 and n_all == n
        assert all(np.array_equal(c, corr.points) for c in columns)

    def test_refit_runs_epnp_once_then_warm_starts(self, monkeypatch):
        rng = np.random.default_rng(92)
        gt, corr = _synthetic_correspondences(rng, 3000, outlier_ratio=0.4, sigma=1.0)
        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr("pfa.refine.solve_pnp", counting("solve_pnp", solve_pnp))
        monkeypatch.setattr("pfa.pnp.gauss_newton", counting("gauss_newton", gauss_newton))
        est = ransac_pnp(corr, K_T, RansacConfig(), 6)
        assert geodesic_distance(gt.rotation, est.pose.rotation) < 0.5
        assert calls[0] == "solve_pnp" and calls.count("solve_pnp") == 1
        # solve_pnp runs its own Gauss-Newton, so later rounds add one call each
        assert calls.count("gauss_newton") >= 2

    def test_bounded_epnp_start_keeps_the_consensus(self, monkeypatch):
        import pfa.pnp

        rng = np.random.default_rng(93)
        gt, corr = _synthetic_correspondences(rng, 20000, outlier_ratio=0.5, sigma=1.0)
        bounded = ransac_pnp(corr, K_T, RansacConfig(), 7)
        assert bounded.inlier_count > pfa.pnp.EPNP_POINTS
        monkeypatch.setattr(pfa.pnp, "EPNP_POINTS", 10**9)
        whole = ransac_pnp(corr, K_T, RansacConfig(), 7)
        assert np.array_equal(bounded.inlier_ids, whole.inlier_ids)
        assert np.abs(bounded.pose.rotation - whole.pose.rotation).max() < 1e-9
        assert np.abs(bounded.pose.translation - whole.pose.translation).max() < 1e-9


class TestRefinePose:
    def test_exact_flow_single_exemplar(self, box_set):
        rng = np.random.default_rng(81)
        for trial in range(5):
            target = _random_target(rng)
            initial = pose_jitter(target, K_T, BOX, 20.0, 10.0, seed=trial)
            scene = SceneSpec(BOX, target, (), K_T)
            source = OracleFlowSource(scene, target)
            result = refine_pose(
                initial, box_set, BOX, K_T, source, 1, RansacConfig(), trial
            )
            assert add_error(target, result.estimate.pose, BOX) < 0.001 * BOX.diameter

    def test_zero_jitter_still_works(self, box_set):
        rng = np.random.default_rng(82)
        target = _random_target(rng)
        scene = SceneSpec(BOX, target, (), K_T)
        source = OracleFlowSource(scene, target)
        result = refine_pose(target, box_set, BOX, K_T, source, 1, RansacConfig(), 0)
        assert geodesic_distance(target.rotation, result.estimate.pose.rotation) < 0.1
        assert np.linalg.norm(target.translation - result.estimate.pose.translation) < 1e-3

    def test_diagnostics_cover_all_exemplars(self, box_set):
        rng = np.random.default_rng(83)
        target = _random_target(rng)
        initial = pose_jitter(target, K_T, BOX, 15.0, 5.0, seed=4)
        scene = SceneSpec(BOX, target, (), K_T)
        source = OracleFlowSource(scene, target)
        result = refine_pose(initial, box_set, BOX, K_T, source, 4, RansacConfig(), 4)
        assert len(result.exemplar_reports) == 4
        assert len({r.id for r in result.exemplar_reports}) == 4
        assert all(r.n_correspondences > 0 for r in result.exemplar_reports)
        assert sum(r.inlier_count for r in result.exemplar_reports) == result.estimate.inlier_count
        distances = [r.distance_deg for r in result.exemplar_reports]
        assert distances == sorted(distances)

    def test_solution_independent_of_exemplar_tags(self, box_set):
        # solving on the aggregated set ignores the tags entirely
        rng = np.random.default_rng(84)
        _, corr = _synthetic_correspondences(rng, 600, outlier_ratio=0.1, sigma=0.5)
        retagged = CorrespondenceSet(
            corr.points, corr.pixels, (corr.exemplar_ids + 7).astype(np.int32)
        )
        a = ransac_pnp(corr, K_T, RansacConfig(), 2)
        b = ransac_pnp(retagged, K_T, RansacConfig(), 2)
        assert np.array_equal(a.pose.rotation, b.pose.rotation)

    def test_dropout_aggregation_helps(self, box_set):
        # dropout so heavy that one exemplar sometimes starves below
        # min_inliers: N=4 must succeed at least as often as N=1
        from pfa.flow import FlowNoiseSpec

        rng = np.random.default_rng(85)
        noise = FlowNoiseSpec.default_preset(dropout_ratio=0.999)
        success = {1: 0, 4: 0}
        for trial in range(10):
            target = _random_target(rng)
            initial = pose_jitter(target, K_T, BOX, 20.0, 10.0, seed=trial)
            scene = SceneSpec(BOX, target, (), K_T)
            for n in (1, 4):
                source = OracleFlowSource(scene, target, noise, base_seed=trial)
                result = refine_pose(
                    initial, box_set, BOX, K_T, source, n, RansacConfig(), trial
                )
                if result.estimate is None:
                    continue
                if add_error(target, result.estimate.pose, BOX) < 0.1 * BOX.diameter:
                    success[n] += 1
        assert success[4] >= success[1]
        assert success[4] >= 8  # aggregation rescues the starved trials

    def test_starved_pass_returns_a_failed_result(self, box_set):
        # the draws of test_dropout_aggregation_helps: one exemplar at 99.9%
        # dropout lifts a few tens of points, and some trials get fewer than
        # min_inliers; their result names N, and each exemplar's report its share
        from pfa.flow import FlowNoiseSpec

        rng = np.random.default_rng(85)
        noise = FlowNoiseSpec.default_preset(dropout_ratio=0.999)
        failed = []
        for trial in range(10):
            target = _random_target(rng)
            initial = pose_jitter(target, K_T, BOX, 20.0, 10.0, seed=trial)
            source = OracleFlowSource(SceneSpec(BOX, target, (), K_T), target, noise,
                                      base_seed=trial)
            result = refine_pose(initial, box_set, BOX, K_T, source, 1, RansacConfig(), trial)
            if result.estimate is None:
                failed.append(result)
        assert failed
        for result in failed:
            assert result.failure_reason.startswith("RobustFailureError: ")
            named = int(re.findall(r"\d+", result.failure_reason)[-1])  # "got N" or "c/N)"
            assert len(result.exemplar_reports) == 1
            assert sum(r.n_correspondences for r in result.exemplar_reports) == named

"""Closed-form PnP, Gauss-Newton refinement, and the analytic Jacobian."""

import numpy as np
import pytest

from pfa.errors import SolverError
from pfa.geometry import (
    CameraIntrinsics,
    RigidPose,
    project_points,
    rotation_from_rotvec,
    sample_rotations,
)
from pfa.mesh import make_box
from pfa.pnp import (
    gauss_newton,
    is_degenerate_sample,
    p3p_batch,
    reprojection_jacobian,
    reprojection_residuals,
    solve_pnp,
)

K = CameraIntrinsics(600.0, 600.0, 320.0, 240.0, 640, 480)


def _random_pose(rng):
    r = sample_rotations(1, int(rng.integers(1 << 30)))[0]
    return RigidPose(r, [rng.uniform(-0.08, 0.08), rng.uniform(-0.08, 0.08), rng.uniform(0.7, 1.4)])


def _pose_errors(gt, est):
    from pfa.geometry import geodesic_distance

    return (
        geodesic_distance(gt.rotation, est.rotation),
        float(np.linalg.norm(gt.translation - est.translation)),
    )


class TestSolvePnp:
    def test_cube_corners_exact(self):
        mesh = make_box((0.1, 0.08, 0.06))
        rng = np.random.default_rng(51)
        gt = _random_pose(rng)
        uv = project_points(K, gt, mesh.vertices)
        est = solve_pnp(mesh.vertices, uv, K)
        rot_err, trans_err = _pose_errors(gt, est)
        assert rot_err < 0.01
        assert trans_err < 1e-5

    def test_noise_free_random_points(self):
        rng = np.random.default_rng(52)
        for _ in range(25):
            n = int(rng.integers(8, 101))
            pts = rng.uniform(-0.06, 0.06, size=(n, 3))
            gt = _random_pose(rng)
            uv = project_points(K, gt, pts)
            est = solve_pnp(pts, uv, K)
            rot_err, trans_err = _pose_errors(gt, est)
            assert rot_err < 0.01
            assert trans_err < 1e-5

    def test_half_pixel_noise_median(self):
        rng = np.random.default_rng(53)
        mesh = make_box((0.15, 0.12, 0.09))
        rot_errs = []
        for _ in range(100):
            gt = _random_pose(rng)
            uv = project_points(K, gt, mesh.vertices) + rng.normal(0, 0.5, size=(8, 2))
            est = solve_pnp(mesh.vertices, uv, K)
            rot_errs.append(_pose_errors(gt, est)[0])
        assert np.median(rot_errs) < 0.5

    def test_planar_points_supported(self):
        rng = np.random.default_rng(54)
        pts = np.zeros((12, 3))
        pts[:, :2] = rng.uniform(-0.06, 0.06, size=(12, 2))
        gt = _random_pose(rng)
        uv = project_points(K, gt, pts)
        est = solve_pnp(pts, uv, K)
        rot_err, trans_err = _pose_errors(gt, est)
        assert rot_err < 0.05
        assert trans_err < 1e-4

    def test_three_points_rejected(self):
        with pytest.raises(SolverError):
            solve_pnp(np.eye(3) * 0.1, np.zeros((3, 2)), K)

    def test_collinear_rejected(self):
        pts = np.outer(np.linspace(0, 1, 8), [0.1, 0.02, 0.0]) + [0, 0, 1.0]
        uv = project_points(K, RigidPose.identity(), pts)
        with pytest.raises(SolverError):
            solve_pnp(pts, uv, K)

    @pytest.mark.parametrize("shape", ["collinear", "coincident"])
    def test_degenerate_four_point_sets_named(self, shape):
        rng = np.random.default_rng(60)
        if shape == "collinear":
            pts = np.outer(np.linspace(-1, 1, 4), [0.05, 0.02, 0.01])
        else:
            pts = np.tile(rng.uniform(-0.06, 0.06, size=(1, 3)), (4, 1))
        uv = project_points(K, _random_pose(rng), pts)
        with pytest.raises(SolverError, match="collinear or coincident"):
            solve_pnp(pts, uv, K)

    @pytest.mark.parametrize("planar", [False, True])
    def test_four_point_sets_exact(self, planar):
        # 2 x 100 noise-free minimal sets, criterion-5 tolerances
        rng = np.random.default_rng(58 + planar)
        for _ in range(100):
            pts = rng.uniform(-0.06, 0.06, size=(4, 3))
            if planar:
                pts[:, 2] = 0.0
            gt = _random_pose(rng)
            est = solve_pnp(pts, project_points(K, gt, pts), K)
            rot_err, trans_err = _pose_errors(gt, est)
            assert rot_err < 0.01
            assert trans_err < 1e-5

    def test_order_invariance(self):
        rng = np.random.default_rng(55)
        pts = rng.uniform(-0.06, 0.06, size=(40, 3))
        gt = _random_pose(rng)
        uv = project_points(K, gt, pts)
        est_a = solve_pnp(pts, uv, K)
        perm = rng.permutation(40)
        est_b = solve_pnp(pts[perm], uv[perm], K)
        res_a = float(np.sum(reprojection_residuals(K, est_a, pts, uv) ** 2))
        res_b = float(np.sum(reprojection_residuals(K, est_b, pts, uv) ** 2))
        assert abs(res_a - res_b) < 1e-9

    def test_epnp_starts_from_evenly_spaced_rows(self, monkeypatch):
        import pfa.pnp

        rng = np.random.default_rng(61)
        pts = rng.uniform(-0.06, 0.06, size=(10000, 3))
        gt = _random_pose(rng)
        uv = project_points(K, gt, pts) + rng.normal(0, 0.5, size=(10000, 2))
        seen = []
        epnp = pfa.pnp._epnp
        monkeypatch.setattr(
            pfa.pnp, "_epnp", lambda p, o, cam: seen.append((p, o)) or epnp(p, o, cam)
        )
        est = solve_pnp(pts, uv, K)
        (start_pts, start_obs), = seen
        assert len(start_pts) == len(start_obs) == pfa.pnp.EPNP_POINTS
        row_of = {p.tobytes(): i for i, p in enumerate(pts)}
        rows = np.array([row_of[p.tobytes()] for p in start_pts])
        assert rows[0] == 0 and rows[-1] == len(pts) - 1
        assert set(np.diff(rows)) == {4, 5}  # 9999 / 2047 = 4.88 rows apart
        assert np.array_equal(start_obs, uv[rows])
        rot_err, trans_err = _pose_errors(gt, est)
        assert rot_err < 0.05 and trans_err < 1e-3

        # a set of EPNP_POINTS rows or fewer starts from all of them
        solve_pnp(pts[: pfa.pnp.EPNP_POINTS], uv[: pfa.pnp.EPNP_POINTS], K)
        assert np.array_equal(seen[1][0], pts[: pfa.pnp.EPNP_POINTS])

    def test_degenerate_sample_detector(self):
        rng = np.random.default_rng(56)
        planar = np.zeros((4, 3))
        planar[:, :2] = rng.uniform(-1, 1, size=(4, 2))
        assert is_degenerate_sample(planar)
        corners = make_box((0.1, 0.1, 0.1)).vertices
        assert not is_degenerate_sample(corners[[0, 1, 2, 4]])  # spans all axes


class TestP3pBatch:
    def test_noise_free_samples_have_an_exact_root(self):
        # 4,000 seeded noise-free 3-point samples: for every one, some root is
        # within 0.01 deg and 1e-5 m of the truth
        rng = np.random.default_rng(61)
        count = 4000
        points = rng.uniform(-0.06, 0.06, size=(count, 3, 3))
        rotations = sample_rotations(count, 62)
        translations = np.stack([
            rng.uniform(-0.08, 0.08, count), rng.uniform(-0.08, 0.08, count),
            rng.uniform(0.7, 1.4, count),
        ], axis=1)
        cam = np.einsum("kij,knj->kni", rotations, points) + translations[:, None]
        pixels = np.stack([
            K.fx * cam[..., 0] / cam[..., 2] + K.cx, K.fy * cam[..., 1] / cam[..., 2] + K.cy,
        ], axis=2)
        est_r, est_t, valid = p3p_batch(points, pixels, K)
        traces = np.einsum("kij,krij->kr", rotations, est_r)
        rot_err = np.degrees(np.arccos(np.clip((traces - 1.0) / 2.0, -1.0, 1.0)))
        trans_err = np.linalg.norm(est_t - translations[:, None], axis=2)
        exact = valid & (rot_err < 0.01) & (trans_err < 1e-5)
        assert exact.any(axis=1).all(), np.flatnonzero(~exact.any(axis=1))

    def test_degenerate_samples_invalid_and_roots_in_front(self):
        rng = np.random.default_rng(63)
        points = rng.uniform(-0.06, 0.06, size=(200, 3, 3))
        pixels = rng.uniform([0, 0], [640, 480], size=(200, 3, 2))  # mostly no exact pose
        points[0] = np.outer(np.linspace(-1, 1, 3), [0.05, 0.02, 0.01])  # collinear
        points[1, 1] = points[1, 0]  # two coincident points
        points[2] = 0.0  # all coincident
        pixels[3, 1] = pixels[3, 0]  # two points on one ray
        rotations, translations, valid = p3p_batch(points, pixels, K)
        assert rotations.shape == (200, 4, 3, 3) and translations.shape == (200, 4, 3)
        assert not valid[:3].any()
        assert valid[4:].any()
        for k, r in zip(*np.nonzero(valid)):
            pose = RigidPose(rotations[k, r], translations[k, r])  # orthonormal, det +1
            assert (pose.transform(points[k])[:, 2] > 0).all()

    def test_samples_are_solved_independently_of_their_batch(self):
        # 200 seeded samples, noise-free, with 1-px noise and collinear,
        # solved in 64-sample batches and one at a time: a component layout
        # that mixed samples (a wrong transpose) would break the agreement
        rng = np.random.default_rng(64)
        count = 200
        points = rng.uniform(-0.06, 0.06, size=(count, 3, 3))
        points[::10] = np.outer(np.linspace(-1, 1, 3), [0.05, 0.02, 0.01])  # collinear
        pixels = np.empty((count, 3, 2))
        for k in range(count):
            pixels[k] = project_points(K, _random_pose(rng), points[k])
        pixels[1::2] += rng.normal(0.0, 1.0, size=(count // 2, 3, 2))
        batched = [
            np.concatenate(parts)
            for parts in zip(*(
                p3p_batch(points[lo : lo + 64], pixels[lo : lo + 64], K)
                for lo in range(0, count, 64)
            ))
        ]
        assert batched[2][::10].sum() == 0 and batched[2].sum() > count
        for k in range(count):
            rotations, translations, valid = p3p_batch(points[k : k + 1], pixels[k : k + 1], K)
            assert np.array_equal(valid[0], batched[2][k]), k
            roots = valid[0]
            assert np.abs(rotations[0, roots] - batched[0][k, roots]).max(initial=0) < 1e-9
            assert np.abs(translations[0, roots] - batched[1][k, roots]).max(initial=0) < 1e-9


class TestGaussNewton:
    def test_costs_monotone_nonincreasing(self):
        rng = np.random.default_rng(57)
        for _ in range(20):
            pts = rng.uniform(-0.06, 0.06, size=(30, 3))
            gt = _random_pose(rng)
            uv = project_points(K, gt, pts) + rng.normal(0, 1.0, size=(30, 2))
            start = RigidPose(
                rotation_from_rotvec(rng.normal(0, 0.05, size=3)) @ gt.rotation,
                gt.translation + rng.normal(0, 0.01, size=3),
            )
            _, costs = gauss_newton(K, start, pts, uv)
            assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))

    def test_converges_from_rough_start(self):
        rng = np.random.default_rng(58)
        pts = rng.uniform(-0.06, 0.06, size=(50, 3))
        gt = _random_pose(rng)
        uv = project_points(K, gt, pts)
        start = RigidPose(
            rotation_from_rotvec([0.2, -0.1, 0.15]) @ gt.rotation,
            gt.translation + [0.02, -0.01, 0.05],
        )
        est, costs = gauss_newton(K, start, pts, uv)
        assert costs[-1] < 1e-12
        rot_err, trans_err = _pose_errors(gt, est)
        assert rot_err < 1e-4 and trans_err < 1e-7

    def test_column_terms_match_the_row_residuals(self):
        # the column terms hold the camera-frame points and the row residuals
        # bit for bit, so their summed squares are equal too
        import pfa.pnp

        rng = np.random.default_rng(62)
        pts = rng.uniform(-0.06, 0.06, size=(5000, 3))
        pose = _random_pose(rng)
        uv = project_points(K, pose, pts) + rng.normal(0, 1.0, size=(5000, 2))
        rows = reprojection_residuals(K, pose, pts, uv)
        _, q, cols = pfa.pnp._reprojection_terms(
            K, pose, np.ascontiguousarray(pts.T), np.ascontiguousarray(uv.T)
        )
        assert np.array_equal(q, pose.transform(pts).T)
        assert np.array_equal(cols, rows.T)
        assert np.sum(cols**2) == np.sum(rows**2)

    def test_warm_start_at_convergence_stops(self, monkeypatch):
        # a converged fit on a 10K-point noisy set: restarting from its pose
        # must not pay for damped steps whose gain is below rounding
        import pfa.pnp

        rng = np.random.default_rng(60)
        pts = rng.uniform(-0.06, 0.06, size=(10000, 3))
        gt = _random_pose(rng)
        uv = project_points(K, gt, pts) + rng.normal(0, 1.0, size=(10000, 2))
        start = RigidPose(
            rotation_from_rotvec(rng.normal(0, 0.02, size=3)) @ gt.rotation,
            gt.translation + rng.normal(0, 0.005, size=3),
        )
        converged, _ = gauss_newton(K, start, pts, uv)
        evaluations = []
        terms = pfa.pnp._reprojection_terms
        monkeypatch.setattr(
            pfa.pnp, "_reprojection_terms",
            lambda *args: evaluations.append(1) or terms(*args),
        )
        again, costs = gauss_newton(K, converged, pts, uv)
        assert len(evaluations) <= 2
        assert costs[-1] <= costs[0]
        assert np.abs(again.rotation - converged.rotation).max() < 1e-9


class TestJacobian:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(59)
        h = 1e-6
        for _ in range(100):
            pose = _random_pose(rng)
            pts = rng.uniform(-0.08, 0.08, size=(3, 3))
            analytic = reprojection_jacobian(K, pose, pts)
            numeric = np.zeros_like(analytic)
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
                obs = np.zeros((3, 2))
                diff = reprojection_residuals(K, plus, pts, obs) - reprojection_residuals(
                    K, minus, pts, obs
                )
                numeric[:, :, k] = diff / (2 * h)
            scale = max(1e-12, float(np.abs(analytic).max()))
            assert np.abs(analytic - numeric).max() / scale < 1e-5

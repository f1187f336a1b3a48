"""Pose algebra, projection, rotation sampling, and jitter."""

import numpy as np
import pytest

from pfa.errors import BehindCameraError
from pfa.geometry import (
    CameraIntrinsics,
    RigidPose,
    backproject,
    geodesic_distance,
    pose_jitter,
    project_points,
    rotation_about_axis,
    sample_rotations,
)
from pfa.mesh import make_box

K_SIMPLE = CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 640, 480)
K_VGA = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)


class TestRigidPose:
    def test_accepts_valid_rotation(self):
        pose = RigidPose(rotation_about_axis([1, 2, 3], 40.0), [0.1, 0.2, 0.3])
        assert np.allclose(pose.rotation @ pose.rotation.T, np.eye(3), atol=1e-12)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            RigidPose(np.eye(3) * 1.001, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            RigidPose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_arrays_immutable(self):
        pose = RigidPose.identity()
        with pytest.raises(ValueError):
            pose.rotation[0, 0] = 2.0


class TestProject:
    def test_identity_unit_depth(self):
        assert np.allclose(project_points(K_SIMPLE, RigidPose.identity(), [0, 0, 1]), [[0, 0]])

    def test_hand_computed_pixel(self):
        uv = project_points(K_VGA, RigidPose.identity(), [0.1, 0.0, 1.0])
        assert np.allclose(uv, [[370.0, 240.0]], atol=1e-12)

    def test_zero_depth_rejected(self):
        pose = RigidPose(np.eye(3), [0.0, 0.0, 0.0])
        with pytest.raises(BehindCameraError):
            project_points(K_VGA, pose, [0.0, 0.0, 0.0])

    def test_backprojection_round_trip(self):
        rng = np.random.default_rng(4)
        pose = RigidPose.identity()
        for _ in range(200):
            pixel = rng.uniform([0, 0], [640, 480])
            depth = rng.uniform(0.2, 5.0)
            point = backproject(K_VGA, pixel, depth)
            assert np.linalg.norm(project_points(K_VGA, pose, point)[0] - pixel) < 1e-9

    def test_project_points_matches_scalar(self):
        rng = np.random.default_rng(5)
        pose = RigidPose(rotation_about_axis([0, 1, 0], 15.0), [0.02, -0.01, 1.2])
        pts = rng.uniform(-0.1, 0.1, size=(50, 3))
        batch = project_points(K_VGA, pose, pts)
        single = np.array([project_points(K_VGA, pose, p)[0] for p in pts])
        assert np.allclose(batch, single, atol=1e-12)


class TestGeodesicDistance:
    def test_identity_zero(self):
        assert geodesic_distance(np.eye(3), np.eye(3)) == 0.0

    def test_quarter_turn(self):
        assert abs(geodesic_distance(np.eye(3), rotation_about_axis([0, 0, 1], 90)) - 90) < 1e-9

    def test_constructed_axis_angle_offsets(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            base = sample_rotations(1, int(rng.integers(1 << 30)))[0]
            axis = rng.normal(size=3)
            offset = rotation_about_axis(axis, 20.0)
            assert abs(geodesic_distance(base, offset @ base) - 20.0) < 1e-6

    def test_symmetry_and_triangle_inequality(self):
        rotations = sample_rotations(30, 11)
        for i in range(0, 30, 3):
            ra, rb, rc = rotations[i], rotations[i + 1], rotations[i + 2]
            assert abs(geodesic_distance(ra, rb) - geodesic_distance(rb, ra)) < 1e-9
            assert geodesic_distance(ra, rc) <= (
                geodesic_distance(ra, rb) + geodesic_distance(rb, rc) + 1e-6
            )


class TestSampleRotations:
    def test_single_sample_valid(self):
        r = sample_rotations(1, 123)[0]
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-9
        assert abs(np.linalg.det(r) - 1.0) < 1e-9

    def test_all_samples_satisfy_invariants(self):
        rs = sample_rotations(500, 9)
        eye = np.eye(3)
        for r in rs:
            assert np.abs(r.T @ r - eye).max() < 1e-9
            assert abs(np.linalg.det(r) - 1.0) < 1e-9

    def test_haar_trace_statistics(self):
        # uniform SO(3): E[trace] = 0 and E[trace^2] = 1
        rs = sample_rotations(10000, 0)
        traces = np.einsum("nii->n", rs)
        assert abs(traces.mean()) < 0.05
        assert abs((traces**2).mean() - 1.0) < 0.05

    def test_statistics_match_independent_sampler(self):
        # scipy's rotation sampler is an independent Monte-Carlo oracle
        from scipy.stats import special_ortho_group

        ours = np.einsum("nii->n", sample_rotations(10000, 1))
        theirs = np.einsum(
            "nii->n", special_ortho_group.rvs(3, size=10000, random_state=2024)
        )
        assert abs(np.abs(ours).mean() - np.abs(theirs).mean()) < 0.05

    def test_deterministic(self):
        assert np.array_equal(sample_rotations(64, 17), sample_rotations(64, 17))


class TestPoseJitter:
    def setup_method(self):
        self.mesh = make_box((0.10, 0.08, 0.06))
        self.pose = RigidPose(rotation_about_axis([1, 0, 1], 30.0), [0.02, -0.03, 1.0])

    def test_zero_jitter_is_identity(self):
        out = pose_jitter(self.pose, K_VGA, self.mesh, 0.0, 0.0, seed=5)
        assert np.abs(out.rotation - self.pose.rotation).max() < 1e-12
        assert np.abs(out.translation - self.pose.translation).max() < 1e-12

    def test_bounds_hold_over_many_seeds(self):
        centroid = self.mesh.centroid
        u0 = project_points(K_VGA, self.pose, centroid)[0]
        for seed in range(200):
            out = pose_jitter(self.pose, K_VGA, self.mesh, 20.0, 10.0, seed=seed)
            assert geodesic_distance(self.pose.rotation, out.rotation) <= 20.0 + 1e-9
            offset = np.linalg.norm(project_points(K_VGA, out, centroid)[0] - u0)
            assert offset <= 10.0 + 1e-9

    def test_deterministic(self):
        a = pose_jitter(self.pose, K_VGA, self.mesh, 20.0, 10.0, seed=99)
        b = pose_jitter(self.pose, K_VGA, self.mesh, 20.0, 10.0, seed=99)
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(a.translation, b.translation)

    def test_rejects_negative_bounds(self):
        with pytest.raises(ValueError):
            pose_jitter(self.pose, K_VGA, self.mesh, -1.0, 0.0, seed=0)

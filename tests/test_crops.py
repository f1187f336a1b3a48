"""Crop transforms and intrinsics alignment."""

import numpy as np
import pytest

from pfa.crops import (
    CropTransform,
    align_intrinsics,
    apply_homography,
    compute_crop,
    crop_to_image_matrix,
    image_to_crop_matrix,
    intrinsics_align_matrix,
    lift_to_image,
)
from pfa.errors import DegeneracyError
from pfa.geometry import CameraIntrinsics, RigidPose, sample_rotations
from pfa.mesh import MeshModel, make_box

K_VGA = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)


def _square_mesh(side, depth):
    a = side / 2
    v = np.array([[-a, -a, 0], [a, -a, 0], [a, a, 0], [-a, a, 0]], dtype=float)
    return MeshModel(v, np.array([[0, 1, 2], [0, 2, 3]])), RigidPose(np.eye(3), [0, 0, depth])


class TestComputeCrop:
    def test_hand_computed_scale(self):
        # square of side 0.2 m at depth 1 under f=500 projects to a
        # 100x100 px bbox; pad 1.2 makes the crop side 120 px
        mesh, pose = _square_mesh(0.2, 1.0)
        crop = compute_crop(pose, K_VGA, mesh, out_size=256, pad=1.2)
        assert abs(crop.matrix[0, 0] - 256.0 / 120.0) < 1e-12

    def test_unpadded_square_maps_corners_to_corners(self):
        mesh, pose = _square_mesh(0.2, 1.0)
        crop = compute_crop(pose, K_VGA, mesh, out_size=256, pad=1.0)
        lo = crop.apply(np.array([320.0 - 50.0, 240.0 - 50.0]))
        hi = crop.apply(np.array([320.0 + 50.0, 240.0 + 50.0]))
        assert np.allclose(lo, [0.0, 0.0], atol=1e-9)
        assert np.allclose(hi, [256.0, 256.0], atol=1e-9)

    def test_inverse_round_trip(self):
        mesh, pose = _square_mesh(0.14, 0.9)
        crop = compute_crop(pose, K_VGA, mesh)
        rng = np.random.default_rng(31)
        pixels = rng.uniform([0, 0], [640, 480], size=(1000, 2))
        back = apply_homography(crop.inverse_matrix(), crop.apply(pixels))
        assert np.abs(back - pixels).max() < 1e-9
        assert np.abs(crop.inverse_matrix() @ crop.matrix - np.eye(3)).max() < 1e-12

    def test_vertices_land_inside_crop(self):
        rng = np.random.default_rng(32)
        mesh = make_box((0.1, 0.07, 0.05))
        for seed in range(20):
            pose = RigidPose(
                sample_rotations(1, seed)[0],
                [rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1), rng.uniform(0.7, 1.3)],
            )
            for pad in (1.0, 1.2, 2.0):
                crop = compute_crop(pose, K_VGA, mesh, 256, pad)
                from pfa.geometry import project_points

                inside = crop.apply(project_points(K_VGA, pose, mesh.vertices))
                assert inside.min() >= -1e-9
                assert inside.max() <= 256.0 + 1e-9

    def test_scale_consistency_under_focal_change(self):
        # doubling the focal lengths (object centered on the axis) must not
        # change the composed model-point -> crop-pixel map
        mesh, pose = _square_mesh(0.2, 1.0)
        k2 = CameraIntrinsics(1000.0, 1000.0, 320.0, 240.0, 640, 480)
        from pfa.geometry import project_points

        crop1 = compute_crop(pose, K_VGA, mesh, 256, 1.2)
        crop2 = compute_crop(pose, k2, mesh, 256, 1.2)
        probe = mesh.vertices * 0.7 + [0.01, -0.02, 0.0]
        a = crop1.apply(project_points(K_VGA, pose, probe))
        b = crop2.apply(project_points(k2, pose, probe))
        assert np.abs(a - b).max() < 1e-6

    def test_degenerate_projection_rejected(self):
        mesh, _ = _square_mesh(1e-12, 1.0)
        with pytest.raises(DegeneracyError):
            compute_crop(RigidPose(np.eye(3), [0, 0, 1.0]), K_VGA, mesh)

    def test_structure_enforced(self):
        with pytest.raises(ValueError):
            CropTransform(np.array([[1, 0.1, 0], [0, 1, 0], [0, 0, 1.0]]), 256)
        with pytest.raises(ValueError):
            CropTransform(np.diag([1.0, 2.0, 1.0]), 256)


class TestAlignIntrinsics:
    def test_same_camera_is_identity(self):
        pixel = np.array([123.0, 45.0])
        assert np.allclose(align_intrinsics(pixel, K_VGA, K_VGA), pixel, atol=1e-12)

    def test_doubled_focal_halves_pixels(self):
        k_r = CameraIntrinsics(250.0, 250.0, 0.0, 0.0, 640, 480)
        k_t = CameraIntrinsics(500.0, 500.0, 0.0, 0.0, 640, 480)
        out = align_intrinsics(np.array([100.0, 60.0]), k_r, k_t)
        assert np.allclose(out, [50.0, 30.0], atol=1e-12)

    def test_swap_round_trip(self):
        k_r = CameraIntrinsics(420.0, 390.0, 127.0, 130.0, 256, 256)
        rng = np.random.default_rng(33)
        pixels = rng.uniform(0, 256, size=(200, 2))
        there = align_intrinsics(pixels, k_r, K_VGA)
        back = align_intrinsics(there, K_VGA, k_r)
        assert np.abs(back - pixels).max() < 1e-12


class TestLiftToImage:
    def test_composition_identity(self):
        mesh, pose = _square_mesh(0.2, 1.0)
        k_r = CameraIntrinsics(400.0, 400.0, 128.0, 128.0, 256, 256)
        crop = compute_crop(pose, k_r, mesh)
        rng = np.random.default_rng(34)
        pixels = rng.uniform(0, 640, size=(500, 2))
        warped = crop.apply(apply_homography(intrinsics_align_matrix(k_r, K_VGA), pixels))
        assert np.abs(lift_to_image(warped, crop, k_r, K_VGA) - pixels).max() < 1e-9

    def test_image_crop_maps_invert_each_other(self):
        mesh, pose = _square_mesh(0.2, 1.0)
        k_r = CameraIntrinsics(400.0, 400.0, 128.0, 128.0, 256, 256)
        crop = compute_crop(pose, k_r, mesh)
        to_crop = image_to_crop_matrix(crop, k_r, K_VGA)
        to_image = crop_to_image_matrix(crop, k_r, K_VGA)
        assert np.abs(to_image @ to_crop - np.eye(3)).max() < 1e-12
        rng = np.random.default_rng(36)
        pixels = rng.uniform(0, 640, size=(100, 2))
        warped = crop.apply(apply_homography(intrinsics_align_matrix(k_r, K_VGA), pixels))
        assert np.abs(apply_homography(to_crop, pixels) - warped).max() < 1e-9

    def test_identity_everything_is_passthrough(self):
        crop = CropTransform.identity(256)
        pixels = np.array([[10.0, 20.0], [200.0, 100.0]])
        assert np.allclose(lift_to_image(pixels, crop, K_VGA, K_VGA), pixels, atol=1e-12)

    def test_matches_direct_linear_solve(self):
        rng = np.random.default_rng(35)
        k_r = CameraIntrinsics(420.0, 390.0, 127.0, 130.0, 256, 256)
        for _ in range(20):
            s = rng.uniform(0.5, 3.0)
            m = np.array([[s, 0, rng.uniform(-40, 40)], [0, s, rng.uniform(-40, 40)], [0, 0, 1]])
            crop = CropTransform(m, 256)
            u = rng.uniform(0, 256, size=2)
            # oracle: solve (M K_r K_t^-1) x = u in homogeneous coordinates
            full = m @ k_r.matrix @ np.linalg.inv(K_VGA.matrix)
            x = np.linalg.solve(full, [u[0], u[1], 1.0])
            assert np.abs(lift_to_image(u, crop, k_r, K_VGA) - x[:2] / x[2]).max() < 1e-9

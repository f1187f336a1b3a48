"""Rasterizer coverage, depth order, round-trips, and the ray oracle."""

import numpy as np
import pytest

from helpers import (
    rasterize_scene,
    ray_trace_reference,
    random_small_mesh,
    reprojection_residual_max,
)
from pfa.errors import ConfigurationError
from pfa.geometry import CameraIntrinsics, RigidPose, sample_rotations
from pfa.mesh import MeshModel, make_box
from pfa.raster import SceneSpec, rasterize, scene_depth_map

K_EXEMPLAR = CameraIntrinsics(100.0, 100.0, 128.0, 128.0, 256, 256)


def _flat_square(side=1.0, depth=1.0, shift=(0.0, 0.0)):
    a = side / 2
    v = np.array(
        [
            [-a + shift[0], -a + shift[1], depth],
            [a + shift[0], -a + shift[1], depth],
            [a + shift[0], a + shift[1], depth],
            [-a + shift[0], a + shift[1], depth],
        ]
    )
    return MeshModel(v, np.array([[0, 1, 2], [0, 2, 3]]))


class TestCoverage:
    def test_unit_square_exact_footprint(self):
        cmap = rasterize(_flat_square(), RigidPose.identity(), K_EXEMPLAR, 256)
        ys, xs = np.nonzero(cmap.mask)
        assert cmap.mask.sum() == 100 * 100
        assert xs.min() == 78 and xs.max() == 177
        assert ys.min() == 78 and ys.max() == 177
        assert np.allclose(cmap.depth[cmap.mask], 1.0, atol=1e-12)

    def test_shared_edge_covered_once(self):
        # the two triangles of the square share a diagonal: every covered
        # pixel must be claimed exactly once, with no cracks
        cmap = rasterize(_flat_square(), RigidPose.identity(), K_EXEMPLAR, 256)
        assert cmap.mask.sum() == 100 * 100  # no double counting possible; no holes
        assert set(np.unique(cmap.tri[cmap.mask])) == {0, 1}

    def test_object_behind_camera_empty_mask(self):
        pose = RigidPose(np.eye(3), [0, 0, -2.0])
        cmap = rasterize(make_box((0.1, 0.1, 0.1)), pose, K_EXEMPLAR, 256)
        assert not cmap.mask.any()

    def test_mask_depth_points_consistent(self):
        cmap = rasterize(
            make_box((0.2, 0.2, 0.2)),
            RigidPose(sample_rotations(1, 3)[0], [0, 0, 1.5]),
            K_EXEMPLAR,
            256,
        )
        assert np.array_equal(cmap.mask, np.isfinite(cmap.depth))
        assert np.all(np.isfinite(cmap.points[cmap.mask]))
        assert np.all(np.isnan(cmap.points[~cmap.mask]))
        assert np.all(cmap.depth[cmap.mask] > 0)


class TestDepthOrder:
    def test_coplanar_overlap_near_wins(self):
        near = _flat_square(side=1.0, depth=1.0)
        v = np.vstack([near.vertices, near.vertices + [0, 0, 1.0]])
        t = np.vstack([near.triangles, near.triangles + 4])
        mesh = MeshModel(v, t)
        cmap = rasterize(mesh, RigidPose.identity(), K_EXEMPLAR, 256)
        assert np.allclose(cmap.depth[cmap.mask], 1.0)
        assert set(np.unique(cmap.tri[cmap.mask])) == {0, 1}

    def test_depth_tie_keeps_lower_triangle(self):
        square = _flat_square()
        v = np.vstack([square.vertices, square.vertices])
        t = np.vstack([square.triangles, square.triangles + 4])
        cmap = rasterize(MeshModel(v, t), RigidPose.identity(), K_EXEMPLAR, 256)
        assert cmap.tri[cmap.mask].max() <= 1


class TestRoundTrip:
    def test_reprojection_within_half_diagonal(self):
        rng = np.random.default_rng(21)
        for seed in range(8):
            mesh = random_small_mesh(rng, 10)
            pose = RigidPose(sample_rotations(1, seed)[0], [0, 0, 2.0])
            cmap = rasterize(mesh, pose, K_EXEMPLAR, 128)
            assert reprojection_residual_max(cmap, pose, K_EXEMPLAR) < 0.71

    def test_deterministic_buffers(self):
        mesh = make_box((0.3, 0.2, 0.25))
        pose = RigidPose(sample_rotations(1, 5)[0], [0, 0, 1.4])
        a = rasterize(mesh, pose, K_EXEMPLAR, 256)
        b = rasterize(mesh, pose, K_EXEMPLAR, 256)
        assert np.array_equal(a.depth, b.depth)
        assert np.array_equal(a.points[a.mask], b.points[b.mask])
        assert np.array_equal(a.tri, b.tri)


class TestRayOracle:
    def test_agrees_on_random_meshes(self):
        camera = CameraIntrinsics(12.0, 12.0, 8.0, 8.0, 16, 16)
        rng = np.random.default_rng(2025)
        for _ in range(5):  # full 20-mesh sweep lives in the acceptance suite
            mesh = random_small_mesh(rng, int(rng.integers(4, 20)))
            mask_ref, depth_ref = ray_trace_reference(
                mesh, RigidPose.identity(), camera, 16
            )
            cmap = rasterize(mesh, RigidPose.identity(), camera, 16)
            assert np.array_equal(cmap.mask, mask_ref)
            both = cmap.mask & mask_ref
            if both.any():
                assert np.abs(cmap.depth[both] - depth_ref[both]).max() < 1e-6


class TestScene:
    def setup_method(self):
        self.camera = CameraIntrinsics(100.0, 100.0, 128.0, 128.0, 256, 256)
        self.mesh = make_box((0.4, 0.4, 0.05))
        self.pose = RigidPose(np.eye(3), [0, 0, 2.0])

    def test_no_occluders_visibility_equals_mask(self):
        scene = SceneSpec(self.mesh, self.pose, (), self.camera)
        cmap, vis = rasterize_scene(scene, 256)
        assert np.array_equal(vis, cmap.mask)

    def test_half_plane_occluder(self):
        # occluder plate covering the left half of the image at depth 1
        occluder = MeshModel(
            np.array([[-4, -4, 0], [0, -4, 0], [0, 4, 0], [-4, 4, 0]], dtype=float),
            np.array([[0, 1, 2], [0, 2, 3]]),
        )
        scene = SceneSpec(
            self.mesh, self.pose, ((occluder, RigidPose(np.eye(3), [0, 0, 1.0])),),
            self.camera,
        )
        cmap, vis = rasterize_scene(scene, 256)
        ys, xs = np.nonzero(cmap.mask)
        left = xs + 0.5 < self.camera.cx
        assert not vis[ys[left], xs[left]].any()
        assert vis[ys[~left], xs[~left]].all()

    def test_occluder_behind_object_is_ignored(self):
        occluder = make_box((2.0, 2.0, 0.01))
        scene = SceneSpec(
            self.mesh, self.pose, ((occluder, RigidPose(np.eye(3), [0, 0, 3.0])),),
            self.camera,
        )
        cmap, vis = rasterize_scene(scene, 256)
        assert np.array_equal(vis, cmap.mask)

    def test_occlusion_is_exactly_depth_comparison(self):
        occluder = make_box((0.3, 0.6, 0.02))
        occ_pose = RigidPose(sample_rotations(1, 8)[0], [0.05, 0.0, 1.2])
        scene = SceneSpec(self.mesh, self.pose, ((occluder, occ_pose),), self.camera)
        cmap, vis = rasterize_scene(scene, 256)
        occ_depth = rasterize(occluder, occ_pose, self.camera, 256).depth
        expected = cmap.mask & ~(occ_depth < cmap.depth)
        assert np.array_equal(vis, expected)

    def test_joint_depth_map(self):
        occluder = make_box((0.3, 0.3, 0.02))
        occ_pose = RigidPose(np.eye(3), [0, 0, 1.0])
        scene = SceneSpec(self.mesh, self.pose, ((occluder, occ_pose),), self.camera)
        joint = scene_depth_map(scene, 256)
        parts = np.minimum(
            rasterize(self.mesh, self.pose, self.camera, 256).depth,
            rasterize(occluder, occ_pose, self.camera, 256).depth,
        )
        assert np.array_equal(joint, parts)

    def test_windowed_depth_map_equals_full_inside_window(self):
        occluders = (
            (make_box((0.3, 0.3, 0.02)), RigidPose(np.eye(3), [0.05, 0.0, 1.0])),
            (make_box((0.2, 0.4, 0.05)), RigidPose(sample_rotations(1, 4)[0], [-0.1, 0.05, 1.3])),
        )
        scene = SceneSpec(self.mesh, self.pose, occluders, self.camera)
        full = scene_depth_map(scene, 256)
        windows = [
            (0, 0, 256, 256),
            (90, 70, 170, 150),  # inside the object
            (0, 0, 40, 256),  # on the image border
            (200, 180, 256, 256),
            (128, 0, 129, 256),  # one column
            (60, 60, 60, 90),  # empty
        ]
        for x0, y0, x1, y1 in windows:
            part = scene_depth_map(scene, 256, window=(x0, y0, x1, y1))
            assert part.shape == (y1 - y0, x1 - x0)
            assert np.array_equal(part, full[y0:y1, x0:x1])

    def test_rejects_mesh_behind_camera(self):
        with pytest.raises(ConfigurationError):
            SceneSpec(self.mesh, RigidPose(np.eye(3), [0, 0, -1.0]), (), self.camera)

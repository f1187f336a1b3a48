"""The vectorized rasterizer against the per-triangle reference, bit for bit."""

import tracemalloc

import numpy as np

import pfa.raster
from helpers import (
    make_plate,
    random_pose,
    random_small_mesh,
    reference_rasterize,
    reference_scene_depth_map,
)
from pfa.exemplars import EXEMPLAR_SIZE, Exemplar, ExemplarSet, generate_exemplar_set, save_set
from pfa.geometry import CameraIntrinsics, RigidPose, sample_rotations
from pfa.mesh import MeshModel, make_box, mesh_digest
from pfa.pipeline import (
    DEFAULT_EXEMPLAR_CAMERA,
    ExperimentConfig,
    scene_from_manifest_entry,
    synth_scene_manifest,
)
from pfa.raster import (
    DEPTH_TIE,
    PASS_FRAGMENTS,
    PASS_TRIANGLES,
    SceneSpec,
    rasterize,
    render_surfaces,
    scene_depth_map,
)

BOX = make_box((0.10, 0.08, 0.06))
# its bounding sphere nearly touches the 256 x 256 frame at FILL_Z_BAR
FILL_BOX = make_box((0.3, 0.3, 0.3))
FILL_Z_BAR = 1.1


def assert_same_map(cmap, ref):
    assert np.array_equal(cmap.mask, ref.mask)
    assert np.array_equal(cmap.depth, ref.depth)
    assert np.array_equal(cmap.points, ref.points, equal_nan=True)
    assert np.array_equal(cmap.tri, ref.tri)
    assert cmap.tri.dtype == ref.tri.dtype == np.int32


def _square(depth, side=1.0):
    a = side / 2
    return np.array([[-a, -a, depth], [a, -a, depth], [a, a, depth], [-a, a, depth]])


def _stacked_squares(depths) -> MeshModel:
    """Fronto-parallel unit squares, two triangles each, drawn in list order."""
    vertices = np.vstack([_square(d) for d in depths])
    triangles = np.vstack([np.array([[0, 1, 2], [0, 2, 3]]) + 4 * k for k in range(len(depths))])
    return MeshModel(vertices, triangles)


class TestViews:
    def test_random_meshes_and_poses(self):
        rng = np.random.default_rng(1988)
        for _ in range(24):
            mesh = random_small_mesh(rng, int(rng.integers(2, 60)))
            pose = random_pose(rng, depth=float(rng.uniform(0.4, 2.5)))
            size = int(rng.choice([16, 64, 128]))
            f = rng.uniform(0.3, 3.0, size=2) * size
            camera = CameraIntrinsics(
                float(f[0]), float(f[1]), *(size / 2 + rng.uniform(-3, 3, size=2)), size, size
            )
            assert_same_map(rasterize(mesh, pose, camera, size),
                            reference_rasterize(mesh, pose, camera, size))

    def test_edges_through_pixel_centers(self):
        # corners on pixel centers at unit depth, seen by a unit camera: many
        # edges pass exactly through pixel centers, where the fill rule decides
        rng = np.random.default_rng(88)
        camera = CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 32, 32)
        for _ in range(8):
            vertices = np.column_stack([rng.integers(-2, 34, size=(40, 2)) + 0.5, np.ones(40)])
            triangles = [t for t in rng.integers(0, 40, size=(60, 3))
                         if np.linalg.norm(np.cross(*(vertices[t[1:]] - vertices[t[0]]))) > 0]
            mesh = MeshModel(vertices, np.array(triangles))
            assert_same_map(rasterize(mesh, RigidPose.identity(), camera, 32),
                            reference_rasterize(mesh, RigidPose.identity(), camera, 32))

    def test_box_views(self):
        for rotation in sample_rotations(12, 5):
            pose = RigidPose(rotation, [0.0, 0.0, 1.0])
            assert_same_map(rasterize(BOX, pose, DEFAULT_EXEMPLAR_CAMERA, EXEMPLAR_SIZE),
                            reference_rasterize(BOX, pose, DEFAULT_EXEMPLAR_CAMERA, EXEMPLAR_SIZE))

    def test_near_plane_triangles_dropped(self):
        rng = np.random.default_rng(5)
        camera = CameraIntrinsics(40.0, 40.0, 32.0, 32.0, 64, 64)
        dropped = drawn = 0
        for _ in range(12):
            mesh = random_small_mesh(rng, 30)
            # the mesh straddles the camera plane: some corners at z <= NEAR_CLIP
            pose = RigidPose(np.eye(3), [0.0, 0.0, -2.0])
            z = pose.transform(mesh.vertices)[:, 2][mesh.triangles]
            dropped += int((z <= pfa.raster.NEAR_CLIP).any(axis=1).sum())
            cmap = rasterize(mesh, pose, camera, 64)
            drawn += int(cmap.mask.sum())
            assert_same_map(cmap, reference_rasterize(mesh, pose, camera, 64))
        assert dropped and drawn

    def test_zero_area_projection_dropped(self):
        # the last triangle lies in the plane x = 0 through the camera center,
        # so its three corners project to the same column
        edge_on = np.array([[0.0, -0.05, 0.9], [0.0, 0.05, 0.95], [0.0, 0.0, 1.1]])
        mesh = MeshModel(np.vstack([BOX.vertices + [0.0, 0.0, 1.0], edge_on]),
                         np.vstack([BOX.triangles, [[8, 9, 10]]]))
        cmap = rasterize(mesh, RigidPose.identity(), DEFAULT_EXEMPLAR_CAMERA, EXEMPLAR_SIZE)
        assert cmap.mask.any() and 12 not in cmap.tri
        assert_same_map(cmap, reference_rasterize(
            mesh, RigidPose.identity(), DEFAULT_EXEMPLAR_CAMERA, EXEMPLAR_SIZE))

    def test_sub_nanometre_tie_chain_is_sequential(self):
        # each square is 0.8 DEPTH_TIE nearer than the one before it: drawn in
        # order, square 1 does not beat square 0, square 2 does, and square 3
        # does not beat square 2; the nearest square (3) is not what is kept
        step = 0.8 * DEPTH_TIE
        mesh = _stacked_squares([1.0, 1.0 - step, 1.0 - 2 * step, 1.0 - 3 * step])
        camera = CameraIntrinsics(40.0, 40.0, 32.0, 32.0, 64, 64)
        cmap = rasterize(mesh, RigidPose.identity(), camera, 64)
        assert cmap.mask.any()
        assert set(np.unique(cmap.tri[cmap.mask])) == {4, 5}
        assert_same_map(cmap, reference_rasterize(mesh, RigidPose.identity(), camera, 64))


class TestScenes:
    def test_occluded_scenes_and_windows(self):
        config = ExperimentConfig(trials=6, seed=3, occluder_count=3, occluder_coverage=0.8)
        cam = config.target_camera
        rng = np.random.default_rng(7)
        for entry in synth_scene_manifest(config, BOX)["trials"]:
            scene, _, _ = scene_from_manifest_entry(entry, BOX, cam)
            windows = [None, (0, 0, 1, cam.height), (cam.width - 3, 0, cam.width, cam.height)]
            corners = np.sort(rng.integers(0, [cam.width, cam.height], size=(2, 2)), axis=0)
            windows.append((*corners[0], *corners[1]))
            for window in windows:
                assert np.array_equal(scene_depth_map(scene, window),
                                      reference_scene_depth_map(scene, window))

    def test_crop_windows_of_a_scene(self):
        occluders = (
            (make_box((0.3, 0.3, 0.02)), RigidPose(np.eye(3), [0.05, 0.0, 1.0])),
            (make_box((0.2, 0.4, 0.05)), RigidPose(sample_rotations(1, 4)[0], [-0.1, 0.05, 1.3])),
        )
        camera = CameraIntrinsics(600.0, 600.0, 320.0, 240.0, 640, 480)
        scene = SceneSpec(make_box((0.4, 0.4, 0.05)), RigidPose(np.eye(3), [0, 0, 2.0]),
                          occluders, camera)
        for window in [(250, 170, 390, 310), (0, 0, 640, 1), (320, 240, 320, 300)]:
            assert np.array_equal(scene_depth_map(scene, window),
                                  reference_scene_depth_map(scene, window))


def _reference_exemplar_set(mesh, count, z_bar, camera, seed) -> ExemplarSet:
    """An exemplar set rendered by the reference rasterizer and compacted."""
    digest = mesh_digest(mesh)
    exemplars = []
    for i, rotation in enumerate(sample_rotations(count, seed)):
        pose = RigidPose(rotation, np.array([0.0, 0.0, z_bar]))
        cmap = reference_rasterize(mesh, pose, camera, EXEMPLAR_SIZE)
        exemplars.append(Exemplar(
            i, pose, camera, np.packbits(cmap.mask.reshape(-1)),
            cmap.points[cmap.mask].astype("<f4"), cmap.tri[cmap.mask].astype("<i4"), digest,
        ))
    return ExemplarSet("object", digest, float(z_bar), camera, exemplars)


def test_box_set_file_is_byte_identical(tmp_path):
    generated = generate_exemplar_set(BOX, 16, 1.0, DEFAULT_EXEMPLAR_CAMERA, seed=21)
    reference = _reference_exemplar_set(BOX, 16, 1.0, DEFAULT_EXEMPLAR_CAMERA, seed=21)
    save_set(generated, tmp_path / "generated.pfax")
    save_set(reference, tmp_path / "reference.pfax")
    assert (tmp_path / "generated.pfax").read_bytes() == (tmp_path / "reference.pfax").read_bytes()
    assert all(ex.points.flags.c_contiguous for ex in generated.exemplars)


def _fragment_count(mesh, pose, camera) -> int:
    window = (0, 0, camera.width, camera.height)
    return int(pfa.raster._spans(pfa.raster._setup([(mesh, pose)], camera, window))[3].sum())


class TestViewPasses:
    """Exemplar sets rendered in multi-view passes against the reference set."""

    @staticmethod
    def assert_same_set(mesh, count, z_bar, seed):
        camera = DEFAULT_EXEMPLAR_CAMERA
        generated = generate_exemplar_set(mesh, count, z_bar, camera, seed)
        assert generated.equals(_reference_exemplar_set(mesh, count, z_bar, camera, seed))

    def test_one_view(self):
        self.assert_same_set(BOX, 1, 1.0, seed=4)

    def test_count_off_the_pass_size(self):
        per_pass = PASS_TRIANGLES // len(BOX.triangles)
        self.assert_same_set(BOX, 2 * per_pass + 3, 1.0, seed=9)

    def test_random_small_meshes(self):
        rng = np.random.default_rng(1276)
        for _ in range(5):
            soup = random_small_mesh(rng, int(rng.integers(2, 40)))
            mesh = MeshModel(soup.vertices - soup.centroid, soup.triangles)
            per_pass = max(1, PASS_TRIANGLES // len(mesh.triangles))
            count = per_pass + int(rng.integers(1, per_pass + 1))
            self.assert_same_set(mesh, count, 5 * mesh.bounding_radius, int(rng.integers(100)))

    def test_a_view_with_no_pixel_shares_a_pass(self):
        # a flat plate seen edge-on through the camera center projects to a
        # line, so that view covers nothing; the others cover the plate
        plate = make_plate(0.1)
        edge_on = RigidPose(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]),
                            [0.0, 0.0, 1.0])
        poses = [RigidPose(r, [0.0, 0.0, 1.0]) for r in sample_rotations(3, 6)]
        poses = [poses[0], edge_on, poses[1], edge_on, poses[2], edge_on]
        assert len(poses) * len(plate.triangles) <= PASS_TRIANGLES
        camera = DEFAULT_EXEMPLAR_CAMERA
        surfaces = list(render_surfaces(plate, poses, camera, EXEMPLAR_SIZE))
        assert [len(s.pixels) > 0 for s in surfaces] == [True, False] * 3
        for surface, pose in zip(surfaces, poses):
            ref = reference_rasterize(plate, pose, camera, EXEMPLAR_SIZE)
            pixels = np.flatnonzero(ref.mask)
            assert np.array_equal(surface.pixels, pixels)
            assert np.array_equal(surface.depth, ref.depth.reshape(-1)[pixels])
            assert np.array_equal(surface.points, ref.points.reshape(-1, 3)[pixels])
            assert np.array_equal(surface.tri, ref.tri.reshape(-1)[pixels])
            assert surface.tri.dtype == np.int32

    def test_views_above_the_fragment_cut_render_alone(self):
        poses = [RigidPose(r, [0.0, 0.0, FILL_Z_BAR]) for r in sample_rotations(3, 5)]
        assert all(_fragment_count(FILL_BOX, pose, DEFAULT_EXEMPLAR_CAMERA) > PASS_FRAGMENTS
                   for pose in poses)
        self.assert_same_set(FILL_BOX, 3, FILL_Z_BAR, seed=5)


def test_frame_filling_set_memory_stays_near_one_view():
    def peak_mib(count):
        tracemalloc.start()
        try:
            generate_exemplar_set(FILL_BOX, count, FILL_Z_BAR, DEFAULT_EXEMPLAR_CAMERA, seed=5)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    one_view = peak_mib(1)
    # one pass of triangles, which the fragment cut splits view by view
    full_pass = peak_mib(PASS_TRIANGLES // len(FILL_BOX.triangles))
    assert full_pass < 3 * one_view, (full_pass, one_view)

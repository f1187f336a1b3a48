"""Flow oracle geometry, degradation, and the flow file format."""

import numpy as np
import pytest

from helpers import (
    bilinear_masked,
    crop_pixel_centers,
    dense_degrade_flow,
    dense_lift,
    dense_load_flow,
    dense_oracle_flow,
    dense_save_flow,
    dense_subsample,
    dense_view,
    exemplar_of_mask,
    make_tetrahedron,
    same_flow,
    sparse_field,
    window_edge_masks,
)
from pfa.correspond import aggregate, lift_correspondences, subsample_per_exemplar
from pfa.crops import CropTransform, apply_homography, compute_crop, lift_to_image
from pfa.errors import (
    BadMagicError,
    FileFormatError,
    MeshHashMismatchError,
    TruncationError,
    VersionMismatchError,
)
from pfa.exemplars import generate_exemplar_set, load_set, save_set
from pfa.flow import (
    CropSampler,
    FlowNoiseSpec,
    OracleFlowSource,
    degrade_flow,
    load_flow,
    object_window,
    oracle_flow,
    save_flow,
)
from pfa.geometry import CameraIntrinsics, RigidPose, project_points, rotation_about_axis
from pfa.mesh import MeshModel, make_box
from pfa.pipeline import ExperimentConfig
from pfa.raster import SceneSpec, scene_depth_map
from pfa.refine import RansacConfig, refine_pose

K_R = CameraIntrinsics(400.0, 400.0, 128.0, 128.0, 256, 256)
TETRA = make_tetrahedron(0.05)
BOX = make_box((0.10, 0.08, 0.06))
IDENTITY_CROP = CropTransform.identity(256)


@pytest.fixture(scope="module")
def tetra_set():
    return generate_exemplar_set(TETRA, 24, 1.0, K_R, seed=6)


@pytest.fixture(scope="module")
def box_set():
    return generate_exemplar_set(BOX, 24, 1.0, K_R, seed=7)


class TestOracleGeometry:
    def test_identical_views_zero_flow(self, tetra_set):
        ex = tetra_set.exemplars[3]
        scene = SceneSpec(TETRA, ex.pose, (), K_R)
        field = oracle_flow(ex, IDENTITY_CROP, scene, ex.pose, IDENTITY_CROP)
        assert field.valid.sum() > 100
        assert abs(field.vectors[:, 0]).max() < 1e-3
        assert abs(field.vectors[:, 1]).max() < 1e-3

    def test_pure_pixel_shift(self, tetra_set):
        # shifting the target by dx = 5 z / f moves every projection by
        # ~+5 px (exactly 5 at the reference depth, thin object keeps the
        # variation below the rasterization slack)
        ex = tetra_set.exemplars[3]
        shifted = RigidPose(ex.pose.rotation, ex.pose.translation + [5.0 / 400.0, 0, 0])
        scene = SceneSpec(TETRA, shifted, (), K_R)
        field = oracle_flow(ex, IDENTITY_CROP, scene, shifted, IDENTITY_CROP)
        assert field.valid.sum() > 100
        assert np.abs(field.vectors[:, 0] - 5.0).max() < 0.75
        assert np.abs(field.vectors[:, 1]).max() < 0.75

    def test_left_half_occluder_invalidates_mapped_pixels(self, box_set):
        ex = box_set.exemplars[0]
        occluder = MeshModel(
            np.array([[-4, -4, 0], [0, -4, 0], [0, 4, 0], [-4, 4, 0]], dtype=float),
            np.array([[0, 1, 2], [0, 2, 3]]),
        )
        occ_pose = RigidPose(np.eye(3), [0, 0, 0.5])
        scene = SceneSpec(BOX, ex.pose, ((occluder, occ_pose),), K_R)
        clear = oracle_flow(ex, IDENTITY_CROP, SceneSpec(BOX, ex.pose, (), K_R), ex.pose, IDENTITY_CROP)
        blocked = oracle_flow(ex, IDENTITY_CROP, scene, ex.pose, IDENTITY_CROP)
        centers = crop_pixel_centers(256)
        # with identity crops and identical cameras the target pixel of a
        # valid pixel is (center + flow); the occluder removes exactly the
        # pixels landing left of the principal point
        target_u = centers[..., 0] + dense_view(clear).du
        lost = clear.valid & ~blocked.valid
        kept = clear.valid & blocked.valid
        assert lost.any() and kept.any()
        assert np.all(target_u[lost] < K_R.cx + 1e-6)
        assert np.all(target_u[kept] >= K_R.cx - 1e-6)

    def test_brute_force_depth_comparison(self, box_set):
        # oracle invalidation by occlusion == per-pixel depth test oracle
        ex = box_set.exemplars[5]
        occluder = make_box((0.08, 0.16, 0.01))
        occ_pose = RigidPose(np.eye(3), [0.01, 0.0, 0.6])
        scene = SceneSpec(BOX, ex.pose, ((occluder, occ_pose),), K_R)
        clear_scene = SceneSpec(BOX, ex.pose, (), K_R)
        clear = oracle_flow(ex, IDENTITY_CROP, clear_scene, ex.pose, IDENTITY_CROP)
        blocked = oracle_flow(ex, IDENTITY_CROP, scene, ex.pose, IDENTITY_CROP)

        from pfa.raster import rasterize, scene_depth_map

        joint = scene_depth_map(scene)
        cmap = ex.coordinate_map()
        eps = max(1e-4, 1e-3 * ex.z_bar)
        expected = clear.valid.copy()
        ys, xs = np.nonzero(clear.valid)
        centers = crop_pixel_centers(256)
        du, dv, _ = dense_view(clear)
        u = centers[ys, xs, 0] + du[ys, xs]
        v = centers[ys, xs, 1] + dv[ys, xs]
        px = np.clip(np.floor(u).astype(int), 0, 255)
        py = np.clip(np.floor(v).astype(int), 0, 255)
        depth_here = cmap.depth[ys, xs]
        expected[ys, xs] = ~(joint[py, px] < depth_here - eps)
        mismatch = (expected & clear.valid) ^ blocked.valid
        assert mismatch.sum() == 0

    def test_consistency_with_lift_to_image(self, box_set):
        # valid flow must agree with direct projection of the model point
        ex = box_set.exemplars[2]
        target = RigidPose(
            ex.pose.rotation, ex.pose.translation + [0.01, -0.005, 0.04]
        )
        k_t = CameraIntrinsics(500.0, 480.0, 320.0, 240.0, 640, 480)
        scene = SceneSpec(BOX, target, (), k_t)
        crop_r = compute_crop(ex.pose, K_R, BOX)
        crop_t = compute_crop(ex.pose, K_R, BOX, pad=1.6)  # initial-pose crop
        field = oracle_flow(ex, crop_r, scene, target, crop_t)
        assert field.valid.sum() > 200

        centers = crop_pixel_centers(256)
        du, dv, _ = dense_view(field)
        displaced = centers + np.stack([du, dv], axis=-1)
        lifted = lift_to_image(displaced[field.valid], crop_t, K_R, k_t)

        # independent loop-based bilinear interpolation of the model points
        cmap = ex.coordinate_map()
        sample_px = apply_homography(crop_r.inverse_matrix(), centers[field.valid])
        rng = np.random.default_rng(0)
        pick = rng.choice(len(sample_px), size=400, replace=False)
        errs = []
        for idx in pick:
            x = sample_px[idx, 0] - 0.5
            y = sample_px[idx, 1] - 0.5
            x0, y0 = int(np.floor(x)), int(np.floor(y))
            fx, fy = x - x0, y - y0
            p = (
                cmap.points[y0, x0] * (1 - fx) * (1 - fy)
                + cmap.points[y0, x0 + 1] * fx * (1 - fy)
                + cmap.points[y0 + 1, x0] * (1 - fx) * fy
                + cmap.points[y0 + 1, x0 + 1] * fx * fy
            )
            direct = project_points(k_t, target, p[None, :])[0]
            errs.append(np.linalg.norm(lifted[idx] - direct))
        assert np.quantile(errs, 0.99) < 0.75

    def test_mesh_hash_mismatch_rejected(self, tetra_set):
        ex = tetra_set.exemplars[0]
        source = OracleFlowSource(SceneSpec(BOX, ex.pose, (), K_R), ex.pose)
        with pytest.raises(MeshHashMismatchError):
            refine_pose(ex.pose, tetra_set, BOX, K_R, source, 1, RansacConfig(), 0)

    def test_loaded_set_matches_fresh(self, box_set, tmp_path):
        save_set(box_set, tmp_path / "b.pfax")
        loaded = load_set(tmp_path / "b.pfax")
        ex_a, ex_b = box_set.exemplars[4], loaded.exemplars[4]
        target = RigidPose(ex_a.pose.rotation, ex_a.pose.translation + [0.004, 0.002, -0.01])
        scene = SceneSpec(BOX, target, (), K_R)
        fresh = oracle_flow(ex_a, IDENTITY_CROP, scene, target, IDENTITY_CROP)
        re_read = oracle_flow(ex_b, IDENTITY_CROP, scene, target, IDENTITY_CROP)
        assert (fresh.width, fresh.height) == (re_read.width, re_read.height)
        assert np.array_equal(fresh.indices, re_read.indices)
        assert np.array_equal(fresh.vectors, re_read.vectors)

    def test_backface_invalidated_on_flipped_view(self, tetra_set):
        # rotate the target half a turn: exemplar-visible faces look away
        ex = tetra_set.exemplars[1]
        from pfa.geometry import rotation_about_axis

        flipped = RigidPose(
            rotation_about_axis([0, 1, 0], 180.0) @ ex.pose.rotation,
            ex.pose.translation,
        )
        scene = SceneSpec(TETRA, flipped, (), K_R)
        field = oracle_flow(ex, IDENTITY_CROP, scene, flipped, IDENTITY_CROP)
        # a tetrahedron has no face visible from both opposite directions
        assert field.valid.sum() == 0


def _dense_case(name):
    """Target camera, gt rotation relative to the exemplar, gt translation, occluders."""
    rotation = rotation_about_axis([0.3, 1.0, 0.2], 7.0)
    camera = CameraIntrinsics(600.0, 600.0, 320.0, 240.0, 640, 480)
    if name in ("occluded", "jittered"):  # "jittered": the test crops at the jitter bound
        translation = [0.01, -0.005, 0.9]
        occluders = (
            (make_box((0.05, 0.12, 0.02)), RigidPose(np.eye(3), [0.02, 0.0, 0.7])),
            (make_box((0.04, 0.04, 0.04)), RigidPose(np.eye(3), [-0.03, 0.02, 0.8])),
        )
    elif name == "overflow":  # unoccluded; the test halves the target crop
        translation = [0.01, -0.005, 0.9]
        occluders = ()
    elif name == "heavy":  # one box hides most of the object; the turn culls faces too
        rotation = rotation_about_axis([0.3, 1.0, 0.2], 60.0)
        translation = [0.01, -0.005, 0.9]
        occluders = ((make_box((0.10, 0.12, 0.02)), RigidPose(np.eye(3), [0.025, -0.01, 0.7])),)
    elif name == "hidden":  # a plate in front hides the whole target crop
        translation = [0.01, -0.005, 0.9]
        occluders = ((make_box((0.6, 0.6, 0.02)), RigidPose(np.eye(3), [0.01, -0.005, 0.6])),)
    elif name == "border":  # the object sits ~15 px from the left image edge
        translation = [(15.0 - 320.0) / 600.0 * 0.9, 0.0, 0.9]
        occluders = ((make_box((0.06, 0.06, 0.02)), RigidPose(np.eye(3), [-0.38, 0.0, 0.75])),)
    else:  # fx != fy and an off-center principal point
        camera = CameraIntrinsics(640.0, 540.0, 300.0, 260.0, 640, 480)
        translation = [0.02, 0.015, 1.1]
        occluders = ((make_box((0.03, 0.10, 0.02)), RigidPose(np.eye(3), [0.02, 0.01, 0.9])),)
    return camera, rotation, np.array(translation), occluders


class TestDenseEquivalence:
    """The sparse oracle, degradation, flow files and two-pass lifting reproduce
    the dense algorithms bit for bit."""

    @pytest.fixture(scope="class")
    def loaded_box_set(self, box_set, tmp_path_factory):
        path = tmp_path_factory.mktemp("sets") / "box.pfax"
        save_set(box_set, path)
        return load_set(path)

    @pytest.mark.parametrize(
        "case", ["occluded", "jittered", "overflow", "border", "anisotropic", "heavy", "hidden"]
    )
    @pytest.mark.parametrize("pad", [1.2, 1.6])
    @pytest.mark.parametrize("loaded", [False, True])
    def test_oracle_and_lift_match_dense(
        self, case, pad, loaded, box_set, loaded_box_set, tmp_path
    ):
        exemplar_set = loaded_box_set if loaded else box_set
        camera, rotation, translation, occluders = _dense_case(case)
        jitter = rotation_about_axis([1.0, 0.0, 0.5], 3.0)
        shift = [0.004, -0.003, 0.01]
        if case == "jittered":  # the initial pose is off by the full jitter bounds
            bounds = ExperimentConfig()
            jitter = rotation_about_axis([1.0, 0.0, 0.5], bounds.jitter_max_rot_deg)
            shift = [bounds.jitter_max_reproj_px * translation[2] / camera.fx, 0.0, 0.0]
        checked = 0
        low, high = np.full(2, np.inf), np.full(2, -np.inf)  # valid target-crop extent
        lifted, reference = [], []  # per exemplar: lazily gathered, dense
        for index in (0, 5, 11):
            ex = exemplar_set.exemplars[index]
            gt = RigidPose(rotation @ ex.pose.rotation, translation)
            initial = RigidPose(jitter @ gt.rotation, translation + shift)
            scene = SceneSpec(BOX, gt, occluders, camera)
            crop_r = compute_crop(ex.pose, K_R, BOX, pad=pad)
            # "overflow" halves the target crop so the object crosses all four
            # of its edges and valid pixels reach every side of the window
            crop_t = compute_crop(initial, K_R, BOX, pad=pad / 2 if case == "overflow" else pad)
            if case == "border":  # the object's box runs off the image's left edge
                x0, _, x1, _ = object_window(scene)
                assert x0 == 0 and project_points(camera, gt, BOX.vertices)[:, 0].min() < 0 < x1
            if case == "jittered":  # the crop's preimage is centered off the object's box
                x0, _, x1, _ = object_window(scene)
                preimage = apply_homography(
                    np.linalg.inv(crop_t.matrix @ K_R.matrix @ camera.inverse_matrix),
                    np.array([[0.0, 0.0], [256.0, 256.0]]),
                )
                assert abs(preimage[:, 0].mean() - (x0 + x1) / 2) > 5.0

            source = OracleFlowSource(scene, gt)
            sparse = source.flow_for(ex, 0, crop_r, crop_t)
            dense = dense_oracle_flow(ex, crop_r, scene, gt, crop_t)
            assert same_flow(sparse, dense)
            if case == "hidden":  # the object fills the crop; only the depth test empties it
                clear = oracle_flow(ex, crop_r, SceneSpec(BOX, gt, (), camera), gt, crop_t)
                assert len(clear.indices) > 1000
            checked += int(dense.valid.sum())
            centers = crop_pixel_centers(256)[dense.valid]
            landed = centers + np.stack([dense.du, dense.dv], axis=-1)[dense.valid]
            low = np.minimum(low, landed.min(axis=0, initial=np.inf))
            high = np.maximum(high, landed.max(axis=0, initial=-np.inf))

            noise = FlowNoiseSpec.default_preset(dropout_ratio=0.3)
            noisy = degrade_flow(sparse, noise, index)
            noisy_dense = dense_degrade_flow(dense, noise, index)
            assert same_flow(noisy, noisy_dense)

            # flow files: the same bytes as the dense writer, read back to the
            # dense reader's buffers, and a load-save round trip is the identity
            path, dense_path = tmp_path / f"s{index}.pfaf", tmp_path / f"d{index}.pfaf"
            save_flow(noisy, path)
            dense_save_flow(noisy_dense, dense_path)
            assert path.read_bytes() == dense_path.read_bytes()
            back = load_flow(path)
            assert same_flow(back, dense_load_flow(path))
            save_flow(back, tmp_path / "again.pfaf")
            assert (tmp_path / "again.pfaf").read_bytes() == path.read_bytes()

            corr = lift_correspondences(ex, back, crop_r, crop_t, camera)
            points, pixels = dense_lift(ex, noisy_dense, crop_r, crop_t, camera)
            assert np.array_equal(corr.points, points)
            assert np.array_equal(corr.pixels, pixels)
            assert np.all(corr.exemplar_ids == ex.id)
            lifted.append(lift_correspondences(ex, back, crop_r, crop_t, camera))
            reference.append((points, pixels))
        assert (checked == 0) if case == "hidden" else (checked > 1000)
        if case == "overflow":
            assert np.all(low < 1.0) and np.all(high > 255.0)

        # quotas come from the cheap pass, points are gathered after thinning
        total = sum(len(points) for points, _ in reference)
        for cap in (total // 3, max(total - 1, 0), total + 1):  # a cap is never negative
            merged = aggregate(subsample_per_exemplar(lifted, cap))
            kept = dense_subsample(reference, cap)
            assert np.array_equal(merged.points, np.concatenate([p for p, _ in kept]))
            assert np.array_equal(merged.pixels, np.concatenate([q for _, q in kept]))

    def test_source_renders_one_z_buffer_for_every_crop(self, box_set, monkeypatch):
        camera, rotation, translation, occluders = _dense_case("occluded")
        ex = box_set.exemplars[0]
        gt = RigidPose(rotation @ ex.pose.rotation, translation)
        scene = SceneSpec(BOX, gt, occluders, camera)
        windows = []

        def counted(scene, window=None):
            windows.append(window)
            return scene_depth_map(scene, window)

        monkeypatch.setattr("pfa.flow.scene_depth_map", counted)
        source = OracleFlowSource(scene, gt)
        assert windows == []  # nothing is rendered before the first flow_for
        crop_r = compute_crop(ex.pose, K_R, BOX)
        for pad in (1.2, 1.6):
            crop_t = compute_crop(gt, K_R, BOX, pad=pad)
            field = source.flow_for(ex, 0, crop_r, crop_t)
            assert same_flow(field, dense_oracle_flow(ex, crop_r, scene, gt, crop_t))
        assert windows == [object_window(scene)]

    def test_occluders_remove_pixels(self, box_set):
        camera, rotation, translation, occluders = _dense_case("occluded")
        ex = box_set.exemplars[0]
        gt = RigidPose(rotation @ ex.pose.rotation, translation)
        crop_r = compute_crop(ex.pose, K_R, BOX)
        crop_t = compute_crop(gt, K_R, BOX)
        clear = oracle_flow(ex, crop_r, SceneSpec(BOX, gt, (), camera), gt, crop_t)
        blocked = oracle_flow(ex, crop_r, SceneSpec(BOX, gt, occluders, camera), gt, crop_t)
        assert blocked.valid.sum() < clear.valid.sum()

    def test_crop_sample_grid_is_separable(self):
        # the sampler reads a crop's exemplar x from the column and y from
        # the row; on the full grid apply_homography gives the same bits
        rng = np.random.default_rng(8)
        centers = crop_pixel_centers(256)
        axis = np.arange(256) + 0.5
        for _ in range(2000):
            scale = rng.uniform(0.2, 8.0)
            shift = rng.uniform(-3000.0, 3000.0, size=2)
            crop = CropTransform([[scale, 0, shift[0]], [0, scale, shift[1]], [0, 0, 1]], 256)
            inverse = crop.inverse_matrix()
            grid = apply_homography(inverse, centers)
            axes = apply_homography(inverse, np.stack([axis, axis], axis=-1))
            assert np.array_equal(grid[..., 0], np.broadcast_to(axes[:, 0], (256, 256)))
            assert np.array_equal(grid[..., 1], np.broadcast_to(axes[:, 1, None], (256, 256)))


class TestCropSamplerWindow:
    """The sampler's window tables against the dense reference over
    ``coordinate_map()``, at the edges of the window."""

    @staticmethod
    def _crops():
        yield IDENTITY_CROP
        rng = np.random.default_rng(23)
        for _ in range(5):
            # zoomed in or out, so the window edges and the frame edges fall
            # inside the crop at fractional sample positions
            scale = rng.uniform(0.5, 3.0)
            shift = rng.uniform(40 - 256 * scale, 216, size=2)
            yield CropTransform([[scale, 0, shift[0]], [0, scale, shift[1]], [0, 0, 1]], 256)

    @pytest.mark.parametrize("name", list(window_edge_masks()))
    def test_matches_dense_reference(self, name):
        ex = exemplar_of_mask(0, window_edge_masks()[name], np.random.default_rng(9))
        cmap = ex.coordinate_map()
        every = np.divmod(np.arange(256 * 256), 256)
        for crop in self._crops():
            sampler = CropSampler(ex, crop)
            samples = apply_homography(crop.inverse_matrix(), crop_pixel_centers(256))
            reference, ok = bilinear_masked(cmap.points, cmap.mask, samples.reshape(-1, 2))
            assert np.array_equal(sampler.footprint(), ok)
            assert np.array_equal(sampler.footprint(*every), ok)
            pixels = np.flatnonzero(ok)
            assert np.array_equal(sampler.points(pixels), reference[pixels])
            holder = np.floor(samples.reshape(-1, 2)[pixels]).astype(np.int64)
            assert np.array_equal(sampler.triangles(pixels), cmap.tri[holder[:, 1], holder[:, 0]])
        if name in ("column", "row", "empty"):
            assert not CropSampler(ex, IDENTITY_CROP).footprint().any()
        else:
            assert CropSampler(ex, IDENTITY_CROP).footprint().any()


class TestDegradeFlow:
    def _field(self, n_valid=2000, seed=1):
        rng = np.random.default_rng(seed)
        valid = np.zeros((128, 128), dtype=bool)
        idx = rng.choice(128 * 128, size=n_valid, replace=False)
        valid.reshape(-1)[idx] = True
        du = np.where(valid, rng.normal(size=(128, 128)), 0).astype(np.float32)
        dv = np.where(valid, rng.normal(size=(128, 128)), 0).astype(np.float32)
        return sparse_field(du, dv, valid)

    def test_zero_spec_is_bit_exact(self):
        field = self._field()
        out, ref = dense_view(degrade_flow(field, FlowNoiseSpec(), 3)), dense_view(field)
        assert np.array_equal(out.du, ref.du)
        assert np.array_equal(out.dv, ref.dv)
        assert np.array_equal(out.valid, ref.valid)

    def test_full_dropout(self):
        out = degrade_flow(self._field(), FlowNoiseSpec(dropout_ratio=1.0), 3)
        assert out.valid.sum() == 0

    def test_outlier_count_binomial(self):
        field = self._field(n_valid=10000)
        changed = 0
        spec = FlowNoiseSpec(outlier_ratio=0.3, outlier_range=32.0)
        out = degrade_flow(field, spec, 11)
        changed = int((dense_view(out).du[field.valid] != dense_view(field).du[field.valid]).sum())
        assert 2900 <= changed <= 3100

    def test_validity_never_expands(self):
        field = self._field()
        spec = FlowNoiseSpec.default_preset(dropout_ratio=0.5)
        out = degrade_flow(field, spec, 4)
        assert not (out.valid & ~field.valid).any()

    def test_deterministic(self):
        field = self._field()
        spec = FlowNoiseSpec.default_preset()
        a = dense_view(degrade_flow(field, spec, 12))
        b = dense_view(degrade_flow(field, spec, 12))
        assert np.array_equal(a.du, b.du) and np.array_equal(a.valid, b.valid)

    def test_invalid_ratios_rejected(self):
        with pytest.raises(ValueError):
            FlowNoiseSpec(outlier_ratio=1.5)

    @pytest.mark.parametrize("setting", [
        {"gaussian_sigma": np.nan}, {"gaussian_sigma": np.inf}, {"outlier_range": np.inf},
    ])
    def test_non_finite_settings_rejected(self, setting):
        with pytest.raises(ValueError, match="finite"):
            FlowNoiseSpec(**setting)


class TestFlowFiles:
    def test_round_trip_bit_exact(self, tetra_set, tmp_path):
        ex = tetra_set.exemplars[2]
        scene = SceneSpec(TETRA, ex.pose, (), K_R)
        field = oracle_flow(ex, IDENTITY_CROP, scene, ex.pose, IDENTITY_CROP)
        path = tmp_path / "f.pfaf"
        save_flow(field, path)
        back, ref = dense_view(load_flow(path)), dense_view(field)
        assert np.array_equal(back.valid, ref.valid)
        assert np.array_equal(back.du, ref.du)
        assert np.array_equal(back.dv, ref.dv)
        back = load_flow(path)
        save_flow(back, tmp_path / "g.pfaf")
        assert (tmp_path / "f.pfaf").read_bytes() == (tmp_path / "g.pfaf").read_bytes()

    def test_zero_byte_file(self, tmp_path):
        path = tmp_path / "empty.pfaf"
        path.write_bytes(b"")
        with pytest.raises(BadMagicError):
            load_flow(path)

    def test_truncated_body_reports_counts(self, tmp_path):
        field = sparse_field(
            np.ones((256, 256), dtype=np.float32),
            np.ones((256, 256), dtype=np.float32),
            np.ones((256, 256), dtype=bool),
        )
        path = tmp_path / "t.pfaf"
        save_flow(field, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TruncationError) as info:
            load_flow(path)
        assert info.value.expected_bytes > info.value.actual_bytes

    def test_trailing_garbage_rejected(self, tmp_path):
        field = sparse_field(
            np.zeros((8, 8), dtype=np.float32),
            np.zeros((8, 8), dtype=np.float32),
            np.ones((8, 8), dtype=bool),
        )
        path = tmp_path / "x.pfaf"
        save_flow(field, path)
        path.write_bytes(path.read_bytes() + b"oops")
        with pytest.raises(FileFormatError):
            load_flow(path)

    def test_nonzero_padding_bits_rejected(self, tmp_path):
        # 3x3: nine mask bits, so byte 1 holds pixel 8 and seven padding bits
        field = sparse_field(
            np.ones((3, 3), dtype=np.float32),
            np.ones((3, 3), dtype=np.float32),
            np.eye(3, dtype=bool),
        )
        path = tmp_path / "p.pfaf"
        save_flow(field, path)
        data = bytearray(path.read_bytes())
        data[17] |= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(FileFormatError, match="padding") as info:
            load_flow(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("fault, error", [
        ("magic", BadMagicError),
        ("truncated", TruncationError),
        ("version", VersionMismatchError),
    ])
    def test_errors_name_the_file(self, tmp_path, fault, error):
        field = sparse_field(
            np.ones((4, 4), dtype=np.float32),
            np.ones((4, 4), dtype=np.float32),
            np.ones((4, 4), dtype=bool),
        )
        path = tmp_path / f"{fault}.pfaf"
        save_flow(field, path)
        data = bytearray(path.read_bytes())
        if fault == "magic":
            data[:4] = b"NOPE"
        elif fault == "truncated":
            del data[-3:]
        else:
            data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(error) as info:
            load_flow(path)
        assert str(info.value).startswith(f"{path}: ")

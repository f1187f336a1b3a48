"""Exemplar set generation, queries, and the binary container format."""

import hashlib
import struct
from dataclasses import replace

import numpy as np
import pytest

from helpers import make_tetrahedron, reprojection_residual_max
from pfa.errors import (
    BadMagicError,
    ConfigurationError,
    FileFormatError,
    MeshHashMismatchError,
    TruncationError,
    VersionMismatchError,
)
from pfa.exemplars import (
    EXEMPLAR_SIZE,
    ExemplarSet,
    ensure_mesh_binding,
    generate_exemplar_set,
    load_set,
    mean_query_distance,
    query_nearest,
    save_set,
)
from pfa.geometry import RigidPose, geodesic_distance, sample_rotations
from pfa.geometry import CameraIntrinsics
from pfa.mesh import make_box, mesh_digest
from pfa.raster import rasterize

K_R = CameraIntrinsics(400.0, 400.0, 128.0, 128.0, 256, 256)
BOX = make_box((0.10, 0.08, 0.06))


@pytest.fixture(scope="module")
def small_set():
    return generate_exemplar_set(BOX, 32, 1.0, K_R, seed=5)


class TestGeneration:
    def test_translation_fixed_and_ids_dense(self, small_set):
        for i, ex in enumerate(small_set.exemplars):
            assert ex.id == i
            assert np.array_equal(ex.pose.translation, [0.0, 0.0, 1.0])

    def test_single_exemplar_round_trip_invariant(self):
        one = generate_exemplar_set(BOX, 1, 1.0, K_R, seed=2)
        ex = one.exemplars[0]
        cmap = ex.coordinate_map()
        assert reprojection_residual_max(cmap, ex.pose, K_R) < 0.71

    def test_rotations_match_sampler(self, small_set):
        expected = sample_rotations(32, 5)
        for ex, rot in zip(small_set.exemplars, expected):
            assert np.array_equal(ex.pose.rotation, rot)

    def test_deterministic_and_bit_identical_file(self, tmp_path):
        a = generate_exemplar_set(BOX, 8, 1.0, K_R, seed=9)
        b = generate_exemplar_set(BOX, 8, 1.0, K_R, seed=9)
        assert a.mesh_hash == b.mesh_hash
        save_set(a, tmp_path / "a.pfax")
        save_set(b, tmp_path / "b.pfax")
        ha = hashlib.sha256((tmp_path / "a.pfax").read_bytes()).digest()
        hb = hashlib.sha256((tmp_path / "b.pfax").read_bytes()).digest()
        assert ha == hb

    def test_out_of_frustum_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_exemplar_set(BOX, 4, 0.08, K_R, seed=0)  # z_bar inside the mesh
        big = make_box((1.2, 1.2, 1.2))
        with pytest.raises(ConfigurationError):
            generate_exemplar_set(big, 4, 1.1, K_R, seed=0)  # projects past the frame

    def test_wrong_camera_size_rejected(self):
        bad = CameraIntrinsics(400.0, 400.0, 64.0, 64.0, 128, 128)
        with pytest.raises(ConfigurationError):
            generate_exemplar_set(BOX, 4, 1.0, bad, seed=0)


class TestSetInvariants:
    def test_empty_list_refused(self, small_set):
        with pytest.raises(ValueError, match="holds no exemplars"):
            ExemplarSet("empty", small_set.mesh_hash, 1.0, small_set.camera, [])

    def test_exemplar_of_another_mesh_refused(self, small_set):
        first, second = small_set.exemplars[:2]
        stray = replace(second, mesh_hash=mesh_digest(make_tetrahedron(0.08)))
        with pytest.raises(ValueError, match="exemplar 1 was built for another mesh"):
            ExemplarSet("mixed", small_set.mesh_hash, 1.0, small_set.camera, [first, stray])


class TestQueries:
    def test_exact_pose_returns_distance_zero(self, small_set):
        target = small_set.exemplars[11]
        found = query_nearest(small_set, target.pose, 1)
        assert found[0].id == 11
        assert geodesic_distance(found[0].pose.rotation, target.pose.rotation) == 0.0

    def test_four_neighbors_sorted(self, small_set):
        query = RigidPose(sample_rotations(1, 77)[0], [0, 0, 1.0])
        found = query_nearest(small_set, query, 4)
        assert len(found) == 4
        assert len({ex.id for ex in found}) == 4
        distances = [geodesic_distance(query.rotation, ex.pose.rotation) for ex in found]
        assert all(b >= a for a, b in zip(distances, distances[1:]))

    def test_count_exceeding_size_returns_all(self, small_set):
        query = RigidPose(sample_rotations(1, 3)[0], [0, 0, 1.0])
        assert len(query_nearest(small_set, query, 1000)) == len(small_set)

    def test_empty_set_rejected(self, small_set):
        with pytest.raises(ValueError):
            small_set.prefix(0)

    def test_matches_brute_force_sort(self, small_set):
        rng = np.random.default_rng(40)
        for _ in range(10):
            query = RigidPose(sample_rotations(1, int(rng.integers(1 << 30)))[0], [0, 0, 1.0])
            for count in (1, 3, 32):
                found = query_nearest(small_set, query, count)
                brute = sorted(
                    small_set.exemplars,
                    key=lambda ex: (
                        geodesic_distance(query.rotation, ex.pose.rotation),
                        ex.id,
                    ),
                )[:count]
                assert [ex.id for ex in found] == [ex.id for ex in brute]

    def test_mean_query_distance_deterministic_and_zero_on_hit(self, small_set):
        a = mean_query_distance(small_set, 50, seed=13)
        b = mean_query_distance(small_set, 50, seed=13)
        assert a == b
        # a set containing the query rotation itself contributes zero
        hit_set = small_set.prefix(1)
        queries = sample_rotations(1, 5)  # prefix(1) holds sample_rotations(.., 5)[0]
        assert np.array_equal(hit_set.exemplars[0].pose.rotation, queries[0])
        assert mean_query_distance(hit_set, 1, seed=5) < 1e-6

    def test_nested_prefix_monotonicity(self, small_set):
        distances = [
            mean_query_distance(small_set.prefix(n), 200, seed=3) for n in (8, 16, 32)
        ]
        assert distances[0] >= distances[1] >= distances[2]


class TestPersistence:
    def test_round_trip_equality(self, small_set, tmp_path):
        path = tmp_path / "set.pfax"
        save_set(small_set, path)
        loaded = load_set(path)
        assert loaded.equals(small_set)
        # depth reconstruction matches the source render on masked pixels
        src = small_set.exemplars[3].coordinate_map()
        back = loaded.exemplars[3].coordinate_map()
        assert np.array_equal(src.depth[src.mask], back.depth[back.mask])

    def test_file_size_is_exactly_additive(self, tmp_path):
        a = generate_exemplar_set(BOX, 4, 1.0, K_R, seed=9)
        b = generate_exemplar_set(BOX, 8, 1.0, K_R, seed=9)
        save_set(a, tmp_path / "n4.pfax")
        save_set(b, tmp_path / "n8.pfax")
        per_exemplar = [
            4 + 72 + len(ex.mask_bits) + 16 * len(ex.points) for ex in b.exemplars
        ]
        size4 = (tmp_path / "n4.pfax").stat().st_size
        size8 = (tmp_path / "n8.pfax").stat().st_size
        assert size8 - size4 == sum(per_exemplar[4:])

    def test_bad_magic(self, tmp_path, small_set):
        path = tmp_path / "set.pfax"
        save_set(small_set, path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(BadMagicError):
            load_set(path)

    def test_version_mismatch_names_both(self, tmp_path, small_set):
        path = tmp_path / "set.pfax"
        save_set(small_set, path)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 1)  # version 1 stored shade, not triangle ids
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatchError) as info:
            load_set(path)
        assert info.value.found == 1 and info.value.expected == 2
        assert "1" in str(info.value) and "2" in str(info.value)

    @pytest.mark.parametrize("fault, error", [
        ("magic", BadMagicError),
        ("truncated", TruncationError),
        ("z_bar", FileFormatError),
    ])
    def test_errors_name_the_file(self, tmp_path, small_set, fault, error):
        path = tmp_path / f"{fault}.pfax"
        save_set(small_set, path)
        data = bytearray(path.read_bytes())
        if fault == "magic":
            data[:4] = b"NOPE"
        elif fault == "truncated":
            del data[-3:]
        else:
            data[12:20] = struct.pack("<d", float("inf"))
        path.write_bytes(bytes(data))
        with pytest.raises(error) as info:
            load_set(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("width, height", [(640.0, 480.0), (256.9, 256.0), (256.0, 0.0)])
    def test_exemplar_camera_other_than_the_mask_frame(self, tmp_path, small_set, width, height):
        path = tmp_path / "camera.pfax"
        save_set(small_set, path)
        data = bytearray(path.read_bytes())
        data[52:68] = struct.pack("<2d", width, height)  # after magic, version, count, z_bar, fx..cy
        path.write_bytes(bytes(data))
        with pytest.raises(FileFormatError, match="exemplar camera must be 256x256") as info:
            load_set(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_empty_set_refused_at_load(self, tmp_path, small_set):
        path = tmp_path / "empty.pfax"
        save_set(small_set, path)
        header = bytearray(path.read_bytes()[: self._header_size(small_set)])
        header[8:12] = struct.pack("<I", 0)  # the exemplar count
        path.write_bytes(bytes(header))
        with pytest.raises(FileFormatError, match="holds no exemplars") as info:
            load_set(path)
        assert str(info.value).startswith(f"{path}: ")

    def _header_size(self, exemplar_set):
        # magic, version and count, z_bar, camera, mesh hash, name length, name
        return 4 + 8 + 8 + 48 + 32 + 4 + len(exemplar_set.object_name.encode("utf-8"))

    def test_bad_rotation_names_the_exemplar(self, tmp_path, small_set):
        path = tmp_path / "set.pfax"
        save_set(small_set, path)
        first = small_set.exemplars[0]
        offset = self._header_size(small_set) + 4 + 72 + len(first.mask_bits) + 16 * len(first.points)
        data = bytearray(path.read_bytes())
        data[offset + 4 : offset + 12] = struct.pack("<d", 2.0)  # exemplar 1, R[0, 0]
        path.write_bytes(bytes(data))
        with pytest.raises(FileFormatError, match="exemplar 1 has a bad rotation"):
            load_set(path)

    def test_non_utf8_name(self, tmp_path, small_set):
        path = tmp_path / "set.pfax"
        save_set(small_set, path)
        data = bytearray(path.read_bytes())
        data[self._header_size(small_set) - 1] = 0xFF  # last byte of the name
        path.write_bytes(bytes(data))
        with pytest.raises(FileFormatError, match="object name is not UTF-8"):
            load_set(path)

    def test_round_trip_keeps_triangle_ids(self, tmp_path, small_set):
        path = tmp_path / "set.pfax"
        save_set(small_set, path)
        loaded = load_set(path)
        for src, back in zip(small_set.exemplars, loaded.exemplars):
            assert back.tri.dtype == np.int32
            assert np.array_equal(src.tri, back.tri)
            rendered = rasterize(BOX, back.pose, K_R, EXEMPLAR_SIZE)
            assert np.array_equal(back.coordinate_map().tri, rendered.tri)

    def test_triangle_ids_take_part_in_equality(self, small_set):
        a = small_set.exemplars[0]
        b = replace(a, tri=a.tri.copy())
        assert a.equals(b)
        b.tri[0] += 1
        assert not a.equals(b)

    def test_truncated_triangle_ids(self, tmp_path):
        one = generate_exemplar_set(BOX, 1, 1.0, K_R, seed=2)
        path = tmp_path / "one.pfax"
        save_set(one, path)
        data = path.read_bytes()
        n_masked = len(one.exemplars[0].points)
        path.write_bytes(data[: len(data) - 4 * n_masked + 6])  # inside the tri section
        with pytest.raises(TruncationError) as info:
            load_set(path)
        assert "triangle ids" in str(info.value)
        assert info.value.expected_bytes == 4 * n_masked and info.value.actual_bytes == 6

    def test_negative_triangle_id_rejected(self, tmp_path):
        one = generate_exemplar_set(BOX, 1, 1.0, K_R, seed=2)
        path = tmp_path / "one.pfax"
        save_set(one, path)
        data = bytearray(path.read_bytes())
        data[-4:] = struct.pack("<i", -1)
        path.write_bytes(bytes(data))
        with pytest.raises(FileFormatError):
            load_set(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_point_names_the_exemplar(self, tmp_path, value):
        two = generate_exemplar_set(BOX, 2, 1.0, K_R, seed=2)
        path = tmp_path / "two.pfax"
        save_set(two, path)
        data = bytearray(path.read_bytes())
        n_last = len(two.exemplars[1].points)
        first_point = len(data) - 16 * n_last  # the last exemplar's points, then its ids
        data[first_point:first_point + 4] = np.array([value], dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(FileFormatError, match="exemplar 1 has a non-finite model point"):
            load_set(path)

    def test_truncation_reports_counts(self, tmp_path, small_set):
        path = tmp_path / "set.pfax"
        save_set(small_set, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 37])
        with pytest.raises(TruncationError) as info:
            load_set(path)
        assert info.value.expected_bytes > info.value.actual_bytes

    def test_mesh_hash_binding(self, small_set):
        ensure_mesh_binding(small_set, BOX)
        with pytest.raises(MeshHashMismatchError):
            ensure_mesh_binding(small_set, make_tetrahedron(0.08))

    def test_loaded_exemplar_reprojection_invariant(self, small_set, tmp_path):
        path = tmp_path / "set.pfax"
        save_set(small_set, path)
        loaded = load_set(path)
        for ex in loaded.exemplars[:4]:
            assert reprojection_residual_max(ex.coordinate_map(), ex.pose, K_R) < 0.71

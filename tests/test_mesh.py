"""Mesh loading, validation, and primitives."""

import struct

import numpy as np
import pytest

import pfa.mesh
from helpers import make_plate, make_tetrahedron, ply_bytes
from pfa.errors import DegenerateTriangleError, EmptyMeshError, MeshParseError
from pfa.mesh import (
    _HULL_THRESHOLD,
    MeshModel,
    face_normals,
    load_mesh,
    make_box,
    mesh_digest,
    save_obj,
)

UNIT_CUBE_OBJ = """\
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
v 0 0 1
v 1 0 1
v 1 1 1
v 0 1 1
f 1 3 2
f 1 4 3
f 5 6 7
f 5 7 8
f 1 2 6
f 1 6 5
f 3 4 8
f 3 8 7
f 1 5 8
f 1 8 4
f 2 3 7
f 2 7 6
"""

TETRA_PLY = """\
ply
format ascii 1.0
element vertex 4
property float x
property float y
property float z
element face 4
property list uchar int vertex_indices
end_header
1 1 1
1 -1 -1
-1 1 -1
-1 -1 1
3 0 1 2
3 0 3 1
3 0 2 3
3 1 3 2
"""


def _binary_tetra_ply() -> bytes:
    header = (
        b"ply\nformat binary_little_endian 1.0\n"
        b"element vertex 4\n"
        b"property float x\nproperty float y\nproperty float z\n"
        b"element face 4\n"
        b"property list uchar int vertex_indices\n"
        b"end_header\n"
    )
    verts = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype="<f4"
    ).tobytes()
    faces = b""
    for tri in [(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)]:
        faces += struct.pack("<B3i", 3, *tri)
    return header + verts + faces


_TETRA_VERTICES = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
_TETRA_FACES = [[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]]
_XYZ = ["property float x", "property float y", "property float z"]


def _tetra_elements(face_props, face_record, vertex_props=(), vertex_extra=()):
    """The tetrahedron's vertex and face elements, with extra properties."""
    return [
        ("vertex", _XYZ + list(vertex_props), [v + list(vertex_extra) for v in _TETRA_VERTICES]),
        ("face", face_props, [face_record(f) for f in _TETRA_FACES]),
    ]


INDICES = "property list uchar int vertex_indices"
# layouts that one reader walks in header order, in either encoding
PLY_LAYOUTS = {
    "scalar-before-list": _tetra_elements(["property uchar flags", INDICES], lambda f: [3, f]),
    "scalar-after-list": _tetra_elements([INDICES, "property uchar red"], lambda f: [f, 200]),
    "float-list": _tetra_elements(
        [INDICES, "property list uchar float texcoord"], lambda f: [f, [0.25, 0.5] * 3]),
    "vertex-list": _tetra_elements(
        [INDICES], lambda f: [f], ["property list uchar float weights"], [[0.5, 1.5]]),
    "list-element": _tetra_elements([INDICES], lambda f: [f]) + [
        ("edge", ["property list uchar int vertex_pair", "property uchar flags"],
         [[[0, 1], 7], [[2, 3], 9]])],
}


class TestLoadMesh:
    def test_unit_cube_obj(self, tmp_path):
        path = tmp_path / "cube.obj"
        path.write_text(UNIT_CUBE_OBJ)
        mesh = load_mesh(path)
        assert len(mesh.vertices) == 8
        assert len(mesh.triangles) == 12
        assert abs(mesh.diameter - np.sqrt(3.0)) < 1e-12

    def test_tetrahedron_ascii_ply(self, tmp_path):
        path = tmp_path / "tetra.ply"
        path.write_text(TETRA_PLY)
        mesh = load_mesh(path)
        assert len(mesh.vertices) == 4
        assert len(mesh.triangles) == 4

    def test_tetrahedron_binary_ply(self, tmp_path):
        path = tmp_path / "tetra_bin.ply"
        path.write_bytes(_binary_tetra_ply())
        mesh = load_mesh(path)
        assert len(mesh.vertices) == 4
        assert len(mesh.triangles) == 4
        ascii_path = tmp_path / "tetra.ply"
        ascii_path.write_text(TETRA_PLY)
        assert np.allclose(mesh.vertices, load_mesh(ascii_path).vertices)

    @pytest.mark.parametrize("layout", PLY_LAYOUTS)
    def test_ply_layouts_read_in_both_encodings(self, tmp_path, layout):
        reference = tmp_path / "tetra.ply"
        reference.write_text(TETRA_PLY)
        expected = mesh_digest(load_mesh(reference))
        for encoding in ("ascii", "binary_little_endian"):
            path = tmp_path / f"{encoding}.ply"
            path.write_bytes(ply_bytes(encoding, PLY_LAYOUTS[layout]))
            assert mesh_digest(load_mesh(path)) == expected, encoding

    @pytest.mark.parametrize("face_props, record", [
        (["property uchar flags"], lambda f: [f[0]]),
        (["property list uchar int a", "property list uchar int b"], lambda f: [f, f]),
        (["property list uchar float vertex_indices"], lambda f: [f]),
    ], ids=["no-list", "two-unnamed-lists", "float-indices"])
    def test_face_without_index_list_refused(self, tmp_path, face_props, record):
        path = tmp_path / "faces.ply"
        path.write_bytes(ply_bytes("binary_little_endian", _tetra_elements(face_props, record)))
        with pytest.raises(MeshParseError, match="no integer vertex index list"):
            load_mesh(path)

    def test_element_without_properties_refused(self, tmp_path):
        # reading its records would take as long as its count says, whatever the file holds
        elements = _tetra_elements([INDICES], lambda f: [f]) + [("junk", [], [[]] * 3)]
        for encoding in ("ascii", "binary_little_endian"):
            path = tmp_path / f"{encoding}.ply"
            path.write_bytes(ply_bytes(encoding, elements))
            with pytest.raises(MeshParseError, match="'junk' has records but no properties"):
                load_mesh(path)

    def test_negative_list_count_refused(self, tmp_path):
        text = TETRA_PLY.replace("list uchar int", "list char int").replace("3 0 1 2", "-1 0 1 2")
        binary = _binary_tetra_ply().replace(b"list uchar int", b"list char int")
        first_face = binary.index(b"end_header\n") + len(b"end_header\n") + 4 * 12
        binary = binary[:first_face] + b"\xff" + binary[first_face + 1 :]  # count -1
        for name, data in (("ascii.ply", text.encode()), ("binary.ply", binary)):
            path = tmp_path / name
            path.write_bytes(data)
            with pytest.raises(MeshParseError, match="malformed or truncated face record"):
                load_mesh(path)

    def test_truncated_binary_names_offset(self, tmp_path):
        data = _binary_tetra_ply()
        path = tmp_path / "trunc.ply"
        path.write_bytes(data[: len(data) - 20])
        with pytest.raises(MeshParseError) as info:
            load_mesh(path)
        assert info.value.byte_offset is not None
        assert "byte offset" in str(info.value)

    def test_truncated_ascii_vertices(self, tmp_path):
        path = tmp_path / "trunc_ascii.ply"
        path.write_text("\n".join(TETRA_PLY.splitlines()[:11]) + "\n")
        with pytest.raises(MeshParseError):
            load_mesh(path)

    def test_unknown_binary_property_type(self, tmp_path):
        data = _binary_tetra_ply().replace(b"property float x", b"property half x")
        path = tmp_path / "half.ply"
        path.write_bytes(data)
        with pytest.raises(MeshParseError, match="half"):
            load_mesh(path)

    def test_non_integer_element_count(self, tmp_path):
        path = tmp_path / "count.ply"
        path.write_text(TETRA_PLY.replace("element vertex 4", "element vertex abc"))
        with pytest.raises(MeshParseError, match="abc"):
            load_mesh(path)

    def test_empty_obj(self, tmp_path):
        path = tmp_path / "empty.obj"
        path.write_text("# nothing here\n")
        with pytest.raises(EmptyMeshError):
            load_mesh(path)

    def test_degenerate_triangle(self, tmp_path):
        path = tmp_path / "degen.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\nf 1 1 2\n")
        with pytest.raises(DegenerateTriangleError) as info:
            load_mesh(path)
        assert str(info.value) == f"{path}: triangle 1 has zero area"

    def test_face_index_out_of_range(self, tmp_path):
        path = tmp_path / "oob.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 9\n")
        with pytest.raises(MeshParseError) as info:
            load_mesh(path)
        assert str(info.value).startswith(f"{path}: triangle index out of range")

    def test_too_few_vertices_names_file(self, tmp_path):
        path = tmp_path / "three.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        with pytest.raises(EmptyMeshError) as info:
            load_mesh(path)
        assert str(info.value) == f"{path}: mesh needs at least 4 vertices, got 3"

    def test_faces_without_triangles_name_file(self, tmp_path):
        # a two-index PLY face parses but fans into no triangle
        path = tmp_path / "edges.ply"
        header, _ = TETRA_PLY.split("3 0 1 2")
        path.write_text(header.replace("element face 4", "element face 1") + "2 0 1\n")
        with pytest.raises(EmptyMeshError) as info:
            load_mesh(path)
        assert str(info.value) == f"{path}: mesh has no triangles"

    @pytest.mark.parametrize("vertex", ["v nan 0 0", "v inf 0 1"], ids=["nan", "inf"])
    def test_non_finite_vertex_rejected(self, tmp_path, vertex):
        path = tmp_path / "nonfinite.obj"
        path.write_text(f"{vertex}\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\nf 1 2 4\n")
        with pytest.raises(MeshParseError) as info:
            load_mesh(path)
        assert str(info.value) == f"{path}: vertex 0 is not finite"

    @pytest.mark.parametrize("index", ["99999999999999999999", "4294967300"],
                             ids=["past-int64", "wraps-int32"])
    def test_face_index_past_int32_rejected(self, tmp_path, index):
        path = tmp_path / "huge.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 {index}\n")
        with pytest.raises(MeshParseError, match="out of range") as info:
            load_mesh(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_obj_slash_indices_and_quads(self, tmp_path):
        path = tmp_path / "quads.obj"
        path.write_text(
            "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 0 0 1\n"
            "f 1/1 2/2 3/3 4/4\nf 1//1 2//2 5//5\n"
        )
        mesh = load_mesh(path)
        assert len(mesh.triangles) == 3  # quad fan-split + one triangle

    def test_save_load_round_trip(self, tmp_path):
        mesh = make_box((0.2, 0.3, 0.4))
        save_obj(mesh, tmp_path / "box.obj")
        back = load_mesh(tmp_path / "box.obj")
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.triangles, mesh.triangles)


class TestMeshModel:
    def test_requires_four_vertices(self):
        with pytest.raises(EmptyMeshError):
            MeshModel(np.zeros((3, 3)), np.array([[0, 1, 2]]))

    def test_diameter_matches_brute_force(self):
        rng = np.random.default_rng(3)
        cloud = rng.normal(size=(600, 3))
        sphere = 0.05 * cloud / np.linalg.norm(cloud, axis=1, keepdims=True)  # all on the hull
        for verts in (cloud, sphere):
            assert len(verts) > _HULL_THRESHOLD
            mesh = make_tetrahedron()
            big = MeshModel(verts, mesh.triangles)  # indices still in range
            brute = max(
                np.linalg.norm(verts[i] - verts[j])
                for i in range(0, 600, 7)
                for j in range(0, 600, 11)
            )
            assert big.diameter >= brute - 1e-12
            d2 = np.sum((verts[:, None] - verts[None]) ** 2, axis=2)
            assert abs(big.diameter - np.sqrt(d2.max())) < 1e-9

    def test_diameter_of_a_flat_cloud_matches_brute_force(self):
        # Qhull refuses a coplanar cloud ("initial simplex is flat"); every point is scored
        from scipy.spatial import ConvexHull, QhullError

        rng = np.random.default_rng(4)
        flat = np.c_[rng.normal(size=(_HULL_THRESHOLD + 50, 2)), np.zeros(_HULL_THRESHOLD + 50)]
        with pytest.raises(QhullError):
            ConvexHull(flat)
        d2 = np.sum((flat[:, None] - flat[None]) ** 2, axis=2)
        assert abs(pfa.mesh._diameter(flat) - np.sqrt(d2.max())) < 1e-12

    def test_diameter_lets_other_hull_failures_through(self, monkeypatch):
        import scipy.spatial

        def broken(points):
            raise ValueError("broken hull")

        monkeypatch.setattr(scipy.spatial, "ConvexHull", broken)
        cloud = np.random.default_rng(5).normal(size=(_HULL_THRESHOLD + 1, 3))
        with pytest.raises(ValueError, match="broken hull"):
            pfa.mesh._diameter(cloud)

    def test_box_diameter(self):
        assert abs(make_box((1, 1, 1)).diameter - np.sqrt(3.0)) < 1e-12

    def test_diameter_computed_on_first_read_only(self, monkeypatch):
        calls = []
        original = pfa.mesh._diameter
        monkeypatch.setattr(pfa.mesh, "_diameter", lambda v: calls.append(1) or original(v))
        box = make_box((1, 1, 1))
        assert calls == []  # an occluder box that nobody measures pays nothing
        assert box.diameter == box.diameter == float(original(box.vertices))
        assert calls == [1]

    def test_diameter_is_not_an_input(self):
        # a passed diameter would move the ADD-0.1d threshold unchecked
        box = make_box((1, 1, 1))
        with pytest.raises(TypeError, match="diameter"):
            MeshModel(box.vertices, box.triangles, diameter=10.0)

    def test_digest_sensitive_to_geometry(self):
        a = make_box((0.1, 0.1, 0.1))
        b = make_box((0.1, 0.1, 0.100001))
        assert mesh_digest(a) != mesh_digest(b)
        assert mesh_digest(a) == mesh_digest(make_box((0.1, 0.1, 0.1)))

    def test_face_normals_unit(self):
        n = face_normals(make_tetrahedron(0.3))
        assert np.allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-12)

    def test_plate_symmetry_vertices(self):
        plate = make_plate(0.2)
        flipped = plate.vertices @ np.diag([-1.0, -1.0, 1.0]).T
        # 180 deg rotation about z permutes the vertex set exactly
        for v in flipped:
            assert min(np.linalg.norm(plate.vertices - v, axis=1)) < 1e-15

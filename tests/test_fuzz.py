"""Fuzzed inputs: a corrupted file fails with a PfaError, never anything else."""

import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import ply_bytes, sparse_field
from pfa.errors import PfaError
from pfa.exemplars import ExemplarSet, generate_exemplar_set, load_set, save_set
from pfa.flow import FlowField, load_flow, save_flow
from pfa.geometry import CameraIntrinsics
from pfa.mesh import MeshModel, load_mesh, make_tetrahedron


def _seed_flow_bytes() -> bytes:
    """A small well-formed PFAF file: 12x10 crop, about half the pixels valid."""
    rng = np.random.default_rng(5)
    valid = rng.random((10, 12)) < 0.5
    du, dv = rng.normal(0.0, 4.0, size=(2, 10, 12)).astype(np.float32)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seed.pfaf"
        save_flow(sparse_field(du, dv, valid), path)
        return path.read_bytes()


SEED_FLOW = _seed_flow_bytes()
FIRST_VECTOR = 16 + (12 * 10 + 7) // 8  # header, then the mask bits
NAN_F32 = np.array([np.nan], dtype="<f4").tobytes()


def _seed_set_bytes() -> bytes:
    """A small well-formed PFAX file: two views of a 4-cm tetrahedron."""
    camera = CameraIntrinsics(400.0, 400.0, 128.0, 128.0, 256, 256)
    exemplar_set = generate_exemplar_set(make_tetrahedron(0.04), 2, 1.0, camera, seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seed.pfax"
        save_set(exemplar_set, path)
        return path.read_bytes()


SEED_SET = _seed_set_bytes()
SET_HEADER = 4 + 8 + 8 + 48 + 32 + 4 + len(b"object")  # up to the first exemplar
Z_BAR = 12  # offset of the f64 z_bar
FIRST_POINT = SET_HEADER + 4 + 72 + 256 * 256 // 8  # after the id, rotation and mask bits


def _mutations(positions):
    """Lists of (kind, position, payload): flip bits of one byte, overwrite
    bytes, cut the file, or insert bytes."""
    return st.lists(
        st.tuples(
            st.sampled_from(["flip", "overwrite", "truncate", "insert"]),
            positions,
            st.binary(min_size=1, max_size=8),
        ),
        min_size=1,
        max_size=4,
    )


MUTATIONS = _mutations(st.integers(min_value=0, max_value=len(SEED_FLOW)))
# most of a PFAX file is mask bits: aim half the mutations at the header and
# the first exemplar's id and rotation
SET_MUTATIONS = _mutations(st.one_of(
    st.integers(min_value=0, max_value=SET_HEADER + 76),
    st.integers(min_value=0, max_value=len(SEED_SET)),
))


def _mutate(data: bytes, mutations) -> bytes:
    data = bytearray(data)
    for kind, position, payload in mutations:
        if kind == "flip" and data:
            data[position % len(data)] ^= payload[0] or 0x80
        elif kind == "overwrite" and data:
            start = position % len(data)
            data[start:start + len(payload)] = payload[: len(data) - start]
        elif kind == "truncate":
            del data[position % (len(data) + 1):]
        elif kind == "insert":
            data[position % (len(data) + 1):position % (len(data) + 1)] = payload
    return bytes(data)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(MUTATIONS)
@example([("overwrite", FIRST_VECTOR, NAN_F32)])
@example([("overwrite", 8, b"\xff\xff\xff\xff\xff\xff\xff\xff")])  # width = height = 2^32 - 1
def test_corrupt_flow_files_raise_only_pfa_errors(mutations):
    data = _mutate(SEED_FLOW, mutations)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.pfaf"
        path.write_bytes(data)
        try:
            field = load_flow(path)
        except PfaError:
            return
    assert isinstance(field, FlowField)
    assert len(field.indices) == len(field.vectors)
    assert np.isfinite(field.vectors).all()


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(SET_MUTATIONS)
@example([("overwrite", Z_BAR, struct.pack("<d", 0.0))])
@example([("overwrite", Z_BAR, struct.pack("<d", -1.0))])
@example([("overwrite", Z_BAR, struct.pack("<d", float("nan")))])
@example([("overwrite", SET_HEADER - 10, b"\xff\xff\xff\x7f")])  # name_len = 2^31 - 1
@example([("overwrite", FIRST_POINT, NAN_F32)])
def test_corrupt_exemplar_sets_raise_only_pfa_errors(mutations):
    data = _mutate(SEED_SET, mutations)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.pfax"
        path.write_bytes(data)
        try:
            loaded = load_set(path)
        except PfaError:
            return
    assert isinstance(loaded, ExemplarSet)
    assert 0.0 < loaded.z_bar < np.inf
    for ex in loaded.exemplars:
        assert len(ex.points) == len(ex.tri)
        assert (ex.tri >= 0).all()
        assert np.isfinite(ex.points).all()


# small well-formed meshes, one per format and encoding: OBJ (slashes, a quad and
# negative indices), ASCII PLY and binary little-endian PLY
SEED_OBJ = (
    b"# four points and a fifth\nv 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 0.5 0.5 1\n"
    b"f 1/1 2/2 3/3 4/4\nf -5//1 -4//2 -1//3\nf 2 3 5\n"
)
_PLY_HEADER = (
    b"ply\nformat {} 1.0\ncomment tetrahedron\nelement vertex 4\n"
    b"property float x\nproperty float y\nproperty float z\n"
    b"element face 4\nproperty list uchar int vertex_indices\nend_header\n"
)
_TETRA = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
_TETRA_FACES = [(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)]
SEED_ASCII_PLY = _PLY_HEADER.replace(b"{}", b"ascii") + b"".join(
    [b"%d %d %d\n" % tuple(v) for v in _TETRA] + [b"3 %d %d %d\n" % f for f in _TETRA_FACES]
)
SEED_BINARY_PLY = (
    _PLY_HEADER.replace(b"{}", b"binary_little_endian")
    + np.array(_TETRA, dtype="<f4").tobytes()
    + b"".join(struct.pack("<B3i", 3, *f) for f in _TETRA_FACES)
)
# the same tetrahedron with a list on vertices, a scalar before the face list,
# a float list after it, and a further element holding a list
_LAYOUT = [
    ("vertex", ["property float x", "property float y", "property float z",
                "property list uchar float weights"], [v + [[0.5]] for v in _TETRA]),
    ("face", ["property uchar flags", "property list uchar int vertex_indices",
              "property list uchar float texcoord"], [[3, f, [0.25, 0.5]] for f in _TETRA_FACES]),
    ("edge", ["property list uchar int vertex_pair"], [[[0, 1]], [[2, 3]]]),
]
SEED_LAYOUT_PLYS = [ply_bytes(encoding, _LAYOUT) for encoding in ("ascii", "binary_little_endian")]
MESH_FILES = st.one_of([
    _mutations(st.integers(min_value=0, max_value=len(seed))).map(
        lambda mutations, seed=seed: _mutate(seed, mutations))
    for seed in (SEED_OBJ, SEED_ASCII_PLY, SEED_BINARY_PLY, *SEED_LAYOUT_PLYS)
])
_OBJ_TAIL = b"\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\nf 1 2 4\n"


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(MESH_FILES)
@example(b"v nan 0 0" + _OBJ_TAIL)
@example(b"v inf 0 1" + _OBJ_TAIL)
@example(b"v 0 0 0" + _OBJ_TAIL + b"f 1 2 99999999999999999999\n")  # past int64
@example(b"v 0 0 0" + _OBJ_TAIL + b"f 1 2 4294967300\n")  # wraps to 4 in int32
@example(SEED_BINARY_PLY.replace(b"list uchar int", b"list float int"))  # a float face size
def test_corrupt_meshes_raise_only_pfa_errors(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.mesh"
        path.write_bytes(data)
        try:
            mesh = load_mesh(path)
        except PfaError:
            return
    assert isinstance(mesh, MeshModel)
    assert np.isfinite(mesh.vertices).all()
    assert mesh.triangles.min() >= 0 and mesh.triangles.max() < len(mesh.vertices)
    assert mesh.diameter > 0

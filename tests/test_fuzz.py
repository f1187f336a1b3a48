"""Fuzzed inputs: a corrupted file fails with a PfaError, never anything else."""

import json
import math
import struct
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import make_tetrahedron, ply_bytes, sparse_field
from pfa.errors import ConfigurationError, PfaError
from pfa.exemplars import ExemplarSet, generate_exemplar_set, load_set, save_set
from pfa.flow import FlowField, FlowNoiseSpec, load_flow, save_flow
from pfa.geometry import CameraIntrinsics
from pfa.mesh import MeshModel, load_mesh
from pfa.pipeline import (
    CONFIG_JSON_PATHS,
    MANIFEST_FIELDS,
    MANIFEST_TRIAL_FIELDS,
    RECORDS_FIELDS,
    ExperimentConfig,
    load_config,
    load_manifest,
    load_records_documents,
    synth_scene_manifest,
)
from pfa.refine import RansacConfig


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


# the three JSON inputs, each well formed with every field of its table present
# and non-null: a config, a one-trial manifest with an occluder, and records
SEED_CONFIG = ExperimentConfig(
    mesh_path="m.ply", exemplar_path="s.pfax", z_center=0.9, occluder_count=1,
    flow_source="files", flow_directory="flows", noise=FlowNoiseSpec.default_preset(),
    dump_flow_dir="dump",
)
_REPORT = {"add": 0.01, "add_s": 0.005, "rotation_err_deg": 1.5, "translation_err_m": 0.002}
JSON_SEEDS = {
    "config": SEED_CONFIG.to_dict(),
    "manifest": synth_scene_manifest(
        ExperimentConfig(trials=1, occluder_count=1), make_tetrahedron(0.04)
    ),
    "records": {
        "schema_version": 1, "label": "seed", "n_exemplars": 4, "diameter": 0.07,
        "trials": [{"initial_report": _REPORT, "refined_report": _REPORT}],
    },
}
# the keys each loader reads at the top of its document
_READ_KEYS = {
    "config": {keys[0] for keys in CONFIG_JSON_PATHS.values()},
    "manifest": set(MANIFEST_FIELDS) | {"target_camera"},
    "records": set(RECORDS_FIELDS),
}
_LOADERS = {
    "config": load_config,
    "manifest": load_manifest,
    "records": lambda path: load_records_documents(path)[0],
}


def _key_paths(value, path=()):
    """Every key path into a JSON value: each object key and list index, at any depth."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield path + (key,)
        yield from _key_paths(item, path + (key,))


JSON_PATHS = {
    document: [p for p in _key_paths(seed) if p[0] in _READ_KEYS[document]]
    for document, seed in JSON_SEEDS.items()
}
_SETTINGS = {cls.__name__: cls for cls in (CameraIntrinsics, FlowNoiseSpec, RansacConfig)}


def test_json_paths_cover_the_field_tables():
    kinds = {f.name: f.type.removesuffix(" | None") for f in fields(ExperimentConfig)}
    settings_fields = {
        CONFIG_JSON_PATHS[name] + (f.name,)
        for name, kind in kinds.items() if kind in _SETTINGS for f in fields(_SETTINGS[kind])
    }
    assert set(CONFIG_JSON_PATHS.values()) | settings_fields <= set(JSON_PATHS["config"])
    assert {("trials", 0, key) for key in MANIFEST_TRIAL_FIELDS} <= set(JSON_PATHS["manifest"])
    assert {(key,) for key in RECORDS_FIELDS} <= set(JSON_PATHS["records"])


def _where(document: str, path: tuple) -> str:
    """How an error message names ``path`` in ``document`` (``manifest trials[0].gt_pose``)."""
    keys = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)
    return f"{document} {keys.removeprefix('.')}" if keys else document


def _all_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        value = list(value.values())
    return not isinstance(value, list) or all(_all_finite(item) for item in value)


def _edited(document, path, edit) -> str:
    """The JSON text of ``document`` with ``edit(container, key)`` applied at ``path``."""
    document = json.loads(json.dumps(document))
    node = document
    for key in path[:-1]:
        node = node[key]
    edit(node, path[-1])
    return json.dumps(document)


def _setting(value):
    def edit(node, key):
        node[key] = value
    return edit


def _wrong_length(node, key):
    value = node[key]
    node[key] = value + value[:1] if isinstance(value, list) and value else [0.5] * 4


# per key path: drop it, give it a wrong type, a non-finite number, an empty
# list, or a list of the wrong length
JSON_EDITS = {
    "drop": lambda node, key: node.pop(key),
    **{f"type {value!r}": _setting(value) for value in ("x", True, None, {"k": 1}, [1])},
    **{f"number {value!r}": _setting(value) for value in (math.nan, math.inf, -math.inf)},
    "empty list": _setting([]),
    "wrong length": _wrong_length,
}


def _load_refused_or_finite(document: str, text: str, path: tuple | None) -> None:
    """Load ``text`` as ``document``: it must be refused naming the file and,
    unless ``path`` is None, a JSON path down to ``path``; or load with every
    number the loader reads finite."""
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / f"{document}.json"
        file.write_text(text)
        try:
            loaded = _LOADERS[document](file)
        except ConfigurationError as exc:
            message = str(exc)
            assert message.startswith(f"{file}: "), message
            if path is not None:
                named = [_where(document, path[:depth]) for depth in range(1, len(path) + 1)]
                named.append(f"{_where(document, path[:-1])}: missing key {path[-1]!r}")
                assert any(where in message for where in named), message
            return
    if document == "config":
        loaded = loaded.to_dict()
    assert _all_finite({key: loaded.get(key) for key in _READ_KEYS[document]}), (document, path)


@pytest.mark.parametrize("document", sorted(JSON_SEEDS))
def test_edited_json_inputs_are_refused_by_path_or_finite(document):
    for path in JSON_PATHS[document]:
        for name, edit in JSON_EDITS.items():
            try:
                _load_refused_or_finite(document, _edited(JSON_SEEDS[document], path, edit), path)
            except AssertionError as failure:
                raise AssertionError(f"{document} {path} {name}: {failure}") from None


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.sampled_from(sorted(JSON_SEEDS)), st.integers(min_value=0, max_value=2**20))
def test_truncated_json_inputs_are_refused_by_file(document, cut):
    text = json.dumps(JSON_SEEDS[document], indent=2)
    _load_refused_or_finite(document, text[:cut % len(text)], None)

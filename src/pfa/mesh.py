"""Triangle mesh loading (PLY / OBJ subset) and mesh utilities.

PLY is read in the ``ascii`` and ``binary_little_endian`` formats, with any
elements and properties of the standard scalar types, record by record in
header order: a scalar is one value, a list is an integer count and that
many items of any type. An ASCII record is one line; tokens past its last
property are ignored. Vertices take the scalars ``x``, ``y``, ``z``; faces
take the integer list named ``vertex_indices`` or ``vertex_index``, or else
their only list; the rest is read and dropped. Refused: another format, an
unknown type, a float list count, a vertex without scalar x/y/z, a face
without such a list, an element with records but no properties, and a
malformed, short or truncated record.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateTriangleError, EmptyMeshError, MeshParseError, naming_file

_HULL_THRESHOLD = 400  # above this, diameter uses the convex hull first


@dataclass(frozen=True, eq=False)
class MeshModel:
    """Triangle mesh in the model frame.

    Invariants enforced at construction: >= 4 vertices, all finite, all
    triangle indices in range, every triangle with strictly positive area.
    """

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3))
        t = np.asarray(self.triangles).reshape(-1, 3)  # any int size: checked before the cast
        if len(v) < 4:
            raise EmptyMeshError(f"mesh needs at least 4 vertices, got {len(v)}")
        if len(t) == 0:
            raise EmptyMeshError("mesh has no triangles")
        finite = np.isfinite(v).all(axis=1)
        if not finite.all():
            raise MeshParseError(f"vertex {int(np.argmin(finite))} is not finite")
        if t.min() < 0 or t.max() >= len(v):
            raise MeshParseError(
                f"triangle index out of range (vertex count {len(v)})"
            )
        t = np.ascontiguousarray(t, dtype=np.int32)
        areas = _triangle_areas(v, t)
        if np.any(areas <= 0.0):
            bad = int(np.argmax(areas <= 0.0))
            raise DegenerateTriangleError(f"triangle {bad} has zero area")
        v.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)

    @cached_property
    def diameter(self) -> float:
        """Largest vertex-to-vertex distance, computed from the vertices on first read."""
        return float(_diameter(self.vertices))

    @cached_property
    def digest(self) -> bytes:
        """32-byte digest binding derived artifacts to this mesh, computed on first read."""
        h = hashlib.sha256()
        h.update(b"vertices")
        h.update(self.vertices.astype("<f8").tobytes())
        h.update(b"triangles")
        h.update(self.triangles.astype("<i4").tobytes())
        return h.digest()

    @property
    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    @property
    def bounding_radius(self) -> float:
        """Largest vertex distance from the model-frame origin."""
        return float(np.linalg.norm(self.vertices, axis=1).max())


def _triangle_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    a = vertices[triangles[:, 0]]
    b = vertices[triangles[:, 1]]
    c = vertices[triangles[:, 2]]
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def face_normals(mesh: MeshModel) -> np.ndarray:
    """Unit face normals (M, 3) in the model frame; winding is as stored."""
    v = mesh.vertices
    t = mesh.triangles
    n = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
    return n / np.linalg.norm(n, axis=1, keepdims=True)


def _diameter(vertices: np.ndarray) -> float:
    pts = vertices
    if len(pts) > _HULL_THRESHOLD:
        from scipy.spatial import ConvexHull, QhullError

        try:
            pts = pts[ConvexHull(pts).vertices]
        except QhullError:
            pass  # degenerate hull (e.g. coplanar cloud): fall back to all points
    best = 0.0
    axes = np.ascontiguousarray(pts.T)
    for start in range(0, len(pts), 64):  # (64, h) blocks per axis stay small enough to cache
        rows = slice(start, start + 64)
        best = max(best, float(sum((c[rows, None] - c) ** 2 for c in axes).max()))
    return float(np.sqrt(best))


# ---------------------------------------------------------------------------
# File loading
# ---------------------------------------------------------------------------

_PLY_STRUCT = {
    "char": "b", "int8": "b", "uchar": "B", "uint8": "B",
    "short": "h", "int16": "h", "ushort": "H", "uint16": "H",
    "int": "i", "int32": "i", "uint": "I", "uint32": "I",
    "float": "f", "float32": "f", "double": "d", "float64": "d",
}


def load_mesh(path) -> MeshModel:
    """Load a triangle mesh from a PLY (ascii or binary little-endian) or
    OBJ (v/f records) file. Polygonal faces are fan-triangulated.
    """
    with open(path, "rb") as f:
        data = f.read()
    with naming_file(path):
        if data.startswith(b"ply"):
            vertices, faces = _parse_ply(data)
        else:
            vertices, faces = _parse_obj(data)
        if not vertices or not faces:
            raise EmptyMeshError("no vertices or faces found")
        triangles = [(f[0], f[k], f[k + 1]) for f in faces for k in range(1, len(f) - 1)]
        return MeshModel(np.array(vertices), np.array(triangles))


def _parse_ply(data: bytes):
    end = data.find(b"end_header")
    if end < 0:
        raise MeshParseError("missing end_header", len(data))
    newline = data.find(b"\n", end)
    if newline < 0:
        raise MeshParseError("header not terminated", len(data))
    fmt = None
    elements = []  # (name, count, [(prop_name, struct code, list count code or None)])
    for line in data[:end].decode("ascii", errors="replace").splitlines():
        tokens = line.strip().split()
        if not tokens or tokens[0] in ("ply", "comment", "obj_info"):
            continue
        try:
            if tokens[0] == "format":
                fmt = tokens[1]
            elif tokens[0] == "element":
                count = int(tokens[2])
                if count < 0:
                    raise ValueError
                elements.append((tokens[1], count, []))
            elif tokens[0] == "property":
                if not elements:
                    raise MeshParseError("property before element", 0)
                if tokens[1] == "list":
                    prop_name, count_kind, kind = tokens[4], tokens[2], tokens[3]
                else:
                    prop_name, count_kind, kind = tokens[2], None, tokens[1]
                for t in (count_kind, kind):
                    if t is not None and t not in _PLY_STRUCT:
                        raise MeshParseError(f"unknown property type {t!r}", 0)
                count_code = count_kind and _PLY_STRUCT[count_kind]
                if count_code in ("f", "d"):
                    raise MeshParseError(f"list property {prop_name!r} needs an integer count", 0)
                elements[-1][2].append((prop_name, _PLY_STRUCT[kind], count_code))
        except (ValueError, IndexError):
            raise MeshParseError(f"malformed header line {line.strip()!r}", 0) from None
    if fmt not in ("ascii", "binary_little_endian"):
        raise MeshParseError(f"unsupported PLY format {fmt!r}", 0)

    vertices, faces = [], []
    pos = newline + 1
    for name, count, props in elements:
        if count and not props:  # records of nothing: the count alone would set the work
            raise MeshParseError(f"element {name!r} has records but no properties", pos)
        if name == "vertex":
            scalars = [p[0] if p[2] is None else None for p in props]
            try:
                xyz = [scalars.index(axis) for axis in ("x", "y", "z")]
            except ValueError:
                raise MeshParseError("vertex element lacks x/y/z", pos) from None
        elif name == "face":
            lists = [i for i, p in enumerate(props) if p[2] is not None]
            named = [i for i in lists if props[i][0] in ("vertex_indices", "vertex_index")]
            index = named[0] if named else lists[0] if len(lists) == 1 else None
            if index is None or props[index][1] in ("f", "d"):
                raise MeshParseError("face element has no integer vertex index list", pos)
        records, pos = _read_ply_records(data, pos, name, count, props, fmt == "ascii")
        if name == "vertex":
            vertices += [[float(record[i]) for i in xyz] for record in records]
        elif name == "face":
            faces += [record[index] for record in records]
    return vertices, faces


def _read_ply_records(data: bytes, pos: int, name: str, count: int, props, text: bool):
    """The ``count`` records of element ``name`` from byte offset ``pos``, each a
    list of its property values in header order, and the offset after them.
    Read steps (``_ply_step``) are built once per element: one per run of
    scalars, ended by a list's count if a list follows, and one per list length."""
    runs, head = [], ""  # (scalar codes ending in a list's count code, item code)
    for _, code, count_code in props:
        head += count_code or code
        if count_code:
            runs, head = runs + [(head, code)], ""
    steps = [(_ply_step(codes, text), item, {}) for codes, item in runs + [(head, None)] if codes]
    records = []
    for _ in range(count):
        start, record, buf, at = pos, [], data, pos
        if text:  # a record is one line of tokens
            line_end = data.find(b"\n", pos)
            line_end = len(data) if line_end < 0 else line_end
            buf, at, pos = data[pos:line_end].split(), 0, line_end + 1
        try:
            for take, item, lists in steps:
                values, at = take(buf, at)
                record += values
                if item is not None:
                    n = record.pop()
                    if n < 0 or n > len(buf) - at:
                        raise ValueError("bad list length")
                    if n not in lists:
                        lists[n] = _ply_step(item * n, text)
                    values, at = lists[n](buf, at)
                    record.append(values)
        except (ValueError, struct.error):
            raise MeshParseError(f"malformed or truncated {name} record", start) from None
        pos = pos if text else at
        records.append(record)
    return records, pos


def _ply_step(codes: str, text: bool):
    """A read of one value per struct code in ``codes``, from a record's ASCII
    tokens at an index or from the bytes at an offset (one precompiled
    ``struct.Struct``); it gives the values and the position after them."""
    if not text:
        fields = struct.Struct("<" + codes)
        unpack, size = fields.unpack_from, fields.size
        return lambda data, pos: (unpack(data, pos), pos + size)
    numbers = [float if code in "fd" else int for code in codes]

    def take(tokens: list, at: int):  # too few tokens fail the strict zip
        end = at + len(numbers)
        return [number(token) for number, token in zip(numbers, tokens[at:end], strict=True)], end
    return take


def _parse_obj(data: bytes):
    vertices, faces = [], []
    pos = 0
    for raw in data.split(b"\n"):
        line = raw.strip()
        if line.startswith(b"v "):
            tokens = line.split()
            try:
                vertices.append([float(tokens[1]), float(tokens[2]), float(tokens[3])])
            except (ValueError, IndexError):
                raise MeshParseError("malformed vertex record", pos) from None
        elif line.startswith(b"f "):
            tokens = line.split()[1:]
            if len(tokens) < 3:
                raise MeshParseError("face with fewer than 3 vertices", pos)
            face = []
            for tok in tokens:
                head = tok.split(b"/")[0]
                try:
                    idx = int(head)
                except ValueError:
                    raise MeshParseError("malformed face index", pos) from None
                face.append(idx - 1 if idx > 0 else len(vertices) + idx)
            faces.append(face)
        pos += len(raw) + 1
    return vertices, faces


def save_obj(mesh: MeshModel, path) -> None:
    """Write a mesh as minimal OBJ (demo/test convenience)."""
    with open(path, "w", encoding="ascii") as f:
        for v in mesh.vertices:
            f.write(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for t in mesh.triangles:
            f.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")


# ---------------------------------------------------------------------------
# Procedural primitives (occluders, demos)
# ---------------------------------------------------------------------------

_BOX_FACES = [
    (0, 2, 1), (0, 3, 2),  # -z
    (4, 5, 6), (4, 6, 7),  # +z
    (0, 1, 5), (0, 5, 4),  # -y
    (2, 3, 7), (2, 7, 6),  # +y
    (0, 4, 7), (0, 7, 3),  # -x
    (1, 2, 6), (1, 6, 5),  # +x
]


def make_box(extents=(1.0, 1.0, 1.0)) -> MeshModel:
    """Axis-aligned box centered on the origin with the given full extents,
    8 vertices, 12 triangles."""
    ex, ey, ez = (float(e) / 2.0 for e in extents)
    corners = np.array(
        [
            [-ex, -ey, -ez], [ex, -ey, -ez], [ex, ey, -ez], [-ex, ey, -ez],
            [-ex, -ey, ez], [ex, -ey, ez], [ex, ey, ez], [-ex, ey, ez],
        ]
    )
    return MeshModel(corners, np.array(_BOX_FACES))

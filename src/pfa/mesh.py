"""Triangle mesh loading (PLY / OBJ subset) and mesh utilities."""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTriangleError, EmptyMeshError, MeshParseError, naming_file

_HULL_THRESHOLD = 400  # above this, diameter uses the convex hull first


@dataclass(frozen=True, eq=False)
class MeshModel:
    """Triangle mesh in the model frame with a precomputed diameter.

    Invariants enforced at construction: >= 4 vertices, all finite, all
    triangle indices in range, every triangle with strictly positive area.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    diameter: float = field(default=0.0)

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
        d = self.diameter if self.diameter > 0 else _diameter(v)
        v.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        object.__setattr__(self, "diameter", float(d))

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
        try:
            from scipy.spatial import ConvexHull

            pts = pts[ConvexHull(pts).vertices]
        except Exception:
            pass  # degenerate hull (e.g. coplanar cloud): fall back to all points
    best = 0.0
    chunk = 512
    for start in range(0, len(pts), chunk):
        block = pts[start : start + chunk]
        d2 = np.sum((block[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        best = max(best, float(d2.max()))
    return float(np.sqrt(best))


def mesh_digest(mesh: MeshModel) -> bytes:
    """32-byte digest binding derived artifacts to their source mesh."""
    h = hashlib.sha256()
    h.update(b"vertices")
    h.update(mesh.vertices.astype("<f8").tobytes())
    h.update(b"triangles")
    h.update(mesh.triangles.astype("<i4").tobytes())
    return h.digest()


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
        triangles = []
        for face in faces:
            for k in range(1, len(face) - 1):
                triangles.append((face[0], face[k], face[k + 1]))
        return MeshModel(np.array(vertices), np.array(triangles))


def _parse_ply(data: bytes):
    end = data.find(b"end_header")
    if end < 0:
        raise MeshParseError("missing end_header", len(data))
    newline = data.find(b"\n", end)
    if newline < 0:
        raise MeshParseError("header not terminated", len(data))
    header_lines = data[:end].decode("ascii", errors="replace").splitlines()
    body_offset = newline + 1

    fmt = None
    elements = []  # (name, count, [(prop_name, type) or ("list", count_t, idx_t, name)])
    for line in header_lines:
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
                    prop = ("list", tokens[2], tokens[3], tokens[4])
                    types = prop[1:3]
                else:
                    prop = (tokens[2], tokens[1])
                    types = prop[1:]
                unknown = [t for t in types if t not in _PLY_STRUCT]
                if unknown:
                    raise MeshParseError(f"unknown property type {unknown[0]!r}", 0)
                if prop[0] == "list" and any(_PLY_STRUCT[t] in "fd" for t in types):
                    raise MeshParseError(f"list property {prop[3]!r} needs integer types", 0)
                elements[-1][2].append(prop)
        except (ValueError, IndexError):
            raise MeshParseError(f"malformed header line {line.strip()!r}", 0) from None
    if fmt not in ("ascii", "binary_little_endian"):
        raise MeshParseError(f"unsupported PLY format {fmt!r}", 0)

    if fmt == "ascii":
        return _parse_ply_ascii(data, body_offset, elements)
    return _parse_ply_binary(data, body_offset, elements)


def _parse_ply_ascii(data: bytes, offset: int, elements):
    vertices, faces = [], []
    pos = offset
    for name, count, props in elements:
        if name == "vertex":
            try:
                xyz_idx = [
                    [p[0] for p in props].index(axis) for axis in ("x", "y", "z")
                ]
            except ValueError:
                raise MeshParseError("vertex element lacks x/y/z", pos) from None
        for _ in range(count):
            line_end = data.find(b"\n", pos)
            if line_end < 0:
                line_end = len(data)
            tokens = data[pos:line_end].split()
            if not tokens:
                raise MeshParseError(f"missing {name} record", pos)
            try:
                if name == "vertex":
                    vertices.append([float(tokens[i]) for i in xyz_idx])
                elif name == "face":
                    n = int(tokens[0])
                    if len(tokens) < 1 + n:
                        raise IndexError
                    faces.append([int(tok) for tok in tokens[1 : 1 + n]])
            except (ValueError, IndexError):
                raise MeshParseError(f"malformed {name} record", pos) from None
            pos = line_end + 1
    return vertices, faces


def _parse_ply_binary(data: bytes, offset: int, elements):
    vertices, faces = [], []
    pos = offset
    for name, count, props in elements:
        if name == "vertex":
            if any(p[0] == "list" for p in props):
                raise MeshParseError("list property in vertex element", pos)
            names = [p[0] for p in props]
            fmt = "<" + "".join(_PLY_STRUCT[p[1]] for p in props)
            stride = struct.calcsize(fmt)
            try:
                xyz_idx = [names.index(axis) for axis in ("x", "y", "z")]
            except ValueError:
                raise MeshParseError("vertex element lacks x/y/z", pos) from None
            need = stride * count
            if len(data) - pos < need:
                raise MeshParseError(
                    f"vertex data needs {need} bytes, file has {len(data) - pos}",
                    pos,
                )
            for _ in range(count):
                rec = struct.unpack_from(fmt, data, pos)
                vertices.append([float(rec[i]) for i in xyz_idx])
                pos += stride
        elif name == "face":
            if len(props) != 1 or props[0][0] != "list":
                raise MeshParseError("face element must be a single list", pos)
            _, count_t, idx_t, _ = props[0]
            cfmt = "<" + _PLY_STRUCT[count_t]
            csize = struct.calcsize(cfmt)
            ifmt_ch = _PLY_STRUCT[idx_t]
            isize = struct.calcsize("<" + ifmt_ch)
            for _ in range(count):
                if len(data) - pos < csize:
                    raise MeshParseError("face record truncated", pos)
                n = struct.unpack_from(cfmt, data, pos)[0]
                pos += csize
                need = isize * n
                if len(data) - pos < need:
                    raise MeshParseError("face indices truncated", pos)
                idx = struct.unpack_from("<" + ifmt_ch * n, data, pos)
                pos += need
                faces.append(list(idx))
        else:
            # unknown element: cannot skip without a fixed stride
            if any(p[0] == "list" for p in props):
                raise MeshParseError(f"unsupported element {name!r}", pos)
            stride = struct.calcsize("<" + "".join(_PLY_STRUCT[p[1]] for p in props))
            pos += stride * count
    return vertices, faces


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
# Procedural primitives (tests, occluders, demos)
# ---------------------------------------------------------------------------

_BOX_FACES = [
    (0, 2, 1), (0, 3, 2),  # -z
    (4, 5, 6), (4, 6, 7),  # +z
    (0, 1, 5), (0, 5, 4),  # -y
    (2, 3, 7), (2, 7, 6),  # +y
    (0, 4, 7), (0, 7, 3),  # -x
    (1, 2, 6), (1, 6, 5),  # +x
]


def make_box(extents=(1.0, 1.0, 1.0), center=(0.0, 0.0, 0.0)) -> MeshModel:
    """Axis-aligned box with the given full extents, 8 vertices, 12 triangles."""
    ex, ey, ez = (float(e) / 2.0 for e in extents)
    cx, cy, cz = center
    corners = np.array(
        [
            [-ex, -ey, -ez], [ex, -ey, -ez], [ex, ey, -ez], [-ex, ey, -ez],
            [-ex, -ey, ez], [ex, -ey, ez], [ex, ey, ez], [-ex, ey, ez],
        ]
    ) + np.array([cx, cy, cz])
    return MeshModel(corners, np.array(_BOX_FACES))


def make_tetrahedron(radius: float = 1.0) -> MeshModel:
    """Regular tetrahedron with vertices at the given distance from origin."""
    s = radius / np.sqrt(3.0)
    v = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float) * s
    t = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
    return MeshModel(v, t)


def make_plate(side: float = 1.0, thickness: float = 0.0) -> MeshModel:
    """Square plate centered at the origin, symmetric under 180 deg about z.

    With thickness 0 this is a flat two-triangle square (4 vertices).
    """
    a = side / 2.0
    if thickness <= 0:
        v = np.array([[-a, -a, 0], [a, -a, 0], [a, a, 0], [-a, a, 0]], dtype=float)
        t = np.array([[0, 1, 2], [0, 2, 3]])
        return MeshModel(v, t)
    return make_box((side, side, thickness))

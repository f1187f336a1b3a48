"""Offline exemplar sets: generation, nearest-pose queries, persistence.

An exemplar is one pre-rendered view of the object at a known rotation,
with the translation fixed to (0, 0, z_bar) for the whole set. Pixel data
is stored sparsely (bit-packed mask plus per-masked-pixel model points in
float32 and winning triangle ids in int32), which is also exactly the
on-disk layout, so save/load round trips are bit-exact and a loaded set
never renders again.

File format (little-endian), magic "PFAX", version 2:

    header:  magic[4] | u32 version | u32 count | f64 z_bar |
             f64 fx, fy, cx, cy, width, height | mesh_hash[32] |
             u32 name_len | name (UTF-8)
    per exemplar:
             u32 id | f64 rotation[9] (row-major) |
             mask bits (256*256/8 bytes, row-major, MSB first) |
             f32 points[3 * n_masked] (row-major mask order) |
             i32 tri[n_masked] (same order)

Version 1 stored an f32 shade per masked pixel where version 2 stores the
triangle id, so both have the same size; version 1 files are rejected.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadMagicError,
    ConfigurationError,
    FileFormatError,
    MeshHashMismatchError,
    TruncationError,
    VersionMismatchError,
    naming_file,
)
from .geometry import (
    CameraIntrinsics,
    RigidPose,
    angles_from_traces,
    geodesic_distances,
    sample_rotations,
)
from .mesh import MeshModel, mesh_digest
# bench/layers.py patches rasterize here; generation renders its views in
# multi-view passes with render_surfaces
from .raster import CoordinateMap, Surface, dense_map, rasterize, render_surfaces  # noqa: F401

EXEMPLAR_SIZE = 256
MAGIC = b"PFAX"
FORMAT_VERSION = 2

_MASK_BYTES = EXEMPLAR_SIZE * EXEMPLAR_SIZE // 8
# set bits of each byte value; np.bitwise_count needs numpy 2
_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.uint8)


@dataclass(eq=False)
class Exemplar:
    """One pre-rendered view: pose, camera, and sparse pixel geometry."""

    id: int
    pose: RigidPose
    camera: CameraIntrinsics
    mask_bits: np.ndarray  # (MASK_BYTES,) uint8, row-major, MSB first
    points: np.ndarray  # (n_masked, 3) float32, model frame
    tri: np.ndarray  # (n_masked,) int32, triangle drawn at each masked pixel
    mesh_hash: bytes

    @property
    def z_bar(self) -> float:
        return float(self.pose.translation[2])

    def mask(self) -> np.ndarray:
        bits = np.unpackbits(self.mask_bits)[: EXEMPLAR_SIZE * EXEMPLAR_SIZE]
        return bits.reshape(EXEMPLAR_SIZE, EXEMPLAR_SIZE).astype(bool)

    def coordinate_map(self) -> CoordinateMap:
        """Materialize dense buffers; depth is recomputed from the points.

        Refinement samples the sparse arrays directly; the dense form is for
        inspection and tests.
        """
        points = self.points.astype(np.float64)
        depth = self.pose.transform(points)[:, 2]
        pixels = np.flatnonzero(self.mask())
        return dense_map(Surface(pixels, depth, points, self.tri), EXEMPLAR_SIZE)

    def equals(self, other: "Exemplar") -> bool:
        return (
            self.id == other.id
            and np.array_equal(self.pose.rotation, other.pose.rotation)
            and np.array_equal(self.pose.translation, other.pose.translation)
            and self.camera == other.camera
            and np.array_equal(self.mask_bits, other.mask_bits)
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.tri, other.tri)
            and self.mesh_hash == other.mesh_hash
        )


@dataclass(eq=False)
class ExemplarSet:
    """One or more exemplars of one object, sharing camera, z_bar and mesh hash."""

    object_name: str
    mesh_hash: bytes
    z_bar: float
    camera: CameraIntrinsics
    exemplars: list

    def __post_init__(self):
        if len(self.mesh_hash) != 32:
            raise ValueError("mesh_hash must be 32 bytes")
        if not self.exemplars:
            raise ValueError("exemplar set holds no exemplars")
        for i, ex in enumerate(self.exemplars):
            if ex.id != i:
                raise ValueError(f"exemplar ids must be dense 0..n-1, found {ex.id} at {i}")
            if ex.mesh_hash != self.mesh_hash:
                raise ValueError(f"exemplar {i} was built for another mesh than its set")

    def __len__(self) -> int:
        return len(self.exemplars)

    @cached_property
    def rotation_stack(self) -> np.ndarray:
        """(n, 9) row-major rotations, computed on first read for vectorized queries."""
        return np.array([ex.pose.rotation.reshape(9) for ex in self.exemplars])

    def prefix(self, count: int) -> "ExemplarSet":
        """View of the first ``count`` exemplars (ids stay dense)."""
        return ExemplarSet(
            self.object_name, self.mesh_hash, self.z_bar, self.camera,
            self.exemplars[:count],
        )

    def equals(self, other: "ExemplarSet") -> bool:
        return (
            self.object_name == other.object_name
            and self.mesh_hash == other.mesh_hash
            and self.z_bar == other.z_bar
            and self.camera == other.camera
            and len(self) == len(other)
            and all(a.equals(b) for a, b in zip(self.exemplars, other.exemplars))
        )


def ensure_mesh_binding(owner, mesh: MeshModel) -> None:
    """Refuse to pair exemplar data with a mesh it was not generated from."""
    if owner.mesh_hash != mesh_digest(mesh):
        raise MeshHashMismatchError(
            "mesh digest does not match the one the exemplar set was built from"
        )


def _check_frustum(mesh: MeshModel, z_bar: float, camera: CameraIntrinsics) -> None:
    r = mesh.bounding_radius
    if not z_bar - r > 0:
        raise ConfigurationError(
            f"z_bar {z_bar} places the mesh (bounding radius {r:.4g}) behind or "
            "across the camera plane"
        )
    # conservative: the projected bounding sphere must fit for every rotation
    extent = max(camera.fx, camera.fy) * r / (z_bar - r)
    if (
        camera.cx - extent < 0
        or camera.cx + extent >= camera.width
        or camera.cy - extent < 0
        or camera.cy + extent >= camera.height
    ):
        raise ConfigurationError(
            f"object projects up to {extent:.1f} px from the principal point and "
            f"can leave the {camera.width}x{camera.height} exemplar frame; "
            "increase z_bar or the focal length"
        )


def generate_exemplar_set(
    mesh: MeshModel,
    count: int,
    z_bar: float,
    camera: CameraIntrinsics,
    seed: int,
    object_name: str = "object",
) -> ExemplarSet:
    """Render ``count`` views at uniformly sampled rotations, fixed translation."""
    if camera.width != EXEMPLAR_SIZE or camera.height != EXEMPLAR_SIZE:
        raise ConfigurationError(
            f"exemplar camera must be {EXEMPLAR_SIZE}x{EXEMPLAR_SIZE}, "
            f"got {camera.width}x{camera.height}"
        )
    _check_frustum(mesh, z_bar, camera)
    digest = mesh_digest(mesh)
    rotations = sample_rotations(count, seed)
    translation = np.array([0.0, 0.0, z_bar])
    poses = [RigidPose(rotation, translation) for rotation in rotations]
    exemplars = []
    for i, (pose, surface) in enumerate(
        zip(poses, render_surfaces(mesh, poses, camera, EXEMPLAR_SIZE))
    ):
        mask = np.zeros(EXEMPLAR_SIZE * EXEMPLAR_SIZE, dtype=bool)
        mask[surface.pixels] = True
        exemplars.append(Exemplar(
            i, pose, camera, np.packbits(mask), surface.points.astype("<f4"),
            surface.tri.astype("<i4"), digest,
        ))
    return ExemplarSet(object_name, digest, float(z_bar), camera, exemplars)


def query_nearest(exemplar_set: ExemplarSet, query: RigidPose, count: int) -> list:
    """The ``count`` exemplars nearest to the query by rotation angle.

    Ties break toward the lower id. Returns min(count, set size) exemplars
    in non-decreasing distance order.
    """
    distances = geodesic_distances(exemplar_set.rotation_stack, query.rotation)
    order = np.argsort(distances, kind="stable")
    return [exemplar_set.exemplars[i] for i in order[: min(count, len(order))]]


def mean_query_distance(exemplar_set: ExemplarSet, n_queries: int, seed: int) -> float:
    """Mean nearest-exemplar angle over random query rotations (degrees)."""
    queries = sample_rotations(n_queries, seed).reshape(n_queries, 9)
    stack = exemplar_set.rotation_stack
    best = np.empty(n_queries)
    chunk = 256
    for start in range(0, n_queries, chunk):
        dots = queries[start : start + chunk] @ stack.T
        best[start : start + chunk] = dots.max(axis=1)
    return float(angles_from_traces(best).mean())


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


class _Reader:
    def __init__(self, f):
        self._f = f
        self._size = os.fstat(f.fileno()).st_size
        self.offset = 0

    def read_exact(self, n: int, context: str) -> bytes:
        """The next ``n`` bytes; a length past the end of the file is not read."""
        left = self._size - self.offset
        if n > left:
            raise TruncationError(n, left, context)
        self.offset += n
        return self._f.read(n)


def save_set(exemplar_set: ExemplarSet, path) -> None:
    cam = exemplar_set.camera
    name = exemplar_set.object_name.encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", FORMAT_VERSION, len(exemplar_set)))
        f.write(struct.pack("<d", exemplar_set.z_bar))
        f.write(
            struct.pack(
                "<6d", cam.fx, cam.fy, cam.cx, cam.cy, float(cam.width), float(cam.height)
            )
        )
        f.write(exemplar_set.mesh_hash)
        f.write(struct.pack("<I", len(name)))
        f.write(name)
        for ex in exemplar_set.exemplars:
            f.write(struct.pack("<I", ex.id))
            f.write(np.ascontiguousarray(ex.pose.rotation, dtype="<f8").tobytes())
            f.write(ex.mask_bits.tobytes())
            f.write(np.ascontiguousarray(ex.points, dtype="<f4").tobytes())
            f.write(np.ascontiguousarray(ex.tri, dtype="<i4").tobytes())


def load_set(path) -> ExemplarSet:
    """Read a PFAX file; every malformed file, including one with no exemplars
    or a camera other than ``EXEMPLAR_SIZE`` square, raises a
    ``FileFormatError`` whose message starts with the path."""
    with open(path, "rb") as f, naming_file(path):
        reader = _Reader(f)
        magic = reader.read_exact(4, "magic")
        if magic != MAGIC:
            raise BadMagicError(f"expected magic {MAGIC!r}, found {magic!r}")
        version, count = struct.unpack("<II", reader.read_exact(8, "header"))
        if version != FORMAT_VERSION:
            raise VersionMismatchError(version, FORMAT_VERSION)
        (z_bar,) = struct.unpack("<d", reader.read_exact(8, "z_bar"))
        if not 0.0 < z_bar < np.inf:
            raise FileFormatError(f"z_bar must be finite and positive, found {z_bar}")
        fx, fy, cx, cy, width, height = struct.unpack(
            "<6d", reader.read_exact(48, "camera")
        )
        if (width, height) != (EXEMPLAR_SIZE, EXEMPLAR_SIZE):  # the frame the masks cover
            raise FileFormatError(
                f"exemplar camera must be {EXEMPLAR_SIZE}x{EXEMPLAR_SIZE}, "
                f"found {width!r}x{height!r}"
            )
        try:
            camera = CameraIntrinsics(fx, fy, cx, cy, EXEMPLAR_SIZE, EXEMPLAR_SIZE)
        except ValueError as exc:
            raise FileFormatError(f"bad camera: {exc}") from exc
        digest = reader.read_exact(32, "mesh hash")
        (name_len,) = struct.unpack("<I", reader.read_exact(4, "name length"))
        try:
            name = reader.read_exact(name_len, "object name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"object name is not UTF-8: {exc}") from exc

        translation = np.array([0.0, 0.0, z_bar])
        exemplars = []
        for i in range(count):
            (ex_id,) = struct.unpack("<I", reader.read_exact(4, f"exemplar {i} id"))
            rotation = np.frombuffer(
                reader.read_exact(72, f"exemplar {i} rotation"), dtype="<f8"
            ).reshape(3, 3)
            bits = np.frombuffer(
                reader.read_exact(_MASK_BYTES, f"exemplar {i} mask"), dtype=np.uint8
            ).copy()
            n_masked = int(_POPCOUNT.take(bits).sum(dtype=np.uint32))
            points = np.frombuffer(
                reader.read_exact(12 * n_masked, f"exemplar {i} points"), dtype="<f4"
            ).reshape(n_masked, 3).copy()
            if not np.isfinite(points).all():
                raise FileFormatError(f"exemplar {i} has a non-finite model point")
            tri = np.frombuffer(
                reader.read_exact(4 * n_masked, f"exemplar {i} triangle ids"), dtype="<i4"
            ).copy()
            if n_masked and tri.min() < 0:
                raise FileFormatError(f"exemplar {i} has a negative triangle id")
            try:
                pose = RigidPose(rotation, translation)
            except ValueError as exc:
                raise FileFormatError(f"exemplar {i} has a bad rotation: {exc}") from exc
            exemplars.append(Exemplar(ex_id, pose, camera, bits, points, tri, digest))
        if f.read(1):
            raise FileFormatError("unexpected trailing data after last exemplar")
        try:
            return ExemplarSet(name, digest, z_bar, camera, exemplars)
        except ValueError as exc:
            raise FileFormatError(str(exc)) from exc

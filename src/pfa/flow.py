"""Sparse 2D correspondence fields between exemplar crops and target crops.

A ``FlowField`` lists the valid pixels of a crop as increasing flat
row-major indices, each with one float32 (du, dv) displacement; no dense
buffer is kept. The oracle writes this form, degradation and the file
format below walk it in index order, and lifting reads it.

The in-tree flow provider is a geometric oracle: for every valid pixel of
the exemplar crop it projects the known model point into the target view
and records the crop-frame displacement. Pixels are invalidated when the
point is occluded in the target scene, leaves the crop or image, or faces
away from the target camera. A configurable degradation stage stands in
for the error profile of a learned flow estimator; externally produced
flow enters exclusively through the file format below.

Flow file format (little-endian), magic "PFAF", version 1:

    magic[4] | u32 version | u32 width | u32 height |
    valid mask bits (ceil(w*h/8) bytes, row-major, MSB first) |
    f32 du, f32 dv per valid pixel, row-major order
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .crops import CropTransform, apply_homography, image_to_crop_matrix
from .errors import (
    BadMagicError,
    FileFormatError,
    TruncationError,
    VersionMismatchError,
    naming_file,
)
from .exemplars import Exemplar
from .geometry import project_camera_points, project_points
from .mesh import face_normals
# bench/layers.py patches rasterize here; nothing in this module renders exemplars
from .raster import SceneSpec, rasterize, scene_depth_map  # noqa: F401
from .seeds import derive_seed


@dataclass(eq=False)
class FlowField:
    """Crop-frame displacements at the valid pixels of a width x height crop.

    ``indices`` lists the valid pixels as strictly increasing flat row-major
    indices, and ``vectors`` holds the float32 (du, dv) of each, in the same
    order. Nothing dense is kept: ``valid`` builds the (height, width) mask
    on demand, for the file format, tests and inspection.
    """

    width: int
    height: int
    indices: np.ndarray  # (M,) int64, strictly increasing
    vectors: np.ndarray  # (M, 2) float32, (du, dv) per index

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64).reshape(-1)
        self.vectors = np.asarray(self.vectors, dtype=np.float32).reshape(-1, 2)
        idx = self.indices
        inside = len(idx) == 0 or (idx[0] >= 0 and idx[-1] < self.width * self.height)
        if len(idx) != len(self.vectors) or not inside or (np.diff(idx) <= 0).any():
            raise ValueError("flow needs one vector per increasing pixel index inside the crop")
        if not np.isfinite(self.vectors).all():
            raise ValueError("valid flow vectors must be finite")

    @property
    def valid(self) -> np.ndarray:
        """The (height, width) bool mask of the valid pixels, built on demand."""
        valid = np.zeros(self.width * self.height, dtype=bool)
        valid[self.indices] = True
        return valid.reshape(self.height, self.width)


@dataclass(frozen=True)
class FlowNoiseSpec:
    """Degradation model applied to oracle flow: finite settings, no seed
    (the seed of the draws is an argument of ``degrade_flow``)."""

    gaussian_sigma: float = 0.0  # pixels
    outlier_ratio: float = 0.0
    outlier_range: float = 0.0  # pixels, uniform in [-range, range]^2
    dropout_ratio: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.outlier_ratio <= 1.0 and 0.0 <= self.dropout_ratio <= 1.0):
            raise ValueError("ratios must lie in [0, 1]")
        if not (0 <= self.gaussian_sigma < np.inf and 0 <= self.outlier_range < np.inf):
            raise ValueError("sigma and range must be finite and non-negative")

    @classmethod
    def default_preset(cls, dropout_ratio: float = 0.20) -> "FlowNoiseSpec":
        """Documented stand-in for a trained estimator's error profile."""
        return cls(gaussian_sigma=1.0, outlier_ratio=0.10, outlier_range=32.0,
                   dropout_ratio=dropout_ratio)


def _axis_cells(coords: np.ndarray, origin: int, n: int):
    """Left cell, fraction and in-range flag of samples along one image axis,
    the cell counted from ``origin`` within an axis of ``n`` pixels."""
    c = coords - 0.5
    c0 = np.floor(c).astype(np.int64)
    fraction = c - c0
    c0 -= origin
    inside = (c0 >= 0) & (c0 + 1 <= n - 1)
    return np.clip(c0, 0, n - 2), fraction, inside


class CropSampler:
    """Bilinear model points of an exemplar at the pixel centers of its crop.

    Pixels are flat row-major crop indices in increasing order, and pixel
    centers sit at integer + 0.5. A sample has a full footprint when the
    four exemplar pixels around it are all in the mask; only such samples
    may be gathered. Points and triangle ids come from the stored sparse
    rows, never from a dense map. A crop is a similarity, so a crop pixel's
    exemplar x depends on its column alone and its y on its row alone: the
    sample grid is two axes, and the footprint test is one lookup per pixel.
    Gathering is the dearer step, so callers test every pixel first and
    gather only the pixels they keep.

    The cell and row tables cover the exemplar's mask window, a few
    thousand entries rather than the whole frame, plus one unmasked pixel
    of margin on each side, so that a 1-px-wide or empty window still has
    a cell on each axis. A sample whose cell leaves the tables has no full
    footprint.
    """

    def __init__(self, exemplar: Exemplar, crop_exemplar: CropTransform):
        self.exemplar = exemplar
        self.size = size = crop_exemplar.out_size
        axis = np.arange(size) + 0.5
        grid = apply_homography(crop_exemplar.inverse_matrix(), np.stack([axis, axis], axis=-1))
        window = exemplar.window
        mask = np.zeros((window.height + 2, window.width + 2), dtype=bool)
        mask[1:-1, 1:-1] = window.unpack()  # mask[0, 0] is frame pixel (row - 1, col - 1)
        top, left = window.row - 1, window.col - 1
        # the window pixel holding each sample
        self._holder = np.floor(grid).astype(np.int64) - [left, top]
        self._width = mask.shape[1]
        self._x0, self._fx, self._x_in = _axis_cells(grid[:, 0], left, mask.shape[1])
        self._y0, self._fy, self._y_in = _axis_cells(grid[:, 1], top, mask.shape[0])
        self._cells = mask[:-1, :-1] & mask[:-1, 1:] & mask[1:, :-1] & mask[1:, 1:]
        self._row_of = np.full(mask.size, -1, dtype=np.int32)  # window pixel -> stored row
        self._row_of[mask.reshape(-1)] = np.arange(len(exemplar.points), dtype=np.int32)

    def footprint(self, rows=None, cols=None) -> np.ndarray:
        """Bool mask over the crop pixels at ``rows``, ``cols`` (every crop
        pixel, row-major, when None): full footprint."""
        if rows is None:
            ok = self._cells[np.ix_(self._y0, self._x0)]
            return (ok & self._y_in[:, None] & self._x_in[None, :]).reshape(-1)
        return self._cells[self._y0[rows], self._x0[cols]] & self._y_in[rows] & self._x_in[cols]

    def points(self, pixels) -> np.ndarray:
        """(M, 3) float64 model points at pixels with a full footprint.

        The points are gathered as (3, M) columns and returned as their
        transposed view, which ``CorrespondenceSet`` stores uncopied.
        """
        rows, cols = np.divmod(pixels, self.size)
        corner = self._y0[rows] * self._width + self._x0[cols]
        fx, fy = self._fx[cols], self._fy[rows]
        weights = ((1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy)
        # (3, n) float32 columns, one gather per corner; the float64 weights
        # widen each gathered value exactly
        values = np.ascontiguousarray(self.exemplar.points.T)
        points = weights[0] * values.take(self._row_of[corner], axis=1)
        for weight, offset in zip(weights[1:], (1, self._width, self._width + 1)):
            points += weight * values.take(self._row_of[corner + offset], axis=1)
        return points.T

    def triangles(self, pixels) -> np.ndarray:
        """Triangle id of the exemplar pixel holding each sample, one of its four."""
        rows, cols = np.divmod(pixels, self.size)
        holder = self._holder[rows, 1] * self._width + self._holder[cols, 0]
        return self.exemplar.tri[self._row_of[holder]]


def object_window(scene: SceneSpec) -> tuple[int, int, int, int]:
    """Image pixels the scene's target object can cover.

    Returns half-open bounds (x0, y0, x1, y1) of the box of the object's
    vertices projected under ``scene.object_pose``, widened by one pixel
    against rounding and clipped to the image; the window is empty when the
    box misses the image.
    """
    camera = scene.camera
    corners = project_points(camera, scene.object_pose, scene.object_mesh.vertices)
    lo = np.floor(corners.min(axis=0)).astype(np.int64) - 1
    hi = np.ceil(corners.max(axis=0)).astype(np.int64) + 1
    x0, x1 = np.clip([lo[0], hi[0]], 0, camera.width)
    y0, y1 = np.clip([lo[1], hi[1]], 0, camera.height)
    return int(x0), int(y0), int(x1), int(y1)


def oracle_flow(
    exemplar: Exemplar,
    crop_exemplar: CropTransform,
    scene: SceneSpec,
    target_pose,
    crop_target: CropTransform,
    *,
    scene_depth: np.ndarray | None = None,
) -> FlowField:
    """Ground-truth flow from an exemplar crop to the target crop.

    Every exemplar-crop pixel whose sample has a full 2x2 footprint in the
    exemplar mask takes the bilinearly interpolated stored model point
    (``CropSampler``). The point is projected into the target image under
    ``target_pose``, re-expressed under the exemplar camera's intrinsics,
    and mapped by the target crop. A pixel is kept when its point lies in
    front of the target camera, lands inside the image and the crop, is not
    occluded in the scene (joint z-buffer strictly nearer than the point by
    more than a depth tolerance), and its surface, by the stored triangle
    id, faces the target camera.

    The tests run in that order, cheapest and most selective first, and
    each later one sees only the survivors of the earlier ones; triangle
    ids and normals are gathered for the final survivors alone. Every test
    reads one pixel's own values, so the kept set and its vectors do not
    depend on the order. A depth-tested point blends four stored surface
    points, so it lies in the mesh's convex hull, in front of the camera, and
    projects into the box of the projected vertices: the z-buffer covers
    ``object_window(scene)`` alone. ``scene_depth``, if given, is
    ``scene_depth_map`` over that window; tests may leave it to be rendered here.

    The caller gives crops of one size, an exemplar of ``scene.object_mesh``
    and ``scene.object_pose`` as ``target_pose``.
    """
    size = crop_exemplar.out_size
    sampler = CropSampler(exemplar, crop_exemplar)
    pixels = np.flatnonzero(sampler.footprint())
    if len(pixels) == 0:
        return FlowField(size, size, pixels, np.empty((0, 2)))
    points = sampler.points(pixels)
    q_target = target_pose.transform(points)

    # ``live`` indexes the survivors into pixels, points and q_target; rows
    # are gathered with ``take``, much faster than fancy indexing on (N, k)
    k_target = scene.camera
    live = np.flatnonzero(q_target[:, 2] > 0)
    u_target = project_camera_points(k_target, q_target.take(live, axis=0))
    warp = image_to_crop_matrix(crop_target, exemplar.camera, k_target)
    u_crop = apply_homography(warp, u_target)
    inside = np.flatnonzero(
        (u_target[:, 0] >= 0.0)
        & (u_target[:, 0] < k_target.width)
        & (u_target[:, 1] >= 0.0)
        & (u_target[:, 1] < k_target.height)
        & (u_crop[:, 0] >= 0.0)
        & (u_crop[:, 0] < size)
        & (u_crop[:, 1] >= 0.0)
        & (u_crop[:, 1] < size)
    )
    live = live[inside]
    u_target, u_crop = u_target.take(inside, axis=0), u_crop.take(inside, axis=0)

    x0, y0, _, _ = window = object_window(scene)
    if scene_depth is None:
        scene_depth = scene_depth_map(scene, window=window)
    eps = 1e-3 * exemplar.z_bar
    px = np.floor(u_target[:, 0]).astype(np.int64) - x0
    py = np.floor(u_target[:, 1]).astype(np.int64) - y0
    seen = np.flatnonzero(~(scene_depth[py, px] < q_target[live, 2] - eps))
    live, u_crop = live[seen], u_crop.take(seen, axis=0)

    # back-face cull against the target view; triangle orientation is fixed
    # per pixel so that the normal faces the exemplar camera
    n_model = face_normals(scene.object_mesh).take(sampler.triangles(pixels[live]), axis=0)
    q_exemplar = exemplar.pose.transform(points.T.take(live, axis=1).T)
    n_exemplar = n_model @ exemplar.pose.rotation.T
    toward_exemplar = np.sum(n_exemplar * q_exemplar, axis=1)
    flip = np.where(toward_exemplar > 0, -1.0, 1.0)
    n_target = (n_model * flip[:, None]) @ target_pose.rotation.T
    front = np.flatnonzero(np.sum(n_target * q_target.take(live, axis=0), axis=1) < 0)
    live, u_crop = live[front], u_crop.take(front, axis=0)

    rows, cols = np.divmod(pixels[live], size)
    vectors = u_crop - np.stack([cols + 0.5, rows + 0.5], axis=-1)
    return FlowField(size, size, pixels[live], vectors.astype(np.float32))


def degrade_flow(flow: FlowField, spec: FlowNoiseSpec, seed: int) -> FlowField:
    """Gaussian noise, outlier replacement, and dropout on valid pixels.

    ``seed`` seeds one generator for all stages. The stages walk the valid
    pixels in index order. Stages with zero parameters draw nothing from the
    generator, so an all-zero spec returns a bit-exact copy. Validity only
    ever shrinks.
    """
    n = len(flow.indices)
    rng = np.random.default_rng(seed)
    vectors = flow.vectors.copy()
    if spec.gaussian_sigma > 0:
        vectors += rng.normal(0.0, spec.gaussian_sigma, size=(n, 2)).astype(np.float32)
    if spec.outlier_ratio > 0:
        hit = rng.random(n) < spec.outlier_ratio
        repl = rng.uniform(-spec.outlier_range, spec.outlier_range, size=(int(hit.sum()), 2))
        vectors[hit] = repl.astype(np.float32)
    keep = slice(None)
    if spec.dropout_ratio > 0:
        keep = rng.random(n) >= spec.dropout_ratio
    return FlowField(flow.width, flow.height, flow.indices[keep], vectors[keep])


class OracleFlowSource:
    """Flow provider backed by the geometric oracle, optionally degraded.

    ``target_pose`` is the scene's object pose. The first ``flow_for``
    renders the z-buffer over ``object_window(scene)`` (see ``oracle_flow``);
    that window is the scene's alone, so every later call reuses the render.

    Degradation seeds derive from (base_seed, exemplar id) so a given
    exemplar sees the same noise regardless of how many neighbors are
    retrieved alongside it.
    """

    def __init__(self, scene: SceneSpec, target_pose, noise: FlowNoiseSpec | None = None,
                 base_seed: int = 0):
        self.scene = scene
        self.target_pose = target_pose
        self.noise = noise
        self.base_seed = base_seed
        self._scene_depth = None

    def flow_for(self, exemplar, rank, crop_exemplar, crop_target) -> FlowField:
        if self._scene_depth is None:
            self._scene_depth = scene_depth_map(self.scene, window=object_window(self.scene))
        field = oracle_flow(
            exemplar, crop_exemplar, self.scene, self.target_pose, crop_target,
            scene_depth=self._scene_depth,
        )
        if self.noise is not None:
            field = degrade_flow(
                field, self.noise, derive_seed(self.base_seed, "flow-noise", exemplar.id)
            )
        return field


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

MAGIC = b"PFAF"
FORMAT_VERSION = 1


def save_flow(flow: FlowField, path) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<III", FORMAT_VERSION, flow.width, flow.height))
        f.write(np.packbits(flow.valid.reshape(-1)).tobytes())
        f.write(flow.vectors.astype("<f4", copy=False).tobytes())


def load_flow(path) -> FlowField:
    """Read a flow file; every malformed file raises a ``FileFormatError``
    whose message starts with the path."""
    with open(path, "rb") as f:
        data = f.read()
    with naming_file(path):
        return _parse_flow(data)


def _parse_flow(data: bytes) -> FlowField:
    if len(data) < 4 or data[:4] != MAGIC:
        raise BadMagicError(
            f"expected magic {MAGIC!r}, found {data[:4]!r}" if data else "empty file"
        )
    if len(data) < 16:
        raise TruncationError(16, len(data), "flow header")
    version, w, h = struct.unpack("<III", data[4:16])
    if version != FORMAT_VERSION:
        raise VersionMismatchError(version, FORMAT_VERSION)
    n_bits = (w * h + 7) // 8
    offset = 16
    if len(data) < offset + n_bits:
        raise TruncationError(offset + n_bits, len(data), "valid mask")
    bits = np.frombuffer(data, dtype=np.uint8, count=n_bits, offset=offset)
    pad = 8 * n_bits - w * h
    if pad and bits[-1] & ((1 << pad) - 1):
        raise FileFormatError("nonzero padding bits after the valid mask")
    indices = np.flatnonzero(np.unpackbits(bits, count=w * h))
    offset += n_bits
    need = offset + 8 * len(indices)
    if len(data) < need:
        raise TruncationError(need, len(data), "flow vectors")
    if len(data) > need:
        raise FileFormatError("unexpected trailing data after flow vectors")
    vectors = np.frombuffer(data, dtype="<f4", offset=offset).reshape(-1, 2)
    try:
        return FlowField(w, h, indices, vectors)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc

"""Sparse 2D correspondence fields between exemplar crops and target crops.

A ``FlowField`` lists the valid pixels of a crop as increasing flat
row-major indices, each with one float32 (du, dv) displacement; no dense
buffer is kept. The oracle writes this form, degradation and the file
format below walk it in index order, and lifting reads it.

The in-tree flow provider is a geometric oracle: for every valid pixel of
the exemplar crop it projects the known model point into the target view,
with the scene's object at ``scene.object_pose``, and records the
crop-frame displacement. It maps the exemplar's stored points, one per
masked pixel, once into the target camera and blends those camera-frame
points at the crop pixels: a rigid map is affine and bilinear weights sum
to one, so that equals mapping each pixel's blended model point, up to
float64 rounding. Pixels are invalidated when the point is occluded in the
target scene, leaves the crop or image, or faces away from the target
camera. The first test is per exemplar cell, before any pixel is blended: a
cell whose four mapped corners the z-buffer hides everywhere over the box
of their projections hides every pixel that blends them, because such a
pixel's point projects into that box no nearer than the corners' least
depth. ``OracleFlowSource`` renders the scene's z-buffer and its block
maximum once, on its first ``flow_for``, and passes them and the window
origin to every ``oracle_flow`` call. A configurable degradation stage
stands in for the error profile of a learned flow estimator; externally
produced flow enters exclusively through the file format below.

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
from .geometry import project_points
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

    ``points`` gathers model points for lifting, whose points feed the
    solvers bit for bit. ``blend`` blends any per-stored-row table, such as
    the stored points mapped into a camera, in a cheaper separable order;
    the oracle uses it, and its values only meet thresholds and float32.

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
        self._stored = mask.reshape(-1)  # window pixels that hold a stored row, in row order
        self._row_of = np.full(mask.size, -1, dtype=np.int32)  # window pixel -> stored row
        self._row_of[self._stored] = np.arange(len(exemplar.points), dtype=np.int32)

    def footprint(self, rows=None, cols=None) -> np.ndarray:
        """Bool mask over the crop pixels at ``rows``, ``cols`` (every crop
        pixel, row-major, when None): full footprint."""
        if rows is None:  # two 1-D takes are about 3x faster than np.ix_
            ok = self._cells.take(self._y0, axis=0).take(self._x0, axis=1)
            ok &= self._y_in[:, None]
            ok &= self._x_in
            return ok.reshape(-1)
        return self._cells[self._y0[rows], self._x0[cols]] & self._y_in[rows] & self._x_in[cols]

    def points(self, pixels) -> np.ndarray:
        """(M, 3) float64 model points at pixels with a full footprint.

        The points are gathered as (3, M) columns and returned as their
        transposed view, which ``CorrespondenceSet`` stores uncopied.
        """
        rows = pixels // self.size
        cols = pixels - rows * self.size
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

    def blend(self, values, pixels) -> list:
        """C float64 (M,) bilinear blends of per-stored-row ``values`` (N, C),
        one per component, at pixels with a full footprint.

        The values are laid out as a table over the window cells, zero at
        the unmasked ones, and blended separably: a horizontal pass over
        every window row at the crop's columns, then a vertical pass per
        pixel. That is another rounding order than ``points``' four-corner
        formula, so it serves values that feed only threshold tests and
        float32 flow; lifting's points stay on ``points``.
        """
        rows = pixels // self.size  # np.divmod takes about twice as long
        cols = pixels - rows * self.size
        upper = self._y0[rows] * self.size + cols
        fy = self._fy[rows]
        table = np.zeros((values.shape[1], len(self._stored)))
        table[:, self._stored] = values.T
        table = table.reshape(len(table), -1, self._width)
        fx = self._fx
        across = (1 - fx) * table.take(self._x0, axis=2) + fx * table.take(self._x0 + 1, axis=2)
        # one component at a time: a 1-D take and a 1-D blend are much faster
        # than the same work on (C, M)
        return [(1 - fy) * plane.take(upper) + fy * plane.take(upper + self.size)
                for plane in across.reshape(len(table), -1)]

    def cell_bounds(self, values):
        """Least and largest of per-stored-row ``values`` (N, C) over the four
        corners of every window cell: two (C, h, w) float64 arrays over the
        cells of the footprint table, NaN where a corner is unmasked or NaN."""
        table = np.full((values.shape[1], len(self._stored)), np.nan)
        table[:, self._stored] = values.T
        table = table.reshape(len(table), -1, self._width)
        bounds = []
        for extreme in (np.minimum, np.maximum):  # propagate NaN
            across = extreme(table[:, :, :-1], table[:, :, 1:])
            bounds.append(extreme(across[:, :-1], across[:, 1:]))
        return bounds

    def hide(self, cells) -> None:
        """Take the window cells where the (h, w) bool ``cells`` holds out of
        the footprint table: no later sample through them has a full footprint."""
        self._cells &= ~cells

    def triangles(self, pixels) -> np.ndarray:
        """Triangle id of the exemplar pixel holding each sample, one of its four."""
        rows = pixels // self.size
        cols = pixels - rows * self.size
        holder = self._holder[rows, 1] * self._width + self._holder[cols, 0]
        return self.exemplar.tri[self._row_of[holder]]


DEPTH_BLOCK = 8  # px, a power of two: the block maximum takes log2 doubling steps


def depth_block_max(scene_depth: np.ndarray) -> np.ndarray:
    """Largest z-buffer depth over the DEPTH_BLOCK x DEPTH_BLOCK pixels that
    start at each pixel, the block cut off at the buffer's far edges."""
    block = scene_depth.copy()
    step = 1
    while step < DEPTH_BLOCK:
        block[:, :-step] = np.maximum(block[:, :-step], block[:, step:])
        block[:-step] = np.maximum(block[:-step], block[step:])
        step *= 2
    return block


def _hidden_cells(sampler, q_target, camera, depth_max, depth_origin, eps) -> np.ndarray:
    """Bool mask over ``sampler``'s cell table: the cells whose every sample
    the z-buffer certainly hides (see ``oracle_flow``), from ``q_target``,
    the stored points mapped into the target camera. Against the blend's
    float64 rounding the corners' box is widened by 1e-6 px, and the depth
    bound lowered by 1e-9 of the largest stored depth."""
    z = q_target[:, 2]
    zc = np.where(z > 0, z, np.nan)  # a corner at z <= 0 keeps its cells: NaN fails every test
    u = camera.fx * q_target[:, 0] / zc + camera.cx
    v = camera.fy * q_target[:, 1] / zc + camera.cy
    (u_lo, v_lo, z_lo), (u_hi, v_hi, _) = sampler.cell_bounds(np.stack([u, v, zc], axis=1))
    x0, y0 = depth_origin
    height, width = depth_max.shape
    col, col_end = np.floor(u_lo - 1e-6) - x0, np.floor(u_hi + 1e-6) - x0
    row, row_end = np.floor(v_lo - 1e-6) - y0, np.floor(v_hi + 1e-6) - y0
    fits = ((col >= 0) & (col_end < width) & (col_end - col < DEPTH_BLOCK)
            & (row >= 0) & (row_end < height) & (row_end - row < DEPTH_BLOCK))
    near = z_lo[fits] - eps - 1e-9 * z.max(initial=0.0)
    fits[fits] = depth_max[row[fits].astype(np.int64), col[fits].astype(np.int64)] < near
    return fits


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
    crop_target: CropTransform,
    scene_depth: np.ndarray,
    depth_origin: tuple[int, int],
    depth_max: np.ndarray,
) -> FlowField:
    """Ground-truth flow from an exemplar crop to the target crop.

    Every exemplar-crop pixel whose sample has a full 2x2 footprint in the
    exemplar mask takes the bilinearly interpolated stored model point
    (``CropSampler``). The point is projected into the target image under
    ``scene.object_pose``, re-expressed under the exemplar camera's
    intrinsics, and mapped by the target crop. A pixel is kept when its
    point lies in front of the target camera, lands inside the image and
    the crop, is not occluded in the scene (joint z-buffer strictly nearer
    than the point by more than a depth tolerance), and its surface, by the
    stored triangle id, faces the target camera.

    First, before anything is blended, every footprint cell that the
    z-buffer certainly hides leaves the sampler's footprint table, so its
    pixels are never blended, projected or depth-tested. The test is exact:
    a pixel's point is a convex blend of its cell's four corners, the
    stored points mapped into the target camera. When all four lie in front
    of the camera, the point projects into the box of the corners'
    projections, no nearer than their least depth. A cell is dropped when
    its box lies in the window and in one block of ``depth_max``
    (``depth_block_max`` of the z-buffer) whose largest depth is nearer than
    that least depth by more than the depth tolerance; then every pixel of
    the cell that reaches the depth test below fails it. Other cells take
    the tests below as before, so the kept set and its vectors do not change.

    A rigid map is affine and the bilinear weights sum to one, so mapping
    the blend equals blending the mapped points. The oracle maps the
    exemplar's stored points, one per masked window pixel, once into the
    target camera and blends those camera-frame points at the crop pixels
    (``CropSampler.blend``); no model point is gathered per pixel. The
    order changes only float64 rounding, by a few ulps. The target crop's
    warp is a similarity after an intrinsics alignment, affine with exact
    zero terms, so it is applied without the homogeneous divide by 1.

    The tests run in that order, cheapest and most selective first, and
    each later one sees only the survivors of the earlier ones; triangle
    ids, normals and the stored points mapped into the exemplar camera are
    blended or gathered for the final survivors alone. Every test reads one
    pixel's own values, so the kept set and its vectors do not depend on
    the order. A depth-tested point blends four stored surface points, so
    it lies in the mesh's convex hull, in front of the camera, and projects
    into the box of the projected vertices: ``scene_depth`` is
    ``scene_depth_map`` over ``object_window(scene)`` alone, and
    ``depth_origin`` is that window's (x0, y0).

    The caller gives crops of one size and an exemplar of ``scene.object_mesh``.
    """
    size = crop_exemplar.out_size
    k_target = scene.camera
    eps = 1e-3 * exemplar.z_bar
    sampler = CropSampler(exemplar, crop_exemplar)
    q_target = scene.object_pose.transform(exemplar.points)
    sampler.hide(_hidden_cells(sampler, q_target, k_target, depth_max, depth_origin, eps))
    pixels = np.flatnonzero(sampler.footprint())
    if len(pixels) == 0:
        return FlowField(size, size, pixels, np.empty((0, 2)))
    qx, qy, qz = sampler.blend(q_target, pixels)

    # ``live`` indexes the survivors into pixels and the (M,) components
    # qx, qy, qz; the projection is ``project_camera_points``' own arithmetic
    live = np.flatnonzero(qz > 0)
    z = qz.take(live)
    u = k_target.fx * qx.take(live) / z + k_target.cx
    v = k_target.fy * qy.take(live) / z + k_target.cy
    warp = image_to_crop_matrix(crop_target, exemplar.camera, k_target)
    u_crop = warp[0, 0] * u + warp[0, 2]
    v_crop = warp[1, 1] * v + warp[1, 2]
    inside = np.flatnonzero(
        (u >= 0.0) & (u < k_target.width) & (v >= 0.0) & (v < k_target.height)
        & (u_crop >= 0.0) & (u_crop < size) & (v_crop >= 0.0) & (v_crop < size)
    )
    live, u, v, z = live[inside], u.take(inside), v.take(inside), z.take(inside)
    u_crop, v_crop = u_crop.take(inside), v_crop.take(inside)

    x0, y0 = depth_origin
    px = np.floor(u).astype(np.int64) - x0
    py = np.floor(v).astype(np.int64) - y0
    seen = np.flatnonzero(~(scene_depth[py, px] < z - eps))
    live, u_crop, v_crop = live[seen], u_crop.take(seen), v_crop.take(seen)

    # back-face cull against the target view; triangle orientation is fixed
    # per pixel so that the normal faces the exemplar camera
    n_model = face_normals(scene.object_mesh).take(sampler.triangles(pixels[live]), axis=0)
    q_exemplar = sampler.blend(exemplar.pose.transform(exemplar.points), pixels[live])
    n_exemplar = n_model @ exemplar.pose.rotation.T
    toward_exemplar = sum(n * q for n, q in zip(n_exemplar.T, q_exemplar))
    flip = np.where(toward_exemplar > 0, -1.0, 1.0)
    n_target = (n_model * flip[:, None]) @ scene.object_pose.rotation.T
    toward_target = sum(n * q.take(live) for n, q in zip(n_target.T, (qx, qy, qz)))
    front = np.flatnonzero(toward_target < 0)
    live, u_crop, v_crop = live[front], u_crop.take(front), v_crop.take(front)

    rows = pixels[live] // size
    cols = pixels[live] - rows * size
    vectors = np.stack([u_crop - (cols + 0.5), v_crop - (rows + 0.5)], axis=-1)
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

    The oracle's target is the scene's object at ``scene.object_pose``. The
    constructor keeps its ``target_pose`` parameter only because
    ``bench/workloads.py`` passes the ground-truth pose positionally, and
    refuses any pose other than ``scene.object_pose``. One source renders
    one z-buffer, over ``object_window(scene)`` (see ``oracle_flow``), and
    builds its ``depth_block_max`` together with it, on its first
    ``flow_for``, so both are timed with the flow; every later call reuses
    them.

    Degradation seeds derive from (base_seed, exemplar id) so a given
    exemplar sees the same noise regardless of how many neighbors are
    retrieved alongside it.
    """

    def __init__(self, scene: SceneSpec, target_pose, noise: FlowNoiseSpec | None = None,
                 base_seed: int = 0):
        pose = scene.object_pose
        if not (np.array_equal(target_pose.rotation, pose.rotation)
                and np.array_equal(target_pose.translation, pose.translation)):
            raise ValueError("the oracle's target pose must be the scene's object pose")
        self.scene = scene
        self.noise = noise
        self.base_seed = base_seed
        self._scene_depth = None
        self._depth_max = None  # depth_block_max of the z-buffer
        self._depth_origin = None  # (x0, y0) of the z-buffer's window

    def flow_for(self, exemplar, rank, crop_exemplar, crop_target) -> FlowField:
        if self._scene_depth is None:
            window = object_window(self.scene)
            self._scene_depth = scene_depth_map(self.scene, window=window)
            self._depth_max = depth_block_max(self._scene_depth)
            self._depth_origin = window[:2]
        field = oracle_flow(exemplar, crop_exemplar, self.scene, crop_target,
                            self._scene_depth, self._depth_origin, self._depth_max)
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

"""Dense 2D correspondence fields between exemplar crops and target crops.

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
from dataclasses import dataclass, replace

import numpy as np

from .crops import CropTransform, apply_homography, intrinsics_align_matrix
from .errors import (
    BadMagicError,
    ConfigurationError,
    FileFormatError,
    TruncationError,
    VersionMismatchError,
)
from .exemplars import Exemplar, ensure_mesh_binding
from .geometry import CameraIntrinsics, project_camera_points
from .mesh import face_normals
# bench/layers.py patches rasterize here; nothing in this module renders exemplars
from .raster import SceneSpec, rasterize, scene_depth_map  # noqa: F401
from .seeds import derive_seed


@dataclass(eq=False)
class FlowField:
    """Per-pixel crop-frame displacements with a validity mask."""

    du: np.ndarray  # (H, W) float32
    dv: np.ndarray  # (H, W) float32
    valid: np.ndarray  # (H, W) bool

    def __post_init__(self):
        self.du = np.asarray(self.du, dtype=np.float32)
        self.dv = np.asarray(self.dv, dtype=np.float32)
        self.valid = np.asarray(self.valid, dtype=bool)
        if not (self.du.shape == self.dv.shape == self.valid.shape):
            raise ValueError("flow component shapes disagree")
        if self.valid.any() and not (
            np.isfinite(self.du[self.valid]).all()
            and np.isfinite(self.dv[self.valid]).all()
        ):
            raise ValueError("valid flow vectors must be finite")

    @property
    def width(self) -> int:
        return self.du.shape[1]

    @property
    def height(self) -> int:
        return self.du.shape[0]

    def copy(self) -> "FlowField":
        return FlowField(self.du.copy(), self.dv.copy(), self.valid.copy())

    def equals(self, other: "FlowField") -> bool:
        return (
            np.array_equal(self.valid, other.valid)
            and np.array_equal(self.du[self.valid], other.du[other.valid])
            and np.array_equal(self.dv[self.valid], other.dv[other.valid])
        )


@dataclass(frozen=True)
class FlowNoiseSpec:
    """Degradation model applied to oracle flow (all stages seeded)."""

    gaussian_sigma: float = 0.0  # pixels
    outlier_ratio: float = 0.0
    outlier_range: float = 0.0  # pixels, uniform in [-range, range]^2
    dropout_ratio: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.outlier_ratio <= 1.0 and 0.0 <= self.dropout_ratio <= 1.0):
            raise ValueError("ratios must lie in [0, 1]")
        if self.gaussian_sigma < 0 or self.outlier_range < 0:
            raise ValueError("sigma and range must be non-negative")

    @classmethod
    def default_preset(cls, seed: int = 0, dropout_ratio: float = 0.20) -> "FlowNoiseSpec":
        """Documented stand-in for a trained estimator's error profile."""
        return cls(
            gaussian_sigma=1.0,
            outlier_ratio=0.10,
            outlier_range=32.0,
            dropout_ratio=dropout_ratio,
            seed=seed,
        )


def crop_pixel_centers(size: int) -> np.ndarray:
    """(S, S, 2) array of crop pixel centers (col + 0.5, row + 0.5)."""
    cols, rows = np.meshgrid(np.arange(size) + 0.5, np.arange(size) + 0.5)
    return np.stack([cols, rows], axis=-1)


def _axis_cells(coords: np.ndarray, n: int):
    """Left cell, fraction and in-range flag of samples along one image axis."""
    c = coords - 0.5
    c0 = np.floor(c).astype(np.int64)
    inside = (c0 >= 0) & (c0 + 1 <= n - 1)
    c0 = np.clip(c0, 0, n - 2)
    return c0, c - c0, inside


def sample_exemplar(exemplar: Exemplar, crop_exemplar: CropTransform, pixels=None):
    """Bilinear model points of an exemplar at exemplar-crop pixel centers.

    ``pixels`` are flat row-major crop indices in increasing order (every
    crop pixel when None). A sample is kept only when the four exemplar
    pixels around it are all in the mask; pixel centers sit at integer +
    0.5. Returns the kept indices, their (M, 3) float64 model points, and
    the triangle id of the exemplar pixel containing each sample.

    The points are gathered from the stored sparse rows, never from a dense
    map. A crop is a similarity, so a crop pixel's exemplar x depends on its
    column alone and its y on its row alone: the sample grid is two axes.
    """
    size = crop_exemplar.out_size
    axis = np.arange(size) + 0.5
    ex = apply_homography(crop_exemplar.inverse_matrix(), np.stack([axis, axis], axis=-1))
    mask = exemplar.mask()
    x0, fx, x_in = _axis_cells(ex[:, 0], mask.shape[1])
    y0, fy, y_in = _axis_cells(ex[:, 1], mask.shape[0])
    cells = mask[:-1, :-1] & mask[:-1, 1:] & mask[1:, :-1] & mask[1:, 1:]
    if pixels is None:
        ok = cells[np.ix_(y0, x0)] & y_in[:, None] & x_in[None, :]
        pixels = np.flatnonzero(ok)
        rows, cols = np.divmod(pixels, size)
    else:
        rows, cols = np.divmod(pixels, size)
        ok = cells[y0[rows], x0[cols]] & y_in[rows] & x_in[cols]
        pixels, rows, cols = pixels[ok], rows[ok], cols[ok]

    width = mask.shape[1]
    row_of = np.full(mask.size, -1, dtype=np.int32)  # flat exemplar pixel -> stored row
    row_of[mask.reshape(-1)] = np.arange(len(exemplar.points), dtype=np.int32)
    values = exemplar.points.T.astype(np.float64)  # (3, n): one gather per corner
    corner = y0[rows] * width + x0[cols]
    fx, fy = fx[cols], fy[rows]
    weights = ((1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy)
    points = weights[0] * values.take(row_of[corner], axis=1)
    for weight, offset in zip(weights[1:], (1, width, width + 1)):
        points += weight * values.take(row_of[corner + offset], axis=1)
    # the pixel containing the sample is one of the four, so it is in the mask
    holder = np.floor(ex[rows, 1]).astype(np.int64) * width + np.floor(ex[cols, 0]).astype(np.int64)
    return pixels, np.ascontiguousarray(points.T), exemplar.tri[row_of[holder]]


def target_window(
    crop_target: CropTransform, k_render: CameraIntrinsics, k_target: CameraIntrinsics
) -> tuple[int, int, int, int]:
    """Target-image pixels that can map into the target crop.

    Returns half-open bounds (x0, y0, x1, y1) of the crop's preimage under
    the intrinsics alignment, widened by one pixel against rounding and
    clipped to the image; the window is empty when the crop misses it.
    """
    size = crop_target.out_size
    warp = crop_target.matrix @ intrinsics_align_matrix(k_render, k_target)
    corners = apply_homography(np.linalg.inv(warp), np.array([[0.0, 0.0], [size, size]]))
    lo = np.floor(corners.min(axis=0)).astype(np.int64) - 1
    hi = np.ceil(corners.max(axis=0)).astype(np.int64) + 1
    x0, x1 = np.clip([lo[0], hi[0]], 0, k_target.width)
    y0, y1 = np.clip([lo[1], hi[1]], 0, k_target.height)
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
    exemplar mask takes the bilinearly interpolated stored model point and
    the stored triangle id (``sample_exemplar``). The point is projected
    into the target image under ``target_pose``, re-expressed under the
    exemplar camera's intrinsics, and mapped by the target crop. Pixels are
    invalidated when the target pixel leaves the image or the crop, when
    the surface faces away from the target camera, or when the point is
    occluded in the scene (joint z-buffer strictly nearer than the point by
    more than a depth tolerance). Only pixels landing in the crop are depth
    tested, so the z-buffer covers the crop's ``target_window`` alone;
    ``scene_depth``, if given, must be ``scene_depth_map`` over that window.
    No rendering happens here.
    """
    ensure_mesh_binding(exemplar, scene.object_mesh)
    size = crop_exemplar.out_size
    if crop_target.out_size != size:
        raise ConfigurationError(
            f"crop sizes disagree: {size} vs {crop_target.out_size}"
        )

    pixels, points, tri_idx = sample_exemplar(exemplar, crop_exemplar)
    if len(pixels) == 0:
        zero = np.zeros((size, size), dtype=np.float32)
        return FlowField(zero, zero.copy(), np.zeros((size, size), dtype=bool))

    k_target = scene.camera
    q_target = target_pose.transform(points)
    keep = q_target[:, 2] > 0

    u_target = np.zeros((len(points), 2))
    u_target[keep] = project_camera_points(k_target, q_target[keep])
    keep &= (
        (u_target[:, 0] >= 0.0)
        & (u_target[:, 0] < k_target.width)
        & (u_target[:, 1] >= 0.0)
        & (u_target[:, 1] < k_target.height)
    )

    # back-face cull against the target view; triangle orientation is fixed
    # per pixel so that the normal faces the exemplar camera
    n_model = face_normals(scene.object_mesh)[tri_idx]
    q_exemplar = exemplar.pose.transform(points)
    n_exemplar = n_model @ exemplar.pose.rotation.T
    toward_exemplar = np.sum(n_exemplar * q_exemplar, axis=1)
    flip = np.where(toward_exemplar > 0, -1.0, 1.0)
    n_target = (n_model * flip[:, None]) @ target_pose.rotation.T
    keep &= np.sum(n_target * q_target, axis=1) < 0

    warp = crop_target.matrix @ intrinsics_align_matrix(exemplar.camera, k_target)
    u_crop = apply_homography(warp, u_target)
    keep &= (
        (u_crop[:, 0] >= 0.0)
        & (u_crop[:, 0] < size)
        & (u_crop[:, 1] >= 0.0)
        & (u_crop[:, 1] < size)
    )

    x0, y0, x1, y1 = window = target_window(crop_target, exemplar.camera, k_target)
    if scene_depth is None:
        scene_depth = scene_depth_map(scene, window=window)
    if scene_depth.shape != (y1 - y0, x1 - x0):
        raise ValueError(f"scene_depth does not cover the target window {window}")
    eps = max(1e-4, 1e-3 * exemplar.z_bar)
    tested = np.flatnonzero(keep)
    px = np.floor(u_target[tested, 0]).astype(np.int64) - x0
    py = np.floor(u_target[tested, 1]).astype(np.int64) - y0
    keep[tested] = ~(scene_depth[py, px] < q_target[tested, 2] - eps)

    valid_idx = pixels[keep]
    valid = np.zeros(size * size, dtype=bool)
    valid[valid_idx] = True
    rows, cols = np.divmod(valid_idx, size)
    du = np.zeros(size * size, dtype=np.float32)
    dv = np.zeros(size * size, dtype=np.float32)
    du[valid_idx] = (u_crop[keep, 0] - (cols + 0.5)).astype(np.float32)
    dv[valid_idx] = (u_crop[keep, 1] - (rows + 0.5)).astype(np.float32)
    return FlowField(
        du.reshape(size, size), dv.reshape(size, size), valid.reshape(size, size)
    )


def degrade_flow(flow: FlowField, spec: FlowNoiseSpec) -> FlowField:
    """Gaussian noise, outlier replacement, and dropout on valid pixels.

    Stages with zero parameters draw nothing from the generator, so an
    all-zero spec returns a bit-exact copy. Validity only ever shrinks.
    """
    out = flow.copy()
    idx = np.flatnonzero(out.valid.reshape(-1))
    if idx.size == 0:
        return out
    rng = np.random.default_rng(spec.seed)
    du = out.du.reshape(-1)
    dv = out.dv.reshape(-1)

    if spec.gaussian_sigma > 0:
        noise = rng.normal(0.0, spec.gaussian_sigma, size=(idx.size, 2))
        du[idx] += noise[:, 0].astype(np.float32)
        dv[idx] += noise[:, 1].astype(np.float32)

    if spec.outlier_ratio > 0:
        hit = rng.random(idx.size) < spec.outlier_ratio
        n_hit = int(hit.sum())
        if n_hit:
            repl = rng.uniform(-spec.outlier_range, spec.outlier_range, size=(n_hit, 2))
            du[idx[hit]] = repl[:, 0].astype(np.float32)
            dv[idx[hit]] = repl[:, 1].astype(np.float32)

    if spec.dropout_ratio > 0:
        drop = rng.random(idx.size) < spec.dropout_ratio
        valid = out.valid.reshape(-1)
        valid[idx[drop]] = False
        du[idx[drop]] = 0.0
        dv[idx[drop]] = 0.0

    return out


class OracleFlowSource:
    """Flow provider backed by the geometric oracle, optionally degraded.

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
        self._window = None
        self._scene_depth = None

    def flow_for(self, exemplar, rank, crop_exemplar, crop_target) -> FlowField:
        # one z-buffer per target window: a trial's exemplars share it
        window = target_window(crop_target, exemplar.camera, self.scene.camera)
        if window != self._window:
            self._window = window
            self._scene_depth = scene_depth_map(self.scene, window=window)
        field = oracle_flow(
            exemplar, crop_exemplar, self.scene, self.target_pose, crop_target,
            scene_depth=self._scene_depth,
        )
        if self.noise is not None:
            seeded = replace(
                self.noise, seed=derive_seed(self.base_seed, "flow-noise", exemplar.id)
            )
            field = degrade_flow(field, seeded)
        return field


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

MAGIC = b"PFAF"
FORMAT_VERSION = 1


def save_flow(flow: FlowField, path) -> None:
    h, w = flow.valid.shape
    bits = np.packbits(flow.valid.reshape(-1))
    pairs = np.empty((int(flow.valid.sum()), 2), dtype="<f4")
    pairs[:, 0] = flow.du[flow.valid]
    pairs[:, 1] = flow.dv[flow.valid]
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<III", FORMAT_VERSION, w, h))
        f.write(bits.tobytes())
        f.write(pairs.tobytes())


def load_flow(path) -> FlowField:
    with open(path, "rb") as f:
        data = f.read()
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
    bits = np.frombuffer(data[offset : offset + n_bits], dtype=np.uint8)
    valid = np.unpackbits(bits)[: w * h].reshape(h, w).astype(bool)
    offset += n_bits
    n_valid = int(valid.sum())
    need = offset + 8 * n_valid
    if len(data) < need:
        raise TruncationError(need, len(data), "flow vectors")
    if len(data) > need:
        raise FileFormatError("unexpected trailing data after flow vectors")
    pairs = np.frombuffer(data[offset:need], dtype="<f4").reshape(n_valid, 2)
    du = np.zeros((h, w), dtype=np.float32)
    dv = np.zeros((h, w), dtype=np.float32)
    du[valid] = pairs[:, 0]
    dv[valid] = pairs[:, 1]
    return FlowField(du, dv, valid)

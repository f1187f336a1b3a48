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
from .geometry import project_camera_points
from .mesh import face_normals
from .raster import SceneSpec, rasterize, scene_depth_map
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


def bilinear_masked(values: np.ndarray, mask: np.ndarray, pixels: np.ndarray):
    """Bilinear sample (H, W, C) values at continuous pixels with a mask guard.

    A sample is accepted only when all four contributing pixels exist and
    are masked; returns (samples, ok). Pixel centers sit at integer + 0.5.
    """
    h, w = mask.shape
    p = np.asarray(pixels, dtype=np.float64)
    x = p[..., 0] - 0.5
    y = p[..., 1] - 0.5
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    ok = (x0 >= 0) & (y0 >= 0) & (x0 + 1 <= w - 1) & (y0 + 1 <= h - 1)
    x0c = np.clip(x0, 0, w - 2)
    y0c = np.clip(y0, 0, h - 2)
    fx = x - x0c
    fy = y - y0c
    m00 = mask[y0c, x0c]
    m01 = mask[y0c, x0c + 1]
    m10 = mask[y0c + 1, x0c]
    m11 = mask[y0c + 1, x0c + 1]
    ok &= m00 & m01 & m10 & m11
    w00 = (1 - fx) * (1 - fy)
    w01 = fx * (1 - fy)
    w10 = (1 - fx) * fy
    w11 = fx * fy
    v00 = values[y0c, x0c]
    v01 = values[y0c, x0c + 1]
    v10 = values[y0c + 1, x0c]
    v11 = values[y0c + 1, x0c + 1]
    samples = (
        w00[..., None] * v00
        + w01[..., None] * v01
        + w10[..., None] * v10
        + w11[..., None] * v11
    )
    return samples, ok


def crop_pixel_centers(size: int) -> np.ndarray:
    """(S, S, 2) array of crop pixel centers (col + 0.5, row + 0.5)."""
    cols, rows = np.meshgrid(np.arange(size) + 0.5, np.arange(size) + 0.5)
    return np.stack([cols, rows], axis=-1)


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

    For every valid exemplar-crop pixel the stored model point is projected
    into the target image under ``target_pose``, re-expressed under the
    exemplar camera's intrinsics, and mapped by the target crop. Pixels are
    invalidated when the point is occluded in the scene (joint z-buffer
    strictly nearer than the point by more than a depth tolerance), when
    the target pixel leaves the image or the crop, or when the surface
    faces away from the target camera.
    """
    ensure_mesh_binding(exemplar, scene.object_mesh)
    size = crop_exemplar.out_size
    if crop_target.out_size != size:
        raise ConfigurationError(
            f"crop sizes disagree: {size} vs {crop_target.out_size}"
        )

    cmap = exemplar.coordinate_map()
    tri_map = cmap.tri
    if tri_map is None:
        # loaded sets drop triangle ids; re-rendering reproduces them exactly
        tri_map = rasterize(
            scene.object_mesh, exemplar.pose, exemplar.camera, cmap.width
        ).tri

    centers = crop_pixel_centers(size)
    exemplar_px = apply_homography(crop_exemplar.inverse_matrix(), centers)
    points, ok = bilinear_masked(cmap.points, cmap.mask, exemplar_px)

    flat_ok = ok.reshape(-1)
    flat_points = points.reshape(-1, 3)[flat_ok]
    if flat_points.size == 0:
        zero = np.zeros((size, size), dtype=np.float32)
        return FlowField(zero, zero.copy(), np.zeros((size, size), dtype=bool))

    k_target = scene.camera
    q_target = target_pose.transform(flat_points)
    keep = q_target[:, 2] > 0

    u_target = np.zeros((len(flat_points), 2))
    u_target[keep] = project_camera_points(k_target, q_target[keep])
    keep &= (
        (u_target[:, 0] >= 0.0)
        & (u_target[:, 0] < k_target.width)
        & (u_target[:, 1] >= 0.0)
        & (u_target[:, 1] < k_target.height)
    )

    if scene_depth is None:
        scene_depth = scene_depth_map(scene)
    eps = max(1e-4, 1e-3 * exemplar.z_bar)
    px = np.clip(np.floor(u_target[:, 0]).astype(np.int64), 0, k_target.width - 1)
    py = np.clip(np.floor(u_target[:, 1]).astype(np.int64), 0, k_target.height - 1)
    keep &= ~(scene_depth[py, px] < q_target[:, 2] - eps)

    # back-face cull against the target view; triangle orientation is fixed
    # per pixel so that the normal faces the exemplar camera
    normals = face_normals(scene.object_mesh)
    sample_px = exemplar_px.reshape(-1, 2)[flat_ok]
    tx = np.clip(np.floor(sample_px[:, 0]).astype(np.int64), 0, cmap.width - 1)
    ty = np.clip(np.floor(sample_px[:, 1]).astype(np.int64), 0, cmap.height - 1)
    tri_idx = tri_map[ty, tx]
    n_model = normals[np.clip(tri_idx, 0, len(normals) - 1)]
    keep &= tri_idx >= 0
    q_exemplar = exemplar.pose.transform(flat_points)
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

    valid = np.zeros(size * size, dtype=bool)
    valid_idx = np.flatnonzero(flat_ok)[keep]
    valid[valid_idx] = True
    du = np.zeros(size * size, dtype=np.float32)
    dv = np.zeros(size * size, dtype=np.float32)
    flat_centers = centers.reshape(-1, 2)
    du[valid_idx] = (u_crop[keep, 0] - flat_centers[valid_idx, 0]).astype(np.float32)
    dv[valid_idx] = (u_crop[keep, 1] - flat_centers[valid_idx, 1]).astype(np.float32)
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
        self._scene_depth = None

    def flow_for(self, exemplar, rank, crop_exemplar, crop_target) -> FlowField:
        if self._scene_depth is None:
            self._scene_depth = scene_depth_map(self.scene)
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

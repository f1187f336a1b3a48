"""2D similarity crops and cross-camera pixel alignment.

A crop maps the padded square bounding box of an object's projected
vertices onto a fixed-size frame. Crops are pure coordinate transforms:
no image resampling happens anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError
from .geometry import CameraIntrinsics, RigidPose, project_points
from .mesh import MeshModel

DEFAULT_CROP_SIZE = 256
DEFAULT_CROP_PAD = 1.2


@dataclass(frozen=True, eq=False)
class CropTransform:
    """Homogeneous 2D similarity (uniform scale + translation, no rotation)."""

    matrix: np.ndarray
    out_size: int

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.float64)
        if m.shape != (3, 3):
            raise ValueError("crop matrix must be 3x3")
        if not np.array_equal(m[2], [0.0, 0.0, 1.0]):
            raise ValueError("crop matrix bottom row must be (0, 0, 1)")
        s = m[0, 0]
        if not (s > 0 and m[1, 1] == s and m[0, 1] == 0.0 and m[1, 0] == 0.0):
            raise ValueError("crop matrix must be s*I plus translation with s > 0")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "out_size", int(self.out_size))

    @property
    def scale(self) -> float:
        return float(self.matrix[0, 0])

    def apply(self, pixels: np.ndarray) -> np.ndarray:
        return apply_homography(self.matrix, pixels)

    def apply_inverse(self, pixels: np.ndarray) -> np.ndarray:
        return apply_homography(np.linalg.inv(self.matrix), pixels)

    def inverse_matrix(self) -> np.ndarray:
        return np.linalg.inv(self.matrix)

    @classmethod
    def identity(cls, out_size: int) -> "CropTransform":
        return cls(np.eye(3), out_size)


def apply_homography(matrix: np.ndarray, pixels) -> np.ndarray:
    """Apply a 3x3 homogeneous transform to (..., 2) pixel coordinates."""
    p = np.asarray(pixels, dtype=np.float64)
    return np.stack(homography_xy(matrix, p[..., 0], p[..., 1]), axis=-1)


def homography_xy(matrix: np.ndarray, x, y):
    """``apply_homography`` on separate x and y arrays; returns (x', y')."""
    u = matrix[0, 0] * x + matrix[0, 1] * y + matrix[0, 2]
    v = matrix[1, 0] * x + matrix[1, 1] * y + matrix[1, 2]
    w = matrix[2, 0] * x + matrix[2, 1] * y + matrix[2, 2]
    return u / w, v / w


def compute_crop(
    pose: RigidPose,
    camera: CameraIntrinsics,
    mesh: MeshModel,
    out_size: int = DEFAULT_CROP_SIZE,
    pad: float = DEFAULT_CROP_PAD,
) -> CropTransform:
    """Crop transform sending the object's padded square bbox to [0, out_size).

    The square side is ``pad * max(bbox_width, bbox_height)`` centered on the
    bbox center; with pad >= 1 every projected vertex lands inside the crop.
    """
    uv = project_points(camera, pose, mesh.vertices)
    lo = uv.min(axis=0)
    hi = uv.max(axis=0)
    side = pad * float(max(hi[0] - lo[0], hi[1] - lo[1]))
    if not side > 1e-9:
        raise DegeneracyError("projected mesh collapses to a point; cannot crop")
    scale = out_size / side
    center = (lo + hi) / 2.0
    origin = center - side / 2.0
    matrix = np.array(
        [
            [scale, 0.0, -scale * origin[0]],
            [0.0, scale, -scale * origin[1]],
            [0.0, 0.0, 1.0],
        ]
    )
    return CropTransform(matrix, out_size)


def intrinsics_align_matrix(k_render: CameraIntrinsics, k_target: CameraIntrinsics) -> np.ndarray:
    """Matrix mapping target-camera pixels into the render-camera convention."""
    return k_render.matrix @ k_target.inverse_matrix


def align_intrinsics(pixel, k_render: CameraIntrinsics, k_target: CameraIntrinsics) -> np.ndarray:
    """Re-express a target-image pixel under the render camera's intrinsics."""
    return apply_homography(intrinsics_align_matrix(k_render, k_target), pixel)


def lift_to_image(
    crop_pixel,
    crop: CropTransform,
    k_render: CameraIntrinsics,
    k_target: CameraIntrinsics,
) -> np.ndarray:
    """Map crop-frame pixels back to the original target image.

    Inverts the crop and then the intrinsics alignment, i.e. applies
    (K_target @ K_render^-1) @ crop_matrix^-1.
    """
    back = k_target.matrix @ k_render.inverse_matrix @ crop.inverse_matrix()
    return apply_homography(back, crop_pixel)

"""Rigid-body poses, pinhole projection, rotation sampling, and pose jitter.

Conventions used throughout the package:

* continuous image coordinates have their origin at the top-left corner
  of the image; pixel (row i, col j) covers [j, j+1) x [i, i+1) and has
  center (j + 0.5, i + 0.5)
* points map into the camera frame as ``q = R @ p + t``; the camera looks
  along +z, so visible points have q[2] > 0
* angles are degrees, lengths are meters, image quantities are pixels
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BehindCameraError

ORTHONORMAL_TOL = 1e-9


def _validated_rotation(matrix) -> np.ndarray:
    r = np.array(matrix, dtype=np.float64)
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {r.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite is rejected below
        ortho = float(np.abs(r.T @ r - np.eye(3)).max())
    if not ortho < ORTHONORMAL_TOL:
        raise ValueError(f"rotation not orthonormal: max|R^T R - I| = {ortho:.3e}")
    det = float(np.linalg.det(r))
    if not abs(det - 1.0) < ORTHONORMAL_TOL:
        raise ValueError(f"rotation determinant {det:.12f}, expected +1")
    return r


@dataclass(frozen=True, eq=False)
class RigidPose:
    """A 6D pose: orthonormal rotation (det +1) and translation in meters."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = _validated_rotation(self.rotation)
        t = np.array(self.translation, dtype=np.float64).reshape(3)
        r.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Map model-frame points of shape (..., 3) into the camera frame."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    @classmethod
    def identity(cls) -> "RigidPose":
        return cls(np.eye(3), np.zeros(3))


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics: focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not (self.width > 0 and self.height > 0):
            raise ValueError("image size must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )

    @property
    def inverse_matrix(self) -> np.ndarray:
        return np.array(
            [
                [1.0 / self.fx, 0.0, -self.cx / self.fx],
                [0.0, 1.0 / self.fy, -self.cy / self.fy],
                [0.0, 0.0, 1.0],
            ]
        )


def project_points(camera: CameraIntrinsics, pose: RigidPose, points) -> np.ndarray:
    """Project (N, 3) model-frame points; all must be in front of the camera."""
    q = pose.transform(np.asarray(points, dtype=np.float64).reshape(-1, 3))
    z = q[:, 2]
    if z.size and not np.all(z > 0):
        raise BehindCameraError(
            f"{int(np.sum(z <= 0))} of {z.size} points have non-positive depth"
        )
    return project_camera_points(camera, q)


def project_camera_points(camera: CameraIntrinsics, q: np.ndarray) -> np.ndarray:
    """Project camera-frame points (..., 3) without depth checks."""
    q = np.asarray(q, dtype=np.float64)
    z = q[..., 2]
    return np.stack(
        [camera.fx * q[..., 0] / z + camera.cx, camera.fy * q[..., 1] / z + camera.cy],
        axis=-1,
    )


def backproject(camera: CameraIntrinsics, pixel, depth: float) -> np.ndarray:
    """Invert projection at a known depth, returning a camera-frame point."""
    u, v = float(pixel[0]), float(pixel[1])
    return np.array(
        [(u - camera.cx) / camera.fx * depth, (v - camera.cy) / camera.fy * depth, depth]
    )


_TWO_SQRT2 = 2.0 * np.sqrt(2.0)


def geodesic_distance(ra, rb) -> float:
    """Angle in degrees of the relative rotation between two orientations.

    Uses |Ra - Rb|_F = 2 sqrt(2) sin(angle/2) below 90 degrees, which is
    exact for identical inputs and accurate near zero where the arccos of
    the trace loses half the floating-point precision.
    """
    a = np.asarray(ra, dtype=np.float64)
    b = np.asarray(rb, dtype=np.float64)
    diff = float(np.linalg.norm(a - b))
    if diff < 2.0:  # angle below 90 degrees
        angle = 2.0 * np.arcsin(np.clip(diff / _TWO_SQRT2, 0.0, 1.0))
    else:
        trace = float(np.sum(a * b))  # trace(a^T b)
        angle = np.arccos(np.clip((trace - 1.0) / 2.0, -1.0, 1.0))
    return float(np.degrees(angle))


def angles_from_traces(traces: np.ndarray) -> np.ndarray:
    """Relative-rotation angles (degrees) from trace(Ra^T Rb) values."""
    traces = np.asarray(traces, dtype=np.float64)
    # |Ra - Rb|_F^2 = 6 - 2 trace
    diff = np.sqrt(np.clip(6.0 - 2.0 * traces, 0.0, None))
    small = traces > 1.0
    angles = np.where(
        small,
        2.0 * np.arcsin(np.clip(diff / _TWO_SQRT2, 0.0, 1.0)),
        np.arccos(np.clip((traces - 1.0) / 2.0, -1.0, 1.0)),
    )
    return np.degrees(angles)


def geodesic_distances(rotations: np.ndarray, reference) -> np.ndarray:
    """Vectorized geodesic distance of (N, 3, 3) rotations to one reference."""
    rs = np.asarray(rotations, dtype=np.float64).reshape(-1, 9)
    ref = np.asarray(reference, dtype=np.float64).reshape(9)
    return angles_from_traces(rs @ ref)


def rotation_about_axis(axis, angle_deg: float) -> np.ndarray:
    """Rodrigues rotation about a (not necessarily unit) axis."""
    a = np.asarray(axis, dtype=np.float64).reshape(3)
    norm = np.linalg.norm(a)
    if norm == 0:
        raise ValueError("rotation axis must be non-zero")
    a = a / norm
    theta = np.radians(angle_deg)
    k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def rotation_from_rotvec(rotvec) -> np.ndarray:
    """Exponential map of an axis-angle vector (radians)."""
    w = np.asarray(rotvec, dtype=np.float64).reshape(3)
    theta = np.linalg.norm(w)
    if theta < 1e-12:
        # second-order series keeps tiny Gauss-Newton steps exact enough
        k = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
        return np.eye(3) + k + 0.5 * (k @ k)
    return rotation_about_axis(w / theta, np.degrees(theta))


def quaternions_to_matrices(q: np.ndarray) -> np.ndarray:
    """Convert unit quaternions (N, 4), scalar first, to (N, 3, 3) matrices."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    m = np.empty((len(q), 3, 3))
    m[:, 0, 0] = 1 - 2 * (y * y + z * z)
    m[:, 0, 1] = 2 * (x * y - w * z)
    m[:, 0, 2] = 2 * (x * z + w * y)
    m[:, 1, 0] = 2 * (x * y + w * z)
    m[:, 1, 1] = 1 - 2 * (x * x + z * z)
    m[:, 1, 2] = 2 * (y * z - w * x)
    m[:, 2, 0] = 2 * (x * z - w * y)
    m[:, 2, 1] = 2 * (y * z + w * x)
    m[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return m


def sample_rotations(count: int, seed: int) -> np.ndarray:
    """Draw ``count`` rotations uniformly (Haar measure) on SO(3).

    Unit quaternions are sampled by normalizing 4D Gaussians, which is
    exactly uniform. Deterministic for a fixed seed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(count, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return quaternions_to_matrices(q)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """One Haar-uniform rotation from an existing generator."""
    q = rng.normal(size=(1, 4))
    q /= np.linalg.norm(q)
    return quaternions_to_matrices(q)[0]


def pose_jitter(
    pose: RigidPose,
    camera: CameraIntrinsics,
    mesh,
    max_rot_deg: float,
    max_reproj_px: float,
    seed: int,
) -> RigidPose:
    """Perturb a pose by a bounded rotation and a bounded reprojection shift.

    The rotation is composed on the left, so the geodesic distance between
    input and output is exactly the sampled angle (<= ``max_rot_deg``). The
    translation is chosen by moving the mesh centroid's projection by a
    sampled pixel offset (<= ``max_reproj_px``) and back-projecting at the
    centroid's unchanged depth, so the pixel bound is exact.
    """
    if max_rot_deg < 0 or max_reproj_px < 0:
        raise ValueError("jitter bounds must be non-negative")
    rng = np.random.default_rng(seed)

    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, max_rot_deg)
    delta_r = rotation_about_axis(axis, angle)

    phi = rng.uniform(0.0, 2.0 * np.pi)
    radius = max_reproj_px * np.sqrt(rng.uniform(0.0, 1.0))
    offset = radius * np.array([np.cos(phi), np.sin(phi)])

    centroid = mesh.centroid
    c_cam = pose.transform(centroid)
    if not c_cam[2] > 0:
        raise BehindCameraError("mesh centroid is behind the camera")
    u0 = project_camera_points(camera, c_cam[None, :])[0]
    c_new = backproject(camera, u0 + offset, c_cam[2])

    rotation = delta_r @ pose.rotation
    translation = c_new - rotation @ centroid
    return RigidPose(rotation, translation)

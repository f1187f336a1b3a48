"""Shared test utilities: independent oracles and synthetic geometry."""

from __future__ import annotations

import numpy as np

from pfa.geometry import CameraIntrinsics, RigidPose
from pfa.mesh import MeshModel
from pfa.raster import rasterize


def crop_pixel_centers(size: int) -> np.ndarray:
    """(S, S, 2) array of crop pixel centers (col + 0.5, row + 0.5)."""
    cols, rows = np.meshgrid(np.arange(size) + 0.5, np.arange(size) + 0.5)
    return np.stack([cols, rows], axis=-1)


def rasterize_scene(scene, out_size=None):
    """Render the target object and compute its occlusion-aware visibility.

    Returns the object's CoordinateMap and a boolean visibility mask that
    is False exactly where some occluder is strictly nearer than the
    object surface.
    """
    if out_size is None:
        out_size = (scene.camera.width, scene.camera.height)
    cmap = rasterize(scene.object_mesh, scene.object_pose, scene.camera, out_size)
    occluder_depth = np.full(cmap.depth.shape, np.inf)
    for mesh, pose in scene.occluders:
        np.minimum(occluder_depth, rasterize(mesh, pose, scene.camera, out_size).depth,
                   out=occluder_depth)
    return cmap, cmap.mask & ~(occluder_depth < cmap.depth)


def ray_trace_reference(mesh: MeshModel, pose: RigidPose, camera: CameraIntrinsics, size):
    """Brute-force per-pixel ray/triangle intersection (depth oracle).

    Casts a ray through every pixel center and intersects it with every
    triangle (Moller-Trumbore), keeping the smallest positive depth. This
    is the O(pixels x triangles) reference the rasterizer must match.
    """
    if np.isscalar(size):
        width = height = int(size)
    else:
        width, height = (int(s) for s in size)
    cam_v = pose.transform(mesh.vertices)
    a = cam_v[mesh.triangles[:, 0]]
    e1 = cam_v[mesh.triangles[:, 1]] - a
    e2 = cam_v[mesh.triangles[:, 2]] - a

    depth = np.full((height, width), np.inf)
    for row in range(height):
        for col in range(width):
            direction = np.array(
                [
                    (col + 0.5 - camera.cx) / camera.fx,
                    (row + 0.5 - camera.cy) / camera.fy,
                    1.0,
                ]
            )
            pvec = np.cross(direction, e2)
            det = np.einsum("ij,ij->i", e1, pvec)
            ok = np.abs(det) > 1e-15
            inv_det = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
            tvec = -a
            u = np.einsum("ij,ij->i", tvec, pvec) * inv_det
            qvec = np.cross(tvec, e1)
            v = (qvec @ direction) * inv_det
            t = np.einsum("ij,ij->i", e2, qvec) * inv_det
            hit = ok & (u >= 0) & (v >= 0) & (u + v <= 1) & (t > 1e-9)
            if hit.any():
                depth[row, col] = t[hit].min()
    return np.isfinite(depth), depth


def random_small_mesh(rng: np.random.Generator, n_triangles: int = 12) -> MeshModel:
    """Random triangle soup in front of the camera, non-degenerate."""
    while True:
        vertices = rng.uniform(-0.5, 0.5, size=(max(4, n_triangles), 3))
        vertices[:, 2] += 2.0
        triangles = []
        for _ in range(n_triangles):
            tri = rng.choice(len(vertices), size=3, replace=False)
            a, b, c = vertices[tri]
            if np.linalg.norm(np.cross(b - a, c - a)) > 1e-6:
                triangles.append(tri)
        if len(triangles) >= 1:
            try:
                return MeshModel(vertices, np.array(triangles))
            except Exception:
                continue


def random_pose(rng: np.random.Generator, depth: float = 1.0) -> RigidPose:
    from pfa.geometry import random_rotation

    lateral = rng.uniform(-0.05, 0.05, size=2)
    return RigidPose(
        random_rotation(rng), [lateral[0], lateral[1], depth * rng.uniform(0.9, 1.1)]
    )


def reprojection_residual_max(cmap, pose: RigidPose, camera: CameraIntrinsics) -> float:
    """Largest distance between masked-pixel centers and their reprojection."""
    from pfa.geometry import project_points

    ys, xs = np.nonzero(cmap.mask)
    if len(xs) == 0:
        return 0.0
    uv = project_points(camera, pose, cmap.points[cmap.mask])
    centers = np.stack([xs + 0.5, ys + 0.5], axis=1)
    return float(np.linalg.norm(uv - centers, axis=1).max())


# ---------------------------------------------------------------------------
# Dense reference for the flow oracle and lifting
# ---------------------------------------------------------------------------
#
# The straightforward algorithm the package's sparse sampler must reproduce
# bit for bit: materialize the exemplar's dense coordinate map, bilinearly
# sample every crop pixel, re-render the exemplar for its triangle ids and
# z-buffer the whole target image.


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
    ok &= mask[y0c, x0c] & mask[y0c, x0c + 1] & mask[y0c + 1, x0c] & mask[y0c + 1, x0c + 1]
    w00 = (1 - fx) * (1 - fy)
    w01 = fx * (1 - fy)
    w10 = (1 - fx) * fy
    w11 = fx * fy
    samples = (
        w00[..., None] * values[y0c, x0c]
        + w01[..., None] * values[y0c, x0c + 1]
        + w10[..., None] * values[y0c + 1, x0c]
        + w11[..., None] * values[y0c + 1, x0c + 1]
    )
    return samples, ok


def dense_oracle_flow(exemplar, crop_exemplar, scene, target_pose, crop_target):
    """Reference ground-truth flow over the full crop grid and full image."""
    from pfa.crops import apply_homography, intrinsics_align_matrix
    from pfa.flow import FlowField
    from pfa.geometry import project_camera_points
    from pfa.mesh import face_normals
    from pfa.raster import rasterize, scene_depth_map

    size = crop_exemplar.out_size
    cmap = exemplar.coordinate_map()
    tri_map = rasterize(scene.object_mesh, exemplar.pose, exemplar.camera, cmap.width).tri

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

    scene_depth = scene_depth_map(scene)
    eps = max(1e-4, 1e-3 * exemplar.z_bar)
    px = np.clip(np.floor(u_target[:, 0]).astype(np.int64), 0, k_target.width - 1)
    py = np.clip(np.floor(u_target[:, 1]).astype(np.int64), 0, k_target.height - 1)
    keep &= ~(scene_depth[py, px] < q_target[:, 2] - eps)

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


def dense_lift(exemplar, flow, crop_exemplar, crop_target, target_camera):
    """Reference lifting: (points, pixels) arrays over the dense exemplar map."""
    from pfa.correspond import IMAGE_MARGIN
    from pfa.crops import apply_homography

    valid = flow.valid
    centers = crop_pixel_centers(crop_exemplar.out_size)[valid]
    cmap = exemplar.coordinate_map()
    exemplar_px = apply_homography(crop_exemplar.inverse_matrix(), centers)
    points, ok = bilinear_masked(cmap.points, cmap.mask, exemplar_px)
    displaced = centers + np.stack(
        [flow.du[valid].astype(np.float64), flow.dv[valid].astype(np.float64)], axis=-1
    )
    back = (
        target_camera.matrix
        @ exemplar.camera.inverse_matrix
        @ crop_target.inverse_matrix()
    )
    lifted = apply_homography(back, displaced)
    mx = IMAGE_MARGIN * target_camera.width
    my = IMAGE_MARGIN * target_camera.height
    ok &= (
        (lifted[:, 0] >= -mx)
        & (lifted[:, 0] < target_camera.width + mx)
        & (lifted[:, 1] >= -my)
        & (lifted[:, 1] < target_camera.height + my)
    )
    return points[ok].reshape(-1, 3), lifted[ok].reshape(-1, 2)

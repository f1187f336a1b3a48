"""Z-buffer triangle rasterization into per-pixel model-coordinate maps.

The rasterizer samples triangles at pixel centers (col + 0.5, row + 0.5),
resolves visibility with a z-buffer, and stores for every covered pixel the
perspective-correct interpolated model-frame point, its camera depth and
the index of the winning triangle. Coverage uses a top-left fill rule so triangles
sharing an edge never both claim a pixel. Depth ties closer than 1e-9 m
keep the lower triangle index, which makes output independent of nothing
but the inputs.

Triangles with any vertex at depth <= 1e-9 m are dropped whole (no near
plane clipping); objects fully behind the camera rasterize to an empty
mask rather than an error.

Scene z-buffers (``scene_depth_map``) run the same triangle loop for depth
alone and may be limited to a pixel window of the image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .geometry import CameraIntrinsics, RigidPose
from .mesh import MeshModel

DEPTH_TIE = 1e-9
NEAR_CLIP = 1e-9


@dataclass(eq=False)
class CoordinateMap:
    """Per-pixel geometry buffers for one rendered view.

    mask is True exactly where depth is finite and positive and the points
    entry is valid; elsewhere points are NaN, depth is +inf and ``tri`` (the
    winning triangle index) is -1. Exemplar sets persist ``tri`` with the
    points.
    """

    width: int
    height: int
    points: np.ndarray  # (H, W, 3)
    depth: np.ndarray  # (H, W)
    mask: np.ndarray  # (H, W) bool
    tri: np.ndarray  # (H, W) int32


@dataclass(frozen=True, eq=False)
class SceneSpec:
    """A target object plus occluders viewed by one camera.

    The scene image is the camera's full width x height. Every mesh must
    lie wholly in front of the camera (``ConfigurationError`` otherwise).
    """

    object_mesh: MeshModel
    object_pose: RigidPose
    occluders: tuple  # of (MeshModel, RigidPose)
    camera: CameraIntrinsics

    def __post_init__(self):
        object.__setattr__(self, "occluders", tuple(self.occluders))
        for mesh, pose in ((self.object_mesh, self.object_pose), *self.occluders):
            min_depth = pose.transform(mesh.vertices)[:, 2].min()
            if not min_depth > 0:
                raise ConfigurationError(
                    f"scene mesh reaches depth {min_depth:.6g}; all meshes must be "
                    "fully in front of the camera"
                )


def rasterize(
    mesh: MeshModel, pose: RigidPose, camera: CameraIntrinsics, size: int
) -> CoordinateMap:
    """Render a mesh into a square CoordinateMap of ``size`` x ``size`` pixels."""
    depth = np.full((size, size), np.inf)
    points = np.full((size, size, 3), np.nan)
    tri = np.full((size, size), -1, dtype=np.int32)
    _z_buffer(mesh, pose, camera, (0, 0, size, size), depth, (points, tri))
    mask = np.isfinite(depth)
    return CoordinateMap(size, size, points, depth, mask, tri)


def _z_buffer(mesh, pose, camera, window, depth, attributes=None):
    """Draw the mesh's triangles, in index order, into a window's z-buffer.

    ``window`` is (x0, y0, x1, y1), half-open pixel bounds of the image;
    ``depth`` and the optional (points, tri) buffers cover exactly
    that window. Pixels are sampled at their image coordinates, so a
    window holds the same values as the full image has there.
    """
    cam = pose.transform(mesh.vertices)
    z = cam[:, 2]
    usable = z > NEAR_CLIP

    uv = np.zeros((len(cam), 2))
    np.divide(cam[:, 0], z, out=uv[:, 0], where=usable)
    np.divide(cam[:, 1], z, out=uv[:, 1], where=usable)
    uv[:, 0] = camera.fx * uv[:, 0] + camera.cx
    uv[:, 1] = camera.fy * uv[:, 1] + camera.cy

    for index in range(len(mesh.triangles)):
        ia, ib, ic = mesh.triangles[index]
        if not (usable[ia] and usable[ib] and usable[ic]):
            continue
        _raster_triangle(
            index,
            (int(ia), int(ib), int(ic)),
            uv,
            z,
            mesh.vertices,
            window,
            depth,
            attributes,
        )


def _edge(p, q, x, y):
    return (q[0] - p[0]) * (y - p[1]) - (q[1] - p[1]) * (x - p[0])


def _top_left(p, q) -> bool:
    dx, dy = q[0] - p[0], q[1] - p[1]
    return dy < 0 or (dy == 0 and dx > 0)


def _raster_triangle(
    index, vids, uv, z, model_vertices, window, depth, attributes,
):
    ia, ib, ic = vids
    pa, pb, pc = uv[ia], uv[ib], uv[ic]
    area2 = _edge(pa, pb, pc[0], pc[1])
    if area2 == 0.0:
        return
    if area2 < 0.0:
        ib, ic = ic, ib
        pb, pc = pc, pb
        area2 = -area2

    xs_min = min(pa[0], pb[0], pc[0])
    xs_max = max(pa[0], pb[0], pc[0])
    ys_min = min(pa[1], pb[1], pc[1])
    ys_max = max(pa[1], pb[1], pc[1])
    # pixel centers j + 0.5 inside [xs_min, xs_max]
    wx0, wy0, wx1, wy1 = window
    x0 = max(wx0, int(np.ceil(xs_min - 0.5)))
    x1 = min(wx1 - 1, int(np.floor(xs_max - 0.5)))
    y0 = max(wy0, int(np.ceil(ys_min - 0.5)))
    y1 = min(wy1 - 1, int(np.floor(ys_max - 0.5)))
    if x0 > x1 or y0 > y1:
        return

    xs = np.arange(x0, x1 + 1) + 0.5
    ys = np.arange(y0, y1 + 1) + 0.5
    gx, gy = np.meshgrid(xs, ys)

    wa = _edge(pb, pc, gx, gy)
    wb = _edge(pc, pa, gx, gy)
    wc = _edge(pa, pb, gx, gy)
    cover = (
        ((wa > 0) | ((wa == 0) & _top_left(pb, pc)))
        & ((wb > 0) | ((wb == 0) & _top_left(pc, pa)))
        & ((wc > 0) | ((wc == 0) & _top_left(pa, pb)))
    )
    if not cover.any():
        return

    la = wa / area2
    lb = wb / area2
    lc = wc / area2
    za, zb, zc = z[ia], z[ib], z[ic]
    inv_z = la / za + lb / zb + lc / zc
    z_pix = 1.0 / inv_z

    block = (slice(y0 - wy0, y1 - wy0 + 1), slice(x0 - wx0, x1 - wx0 + 1))
    update = cover & (z_pix < depth[block] - DEPTH_TIE)
    if not update.any():
        return
    depth[block][update] = z_pix[update]
    if attributes is None:
        return

    va, vb, vc = model_vertices[ia], model_vertices[ib], model_vertices[ic]
    interp = (
        la[..., None] * (va / za)
        + lb[..., None] * (vb / zb)
        + lc[..., None] * (vc / zc)
    ) * z_pix[..., None]

    points, tri = attributes
    points[block][update] = interp[update]
    tri[block][update] = index


def scene_depth_map(scene: SceneSpec, window=None) -> np.ndarray:
    """Joint z-buffer over the object and every occluder, depth only.

    ``window`` (x0, y0, x1, y1) limits rendering to those half-open pixel
    bounds of the scene camera's image (default: the whole image); the
    result covers just the window and equals the full z-buffer there. Each
    mesh is resolved in a buffer of its own, and the result is their
    per-pixel minimum.
    """
    if window is None:
        window = (0, 0, scene.camera.width, scene.camera.height)
    x0, y0, x1, y1 = window
    joint = np.full((y1 - y0, x1 - x0), np.inf)
    for mesh, pose in ((scene.object_mesh, scene.object_pose), *scene.occluders):
        layer = np.full(joint.shape, np.inf)
        _z_buffer(mesh, pose, scene.camera, window, layer)
        np.minimum(joint, layer, out=joint)
    return joint

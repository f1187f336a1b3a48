"""Shared test utilities: independent oracles and synthetic geometry."""

from __future__ import annotations

import struct
from typing import NamedTuple

import numpy as np

from pfa.exemplars import Exemplar, MaskWindow
from pfa.flow import OracleFlowSource
from pfa.geometry import CameraIntrinsics, RigidPose
from pfa.mesh import MeshModel, make_box
from pfa.raster import DEPTH_TIE, NEAR_CLIP, CoordinateMap, rasterize


def crop_pixel_centers(size: int) -> np.ndarray:
    """(S, S, 2) array of crop pixel centers (col + 0.5, row + 0.5)."""
    cols, rows = np.meshgrid(np.arange(size) + 0.5, np.arange(size) + 0.5)
    return np.stack([cols, rows], axis=-1)


def rasterize_scene(scene, out_size):
    """Render the target object and compute its occlusion-aware visibility.

    Returns the object's CoordinateMap and a boolean visibility mask that
    is False exactly where some occluder is strictly nearer than the
    object surface.
    """
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


# ---------------------------------------------------------------------------
# Per-triangle reference rasterizer
# ---------------------------------------------------------------------------
#
# The straightforward z-buffer the vectorized rasterizer must reproduce bit
# for bit: triangles drawn one at a time in index order, each over its
# whole bounding box, with every buffer dense.


def reference_rasterize(mesh, pose, camera, size) -> CoordinateMap:
    """Render a square CoordinateMap one triangle at a time."""
    depth = np.full((size, size), np.inf)
    points = np.full((size, size, 3), np.nan)
    tri = np.full((size, size), -1, dtype=np.int32)
    reference_z_buffer(mesh, pose, camera, (0, 0, size, size), depth, (points, tri))
    return CoordinateMap(size, size, points, depth, np.isfinite(depth), tri)


def reference_scene_depth_map(scene, window=None) -> np.ndarray:
    """Per-mesh reference z-buffers of a scene, joined by per-pixel minimum."""
    if window is None:
        window = (0, 0, scene.camera.width, scene.camera.height)
    x0, y0, x1, y1 = window
    joint = np.full((y1 - y0, x1 - x0), np.inf)
    for mesh, pose in ((scene.object_mesh, scene.object_pose), *scene.occluders):
        layer = np.full(joint.shape, np.inf)
        reference_z_buffer(mesh, pose, scene.camera, window, layer)
        np.minimum(joint, layer, out=joint)
    return joint


def reference_z_buffer(mesh, pose, camera, window, depth, attributes=None):
    """Draw the mesh's triangles, in index order, into a window's z-buffer.

    ``window`` is (x0, y0, x1, y1), half-open pixel bounds of the image;
    ``depth`` and the optional (points, tri) buffers cover exactly that
    window.
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
        if usable[ia] and usable[ib] and usable[ic]:
            _reference_triangle(
                index, (int(ia), int(ib), int(ic)), uv, z, mesh.vertices, window,
                depth, attributes,
            )


def _edge(p, q, x, y):
    return (q[0] - p[0]) * (y - p[1]) - (q[1] - p[1]) * (x - p[0])


def _top_left(p, q) -> bool:
    dx, dy = q[0] - p[0], q[1] - p[1]
    return dy < 0 or (dy == 0 and dx > 0)


def _reference_triangle(index, vids, uv, z, model_vertices, window, depth, attributes):
    ia, ib, ic = vids
    pa, pb, pc = uv[ia], uv[ib], uv[ic]
    area2 = _edge(pa, pb, pc[0], pc[1])
    if area2 == 0.0:
        return
    if area2 < 0.0:
        ib, ic = ic, ib
        pb, pc = pc, pb
        area2 = -area2

    wx0, wy0, wx1, wy1 = window
    # pixel centers j + 0.5 inside the triangle's bounding box
    x0 = max(wx0, int(np.ceil(min(pa[0], pb[0], pc[0]) - 0.5)))
    x1 = min(wx1 - 1, int(np.floor(max(pa[0], pb[0], pc[0]) - 0.5)))
    y0 = max(wy0, int(np.ceil(min(pa[1], pb[1], pc[1]) - 0.5)))
    y1 = min(wy1 - 1, int(np.floor(max(pa[1], pb[1], pc[1]) - 0.5)))
    if x0 > x1 or y0 > y1:
        return

    gx, gy = np.meshgrid(np.arange(x0, x1 + 1) + 0.5, np.arange(y0, y1 + 1) + 0.5)
    wa = _edge(pb, pc, gx, gy)
    wb = _edge(pc, pa, gx, gy)
    wc = _edge(pa, pb, gx, gy)
    cover = (
        ((wa > 0) | ((wa == 0) & _top_left(pb, pc)))
        & ((wb > 0) | ((wb == 0) & _top_left(pc, pa)))
        & ((wc > 0) | ((wc == 0) & _top_left(pa, pb)))
    )
    la = wa / area2
    lb = wb / area2
    lc = wc / area2
    za, zb, zc = z[ia], z[ib], z[ic]
    z_pix = 1.0 / (la / za + lb / zb + lc / zc)

    block = (slice(y0 - wy0, y1 - wy0 + 1), slice(x0 - wx0, x1 - wx0 + 1))
    update = cover & (z_pix < depth[block] - DEPTH_TIE)
    depth[block][update] = z_pix[update]
    if attributes is None:
        return
    va, vb, vc = model_vertices[ia], model_vertices[ib], model_vertices[ic]
    interp = (
        la[..., None] * (va / za) + lb[..., None] * (vb / zb) + lc[..., None] * (vc / zc)
    ) * z_pix[..., None]
    points, tri = attributes
    points[block][update] = interp[update]
    tri[block][update] = index


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
# Dense reference for the flow oracle, degradation, flow files and lifting
# ---------------------------------------------------------------------------
#
# The straightforward algorithms the package's sparse code must reproduce
# bit for bit: flow lives in dense (H, W) du/dv/valid buffers, the oracle
# materializes the exemplar's dense coordinate map, bilinearly samples
# every crop pixel, re-renders the exemplar for its triangle ids and
# z-buffers the whole target image, and lifting gathers every model point
# before subsampling thins the sets.


class DenseFlow(NamedTuple):
    du: np.ndarray  # (H, W) float32, zero where invalid
    dv: np.ndarray  # (H, W) float32, zero where invalid
    valid: np.ndarray  # (H, W) bool


def dense_view(field) -> DenseFlow:
    """The dense buffers of a sparse FlowField."""
    valid = field.valid
    du = np.zeros(valid.shape, dtype=np.float32)
    dv = np.zeros(valid.shape, dtype=np.float32)
    du[valid], dv[valid] = field.vectors[:, 0], field.vectors[:, 1]
    return DenseFlow(du, dv, valid)


def sparse_field(du, dv, valid):
    """A FlowField holding the valid entries of dense buffers."""
    from pfa.flow import FlowField

    valid = np.asarray(valid, dtype=bool)
    vectors = np.stack([np.asarray(du)[valid], np.asarray(dv)[valid]], axis=-1)
    return FlowField(valid.shape[1], valid.shape[0], np.flatnonzero(valid), vectors)


def same_flow(field, dense: DenseFlow) -> bool:
    """Bit-exact equality of a sparse field and dense buffers, zeros included."""
    view = dense_view(field)
    return all(
        a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(view, dense)
    )


def dense_degrade_flow(flow: DenseFlow, spec, seed: int) -> DenseFlow:
    """Reference degradation on dense buffers: same draws, same order."""
    du, dv, valid = (a.copy().reshape(-1) for a in flow)
    idx = np.flatnonzero(valid)
    if idx.size == 0:
        return flow
    rng = np.random.default_rng(seed)
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
        drop = idx[rng.random(idx.size) < spec.dropout_ratio]
        valid[drop] = False
        du[drop] = 0.0
        dv[drop] = 0.0
    shape = flow.valid.shape
    return DenseFlow(du.reshape(shape), dv.reshape(shape), valid.reshape(shape))


def dense_save_flow(flow: DenseFlow, path) -> None:
    """Reference PFAF writer over dense buffers."""
    import struct

    h, w = flow.valid.shape
    pairs = np.empty((int(flow.valid.sum()), 2), dtype="<f4")
    pairs[:, 0] = flow.du[flow.valid]
    pairs[:, 1] = flow.dv[flow.valid]
    with open(path, "wb") as f:
        f.write(b"PFAF" + struct.pack("<III", 1, w, h))
        f.write(np.packbits(flow.valid.reshape(-1)).tobytes())
        f.write(pairs.tobytes())


def dense_load_flow(path) -> DenseFlow:
    """Reference PFAF reader into dense buffers (well-formed files only)."""
    import struct

    data = open(path, "rb").read()
    _, w, h = struct.unpack("<III", data[4:16])
    n_bits = (w * h + 7) // 8
    bits = np.frombuffer(data[16 : 16 + n_bits], dtype=np.uint8)
    valid = np.unpackbits(bits)[: w * h].reshape(h, w).astype(bool)
    pairs = np.frombuffer(data[16 + n_bits :], dtype="<f4").reshape(-1, 2)
    du = np.zeros((h, w), dtype=np.float32)
    dv = np.zeros((h, w), dtype=np.float32)
    du[valid] = pairs[:, 0]
    dv[valid] = pairs[:, 1]
    return DenseFlow(du, dv, valid)


def dense_subsample(sets, cap: int) -> list:
    """Reference per-exemplar thinning of fully gathered (points, pixels) pairs."""
    total = sum(len(points) for points, _ in sets)
    if total <= cap or total == 0:
        return list(sets)
    out = []
    for points, pixels in sets:
        quota = int(np.floor(cap * len(points) / total))
        if quota >= len(points):
            out.append((points, pixels))
            continue
        idx = np.round(np.linspace(0, len(points) - 1, quota)).astype(np.int64)
        out.append((points[idx], pixels[idx]))
    return out


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


def window_edge_masks() -> dict:
    """256 x 256 exemplar-frame masks at the edge cases of the bounding-box
    window, by name."""
    size = 256
    masks = {name: np.zeros((size, size), dtype=bool)
             for name in ("top", "bottom", "left", "right", "full", "column", "row",
                          "hole", "empty")}
    masks["top"][:40, 90:150] = True
    masks["bottom"][size - 31:, 60:170] = True
    masks["left"][100:160, :25] = True
    masks["right"][70:130, size - 45:] = True
    masks["full"][:] = True
    masks["column"][80:200, 131] = True
    masks["row"][77, 40:220] = True
    rows, cols = np.mgrid[:size, :size]
    radius = np.hypot(rows - 120.3, cols - 140.6)
    masks["hole"][(radius < 50) & (radius > 12)] = True
    return masks


def exemplar_of_mask(index: int, mask: np.ndarray, rng: np.random.Generator):
    """An exemplar over a given frame mask, with random finite points and
    triangle ids in the mask's row-major order; its window is built as
    ``load_set`` builds it from a file."""
    n = int(mask.sum())
    window = MaskWindow.from_frame_bits(np.packbits(mask.reshape(-1)))
    pose = RigidPose(np.eye(3), [0.0, 0.0, 1.0])
    camera = CameraIntrinsics(400.0, 400.0, 128.0, 128.0, 256, 256)
    points = rng.uniform(-0.1, 0.1, size=(n, 3)).astype("<f4")
    tri = rng.integers(0, 1000, size=n).astype("<i4")
    return Exemplar(index, pose, camera, window, points, tri, bytes(32))


def oracle_flow_for(exemplar, crop_exemplar, scene, crop_target):
    """The undegraded oracle's flow toward ``scene``'s object, as a source gives it."""
    source = OracleFlowSource(scene, scene.object_pose)
    return source.flow_for(exemplar, 0, crop_exemplar, crop_target)


def dense_oracle_flow(exemplar, crop_exemplar, scene, crop_target):
    """Reference ground-truth flow toward ``scene``'s object, over the full
    crop grid and full image."""
    from pfa.crops import apply_homography, intrinsics_align_matrix
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
        return DenseFlow(zero, zero.copy(), np.zeros((size, size), dtype=bool))

    k_target = scene.camera
    target_pose = scene.object_pose
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
    eps = 1e-3 * exemplar.z_bar  # the oracle's depth tolerance, in any length unit
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
    return DenseFlow(
        du.reshape(size, size), dv.reshape(size, size), valid.reshape(size, size)
    )


def dense_lift(exemplar, flow: DenseFlow, crop_exemplar, crop_target, target_camera):
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


_PLY_CODES = {"uchar": "B", "int": "i", "float": "f"}


def ply_bytes(encoding: str, elements) -> bytes:
    """A PLY file; ``elements`` are (name, property lines, records), and a
    record holds a value per scalar property and a list per list property."""
    header, body = ["ply", f"format {encoding} 1.0"], []
    for name, props, records in elements:
        header += [f"element {name} {len(records)}", *props]
        for record in records:
            fields = []  # (type, value) in file order
            for prop, value in zip(props, record):
                kinds = prop.split()[1:-1]
                if kinds[0] == "list":
                    fields += [(kinds[1], len(value))] + [(kinds[2], item) for item in value]
                else:
                    fields.append((kinds[0], value))
            if encoding == "ascii":
                body.append(" ".join(str(value) for _, value in fields).encode() + b"\n")
            else:
                body.append(b"".join(struct.pack("<" + _PLY_CODES[k], v) for k, v in fields))
    return "\n".join(header + ["end_header\n"]).encode() + b"".join(body)

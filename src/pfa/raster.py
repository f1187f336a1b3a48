"""Exact, vectorized z-buffer rasterization into sparse fragments.

Triangles are sampled at pixel centers (col + 0.5, row + 0.5) with the
edge functions of Pineda (SIGGRAPH 1988) and a top-left fill rule, so
triangles sharing an edge never both claim a pixel. The pixels a triangle
covers in one row form a span whose ends come exactly from the edge
functions, and only covered pixels become fragments. Fragment values come
from the same float operations, in the same order, as the per-triangle
reference in the tests, so results are bit-identical to it.

Depth is resolved as if the triangles were drawn in index order: a later
triangle wins a pixel only if it is nearer by more than ``DEPTH_TIE``, so
a tie keeps the lower index. The meshes of one pass (views of one mesh in
``render_surfaces``, a scene's meshes in ``scene_depth_map``) are set up
together and resolved each in a buffer of its own. Triangles with a vertex
at depth <= ``NEAR_CLIP`` are dropped whole (no near-plane clipping, so an
object behind the camera renders empty), as are triangles of zero
projected area.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ConfigurationError
from .geometry import CameraIntrinsics, RigidPose
from .mesh import MeshModel

DEPTH_TIE = 1e-9
NEAR_CLIP = 1e-9

# a multi-view pass sets up about this many triangles (a many-face mesh keeps
# one view per pass, where larger tables fall out of cache), and resolves at
# most this many fragments unless one view alone has more
PASS_TRIANGLES = 128
PASS_FRAGMENTS = 1 << 15

# edge e of an oriented triangle (a, b, c) runs between these corners; its
# function is the barycentric weight of corner e
_EDGE_START = [1, 2, 0]
_EDGE_END = [2, 0, 1]


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
class Surface:
    """The visible surface of one square view, one entry per covered pixel."""

    pixels: np.ndarray  # (n,) int64, increasing flat row-major indices
    depth: np.ndarray  # (n,) camera depth
    points: np.ndarray  # (n, 3) model frame
    tri: np.ndarray  # (n,) int32, the winning triangle


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


class _Triangles(NamedTuple):
    """The drawable triangles of one or more meshes seen by one camera,
    corners ordered so area2 > 0.

    Per-edge arrays are (3, T), edge e opposite corner e, so that gathers
    and arithmetic run along contiguous rows; x0..y1 are the inclusive
    pixel bounds of each triangle's box inside the window.
    """

    layer: np.ndarray  # (T,) which mesh
    index: np.ndarray  # (T,) triangle index in its mesh
    area2: np.ndarray  # (T,) twice the projected area
    z: np.ndarray  # (3, T) corner camera depths
    scaled: np.ndarray  # (3, 3, T) corner model points (x, y, z) over their depth
    edge_dx: np.ndarray  # end x - start x
    edge_dy: np.ndarray  # end y - start y
    start_x: np.ndarray
    start_y: np.ndarray
    top_left: np.ndarray  # bool
    x0: np.ndarray
    x1: np.ndarray
    y0: np.ndarray
    y1: np.ndarray


def _setup(views, camera, window) -> _Triangles:
    """Project each (mesh, pose) view once and set up, in mesh then index
    order, every triangle that can draw a pixel of the window."""
    model = np.concatenate([mesh.vertices for mesh, _ in views])
    cam = np.concatenate([pose.transform(mesh.vertices) for mesh, pose in views])
    first_vertex = np.cumsum([0] + [len(mesh.vertices) for mesh, _ in views[:-1]])
    triangles = np.concatenate(
        [mesh.triangles + start for (mesh, _), start in zip(views, first_vertex)]
    )
    counts = [len(mesh.triangles) for mesh, _ in views]
    z = cam[:, 2]
    usable = z > NEAR_CLIP

    uv = np.zeros((len(cam), 2))
    np.divide(cam[:, 0], z, out=uv[:, 0], where=usable)
    np.divide(cam[:, 1], z, out=uv[:, 1], where=usable)
    uv[:, 0] = camera.fx * uv[:, 0] + camera.cx
    uv[:, 1] = camera.fy * uv[:, 1] + camera.cy

    drawable = np.flatnonzero(usable[triangles].all(axis=1))
    corners = triangles[drawable].T  # (3, T)
    u, v = uv[:, 0][corners], uv[:, 1][corners]
    area2 = (u[1] - u[0]) * (v[2] - v[0]) - (v[1] - v[0]) * (u[2] - u[0])
    flip = area2 < 0.0
    corners[1:, flip] = corners[:0:-1, flip]
    area2 = np.abs(area2)

    u, v = uv[:, 0][corners], uv[:, 1][corners]
    wx0, wy0, wx1, wy1 = window
    # pixel centers j + 0.5 inside the projected box, clipped to the window
    x0 = np.clip(np.ceil(u.min(axis=0) - 0.5), wx0, wx1).astype(np.int64)
    x1 = np.clip(np.floor(u.max(axis=0) - 0.5), wx0 - 1, wx1 - 1).astype(np.int64)
    y0 = np.clip(np.ceil(v.min(axis=0) - 0.5), wy0, wy1).astype(np.int64)
    y1 = np.clip(np.floor(v.max(axis=0) - 0.5), wy0 - 1, wy1 - 1).astype(np.int64)
    keep = np.flatnonzero((area2 != 0.0) & (x0 <= x1) & (y0 <= y1))

    drawable, corners, u, v = drawable[keep], corners[:, keep], u[:, keep], v[:, keep]
    layer = np.repeat(np.arange(len(views)), counts)[drawable]
    edge_dx = u[_EDGE_END] - u[_EDGE_START]
    edge_dy = v[_EDGE_END] - v[_EDGE_START]
    z_corner = z[corners]
    return _Triangles(
        layer=layer,
        index=drawable - np.cumsum([0] + counts[:-1])[layer],
        area2=area2[keep],
        z=z_corner,
        scaled=model.T[:, corners].transpose(1, 0, 2) / z_corner[:, None],
        edge_dx=edge_dx,
        edge_dy=edge_dy,
        start_x=u[_EDGE_START],
        start_y=v[_EDGE_START],
        top_left=(edge_dy < 0) | ((edge_dy == 0) & (edge_dx > 0)),
        x0=x0[keep],
        x1=x1[keep],
        y0=y0[keep],
        y1=y1[keep],
    )


def _row_terms(tris: _Triangles, t, y) -> np.ndarray:
    """(3, n) row terms ``dx * (y + 0.5 - start_y)`` of triangles ``t`` on rows ``y``."""
    terms = tris.start_y.take(t, axis=1)
    np.subtract(y + 0.5, terms, out=terms)
    terms *= tris.edge_dx.take(t, axis=1)
    return terms


def _weights(tris: _Triangles, t, x, y) -> np.ndarray:
    """(3, n) barycentric weights of triangles ``t`` at pixel centers (x, y)."""
    col = tris.start_x.take(t, axis=1)
    np.subtract(x + 0.5, col, out=col)
    col *= tris.edge_dy.take(t, axis=1)
    weights = _row_terms(tris, t, y)
    weights -= col
    weights /= tris.area2.take(t)
    return weights


def _depths(tris: _Triangles, t, weights) -> np.ndarray:
    """Perspective-correct depth of each weighted point of triangles ``t``."""
    terms = tris.z.take(t, axis=1)
    np.divide(weights, terms, out=terms)
    return 1.0 / (terms[0] + terms[1] + terms[2])


def _spans(tris: _Triangles):
    """Each triangle's covered pixels per box row: (t, y, first x, count).

    An edge covers a pixel where its row term exceeds its column term, or
    equals it on a top-left edge. With dy > 0 the column term rises in x,
    so the covered pixels of the row are a prefix of the box row; with
    dy < 0 a suffix; with dy == 0 all or none. Each prefix or suffix end
    starts at the continuous crossing and moves until the edge function
    itself says it is exact.
    """
    rows = tris.y1 - tris.y0 + 1
    t = np.repeat(np.arange(len(rows)), rows)
    y = np.arange(len(t)) - np.repeat(np.cumsum(rows) - rows, rows) + tris.y0[t]
    row = _row_terms(tris, t, y)
    dy, top_left = tris.edge_dy.take(t, axis=1), tris.top_left.take(t, axis=1)
    x0, x1 = tris.x0[t], tris.x1[t]

    flat = dy == 0
    blocked = (flat & ~((row > 0) | ((row == 0) & top_left))).any(axis=0)

    e, s = np.nonzero(~flat)
    r, slope, tl = row[e, s], dy[e, s], top_left[e, s]
    px = tris.start_x[e, t[s]]
    # in mirrored coordinates u = sign * x every covered set is a prefix
    rising = slope > 0
    sign = np.where(rising, 1, -1)
    first = np.where(rising, x0[s], -x1[s])
    last = np.where(rising, x1[s], -x0[s])
    crossing = np.nan_to_num(np.ceil(sign * (px + r / slope - 0.5)) - 1)
    u = np.clip(crossing, first - 1, last).astype(np.int64)

    def covers(i, ui):
        col = slope[i] * ((sign[i] * ui + 0.5) - px[i])
        return (r[i] > col) | ((r[i] == col) & tl[i])

    # covers(u + 1) implies covers(u), so an entry moves one way only
    i = np.arange(len(u))
    while i.size:
        ui = u[i]
        up = (ui < last[i]) & covers(i, ui + 1)
        down = (ui >= first[i]) & ~covers(i, ui)
        u[i] = ui + up - down
        i = i[up | down]

    low = np.broadcast_to(x0, row.shape).copy()
    high = np.broadcast_to(x1, row.shape).copy()
    high[e[rising], s[rising]] = u[rising]
    low[e[~rising], s[~rising]] = -u[~rising]
    lo = low.max(axis=0)
    count = np.where(blocked, 0, np.maximum(high.min(axis=0) - lo + 1, 0))
    drawn = np.flatnonzero(count)
    return t[drawn], y[drawn], lo[drawn], count[drawn]


def _z_buffer(tris: _Triangles, spans, window):
    """Resolve the fragments of the given spans, in index order, in the window.

    Each mesh is resolved in a buffer of its own. Returns the visible
    surface of each mesh, sparse, ordered by mesh and then pixel: flat
    row-major pixels of the window, their depth and their owner (the
    winning position in ``tris``).
    """
    area = (window[2] - window[0]) * (window[3] - window[1])
    keys, depth, owner = _resolve(*_fragments(tris, *spans, window))
    return keys - tris.layer[owner] * area, depth, owner


def _fragments(tris: _Triangles, t, y, lo, count, window):
    """(key, depth, triangle) of each covered pixel of the given spans, in
    drawing order; the key orders fragments by mesh, then window pixel."""
    wx0, wy0, wx1, wy1 = window
    width = wx1 - wx0
    tf = np.repeat(t, count)
    yf = np.repeat(y, count)
    xf = np.arange(len(tf)) + np.repeat(lo - (np.cumsum(count) - count), count)
    z_pix = _depths(tris, tf, _weights(tris, tf, xf, yf))
    key = tris.layer[tf] * (width * (wy1 - wy0)) + (yf - wy0) * width + (xf - wx0)
    return key, z_pix, tf


def _resolve(key, z_pix, t):
    """The surface that fragments, applied in the given order, leave.

    Sequentially, a fragment replaces its key's depth (initially +inf)
    when it is nearer by more than DEPTH_TIE. A key's k-th fragment sees
    only the outcome of its earlier ones, so all k-th fragments are
    applied together. Returns (key, depth, t) of the winners, keys
    increasing.
    """
    order = np.argsort(key, kind="stable")
    key, z_pix = key[order], z_pix[order]
    first = np.diff(key, prepend=-1) != 0
    heads = np.flatnonzero(first)
    nearer = z_pix[heads] < np.inf - DEPTH_TIE
    depth = np.where(nearer, z_pix[heads], np.inf)
    winner = np.where(nearer, heads, -1)  # sorted position of each key's winner

    later = np.flatnonzero(~first)
    group = np.searchsorted(heads, later, side="right") - 1
    rank = later - heads[group]
    by_rank = np.argsort(rank, kind="stable")
    later, group = later[by_rank], group[by_rank]
    bounds = np.cumsum(np.bincount(rank))
    for begin, end in zip(bounds[:-1], bounds[1:]):
        step, g = later[begin:end], group[begin:end]
        nearer = z_pix[step] < depth[g] - DEPTH_TIE
        depth[g[nearer]] = z_pix[step[nearer]]
        winner[g[nearer]] = step[nearer]
    drawn = winner >= 0
    return key[heads[drawn]], depth[drawn], t[order[winner[drawn]]]


def _passes(view, count, n_views):
    """Cut views 0..n_views-1 into runs of whole views of at most
    ``PASS_FRAGMENTS`` fragments; a view with more is a run of its own.

    ``view`` and ``count`` give each span's view, increasing, and its pixel
    count. Yields (first view, end view, slice of the spans) per run.
    """
    fragments = np.bincount(view, weights=count, minlength=n_views)
    bounds = np.searchsorted(view, np.arange(n_views + 1))
    first, total = 0, 0.0
    for end in range(n_views):
        if end > first and total + fragments[end] > PASS_FRAGMENTS:
            yield first, end, slice(bounds[first], bounds[end])
            first, total = end, 0.0
        total += fragments[end]
    yield first, n_views, slice(bounds[first], bounds[n_views])


def render_surfaces(
    mesh: MeshModel, poses, camera: CameraIntrinsics, size: int
) -> Iterator[Surface]:
    """The visible surface of a mesh in each of a sequence of poses, in
    order, in square views of ``size`` x ``size`` pixels: per covered pixel,
    the interpolated model-frame point, its camera depth and the winning
    triangle. Views are rendered in passes of whole views (``PASS_TRIANGLES``,
    cut by ``_passes``), so a pass's views are held until the last is yielded."""
    window = (0, 0, size, size)
    per_pass = max(1, PASS_TRIANGLES // len(mesh.triangles))
    for start in range(0, len(poses), per_pass):
        views = [(mesh, pose) for pose in poses[start : start + per_pass]]
        tris = _setup(views, camera, window)
        spans = _spans(tris)
        for first, end, part in _passes(tris.layer[spans[0]], spans[3], len(views)):
            pixels, depth, t = _z_buffer(tris, [s[part] for s in spans], window)
            weights = _weights(tris, t, pixels % size, pixels // size)
            scaled = tris.scaled.take(t, axis=2)  # (corner, axis, n)
            points = (
                weights[0] * scaled[0] + weights[1] * scaled[1] + weights[2] * scaled[2]
            ) * depth
            points = np.ascontiguousarray(points.T)
            index = tris.index[t].astype(np.int32)
            bounds = np.searchsorted(tris.layer[t], np.arange(first, end + 1))
            for a, b in zip(bounds[:-1], bounds[1:]):
                yield Surface(pixels[a:b], depth[a:b], points[a:b], index[a:b])


def dense_map(surface: Surface, size: int) -> CoordinateMap:
    """The square CoordinateMap of ``size`` x ``size`` pixels that holds a surface."""
    depth = np.full(size * size, np.inf)
    depth[surface.pixels] = surface.depth
    points = np.full((size * size, 3), np.nan)
    points[surface.pixels] = surface.points
    tri = np.full(size * size, -1, dtype=np.int32)
    tri[surface.pixels] = surface.tri
    depth = depth.reshape(size, size)
    return CoordinateMap(
        size, size, points.reshape(size, size, 3), depth, np.isfinite(depth),
        tri.reshape(size, size),
    )


def rasterize(
    mesh: MeshModel, pose: RigidPose, camera: CameraIntrinsics, size: int
) -> CoordinateMap:
    """Render a mesh into a square CoordinateMap of ``size`` x ``size`` pixels."""
    (surface,) = render_surfaces(mesh, [pose], camera, size)
    return dense_map(surface, size)


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
    views = [(scene.object_mesh, scene.object_pose), *scene.occluders]
    tris = _setup(views, scene.camera, window)
    pixels, depth, _ = _z_buffer(tris, _spans(tris), window)
    joint = np.full((y1 - y0) * (x1 - x0), np.inf)
    np.minimum.at(joint, pixels, depth)
    return joint.reshape(y1 - y0, x1 - x0)

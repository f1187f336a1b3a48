"""Perspective-n-point solving: minimal 3-point samples, consensus-set solves.

Two closed forms feed one refinement. P3P (``p3p_batch``, Lambda Twist)
solves minimal 3-point samples, batched over K samples, and returns every
real root that puts the sample in front of the camera; RANSAC scores those
roots as hypotheses. EPnP initializes the solve of one consensus set: it
expresses the 3D points in a barycentric basis of four control points
(three when the cloud is planar), solves the projection constraints for
the control points' camera coordinates via the null space of the
constraint matrix, resolves the combination weights (betas) from pairwise
control-point distances, and recovers the pose by rigid alignment. The
betas are refined by Gauss-Newton on the distance residuals from several
starts, which makes the closed form exact on noise-free 4-point sets.
``solve_pnp`` then runs a damped Gauss-Newton pass on the reprojection
error; damping guarantees the cost never increases between accepted steps.

The closed form sees at most ``EPNP_POINTS`` evenly spaced rows of a set.
Its cost grows with the row count while, above about two thousand rows,
its start stops improving; Gauss-Newton on every row decides the pose.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError
from .geometry import (
    CameraIntrinsics,
    RigidPose,
    rotation_from_rotvec,
)

DEGENERACY_TOL = 1e-6
GN_MAX_ITERATIONS = 20
GN_COST_TOL = 1e-12  # relative; smaller cost changes are rounding
BETA_ITERATIONS = 12
EPNP_POINTS = 2048  # rows the closed-form start of ``solve_pnp`` sees, at most
CUBIC_ITERATIONS = 50  # Newton steps on the P3P cubic, at most
LAMBDA_ITERATIONS = 5  # Gauss-Newton steps on the P3P depths

_PAIRS4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_PAIRS3 = [(0, 1), (0, 2), (1, 2)]


def is_degenerate_sample(points, tol: float = DEGENERACY_TOL) -> bool:
    """True when points are within ``tol`` of coplanar (or worse)."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    s = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
    return s[0] <= 0 or s[2] < tol * s[0]


def reprojection_residuals(
    camera: CameraIntrinsics, pose: RigidPose, points: np.ndarray, pixels: np.ndarray
) -> np.ndarray:
    """Per-correspondence residuals (N, 2): projected minus observed.

    Computed in column layout (``_reprojection_terms``), and returned as an
    (N, 2) view of (2, N) storage. Rows that are transposed views of (3, N)
    and (2, N) columns, as ``CorrespondenceSet`` hands out, are read
    without a copy.
    """
    pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64).reshape(-1, 3).T)
    obs = np.asarray(pixels, dtype=np.float64).reshape(-1, 2).T
    return _reprojection_terms(camera, pose, pts, obs)[2].T


def reprojection_jacobian(
    camera: CameraIntrinsics, pose: RigidPose, points: np.ndarray
) -> np.ndarray:
    """Analytic Jacobian (N, 2, 6) of the residual in (rotvec, translation).

    The pose is perturbed as (exp([w]) R, t + dt); derivatives are taken at
    zero perturbation. Column order: wx, wy, wz, tx, ty, tz.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    rotated = pose.rotation @ pts.T
    return _jacobian_rows(camera, rotated, rotated + pose.translation[:, None]).transpose(2, 1, 0)


def _jacobian_rows(camera: CameraIntrinsics, rotated, q) -> np.ndarray:
    """The Jacobian laid out (6, 2, N): parameter, then u or v, then point.

    ``rotated`` and ``q`` are (3, N): the rotated and the camera-frame points.
    """
    x, y, z = q
    inv_z = 1.0 / z
    du_dx = camera.fx * inv_z
    du_dz = -camera.fx * x * inv_z * inv_z
    dv_dy = camera.fy * inv_z
    dv_dz = -camera.fy * y * inv_z * inv_z
    rx, ry, rz = rotated

    # d(u, v)/dq = [[du_dx, 0, du_dz], [0, dv_dy, dv_dz]] times
    # dq/dw = -[rotated]_x, written out; dq/dt = identity
    jac = np.empty((6, 2, q.shape[1]))
    jac[0, 0] = du_dz * ry
    jac[1, 0] = du_dx * rz - du_dz * rx
    jac[2, 0] = -du_dx * ry
    jac[3, 0] = du_dx
    jac[4, 0] = 0.0
    jac[5, 0] = du_dz
    jac[0, 1] = dv_dz * ry - dv_dy * rz
    jac[1, 1] = -dv_dz * rx
    jac[2, 1] = dv_dy * rx
    jac[3, 1] = 0.0
    jac[4, 1] = dv_dy
    jac[5, 1] = dv_dz
    return jac


def _reprojection_terms(camera: CameraIntrinsics, pose: RigidPose, pts, obs):
    """Rotated points, camera-frame points and the residuals of a pose.

    Column layout throughout: ``pts`` and both returned point arrays are
    (3, N), ``obs`` and the residuals (2, N), all C-contiguous. Each
    residual row is ``f * x / z + c - u``, evaluated in place in that order.
    """
    rotated = pose.rotation @ pts
    q = rotated + pose.translation[:, None]
    residuals = np.empty((2, q.shape[1]))
    for row, focal, center in ((0, camera.fx, camera.cx), (1, camera.fy, camera.cy)):
        res = residuals[row]
        np.multiply(focal, q[row], out=res)
        res /= q[2]
        res += center
        res -= obs[row]
    return rotated, q, residuals


def gauss_newton(
    camera: CameraIntrinsics,
    pose: RigidPose,
    points: np.ndarray,
    pixels: np.ndarray,
):
    """Minimize the summed squared reprojection error from a starting pose.

    Returns (pose, costs) where costs lists the accepted cost after each
    iteration, starting with the initial cost; it is non-increasing. The
    normal equations come from the Jacobian laid out one row per parameter,
    and an accepted pose's camera-frame points are reused for the next
    Jacobian. The normal matrix is ``jac @ jac.copy().T``: numpy sends
    ``jac @ jac.T`` to BLAS ``syrk``, which on 10K points takes about twice
    as long as the copy plus a general product, for the same matrix to
    rounding. Rows that are transposed views of (3, N) and (2, N) columns
    are read without a copy.

    It stops at convergence: when a step's predicted decrease ``-grad @
    step`` is within rounding of the cost (``GN_COST_TOL`` of it, plus the
    residuals' own rounding floor), or a rejected step's cost is, no more
    candidates are evaluated.
    """
    # column layout, (3, N) and (2, N): contiguous coordinate rows
    pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64).reshape(-1, 3).T)
    obs = np.ascontiguousarray(np.asarray(pixels, dtype=np.float64).reshape(-1, 2).T)
    current = pose
    rotated, q, residuals = _reprojection_terms(camera, current, pts, obs)
    cost = float(np.sum(residuals**2))
    costs = [cost]
    damping = 0.0
    # each residual is rounded by about eps times its pixel coordinate
    floor = obs.size * (np.finfo(np.float64).eps * float(np.abs(obs).max(initial=1.0))) ** 2

    for _ in range(GN_MAX_ITERATIONS):
        jac = _jacobian_rows(camera, rotated, q).reshape(6, -1)
        grad = jac @ residuals.reshape(-1)
        hess = jac @ jac.copy().T  # not jac.T: see the docstring
        scale = np.diag(np.maximum(np.diag(hess), 1e-12))
        rounding = GN_COST_TOL * cost + floor

        accepted = None
        for _ in range(30):
            try:
                step = np.linalg.solve(hess + damping * scale, -grad)
            except np.linalg.LinAlgError:
                damping = max(damping * 10.0, 1e-8)
                continue
            if -float(grad @ step) <= rounding:
                break
            candidate = RigidPose(
                rotation_from_rotvec(step[:3]) @ current.rotation,
                current.translation + step[3:],
            )
            terms = _reprojection_terms(camera, candidate, pts, obs)
            new_cost = float(np.sum(terms[2] ** 2))
            if new_cost <= cost:
                accepted = (candidate, terms, new_cost)
                break
            if new_cost - cost <= rounding:
                break
            damping = max(damping * 10.0, 1e-8)
        if accepted is None:
            break
        current, (rotated, q, residuals), cost = accepted
        costs.append(cost)
        damping *= 0.1
    return current, costs


def solve_pnp(points, pixels, camera: CameraIntrinsics) -> RigidPose:
    """Recover the pose from >= 4 3D-to-2D correspondences.

    EPnP starts from at most ``EPNP_POINTS`` evenly spaced rows, the first
    and the last included; Gauss-Newton then runs on every row. Above that
    many rows the closed form's start stops improving while its cost keeps
    growing with the rows. Evenly spaced rows of a set ordered by exemplar,
    as RANSAC's consensus is, span every exemplar.

    The caller guarantees one pixel row per point (``CorrespondenceSet`` does).

    Raises:
        SolverError: fewer than 4 points, a collinear configuration, or no
            closed-form pose that puts the points in front of the camera.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    obs = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    if len(pts) < 4:
        raise SolverError(f"need at least 4 correspondences, got {len(pts)}")

    start = pts, obs
    if len(pts) > EPNP_POINTS:
        rows = np.round(np.linspace(0, len(pts) - 1, EPNP_POINTS)).astype(np.int64)
        start = pts.T.take(rows, axis=1).T, obs.T.take(rows, axis=1).T
    rotation, translation = _epnp(*start, camera)
    pose, _ = gauss_newton(camera, RigidPose(rotation, translation), pts, obs)
    return pose


# ---------------------------------------------------------------------------
# Minimal 3-point solver (Lambda Twist), batched over K samples
# ---------------------------------------------------------------------------


def p3p_batch(points, pixels, camera: CameraIntrinsics):
    """Every pose that maps each of K 3-point samples onto its pixels.

    ``points`` is (K, 3, 3) and ``pixels`` (K, 3, 2). Returns rotations
    (K, 4, 3, 3), translations (K, 4, 3) and a (K, 4) bool mask of the
    real roots, at most four per sample, that put all three points at a
    positive depth. A collinear or coincident sample has no valid root;
    an invalid root's pose is the identity.

    Lambda Twist (Persson & Nordberg, ECCV 2018): the unknown depths l of
    the three unit rays satisfy one distance equation per point pair. One
    real root of a cubic makes a combination of two of these quadrics a
    degenerate conic, a pair of planes through the origin; on each plane
    the depths follow from a quadratic, and a few Gauss-Newton steps on the
    distance equations polish them. The pose aligns orthonormal frames
    built on the model and the camera-frame triangles, so every rotation
    is orthonormal to machine precision.
    """
    pts = np.asarray(points, dtype=np.float64)
    obs = np.asarray(pixels, dtype=np.float64)
    k = len(pts)
    first, second = np.array(_PAIRS3).T
    rays = np.concatenate(
        [(obs - [camera.cx, camera.cy]) / [camera.fx, camera.fy], np.ones((k, 3, 1))], axis=2
    )
    rays /= np.linalg.norm(rays, axis=2, keepdims=True)
    cos12, cos13, cos23 = np.einsum("kpd,kpd->kp", rays[:, first], rays[:, second]).T
    edges = pts[:, first] - pts[:, second]  # pairs (0, 1), (0, 2), (1, 2)
    sq_dists = np.einsum("kpd,kpd->kp", edges, edges)
    a12, a13, a23 = sq_dists.T
    area = np.linalg.norm(np.cross(edges[:, 0], edges[:, 1]), axis=1)
    spread = area > DEGENERACY_TOL * sq_dists.max(axis=1)

    with np.errstate(all="ignore"):
        # the cubic det(D1 + g D2) = 0 of the paper, made monic
        blob = cos12 * cos23 * cos13 - 1.0
        s12, s13, s23 = 1.0 - cos12**2, 1.0 - cos13**2, 1.0 - cos23**2
        p3 = a13 * (a23 * s13 - a13 * s23)
        p2 = 2.0 * blob * a23 * a13 + a13 * (2.0 * a12 + a13) * s23 + a23 * (a23 - a12) * s13
        p1 = a23 * (a13 - a23) * s12 - a12 * a12 * s23 - 2.0 * a12 * (blob * a23 + a13 * s23)
        p0 = a12 * (a12 * s23 - a23 * s12)
        g = _cubic_root(p2 / p3, p1 / p3, p0 / p3)

        conic = np.empty((k, 3, 3))
        conic[:, 0, 0] = a23 * (1.0 - g)
        conic[:, 0, 1] = conic[:, 1, 0] = -a23 * cos12
        conic[:, 0, 2] = conic[:, 2, 0] = a23 * cos13 * g
        conic[:, 1, 1] = a23 - a12 + a13 * g
        conic[:, 1, 2] = conic[:, 2, 1] = cos23 * (a12 - a13 * g)
        conic[:, 2, 2] = g * (a13 - a23) - a12
        ok = spread & np.isfinite(conic).all(axis=(1, 2))
        conic[~ok] = np.eye(3)
        # eigenpairs by decreasing magnitude; the last eigenvalue is the zero one
        values, vectors = np.linalg.eigh(conic)
        order = np.argsort(-np.abs(values), axis=1)
        values = np.take_along_axis(values, order, axis=1)
        vectors = np.take_along_axis(vectors, order[:, None, :], axis=2)
        slope = np.sqrt(np.maximum(0.0, -values[:, 1] / values[:, 0]))

        # each plane: l1 = w0 l2 + w1 l3; then tau = l3 / l2 solves a quadratic
        s = np.stack([slope, -slope], axis=1)[:, :, None]  # (K, 2 planes, 1)
        v = vectors[:, None, :, :, None]  # v[:, :, i, j]: component i of eigenvector j
        w2 = 1.0 / (s * v[:, :, 0, 1] - v[:, :, 0, 0])
        w0 = (v[:, :, 1, 0] - s * v[:, :, 1, 1]) * w2
        w1 = (v[:, :, 2, 0] - s * v[:, :, 2, 1]) * w2
        a12, a13, a23 = a12[:, None, None], a13[:, None, None], a23[:, None, None]
        b12, b13 = -2.0 * cos12[:, None, None], -2.0 * cos13[:, None, None]
        inv = 1.0 / ((a13 - a12) * w1 * w1 - a12 * b13 * w1 - a12)
        b = (a13 * b12 * w1 - a12 * b13 * w0 - 2.0 * w0 * w1 * (a12 - a13)) * inv
        c = ((a13 - a12) * w0 * w0 + a13 * b12 * w0 + a13) * inv
        disc = b * b - 4.0 * c
        far = np.where(b < 0, -b + np.sqrt(disc), -b - np.sqrt(disc)) * 0.5
        tau = np.concatenate([far, c / far], axis=2)  # (K, 2 planes, 2 roots)
        l2_sq = a23 / (tau * (tau - 2.0 * cos23[:, None, None]) + 1.0)
        l2 = np.sqrt(l2_sq)
        depths = np.stack([w0 * l2 + w1 * tau * l2, l2, tau * l2], axis=3).reshape(k, 4, 3)
        valid = (ok & (p3 != 0))[:, None] & ((disc >= 0) & (tau > 0) & (l2_sq > 0)).reshape(k, 4)
        depths[~valid] = 1.0
        depths = _refine_depths(depths, sq_dists, -2.0 * np.stack([cos12, cos13, cos23], axis=1))
        valid &= np.isfinite(depths).all(axis=2) & (depths > 0).all(axis=2)
        depths[~valid] = 1.0

        cam = depths[..., None] * rays[:, None]  # (K, 4, 3 points, 3)
        cam_edges = cam[..., first, :] - cam[..., second, :]
        cam_frames = _triangle_frames(cam_edges[..., 0, :], cam_edges[..., 1, :])
        model_frames = _triangle_frames(edges[:, 0], edges[:, 1])
        rotations = cam_frames @ np.swapaxes(model_frames, 1, 2)[:, None]
        translations = cam.mean(axis=2) - (rotations @ pts.mean(axis=1)[:, None, :, None])[..., 0]
        # a root whose depths miss the distance equations aligns a different
        # triangle, so the depths are checked again under the pose itself
        z = (rotations[..., 2:, :] @ np.swapaxes(pts, 1, 2)[:, None])[..., 0, :]
        valid &= (z + translations[..., 2:] > 0).all(axis=2)
    valid &= np.isfinite(rotations).all(axis=(2, 3)) & np.isfinite(translations).all(axis=2)
    rotations[~valid] = np.eye(3)
    translations[~valid] = 0.0
    return rotations, translations, valid


def _cubic_root(b, c, d):
    """One real root of g^3 + b g^2 + c g + d, per element.

    Starts where the cubic is guaranteed to have a root on one side (left
    of the local maximum if that is positive, else right of the local
    minimum), from a second-order model there, and runs Newton's method.

    Near a double root the step can stall at a rounding-sized value that
    never meets the convergence test, and one such root would keep the
    whole batch iterating; a root is frozen once its step stops shrinking
    while already below 1e-9 of its size.
    """
    disc = b * b - 3.0 * c
    spread = np.sqrt(np.maximum(disc, 0.0))
    t1 = (-b - spread) / 3.0  # local maximum
    t2 = (-b + spread) / 3.0  # local minimum
    k1 = ((t1 + b) * t1 + c) * t1 + d
    k2 = ((t2 + b) * t2 + c) * t2 + d
    left = t1 - np.sqrt(np.maximum(k1 / spread, 0.0))
    right = t2 + np.sqrt(np.maximum(-k2 / spread, 0.0))
    # monotonic cubic: start at the inflection, moved off a near-flat one
    flat = -b / 3.0 + (np.abs(disc) < 3e-4)
    root = np.where(disc > 0, np.where(k1 > 0, left, right), flat)
    scale = 1.0 + np.abs(root)
    last = np.full_like(root, np.inf)  # each root's previous step size
    frozen = np.zeros(root.shape, dtype=bool)
    for _ in range(CUBIC_ITERATIONS):
        step = (((root + b) * root + c) * root + d) / ((3.0 * root + 2.0 * b) * root + c)
        step[~np.isfinite(step)] = 0.0
        size = np.abs(step)
        frozen |= (size >= last) & (size < 1e-9 * scale)
        step[frozen] = 0.0
        last = size
        root -= step
        scale = 1.0 + np.abs(root)
        if not (np.abs(step) > 1e-15 * scale).any():
            break
    return root


def _refine_depths(depths, sq_dists, b):
    """Gauss-Newton on the P3P distance equations, per root.

    ``depths`` is (K, R, 3); equation p of pair (i, j) reads
    l_i^2 + l_j^2 + b_p l_i l_j = a_p. A step is kept only where it lowers
    the summed absolute residual, so a root never gets worse; the loop ends
    early once no root improves.
    """
    first, second = np.array(_PAIRS3).T
    a, b = sq_dists[:, None], b[:, None]
    b12, b13, b23 = np.moveaxis(b, -1, 0)

    def residual(lam):
        li, lj = lam[..., first], lam[..., second]
        return li * li + lj * lj + b * li * lj - a

    res = residual(depths)
    for _ in range(LAMBDA_ITERATIONS):
        l1, l2, l3 = np.moveaxis(depths, -1, 0)
        r0, r1, r2 = np.moveaxis(res, -1, 0)
        # Jacobian [[j00, j01, 0], [j10, 0, j12], [0, j21, j22]], inverted by its adjugate
        j00, j01 = 2.0 * l1 + b12 * l2, 2.0 * l2 + b12 * l1
        j10, j12 = 2.0 * l1 + b13 * l3, 2.0 * l3 + b13 * l1
        j21, j22 = 2.0 * l2 + b23 * l3, 2.0 * l3 + b23 * l2
        det = -(j00 * j12 * j21 + j01 * j10 * j22)
        step = np.stack([
            -j12 * j21 * r0 - j01 * j22 * r1 + j01 * j12 * r2,
            -j10 * j22 * r0 + j00 * j22 * r1 - j00 * j12 * r2,
            j10 * j21 * r0 - j00 * j21 * r1 - j01 * j10 * r2,
        ], axis=-1) / det[..., None]
        candidate = depths - step
        new = residual(candidate)
        better = np.abs(new).sum(axis=-1) < np.abs(res).sum(axis=-1)
        if not better.any():
            break
        depths = np.where(better[..., None], candidate, depths)
        res = np.where(better[..., None], new, res)
    return depths


def _triangle_frames(e1, e2):
    """Orthonormal frames (..., 3, 3), columns: e1, in-plane normal, plane normal."""
    normal = np.cross(e1, e2)
    x = e1 / np.linalg.norm(e1, axis=-1, keepdims=True)
    z = normal / np.linalg.norm(normal, axis=-1, keepdims=True)
    return np.stack([x, np.cross(z, x), z], axis=-1)


# ---------------------------------------------------------------------------
# Closed-form core (EPnP) on one correspondence set
# ---------------------------------------------------------------------------


def _epnp(pts, obs, camera: CameraIntrinsics):
    """Closed-form pose (rotation, translation) of n >= 4 correspondences,
    without reprojection refinement; coplanar points (within
    ``DEGENERACY_TOL``) use three control points. A collinear or coincident
    set, or one no candidate puts in front of the camera, is a ``SolverError``.
    """
    n = len(pts)
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    if s[0] <= 0 or s[1] < DEGENERACY_TOL * s[0]:
        raise SolverError("correspondence points are collinear or coincident")
    planar = s[2] < DEGENERACY_TOL * s[0]
    m = 2 if planar else 3  # principal axes that carry a control point
    scales = s[:m] / np.sqrt(n)
    axes = vt[:m]
    # control points: centroid + scaled principal axes, then the centroid
    ctrl = np.concatenate([centroid + scales[:, None] * axes, centroid[None]])
    rel = centered @ axes.T / scales
    alphas = np.concatenate([rel, 1.0 - rel.sum(axis=1, keepdims=True)], axis=1)
    first, second = np.array(_PAIRS3 if planar else _PAIRS4).T

    # null space of M: eigenvectors of M^T M for the m + 1 smallest eigenvalues
    basis = np.linalg.eigh(_constraint_gram(alphas, obs, camera))[1][:, :m + 1]
    # per pair, per basis vector: the control-point difference, (P, b, 3)
    vecs = basis.T.reshape(m + 1, m + 1, 3)
    diffs = (vecs[:, first] - vecs[:, second]).transpose(1, 0, 2)
    dist_w = np.linalg.norm(ctrl[first] - ctrl[second], axis=1)
    rho = dist_w**2

    ell = _distance_constraints(diffs)
    starts = [np.eye(m + 1)[0], _betas_case2(ell, rho, m + 1)]  # EPnP cases 1 and 2
    if not planar:
        starts.append(_betas_case3(ell, rho))
    # two starts in depth space, from the weak-perspective relief both ways round
    rays = np.column_stack([(obs - [camera.cx, camera.cy]) / [camera.fx, camera.fy], np.ones(n)])
    relief = _weak_perspective_relief(centered, rays)
    to_ctrl = np.linalg.pinv(alphas)
    starts += [
        _betas_from_depths(1.0 + sign * relief, to_ctrl, basis, rays, diffs, dist_w)
        for sign in (1.0, -1.0)
    ]
    candidates = _refine_betas(diffs, np.stack(starts), rho)

    err, rotation, translation = _pose_from_betas(
        basis, candidates, alphas, pts, obs, camera, first, second, dist_w
    )
    best = np.argmin(err)  # first of equals on ties
    if not np.isfinite(err[best]):
        raise SolverError("closed-form initialization found no valid pose")
    return rotation[best], translation[best]


def _constraint_gram(alphas, obs, camera) -> np.ndarray:
    """M^T M of the (2n, 3c) projection constraints M, from per-point terms.

    Point i contributes the rows alpha_i (x) (fx, 0, cx - u_i) and
    alpha_i (x) (0, fy, cy - v_i), so the block of control points (j, k)
    is the sum over points of alpha_ij alpha_ik times a 3x3 weight.
    """
    c = alphas.shape[1]
    du = camera.cx - obs[:, 0, None]
    dv = camera.cy - obs[:, 1, None]
    at = alphas.T
    plain = at @ alphas
    gram = np.zeros((c, 3, c, 3))
    gram[:, 0, :, 0] = camera.fx**2 * plain
    gram[:, 1, :, 1] = camera.fy**2 * plain
    gram[:, 0, :, 2] = gram[:, 2, :, 0] = camera.fx * (at @ (alphas * du))
    gram[:, 1, :, 2] = gram[:, 2, :, 1] = camera.fy * (at @ (alphas * dv))
    gram[:, 2, :, 2] = at @ (alphas * (du * du + dv * dv))
    return gram.reshape(3 * c, 3 * c)


def _distance_constraints(diffs) -> np.ndarray:
    """Rows: one per control-point pair; columns: quadratic beta terms.

    Column order for 4 basis vectors:
    B11 B12 B13 B14 B22 B23 B24 B33 B34 B44.
    """
    a, b = np.triu_indices(diffs.shape[1])
    gram = np.einsum("pad,pbd->pab", diffs, diffs)
    return gram[:, a, b] * np.where(a == b, 1.0, 2.0)


def _signed_root(b11, b1j, bjj):
    """Beta_j from the products B11, B1j, Bjj: sign taken from B1j vs B11."""
    return np.where((b11 > 0) != (b1j > 0), -1.0, 1.0) * np.sqrt(np.abs(bjj))


def _betas_case2(ell, rho, n_ctrl: int) -> np.ndarray:
    # columns B11 B12 B22 in both the 4- and the 3-control-point layout;
    # least squares, minimum-norm where rank-deficient
    b11, b12, b22 = np.linalg.pinv(ell[:, [0, 1, 4 if n_ctrl == 4 else 3]]) @ rho
    return np.array([np.sqrt(np.abs(b11)), _signed_root(b11, b12, b22)] + [0.0] * (n_ctrl - 2))


def _betas_case3(ell, rho) -> np.ndarray:
    b11, b12, b13, b22, _, b33 = np.linalg.pinv(ell[:, [0, 1, 2, 4, 5, 7]]) @ rho
    return np.array([
        np.sqrt(np.abs(b11)), _signed_root(b11, b12, b22), _signed_root(b11, b13, b33), 0.0,
    ])


def _weak_perspective_relief(centered, rays) -> np.ndarray:
    """Relative depth offsets (n,) of the points under the affine camera.

    Fits the affine projection x ~ A (p - c) + x0 to the normalized image
    coordinates; the cross product of A's rows is the depth axis scaled by
    the inverse squared mean depth. Near-affine views also fit the relief
    negated (the Necker reversal), a second basin of the distance
    residuals, so callers start from both signs and let the reprojection
    error pick.
    """
    design = np.concatenate([centered, np.ones((len(centered), 1))], axis=1)
    rows = (np.linalg.pinv(design) @ rays[:, :2]).T[:, :3]
    axis = np.cross(rows[0], rows[1])
    return centered @ axis / np.sqrt(max(np.linalg.norm(axis), 1e-300))


def _betas_from_depths(depths, to_ctrl, basis, rays, diffs, dist_w) -> np.ndarray:
    """Betas of the null-space point nearest to ``rays * depths``, rescaled so
    the control-point distances match the model's in the least-squares sense."""
    ctrl = to_ctrl @ (rays * depths[:, None])
    betas = basis.T @ ctrl.reshape(-1)
    dist_c = np.linalg.norm(np.einsum("pbd,b->pd", diffs, betas), axis=1)
    den = np.einsum("p,p->", dist_c, dist_c)
    return betas * (np.einsum("p,p->", dist_c, dist_w) / (den if den > 0 else np.inf))


def _refine_betas(diffs, betas, rho) -> np.ndarray:
    """Gauss-Newton on the pairwise-distance residuals of the betas.

    ``betas`` is (C, b): C candidate starts. The normal equations carry a
    1e-12 relative ridge so that a rank-deficient Jacobian gives a short
    step instead of an error. The loop ends early once no candidate's step
    exceeds rounding (1e-15 of its largest beta).
    """
    gram = diffs @ np.swapaxes(diffs, -1, -2)  # (P, b, b): |D_p beta|^2 = b'G_p b
    ridge = np.eye(betas.shape[-1])
    for _ in range(BETA_ITERATIONS):
        half_jac = gram @ betas[:, None, :, None]  # G_p beta, (C, P, b, 1)
        res = (betas[:, None, None, :] @ half_jac)[..., 0] - rho[:, None]
        half_jac = half_jac[..., 0]
        jac_t = np.swapaxes(half_jac, -1, -2)
        normal = jac_t @ half_jac
        normal += ridge * (1e-12 * np.trace(normal, axis1=1, axis2=2) + 1e-300)[:, None, None]
        grad = jac_t @ res
        ok = np.isfinite(normal).all(axis=(1, 2)) & np.isfinite(grad).all(axis=(1, 2))
        normal[~ok] = ridge
        grad[~ok] = 0.0
        # J = 2 G beta, so J'J = 4 N and J'r = 2 g: the step is -(N^-1 g) / 2
        step = 0.5 * np.linalg.solve(normal, grad)[..., 0]
        betas = betas - step
        if not (np.abs(step) > 1e-15 * np.abs(betas).max(axis=1, keepdims=True)).any():
            break
    return betas


def _pose_from_betas(basis, betas, alphas, pts, obs, camera, first, second, dist_w):
    """Pose per candidate from (C, b) betas.

    Returns the (C,) mean reprojection error, inf where the candidate puts
    a point behind the camera, and the (C,) rotations and translations.
    The camera-frame points are ``alphas @ ctrl_cam``, so their alignment to
    the model points is formed from control points alone.
    """
    ctrl_cam = (basis @ betas[..., None]).reshape(len(betas), -1, 3)
    dist_c = np.linalg.norm(ctrl_cam[:, first] - ctrl_cam[:, second], axis=2)
    denom = np.einsum("cp,cp->c", dist_c, dist_c)
    usable = denom > 0
    scale = np.einsum("cp,p->c", dist_c, dist_w) / np.where(usable, denom, 1.0)
    ctrl_cam *= scale[:, None, None]
    depth = (alphas @ ctrl_cam[..., 2:])[..., 0]  # (C, n)
    sign = np.where(depth.mean(axis=1) < 0, -1.0, 1.0)
    ctrl_cam *= sign[:, None, None]
    usable &= np.all(depth * sign[:, None] > 0, axis=1) & np.isfinite(ctrl_cam).all(axis=(1, 2))
    ctrl_cam[~usable] = 0.0  # keeps the alignment below finite

    # least-squares R, t with alphas @ ctrl_cam ~ R @ pts + t
    centroid = pts.mean(axis=0)
    cross = (pts - centroid).T @ alphas  # (3, c)
    u, _, vt = np.linalg.svd(cross @ ctrl_cam)
    v = np.swapaxes(vt, -1, -2)
    ut = np.swapaxes(u, -1, -2)
    v[..., 2] *= np.sign(np.linalg.det(v @ ut))[:, None]
    rotation = v @ ut
    translation = alphas.mean(axis=0) @ ctrl_cam - centroid @ np.swapaxes(rotation, -1, -2)

    q = rotation @ pts.T + translation[..., None]  # (C, 3, n)
    x, y, z = q[:, 0], q[:, 1], q[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        du = camera.fx * x / z + (camera.cx - obs[:, 0])
        dv = camera.fy * y / z + (camera.cy - obs[:, 1])
        err = np.sqrt(du * du + dv * dv).mean(axis=-1)
    err[~usable | ~np.isfinite(err)] = np.inf
    return err, rotation, translation

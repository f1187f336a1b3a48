"""Perspective-n-point solving: closed-form initialization plus refinement.

The closed form (EPnP) expresses the 3D points in a barycentric basis of
four control points (three when the cloud is planar), solves the projection
constraints for the control points' camera coordinates via the null space
of the constraint matrix, resolves the combination weights (betas) from
pairwise control-point distances, and recovers the pose by rigid alignment.
It runs batched over K correspondence sets (``epnp_batch``), which is how
RANSAC solves its minimal samples; a single set is a batch of one. The
betas are refined by Gauss-Newton on the distance residuals from several
starts, which makes the closed form exact on noise-free minimal samples.
``solve_pnp`` then runs a damped Gauss-Newton pass on the reprojection
error; damping guarantees the cost never increases between accepted steps.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError
from .geometry import (
    CameraIntrinsics,
    RigidPose,
    project_camera_points,
    rotation_from_rotvec,
)

DEGENERACY_TOL = 1e-6
GN_MAX_ITERATIONS = 20
GN_STEP_TOL = 1e-10
BETA_ITERATIONS = 12

_PAIRS4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_PAIRS3 = [(0, 1), (0, 2), (1, 2)]


def singular_profile(points: np.ndarray) -> np.ndarray:
    """Singular values of the centered point cloud (shape analysis)."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    centered = pts - pts.mean(axis=0)
    return np.linalg.svd(centered, compute_uv=False)


def is_degenerate_sample(points, tol: float = DEGENERACY_TOL) -> bool:
    """True when points are within ``tol`` of coplanar (or worse)."""
    s = singular_profile(points)
    return s[0] <= 0 or s[2] < tol * s[0]


def reprojection_residuals(
    camera: CameraIntrinsics, pose: RigidPose, points: np.ndarray, pixels: np.ndarray
) -> np.ndarray:
    """Per-correspondence residuals (N, 2): projected minus observed."""
    q = pose.transform(points)
    return project_camera_points(camera, q) - np.asarray(pixels, dtype=np.float64)


def reprojection_jacobian(
    camera: CameraIntrinsics, pose: RigidPose, points: np.ndarray
) -> np.ndarray:
    """Analytic Jacobian (N, 2, 6) of the residual in (rotvec, translation).

    The pose is perturbed as (exp([w]) R, t + dt); derivatives are taken at
    zero perturbation. Column order: wx, wy, wz, tx, ty, tz.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    rotated = pts @ pose.rotation.T
    q = rotated + pose.translation
    x, y, z = q[:, 0], q[:, 1], q[:, 2]
    inv_z = 1.0 / z
    du_dx = camera.fx * inv_z
    du_dz = -camera.fx * x * inv_z * inv_z
    dv_dy = camera.fy * inv_z
    dv_dz = -camera.fy * y * inv_z * inv_z
    rx, ry, rz = rotated[:, 0], rotated[:, 1], rotated[:, 2]

    # d(u, v)/dq = [[du_dx, 0, du_dz], [0, dv_dy, dv_dz]] times
    # dq/dw = -[rotated]_x, written out; dq/dt = identity
    jac = np.empty((len(pts), 2, 6))
    jac[:, 0, 0] = du_dz * ry
    jac[:, 0, 1] = du_dx * rz - du_dz * rx
    jac[:, 0, 2] = -du_dx * ry
    jac[:, 0, 3] = du_dx
    jac[:, 0, 4] = 0.0
    jac[:, 0, 5] = du_dz
    jac[:, 1, 0] = dv_dz * ry - dv_dy * rz
    jac[:, 1, 1] = -dv_dz * rx
    jac[:, 1, 2] = dv_dy * rx
    jac[:, 1, 3] = 0.0
    jac[:, 1, 4] = dv_dy
    jac[:, 1, 5] = dv_dz
    return jac


def gauss_newton(
    camera: CameraIntrinsics,
    pose: RigidPose,
    points: np.ndarray,
    pixels: np.ndarray,
    max_iterations: int = GN_MAX_ITERATIONS,
    step_tol: float = GN_STEP_TOL,
):
    """Minimize the summed squared reprojection error from a starting pose.

    Returns (pose, costs) where costs lists the accepted cost after each
    iteration, starting with the initial cost; it is non-increasing.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    obs = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    current = pose
    residuals = reprojection_residuals(camera, current, pts, obs)
    cost = float(np.sum(residuals**2))
    costs = [cost]
    damping = 0.0

    for _ in range(max_iterations):
        jac = reprojection_jacobian(camera, current, pts).reshape(-1, 6)
        grad = jac.T @ residuals.reshape(-1)
        hess = jac.T @ jac
        scale = np.diag(np.maximum(np.diag(hess), 1e-12))

        accepted = None
        for _ in range(30):
            try:
                step = np.linalg.solve(hess + damping * scale, -grad)
            except np.linalg.LinAlgError:
                damping = max(damping * 10.0, 1e-8)
                continue
            candidate = RigidPose(
                rotation_from_rotvec(step[:3]) @ current.rotation,
                current.translation + step[3:],
            )
            new_residuals = reprojection_residuals(camera, candidate, pts, obs)
            new_cost = float(np.sum(new_residuals**2))
            if new_cost <= cost:
                accepted = (candidate, new_residuals, new_cost, step)
                break
            damping = max(damping * 10.0, 1e-8)
        if accepted is None:
            break
        current, residuals, cost, step = accepted
        costs.append(cost)
        damping *= 0.1
        if float(np.abs(step).max()) < step_tol:
            break
    return current, costs


def solve_pnp(points, pixels, camera: CameraIntrinsics) -> RigidPose:
    """Recover the pose from >= 4 3D-to-2D correspondences.

    Raises:
        SolverError: fewer than 4 points, a collinear configuration, or no
            closed-form pose that puts the points in front of the camera.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    obs = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    if len(pts) < 4:
        raise SolverError(f"need at least 4 correspondences, got {len(pts)}")
    if len(pts) != len(obs):
        raise SolverError("point and pixel counts disagree")

    rotations, translations, valid = epnp_batch(pts[None], obs[None], camera)
    if not valid[0]:
        s = singular_profile(pts)
        if s[0] <= 0 or s[1] < DEGENERACY_TOL * s[0]:
            raise SolverError("correspondence points are collinear or coincident")
        raise SolverError("closed-form initialization found no valid pose")
    pose, _ = gauss_newton(camera, RigidPose(rotations[0], translations[0]), pts, obs)
    return pose


# ---------------------------------------------------------------------------
# Closed-form core, batched over a leading axis of K correspondence sets
# ---------------------------------------------------------------------------


def epnp_batch(points, pixels, camera: CameraIntrinsics):
    """Closed-form poses for K sets of n >= 4 correspondences at once.

    ``points`` is (K, n, 3) and ``pixels`` (K, n, 2). Returns rotations
    (K, 3, 3), translations (K, 3) and a (K,) bool mask of valid solves. A
    set is invalid when its points are collinear or coincident, or when no
    candidate puts all of its points in front of the camera; its pose is
    left at the identity. Coplanar sets (within ``DEGENERACY_TOL``) use
    three control points. No reprojection refinement is applied.
    """
    pts = np.asarray(points, dtype=np.float64)
    obs = np.asarray(pixels, dtype=np.float64)
    k = len(pts)
    centered = pts - pts.mean(axis=1, keepdims=True)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    spread = (s[:, 0] > 0) & (s[:, 1] >= DEGENERACY_TOL * s[:, 0])
    planar = s[:, 2] < DEGENERACY_TOL * s[:, 0]

    rotations = np.tile(np.eye(3), (k, 1, 1))
    translations = np.zeros((k, 3))
    valid = np.zeros(k, dtype=bool)
    for flat in (False, True):
        idx = np.flatnonzero(spread & (planar == flat))
        if len(idx):
            rotations[idx], translations[idx], valid[idx] = _epnp(
                pts[idx], obs[idx], s[idx], vt[idx], camera, flat
            )
    return rotations, translations, valid


def _epnp(pts, obs, s, vt, camera, planar: bool):
    k, n = pts.shape[:2]
    m = 2 if planar else 3  # principal axes that carry a control point
    centroid = pts.mean(axis=1, keepdims=True)
    scales = s[:, :m] / np.sqrt(n)
    axes = vt[:, :m]
    # control points: centroid + scaled principal axes, then the centroid
    ctrl = np.concatenate([centroid + scales[:, :, None] * axes, centroid], axis=1)
    rel = (pts - centroid) @ np.swapaxes(axes, 1, 2) / scales[:, None, :]
    alphas = np.concatenate([rel, 1.0 - rel.sum(axis=2, keepdims=True)], axis=2)
    first, second = np.array(_PAIRS3 if planar else _PAIRS4).T

    basis = _null_basis(_constraint_matrix(alphas, obs, camera), m + 1)
    # per pair, per basis vector: the control-point difference, (K, P, b, 3)
    vecs = basis.transpose(0, 2, 1).reshape(k, m + 1, m + 1, 3)
    diffs = (vecs[:, :, first] - vecs[:, :, second]).transpose(0, 2, 1, 3)
    dist_w = np.linalg.norm(ctrl[:, first] - ctrl[:, second], axis=2)
    rho = dist_w**2

    ell = _distance_constraints(diffs)
    starts = [_betas_case1(k, m + 1), _betas_case2(ell, rho, m + 1)]
    if not planar:
        starts.append(_betas_case3(ell, rho))
    # two starts in depth space, from the weak-perspective relief both ways round
    rays = np.concatenate(
        [(obs - [camera.cx, camera.cy]) / [camera.fx, camera.fy], np.ones((k, n, 1))], axis=2
    )
    relief = _weak_perspective_relief(pts - centroid, rays)
    to_ctrl = np.linalg.pinv(alphas)
    for sign in (1.0, -1.0):
        starts.append(
            _betas_from_depths(1.0 + sign * relief, to_ctrl, basis, rays, diffs, dist_w)
        )
    candidates = _refine_betas(diffs, np.stack(starts), rho)

    err, rotation, translation = _pose_from_betas(
        basis, candidates, alphas, pts, obs, camera, first, second, dist_w
    )
    pick = np.argmin(err, axis=0), np.arange(k)  # first of equals on ties
    return rotation[pick], translation[pick], np.isfinite(err[pick])


def _constraint_matrix(alphas, obs, camera) -> np.ndarray:
    k, n, c = alphas.shape
    m = np.zeros((k, 2 * n, 3 * c))
    u = obs[:, :, 0, None]
    v = obs[:, :, 1, None]
    m[:, 0::2, 0::3] = alphas * camera.fx
    m[:, 0::2, 2::3] = alphas * (camera.cx - u)
    m[:, 1::2, 1::3] = alphas * camera.fy
    m[:, 1::2, 2::3] = alphas * (camera.cy - v)
    return m


def _null_basis(m: np.ndarray, n_ctrl: int) -> np.ndarray:
    """Eigenvectors of M^T M for the ``n_ctrl`` smallest eigenvalues."""
    _, vectors = np.linalg.eigh(m.transpose(0, 2, 1) @ m)
    return vectors[:, :, :n_ctrl]


def _distance_constraints(diffs) -> np.ndarray:
    """Rows: one per control-point pair; columns: quadratic beta terms.

    Column order for 4 basis vectors:
    B11 B12 B13 B14 B22 B23 B24 B33 B34 B44.
    """
    a, b = np.triu_indices(diffs.shape[2])
    gram = np.einsum("kpad,kpbd->kpab", diffs, diffs)
    return gram[:, :, a, b] * np.where(a == b, 1.0, 2.0)


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched least squares ``a @ x ~ b``, minimum-norm where rank-deficient."""
    return (np.linalg.pinv(a) @ b[:, :, None])[:, :, 0]


def _signed_root(b11, b1j, bjj):
    """Beta_j from the products B11, B1j, Bjj: sign taken from B1j vs B11."""
    return np.where((b11 > 0) != (b1j > 0), -1.0, 1.0) * np.sqrt(np.abs(bjj))


def _betas_case1(k: int, n_ctrl: int) -> np.ndarray:
    betas = np.zeros((k, n_ctrl))
    betas[:, 0] = 1.0
    return betas


def _betas_case2(ell, rho, n_ctrl: int) -> np.ndarray:
    # columns B11 B12 B22 in both the 4- and the 3-control-point layout
    b11, b12, b22 = _lstsq(ell[:, :, [0, 1, 4 if n_ctrl == 4 else 3]], rho).T
    betas = np.zeros((len(rho), n_ctrl))
    betas[:, 0] = np.sqrt(np.abs(b11))
    betas[:, 1] = _signed_root(b11, b12, b22)
    return betas


def _betas_case3(ell, rho) -> np.ndarray:
    b11, b12, b13, b22, _, b33 = _lstsq(ell[:, :, [0, 1, 2, 4, 5, 7]], rho).T
    betas = np.zeros((len(rho), 4))
    betas[:, 0] = np.sqrt(np.abs(b11))
    betas[:, 1] = _signed_root(b11, b12, b22)
    betas[:, 2] = _signed_root(b11, b13, b33)
    return betas


def _weak_perspective_relief(centered, rays) -> np.ndarray:
    """Relative depth offsets (K, n) of the points under the affine camera.

    Fits the affine projection x ~ A (p - c) + x0 to the normalized image
    coordinates; the cross product of A's rows is the depth axis scaled by
    the inverse squared mean depth. Near-affine views also fit the relief
    negated (the Necker reversal), a second basin of the distance
    residuals, so callers start from both signs and let the reprojection
    error pick.
    """
    design = np.concatenate([centered, np.ones(centered.shape[:2] + (1,))], axis=2)
    rows = np.swapaxes(np.linalg.pinv(design) @ rays[:, :, :2], 1, 2)[:, :, :3]
    axis = np.cross(rows[:, 0], rows[:, 1])
    norm = np.maximum(np.linalg.norm(axis, axis=1, keepdims=True), 1e-300)
    return (centered @ axis[:, :, None])[:, :, 0] / np.sqrt(norm)


def _betas_from_depths(depths, to_ctrl, basis, rays, diffs, dist_w) -> np.ndarray:
    """Betas of the null-space point nearest to ``rays * depths``, rescaled so
    the control-point distances match the model's in the least-squares sense."""
    ctrl = to_ctrl @ (rays * depths[:, :, None])
    betas = (basis.transpose(0, 2, 1) @ ctrl.reshape(len(rays), -1, 1))[:, :, 0]
    dist_c = np.linalg.norm(np.einsum("kpbd,kb->kpd", diffs, betas), axis=2)
    num = np.einsum("kp,kp->k", dist_c, dist_w)
    den = np.einsum("kp,kp->k", dist_c, dist_c)
    return betas * (num / np.where(den > 0, den, np.inf))[:, None]


def _refine_betas(diffs, betas, rho, iterations: int = BETA_ITERATIONS) -> np.ndarray:
    """Gauss-Newton on the pairwise-distance residuals of the betas.

    ``betas`` is (C, K, b): C candidate starts for each of the K sets. The
    normal equations carry a 1e-12 relative ridge so that a rank-deficient
    Jacobian gives a short step instead of an error.
    """
    gram = diffs @ np.swapaxes(diffs, -1, -2)  # (K, P, b, b): |D_p beta|^2 = b'G_p b
    betas = betas.copy()
    ridge = np.eye(betas.shape[-1])
    for _ in range(iterations):
        half_jac = gram @ betas[:, :, None, :, None]  # G_p beta, (C, K, P, b, 1)
        res = (betas[:, :, None, None, :] @ half_jac)[..., 0] - rho[..., None]
        half_jac = half_jac[..., 0]
        jac_t = np.swapaxes(half_jac, -1, -2)
        normal = jac_t @ half_jac
        normal += ridge * (1e-12 * np.trace(normal, axis1=2, axis2=3) + 1e-300)[..., None, None]
        grad = jac_t @ res
        ok = np.isfinite(normal).all(axis=(2, 3)) & np.isfinite(grad).all(axis=(2, 3))
        normal[~ok] = ridge
        grad[~ok] = 0.0
        # J = 2 G beta, so J'J = 4 N and J'r = 2 g: the step is -(N^-1 g) / 2
        betas -= 0.5 * np.linalg.solve(normal, grad)[..., 0]
    return betas


def _pose_from_betas(basis, betas, alphas, pts, obs, camera, first, second, dist_w):
    """Pose per candidate and set from (C, K, b) betas.

    Returns the (C, K) mean reprojection error, inf where the candidate puts
    a point behind the camera, and the (C, K) rotations and translations.
    The camera-frame points are ``alphas @ ctrl_cam``, so their alignment to
    the model points is formed from control points alone.
    """
    c, k = betas.shape[:2]
    ctrl_cam = (basis @ betas[..., None]).reshape(c, k, -1, 3)
    dist_c = np.linalg.norm(ctrl_cam[:, :, first] - ctrl_cam[:, :, second], axis=3)
    denom = np.einsum("ckp,ckp->ck", dist_c, dist_c)
    usable = denom > 0
    scale = np.einsum("ckp,kp->ck", dist_c, dist_w) / np.where(usable, denom, 1.0)
    ctrl_cam *= scale[..., None, None]
    depth = (alphas @ ctrl_cam[..., 2:])[..., 0]  # (C, K, n)
    sign = np.where(depth.mean(axis=2) < 0, -1.0, 1.0)
    ctrl_cam *= sign[..., None, None]
    usable &= np.all(depth * sign[..., None] > 0, axis=2) & np.isfinite(ctrl_cam).all(axis=(2, 3))
    ctrl_cam[~usable] = 0.0  # keeps the alignment below finite

    # least-squares R, t with alphas @ ctrl_cam ~ R @ pts + t
    centroid = pts.mean(axis=1, keepdims=True)
    cross = np.swapaxes(pts - centroid, 1, 2) @ alphas  # (K, 3, c)
    u, _, vt = np.linalg.svd(cross @ ctrl_cam)
    v = np.swapaxes(vt, -1, -2)
    ut = np.swapaxes(u, -1, -2)
    v[..., 2] *= np.sign(np.linalg.det(v @ ut))[..., None]
    rotation = v @ ut
    translation = (
        alphas.mean(axis=1, keepdims=True) @ ctrl_cam - centroid @ np.swapaxes(rotation, -1, -2)
    )[..., 0, :]

    q = rotation @ np.swapaxes(pts, 1, 2) + translation[..., None]  # (C, K, 3, n)
    x, y, z = q[..., 0, :], q[..., 1, :], q[..., 2, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        du = camera.fx * x / z + (camera.cx - obs[..., 0])
        dv = camera.fy * y / z + (camera.cy - obs[..., 1])
        err = np.sqrt(du * du + dv * dv).mean(axis=-1)
    err[~usable | ~np.isfinite(err)] = np.inf
    return err, rotation, translation

"""Robust pose recovery: RANSAC over PnP and the one-shot refinement pass."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .correspond import (
    CorrespondenceSet,
    aggregate,
    lift_correspondences,
    subsample_per_exemplar,
)
from .crops import DEFAULT_CROP_PAD, DEFAULT_CROP_SIZE, CropTransform, compute_crop
from .errors import TRIAL_FAILURES, RobustFailureError, SolverError
from .exemplars import ExemplarSet, ensure_mesh_binding, query_nearest
from .flow import FlowField
from .geometry import CameraIntrinsics, RigidPose, geodesic_distance
from .mesh import MeshModel
from . import pnp
# bench/layers.py patches solve_pnp, reprojection_residuals and is_degenerate_sample here,
# and pnp.gauss_newton in its module, which is why the refit calls it through ``pnp``
from .pnp import is_degenerate_sample, p3p_batch, reprojection_residuals, solve_pnp  # noqa: F401

MAX_CORRESPONDENCES = 20000
HYPOTHESES_PER_ROUND = 64  # minimal samples solved and scored together
SAMPLE_SIZE = 3  # correspondences per minimal sample
MAX_REFIT_ROUNDS = 10
_SCORE_TILE_CELLS = 2**14  # poses x correspondences per column tile of the (K, N) score
_SCORE_SUBSET = 2048  # correspondences every root is scored on before the round's winner


@dataclass(frozen=True)
class RansacConfig:
    """Hypothesize-and-verify parameters for robust PnP.

    Settings only: the seed is an argument of ``ransac_pnp`` and ``refine_pose``.
    ``max_iterations`` caps the minimal 3-point samples drawn across all
    rounds of ``ransac_pnp``, not the hypotheses scored: a sample yields up
    to four P3P roots, and a degenerate sample yields none but still
    counts. ``min_inliers`` is the consensus a hypothesis needs to be
    accepted; the consensus-set refit needs at least four points.
    """

    inlier_threshold: float = 2.0  # pixels
    max_iterations: int = 1000
    confidence: float = 0.999
    min_inliers: int = 12

    def __post_init__(self):
        if not self.inlier_threshold > 0:
            raise ValueError("inlier_threshold must be positive")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if self.min_inliers < 4:
            raise ValueError("min_inliers must be at least 4")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(eq=False)
class PoseEstimate:
    """A solved pose with its supporting inliers."""

    pose: RigidPose
    inlier_ids: np.ndarray  # (N,) bool over the input correspondences

    def __post_init__(self):
        self.inlier_ids = np.asarray(self.inlier_ids, dtype=bool)

    @property
    def inlier_count(self) -> int:
        return int(self.inlier_ids.sum())


@dataclass(frozen=True)
class ExemplarReport:
    """Per-exemplar diagnostics of one refinement pass; a record's exemplar entry."""

    id: int
    distance_deg: float
    n_correspondences: int
    inlier_count: int


@dataclass(eq=False)
class RefineResult:
    """One trial's refinement outcome and the per-exemplar diagnostics behind it.

    ``estimate`` is None exactly when ``failure_reason`` holds the text of
    the per-trial error that ended the pass.
    """

    estimate: PoseEstimate | None
    failure_reason: str | None
    exemplar_reports: list


class FlowSource(Protocol):
    """Anything that can produce a flow field for a retrieved exemplar.

    A source fails one trial by raising a per-trial error
    (``errors.TRIAL_FAILURES``): ``FlowFileMissingError`` for a flow file
    that is missing or unreadable, ``FileFormatError`` for one that is
    malformed or sized for other crops. ``refine_pose`` returns either as a
    failed result; any other error propagates.
    """

    def flow_for(
        self, exemplar, rank: int, crop_exemplar: CropTransform, crop_target: CropTransform
    ) -> FlowField: ...


def _adaptive_iterations(inlier_ratio: float, confidence: float, cap: int) -> int:
    if inlier_ratio >= 1.0:
        return 0
    p_sample = inlier_ratio**SAMPLE_SIZE
    if p_sample <= 0.0:
        return cap
    denom = math.log1p(-min(p_sample, 1.0 - 1e-15))
    return min(cap, int(math.ceil(math.log(1.0 - confidence) / denom)))


def _draw_samples(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """(k, SAMPLE_SIZE) indices, distinct within a row (Floyd's algorithm, vectorized)."""
    samples = np.empty((k, SAMPLE_SIZE), dtype=np.intp)
    for col, top in enumerate(range(n - SAMPLE_SIZE, n)):
        pick = rng.integers(top + 1, size=k)
        taken = (samples[:, :col] == pick[:, None]).any(axis=1)
        samples[:, col] = np.where(taken, top, pick)
    return samples


def score_hypotheses(rotations, translations, points, pixels, camera, threshold):
    """(K, N) inlier mask of K poses over N correspondences.

    A point votes for a pose when its reprojection lies within ``threshold``
    pixels of the observation and its depth z under the pose is positive, so
    a point behind the camera whose mirrored projection lands on the
    observation casts no vote. With P = K_cam [R | t] and p~ = (p, 1), the
    test runs without division as ``du^2 + dv^2 < (threshold z)^2`` where
    du = P_0 p~ - u P_2 p~, dv = P_1 p~ - v P_2 p~ and z = P_2 p~: one matrix
    product per column tile yields all three for every pose. The features
    and the product are built per tile in two reused buffers. A tile spans
    ``_SCORE_TILE_CELLS // K`` columns (at least one), so the (3K, tile)
    product stays near 400 KB whatever K is: a round's 128 or so roots are
    scored in 128-column tiles, and one pose on 20K correspondences in two
    tiles. On a 2-vCPU Xeon these scored about 20% and 45% faster than
    fixed 1024-column tiles.
    """
    k = len(rotations)
    kmat = np.array([[camera.fx, 0.0, camera.cx], [0.0, camera.fy, camera.cy], [0.0, 0.0, 1.0]])
    proj = kmat @ np.concatenate([rotations, translations[:, :, None]], axis=2)  # (K, 3, 4)
    zero = np.zeros((k, 4))
    coeffs = np.concatenate([  # rows: du for each pose, then dv, then z
        np.concatenate([proj[:, 0], -proj[:, 2], zero], axis=1),
        np.concatenate([proj[:, 1], zero, -proj[:, 2]], axis=1),
        np.concatenate([proj[:, 2], zero, zero], axis=1),
    ])
    n = len(points)
    tile = max(1, _SCORE_TILE_CELLS // k)
    features_buf = np.empty((12, min(n, tile)))  # rows: p~, u p~, v p~
    out_buf = np.empty((3 * k, min(n, tile)))
    inliers = np.empty((k, n), dtype=bool)
    for lo in range(0, n, tile):
        cols = slice(lo, lo + tile)
        width = min(tile, n - lo)
        features, out = features_buf[:, :width], out_buf[:, :width]
        features[:3] = points[cols].T
        features[3] = 1.0
        np.multiply(pixels[cols, 0], features[:4], out=features[4:8])
        np.multiply(pixels[cols, 1], features[:4], out=features[8:])
        np.matmul(coeffs, features, out=out)
        du, dv, z = out[:k], out[k : 2 * k], out[2 * k :]
        front = z > 0
        du *= du
        dv *= dv
        du += dv
        z *= threshold
        z *= z
        np.less(du, z, out=inliers[:, cols])
        inliers[:, cols] &= front
    return inliers


def ransac_pnp(
    correspondences: CorrespondenceSet, camera: CameraIntrinsics, cfg: RansacConfig, seed: int
) -> PoseEstimate:
    """Robust PnP: batched 3-point hypotheses, subset-first voting, refit.

    Each round draws up to ``HYPOTHESES_PER_ROUND`` 3-point samples and
    solves them together with P3P (``p3p_batch``). Every real root that
    puts its sample in front of the camera is a hypothesis, up to four per
    sample; collinear or coincident samples yield none. Every root of a
    round votes on one vote set: a sorted random subset of
    ``_SCORE_SUBSET`` points drawn once per call if N is larger, else all N
    (no draw). The round's winner (by votes, first of equals) is rescored
    alone on all N. A point votes only if it reprojects within the
    threshold at a positive depth. The full count decides the best
    hypothesis and drives the adaptive budget: ``cfg.max_iterations``
    counts samples drawn across rounds and shrinks with the best inlier
    ratio under the configured confidence, re-evaluated after every round.

    The best hypothesis is refit on its consensus set until the set stops
    changing. The first refit round runs ``solve_pnp``: EPnP on at most
    ``pnp.EPNP_POINTS`` evenly spaced consensus rows, then Gauss-Newton on
    the whole consensus set. The closed form is needed because the best
    minimal-sample pose of a view of one planar face can be the mirrored
    solution, which Gauss-Newton started from it would keep. It is bounded
    because more rows cost time without improving its start, and the
    rows, ordered by exemplar, still span every exemplar crop. Later
    rounds run Gauss-Newton from the previous round's pose. A refit keeps
    a point by the voting rule, at a positive depth. ``seed`` seeds the
    vote subset and the samples, so the result is deterministic for a
    fixed seed.

    Raises:
        RobustFailureError: no hypothesis reached ``min_inliers``; the error
            carries the best hypothesis's inlier mask (all False if none, or
            if there are fewer than ``min_inliers`` correspondences).
    """
    n = len(correspondences)
    if n < cfg.min_inliers:
        raise RobustFailureError(
            f"need at least min_inliers={cfg.min_inliers} correspondences, got {n}",
            inliers=np.zeros(n, dtype=bool),
        )
    # (3, N) and (2, N) columns; every gather below keeps that layout, and
    # callers that read rows get transposed views, which copy nothing
    pts = correspondences.point_columns
    obs = correspondences.pixel_columns
    rng = np.random.default_rng(seed)
    vote_pts, vote_obs = pts, obs  # a small set draws nothing: every root votes on all N
    if n > _SCORE_SUBSET:
        subset = np.sort(rng.choice(n, _SCORE_SUBSET, replace=False))
        vote_pts, vote_obs = pts.take(subset, axis=1), obs.take(subset, axis=1)

    best_count = 0
    best_inliers = np.zeros(n, dtype=bool)
    best_pose = None  # (rotation, translation) of the best hypothesis
    needed = cfg.max_iterations
    drawn = 0
    while drawn < needed:
        samples = _draw_samples(rng, n, min(HYPOTHESES_PER_ROUND, needed - drawn))
        drawn += len(samples)
        rotations, translations, valid = p3p_batch(pts.T[samples], obs.T[samples], camera)
        if not valid.any():
            continue
        rotations, translations = rotations[valid], translations[valid]
        votes = score_hypotheses(
            rotations, translations, vote_pts.T, vote_obs.T, camera, cfg.inlier_threshold
        )
        top = int(np.argmax(np.count_nonzero(votes, axis=1)))  # first of equals
        top_inliers = score_hypotheses(  # the round's winner, on all points
            rotations[top : top + 1], translations[top : top + 1], pts.T, obs.T, camera,
            cfg.inlier_threshold,
        )[0]
        count = int(np.count_nonzero(top_inliers))
        if count > best_count:
            best_count = count
            best_inliers = top_inliers
            best_pose = (rotations[top], translations[top])
            needed = min(
                cfg.max_iterations,
                max(drawn, _adaptive_iterations(best_count / n, cfg.confidence, cfg.max_iterations)),
            )
    if best_count < cfg.min_inliers:
        raise RobustFailureError(
            f"no hypothesis reached min_inliers={cfg.min_inliers} "
            f"(best consensus {best_count}/{n})",
            inliers=best_inliers,
        )

    # final stage: re-solve on the consensus set, re-select, and iterate to
    # the fixed point so the estimate sheds the minimal-sample selection bias
    pose, inliers = RigidPose(*best_pose), best_inliers
    for refit_round in range(MAX_REFIT_ROUNDS):
        rows = np.flatnonzero(inliers)
        consensus = pts.take(rows, axis=1).T, obs.take(rows, axis=1).T
        if refit_round == 0:
            try:
                refined = solve_pnp(*consensus, camera)
            except SolverError:
                break  # keep the previous pose; its inliers remain valid
        else:
            refined, _ = pnp.gauss_newton(camera, pose, *consensus)
        du, dv = reprojection_residuals(camera, refined, pts.T, obs.T).T
        res = np.sqrt(du * du + dv * dv)
        depth = refined.rotation[2] @ pts + refined.translation[2]
        refit = (res < cfg.inlier_threshold) & (depth > 0)
        if int(refit.sum()) < cfg.min_inliers:
            break
        pose = refined
        settled = np.array_equal(refit, inliers)
        inliers = refit
        if settled:
            break
    return PoseEstimate(pose, inliers)


def refine_pose(
    initial: RigidPose,
    exemplar_set: ExemplarSet,
    mesh: MeshModel,
    target_camera: CameraIntrinsics,
    flow_source: FlowSource,
    n_exemplars: int,
    cfg: RansacConfig,
    seed: int,
    *,
    crop_pad: float = DEFAULT_CROP_PAD,
    max_correspondences: int = MAX_CORRESPONDENCES,
) -> RefineResult:
    """One-shot refinement: retrieve, lift per-exemplar flow, solve jointly.

    Retrieves the nearest exemplars to the initial pose, computes crops for
    each exemplar view and one crop for the target (from the initial pose,
    expressed under the exemplar camera so crops compose with the
    intrinsics alignment), lifts every flow field to correspondences,
    aggregates, and runs robust PnP once. Crops are ``DEFAULT_CROP_SIZE``
    pixels square. Lifting leaves the model points pending: the
    subsampling quotas are fixed from the lifted counts, and aggregation
    gathers the points of the kept rows only. ``seed`` seeds the RANSAC
    draws (``ransac_pnp``).

    Returns:
        A ``RefineResult`` for every per-trial outcome. A per-trial error
        (``errors.TRIAL_FAILURES``) raised by the crops, the flow source,
        the lift or RANSAC ends the pass with ``estimate`` None and
        ``failure_reason`` ``"<ErrorClass>: <message>"``. A
        ``RobustFailureError`` keeps one report per retrieved exemplar, its
        inliers counted on the best hypothesis's mask; every other failure
        has no reports.

    Raises:
        MeshHashMismatchError: ``exemplar_set`` was not generated from ``mesh``.
        Every error outside ``errors.TRIAL_FAILURES`` propagates unchanged,
        such as an ``OSError`` from a flow source that writes flow files.
    """
    ensure_mesh_binding(exemplar_set, mesh)
    neighbors = query_nearest(exemplar_set, initial, n_exemplars)

    try:
        crop_target = compute_crop(initial, exemplar_set.camera, mesh, DEFAULT_CROP_SIZE, crop_pad)
        per_exemplar = []
        distances = []
        for rank, exemplar in enumerate(neighbors):
            crop_exemplar = compute_crop(
                exemplar.pose, exemplar.camera, mesh, DEFAULT_CROP_SIZE, crop_pad
            )
            field = flow_source.flow_for(exemplar, rank, crop_exemplar, crop_target)
            per_exemplar.append(
                lift_correspondences(exemplar, field, crop_exemplar, crop_target, target_camera)
            )
            distances.append(geodesic_distance(initial.rotation, exemplar.pose.rotation))

        per_exemplar = subsample_per_exemplar(per_exemplar, max_correspondences)
        merged = aggregate(per_exemplar)
        estimate = ransac_pnp(merged, target_camera, cfg, seed)
    except TRIAL_FAILURES as failure:
        reason = f"{type(failure).__name__}: {failure}"
        if not isinstance(failure, RobustFailureError):
            return RefineResult(None, reason, [])
        # only ransac_pnp raises it, so every retrieved exemplar was lifted
        estimate, inliers = None, failure.inliers
    else:
        reason, inliers = None, estimate.inlier_ids

    reports = []
    for exemplar, corr, dist in zip(neighbors, per_exemplar, distances):
        inl = int(inliers[merged.exemplar_ids == exemplar.id].sum())
        reports.append(ExemplarReport(exemplar.id, float(dist), len(corr), inl))
    return RefineResult(estimate, reason, reports)

"""Pose accuracy metrics: ADD, ADD-S, and AUC."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedInputError
from .geometry import RigidPose, geodesic_distance
from .mesh import MeshModel

BRUTE_FORCE_LIMIT = 5000  # vertex count above which ADD-S switches to a k-d tree
DEFAULT_AUC_THRESHOLD = 0.10  # meters


@dataclass(frozen=True)
class PoseErrorReport:
    """Errors of a predicted pose against ground truth."""

    add: float
    add_s: float
    rotation_err_deg: float
    translation_err_m: float

    def __post_init__(self):
        if min(self.add, self.add_s, self.rotation_err_deg, self.translation_err_m) < 0:
            raise ValueError("error metrics must be non-negative")
        if not self.add_s <= self.add + 1e-12:
            raise ValueError("ADD-S cannot exceed ADD")


def add_error(gt: RigidPose, pred: RigidPose, mesh: MeshModel) -> float:
    """Mean distance between mesh vertices under the two poses."""
    a = gt.transform(mesh.vertices)
    b = pred.transform(mesh.vertices)
    return float(np.linalg.norm(a - b, axis=1).mean())


def add_s_error(gt: RigidPose, pred: RigidPose, mesh: MeshModel) -> float:
    """Mean nearest-neighbor distance from gt-posed to pred-posed vertices.

    Exact brute force for small meshes; k-d tree above BRUTE_FORCE_LIMIT
    (the two paths agree to machine precision on small inputs).
    """
    a = gt.transform(mesh.vertices)
    b = pred.transform(mesh.vertices)
    if len(a) <= BRUTE_FORCE_LIMIT:
        return float(_nn_distances_brute(a, b).mean())
    from scipy.spatial import cKDTree

    dist, _ = cKDTree(b).query(a, k=1)
    return float(np.asarray(dist).mean())


def _nn_distances_brute(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty(len(a))
    chunk = 256
    for start in range(0, len(a), chunk):
        block = a[start : start + chunk]
        d2 = np.sum((block[:, None, :] - b[None, :, :]) ** 2, axis=2)
        out[start : start + chunk] = np.sqrt(d2.min(axis=1))
    return out


def pose_error_report(gt: RigidPose, pred: RigidPose, mesh: MeshModel) -> PoseErrorReport:
    return PoseErrorReport(
        add=add_error(gt, pred, mesh),
        add_s=add_s_error(gt, pred, mesh),
        rotation_err_deg=geodesic_distance(gt.rotation, pred.rotation),
        translation_err_m=float(np.linalg.norm(gt.translation - pred.translation)),
    )


def auc_metric(errors, max_threshold: float = DEFAULT_AUC_THRESHOLD) -> float:
    """Normalized area under the accuracy-vs-threshold curve on [0, max].

    Errors at or above ``max_threshold`` contribute zero; the exact area of
    the step-function accuracy curve is mean(1 - e / max) over clipped e.
    """
    if max_threshold <= 0:
        raise ValueError("max_threshold must be positive")
    errs = np.asarray(list(errors), dtype=np.float64)
    if errs.size == 0:
        raise UndefinedInputError("AUC over an empty error list is undefined")
    clipped = np.clip(errs, 0.0, max_threshold)
    return float(np.mean(1.0 - clipped / max_threshold))

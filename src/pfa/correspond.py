"""3D-to-2D correspondence sets lifted from flow fields."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crops import CropTransform, apply_homography
from .errors import ConfigurationError
from .exemplars import Exemplar
from .flow import FlowField, sample_exemplar
from .geometry import CameraIntrinsics

IMAGE_MARGIN = 0.20  # lifted pixels may exit the image by this fraction


@dataclass(eq=False)
class CorrespondenceSet:
    """Columnar storage of (model point, target pixel, source exemplar)."""

    points: np.ndarray  # (N, 3) float64, model frame
    pixels: np.ndarray  # (N, 2) float64, original target image
    exemplar_ids: np.ndarray  # (N,) int32

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        self.pixels = np.asarray(self.pixels, dtype=np.float64).reshape(-1, 2)
        self.exemplar_ids = np.asarray(self.exemplar_ids, dtype=np.int32).reshape(-1)
        if not (len(self.points) == len(self.pixels) == len(self.exemplar_ids)):
            raise ValueError("correspondence columns disagree in length")

    def __len__(self) -> int:
        return len(self.points)

    def take(self, indices) -> "CorrespondenceSet":
        return CorrespondenceSet(
            self.points[indices], self.pixels[indices], self.exemplar_ids[indices]
        )

    @classmethod
    def empty(cls) -> "CorrespondenceSet":
        return cls(np.empty((0, 3)), np.empty((0, 2)), np.empty(0, dtype=np.int32))


def lift_correspondences(
    exemplar: Exemplar,
    flow: FlowField,
    crop_exemplar: CropTransform,
    crop_target: CropTransform,
    target_camera: CameraIntrinsics,
) -> CorrespondenceSet:
    """Turn a flow field into correspondences in the original target image.

    Each valid crop pixel contributes the bilinearly sampled model point of
    the exemplar plus the flow-displaced crop pixel lifted back through the
    target crop and the intrinsics alignment. Pixels whose model point
    cannot be sampled inside the exemplar mask, or whose lifted pixel exits
    the image bounds by more than 20%, are dropped.
    """
    size = crop_exemplar.out_size
    if crop_target.out_size != size:
        raise ConfigurationError(
            f"crop sizes disagree: {size} vs {crop_target.out_size}"
        )
    if flow.width != size or flow.height != size:
        raise ConfigurationError(
            f"flow is {flow.width}x{flow.height}, crops are {size}x{size}"
        )

    if not flow.valid.any():
        return CorrespondenceSet.empty()
    pixels, points, _ = sample_exemplar(
        exemplar, crop_exemplar, np.flatnonzero(flow.valid)  # row-major order
    )
    rows, cols = np.divmod(pixels, size)
    centers = np.stack([cols + 0.5, rows + 0.5], axis=-1)
    displaced = centers + np.stack(
        [
            flow.du.reshape(-1)[pixels].astype(np.float64),
            flow.dv.reshape(-1)[pixels].astype(np.float64),
        ],
        axis=-1,
    )
    back = (
        target_camera.matrix
        @ exemplar.camera.inverse_matrix
        @ crop_target.inverse_matrix()
    )
    lifted = apply_homography(back, displaced)

    mx = IMAGE_MARGIN * target_camera.width
    my = IMAGE_MARGIN * target_camera.height
    ok = (
        (lifted[:, 0] >= -mx)
        & (lifted[:, 0] < target_camera.width + mx)
        & (lifted[:, 1] >= -my)
        & (lifted[:, 1] < target_camera.height + my)
    )
    ids = np.full(int(ok.sum()), exemplar.id, dtype=np.int32)
    return CorrespondenceSet(points[ok], lifted[ok], ids)


def aggregate(sets) -> CorrespondenceSet:
    """Concatenate per-exemplar correspondences, ordered by exemplar id.

    Within one exemplar the row-major pixel order of lifting is preserved.
    """
    sets = list(sets)
    if not sets:
        return CorrespondenceSet.empty()
    order = sorted(
        range(len(sets)),
        key=lambda i: int(sets[i].exemplar_ids[0]) if len(sets[i]) else -1,
    )
    return CorrespondenceSet(
        np.concatenate([sets[i].points for i in order]),
        np.concatenate([sets[i].pixels for i in order]),
        np.concatenate([sets[i].exemplar_ids for i in order]),
    )


def subsample_per_exemplar(sets, cap: int):
    """Deterministically thin per-exemplar sets so the total stays <= cap.

    Each set keeps an evenly spaced subset proportional to its share of the
    total; no randomness is involved.
    """
    sets = list(sets)
    total = sum(len(s) for s in sets)
    if total <= cap or total == 0:
        return sets
    out = []
    for s in sets:
        quota = int(np.floor(cap * len(s) / total))
        if quota >= len(s):
            out.append(s)
            continue
        if quota == 0:
            out.append(s.take(np.empty(0, dtype=np.int64)))
            continue
        idx = np.round(np.linspace(0, len(s) - 1, quota)).astype(np.int64)
        out.append(s.take(idx))
    return out

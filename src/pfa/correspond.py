"""3D-to-2D correspondence sets lifted from flow fields."""

from __future__ import annotations

import numpy as np

from .crops import CropTransform, crop_to_image_matrix, homography_xy
from .exemplars import Exemplar
from .flow import CropSampler, FlowField
from .geometry import CameraIntrinsics

IMAGE_MARGIN = 0.20  # lifted pixels may exit the image by this fraction


class CorrespondenceSet:
    """Columnar storage of (model point, target pixel, source exemplar).

    Model points are one C-contiguous (3, N) float64 array,
    ``point_columns``, and target pixels one (2, N) array,
    ``pixel_columns``: a row per coordinate and a column per
    correspondence, the layout the solvers compute in. ``points`` and
    ``pixels`` are their (N, 3) and (N, 2) transposed views. The
    constructor takes rows, and rows that are such a view of contiguous
    columns are stored without a copy.

    ``points`` may be given pending, as a (CropSampler, exemplar-crop
    pixels) pair, as lifting does; the model points are then gathered on
    first access. ``take`` narrows the pending pixels, so thinning a set
    before reading its points gathers only the rows kept.
    """

    def __init__(self, points, pixels, exemplar_ids):
        pending = isinstance(points, tuple)
        self._point_columns = points if pending else _columns(points, 3)
        self.pixel_columns = _columns(pixels, 2)
        self.exemplar_ids = np.asarray(exemplar_ids, dtype=np.int32).reshape(-1)
        rows = len(points[1]) if pending else self._point_columns.shape[1]
        if not (rows == self.pixel_columns.shape[1] == len(self.exemplar_ids)):
            raise ValueError("correspondence columns disagree in length")

    @property
    def point_columns(self) -> np.ndarray:
        """(3, N) float64 model points, gathered on first access if pending."""
        if isinstance(self._point_columns, tuple):
            sampler, crop_pixels = self._point_columns
            self._point_columns = _columns(sampler.points(crop_pixels), 3)
        return self._point_columns

    @property
    def points(self) -> np.ndarray:
        """(N, 3) view of ``point_columns``."""
        return self.point_columns.T

    @property
    def pixels(self) -> np.ndarray:
        """(N, 2) view of ``pixel_columns``."""
        return self.pixel_columns.T

    def __len__(self) -> int:
        return len(self.exemplar_ids)

    def take(self, indices) -> "CorrespondenceSet":
        points = self._point_columns
        if isinstance(points, tuple):
            points = (points[0], points[1].take(indices))
        else:
            points = points.take(indices, axis=1).T
        return CorrespondenceSet(
            points, self.pixel_columns.take(indices, axis=1).T, self.exemplar_ids.take(indices)
        )


def _columns(rows, width: int) -> np.ndarray:
    """(width, N) C-contiguous float64 columns of (N, width) rows; a transposed
    view of such columns comes back as its base, uncopied."""
    return np.ascontiguousarray(np.asarray(rows, dtype=np.float64).reshape(-1, width).T)


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

    This is the cheap pass: it tests and lifts every valid flow vector but
    leaves the model points pending (see ``CorrespondenceSet``), so the
    subsampling quotas are fixed before the points of the kept rows are
    gathered.

    The caller guarantees that the flow and both crops have one size.
    """
    size = crop_exemplar.out_size
    sampler = CropSampler(exemplar, crop_exemplar)
    rows = flow.indices // size
    cols = flow.indices - rows * size
    back = crop_to_image_matrix(crop_target, exemplar.camera, target_camera)
    # the flow-displaced pixel centers, lifted column by column
    x, y = homography_xy(back, cols + 0.5 + flow.vectors[:, 0], rows + 0.5 + flow.vectors[:, 1])

    mx = IMAGE_MARGIN * target_camera.width
    my = IMAGE_MARGIN * target_camera.height
    ok = (
        sampler.footprint(rows, cols)
        & (x >= -mx)
        & (x < target_camera.width + mx)
        & (y >= -my)
        & (y < target_camera.height + my)
    )
    ids = np.full(int(ok.sum()), exemplar.id, dtype=np.int32)
    lifted = np.stack([np.compress(ok, x), np.compress(ok, y)])
    return CorrespondenceSet((sampler, np.compress(ok, flow.indices)), lifted.T, ids)


def aggregate(sets) -> CorrespondenceSet:
    """Concatenate per-exemplar correspondences (at least one set), ordered
    by exemplar id.

    Within one exemplar the row-major pixel order of lifting is preserved.
    Pending model points are gathered here.
    """
    sets = list(sets)
    order = sorted(
        range(len(sets)),
        key=lambda i: int(sets[i].exemplar_ids[0]) if len(sets[i]) else -1,
    )
    return CorrespondenceSet(
        np.concatenate([sets[i].point_columns for i in order], axis=1).T,
        np.concatenate([sets[i].pixel_columns for i in order], axis=1).T,
        np.concatenate([sets[i].exemplar_ids for i in order]),
    )


def subsample_per_exemplar(sets, cap: int):
    """Deterministically thin per-exemplar sets so the total stays <= cap.

    Each set keeps an evenly spaced subset proportional to its share of the
    total; no randomness is involved.
    """
    sets = list(sets)
    total = sum(len(s) for s in sets)
    if total <= cap:
        return sets
    return [
        s.take(np.round(np.linspace(0, len(s) - 1, int(cap * len(s) / total))).astype(np.int64))
        for s in sets
    ]

"""ADD / ADD-S / threshold accuracy / AUC metrics."""

from dataclasses import asdict

import numpy as np
import pytest

from helpers import make_plate, make_tetrahedron
from pfa.errors import UndefinedInputError
from pfa.geometry import RigidPose, rotation_about_axis, sample_rotations
from pfa.mesh import make_box
from pfa.metrics import (
    BRUTE_FORCE_LIMIT,
    PoseErrorReport,
    _nn_distances_brute,
    add_error,
    add_s_error,
    auc_metric,
    pose_error_report,
)
from pfa.pipeline import summarize_records


def _random_pose(rng):
    r = sample_rotations(1, int(rng.integers(1 << 30)))[0]
    return RigidPose(r, rng.uniform(-0.2, 0.2, size=3) + [0, 0, 1.0])


class TestAdd:
    def test_identical_poses(self):
        mesh = make_box((0.1, 0.1, 0.1))
        pose = RigidPose(rotation_about_axis([1, 1, 0], 25), [0, 0, 1])
        assert add_error(pose, pose, mesh) == 0.0

    def test_pure_translation(self):
        mesh = make_box((0.1, 0.1, 0.1))
        gt = RigidPose.identity()
        pred = RigidPose(np.eye(3), [0.01, 0.0, 0.0])
        assert abs(add_error(gt, pred, mesh) - 0.01) < 1e-15

    def test_matches_per_vertex_loop(self):
        rng = np.random.default_rng(12)
        mesh = make_tetrahedron(0.1)
        for _ in range(20):
            gt, pred = _random_pose(rng), _random_pose(rng)
            loop = np.mean(
                [
                    np.linalg.norm(gt.transform(v) - pred.transform(v))
                    for v in mesh.vertices
                ]
            )
            assert abs(add_error(gt, pred, mesh) - loop) < 1e-12


class TestAddS:
    def test_identical_poses(self):
        mesh = make_box((0.1, 0.1, 0.1))
        pose = RigidPose.identity()
        assert add_s_error(pose, pose, mesh) == 0.0

    def test_never_exceeds_add(self):
        rng = np.random.default_rng(13)
        mesh = make_box((0.12, 0.07, 0.05))
        for _ in range(100):
            gt, pred = _random_pose(rng), _random_pose(rng)
            assert add_s_error(gt, pred, mesh) <= add_error(gt, pred, mesh) + 1e-12

    def test_symmetric_plate_half_turn(self):
        plate = make_plate(0.2)
        gt = RigidPose(np.eye(3), [0, 0, 1.0])
        pred = RigidPose(rotation_about_axis([0, 0, 1], 180.0), [0, 0, 1.0])
        assert add_error(gt, pred, plate) > 0.1  # asymmetric metric sees the turn
        assert add_s_error(gt, pred, plate) < 1e-9

    def test_matches_brute_force_nn(self):
        rng = np.random.default_rng(14)
        mesh = make_box((0.1, 0.08, 0.06))
        gt, pred = _random_pose(rng), _random_pose(rng)
        a = gt.transform(mesh.vertices)
        b = pred.transform(mesh.vertices)
        oracle = np.mean(
            [np.linalg.norm(b - p, axis=1).min() for p in a]
        )
        assert abs(add_s_error(gt, pred, mesh) - oracle) < 1e-12

    def test_kdtree_path_agrees_with_brute_force(self):
        rng = np.random.default_rng(15)
        a = rng.normal(size=(500, 3))
        b = rng.normal(size=(500, 3))
        from scipy.spatial import cKDTree

        tree, _ = cKDTree(b).query(a, k=1)
        assert np.abs(_nn_distances_brute(a, b) - tree).max() < 1e-12
        assert BRUTE_FORCE_LIMIT == 5000


def _accuracy(errors, diameter: float) -> dict:
    """``summarize_records``' refined add_01d and add_05d over ADD errors (None fails)."""
    trials = [
        {"initial_report": None,
         "refined_report": None if e is None else asdict(PoseErrorReport(e, e, 0.0, 0.0))}
        for e in errors
    ]
    records = {"label": "t", "n_exemplars": 1, "diameter": diameter, "trials": trials}
    refined = summarize_records(records)["refined"]
    return {key: refined[key] for key in ("add_01d", "add_05d")}


class TestAccuracyThreshold:
    def setup_method(self):
        self.d = make_box((0.1, 0.1, 0.1)).diameter

    def test_all_zero(self):
        assert _accuracy([0.0, 0.0, 0.0], self.d) == {"add_01d": 1.0, "add_05d": 1.0}

    def test_split_list(self):
        errors = [0.05 * self.d, 0.15 * self.d]
        assert _accuracy(errors, self.d) == {"add_01d": 0.5, "add_05d": 1.0}
        # strictly below the threshold; a failed trial is never accurate
        assert _accuracy([0.1 * self.d, None], self.d) == {"add_01d": 0.0, "add_05d": 0.5}

    def test_empty_rejected(self):
        with pytest.raises(UndefinedInputError):
            _accuracy([], self.d)

    def test_monotone_in_fraction(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            accuracy = _accuracy(list(rng.uniform(0, self.d, size=50)), self.d)
            assert accuracy["add_05d"] >= accuracy["add_01d"]


class TestAuc:
    def test_perfect(self):
        assert auc_metric([0.0, 0.0], 0.10) == 1.0

    def test_all_beyond_threshold(self):
        assert auc_metric([0.1, 0.3], 0.10) == 0.0

    def test_single_error_at_half(self):
        assert abs(auc_metric([0.05], 0.10) - 0.5) < 1e-15

    def test_matches_numeric_integration(self):
        rng = np.random.default_rng(17)
        errors = rng.uniform(0, 0.2, size=200)
        taus = np.linspace(0, 0.10, 100001)
        accuracy = np.mean(errors[None, :] < taus[:, None], axis=1)
        trapezoid = getattr(np, "trapezoid", None) or np.trapz  # np.trapz below numpy 2.0
        numeric = trapezoid(accuracy, taus) / 0.10
        assert abs(auc_metric(errors, 0.10) - numeric) < 1e-4

    def test_monotone_nonincreasing_in_errors(self):
        errors = np.array([0.01, 0.02, 0.05])
        base = auc_metric(errors, 0.10)
        for i in range(3):
            bumped = errors.copy()
            bumped[i] += 0.01
            assert auc_metric(bumped, 0.10) <= base

    def test_empty_rejected(self):
        with pytest.raises(UndefinedInputError):
            auc_metric([], 0.10)


class TestPoseErrorReport:
    def test_fields_consistent(self):
        rng = np.random.default_rng(18)
        mesh = make_box((0.1, 0.08, 0.06))
        gt, pred = _random_pose(rng), _random_pose(rng)
        report = pose_error_report(gt, pred, mesh)
        assert report.add_s <= report.add + 1e-12
        assert report.rotation_err_deg >= 0 and report.translation_err_m >= 0

    def test_rejects_inconsistent_values(self):
        with pytest.raises(ValueError):
            PoseErrorReport(add=0.1, add_s=0.2, rotation_err_deg=1.0, translation_err_m=0.0)

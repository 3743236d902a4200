import numpy as np
import pytest

from dropcast.errors import InvalidArgumentError, KindMismatchError, LengthMismatchError, NoSplitError, SingleClassError
from dropcast.metrics import (
    accuracy,
    auc,
    forest_importance,
    roc_curve,
)
from dropcast.models import HyperParams, ModelKind, train_model

from conftest import make_binary
from oracles import pair_count_auc, trapezoid_area


class TestRocCurve:
    def test_perfect_separation_passes_through_corner(self):
        curve = roc_curve([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0])
        points = list(zip(curve.fpr.tolist(), curve.tpr.tolist()))
        assert (0.0, 1.0) in points

    def test_all_scores_equal_two_points(self):
        curve = roc_curve([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
        assert curve.fpr.tolist() == [0.0, 1.0]
        assert curve.tpr.tolist() == [0.0, 1.0]

    def test_hand_enumerated_points(self):
        # Thresholds sweep 0.9, 0.8, 0.3, 0.2 over labels 1,0,1,0:
        # (tp,fp) = (1,0), (1,1), (2,1), (2,2) out of 2 positives and
        # 2 negatives, plus the (0,0) anchor.
        curve = roc_curve([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0])
        assert curve.fpr.tolist() == [0.0, 0.0, 0.5, 0.5, 1.0]
        assert curve.tpr.tolist() == [0.0, 0.5, 0.5, 1.0, 1.0]
        assert np.isinf(curve.thresholds[0])
        assert curve.thresholds[1:].tolist() == [0.9, 0.8, 0.3, 0.2]

    def test_anchors_and_monotonicity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            scores = np.round(rng.normal(size=n), 1)  # quantized: plenty of ties
            curve = roc_curve(scores, labels)
            assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
            assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
            assert (np.diff(curve.fpr) >= 0).all()
            assert (np.diff(curve.tpr) >= 0).all()

    def test_single_class_raises(self):
        with pytest.raises(SingleClassError):
            roc_curve([0.1, 0.2], [1, 1])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            roc_curve([0.1, 0.2], [1, 0, 1])


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_ties_half(self):
        assert auc([0.5, 0.5, 0.5], [1, 0, 1]) == 0.5

    def test_hand_pair_count(self):
        # pairs: (0.9 vs 0.8) win, (0.9 vs 0.2) win, (0.3 vs 0.8) loss,
        # (0.3 vs 0.2) win -> 3/4
        assert auc([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0]) == 0.75

    def test_equals_pair_count_oracle_exactly(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            n = int(rng.integers(2, 120))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            # Mix of continuous and heavily quantized scores.
            if rng.random() < 0.5:
                scores = rng.normal(size=n)
            else:
                scores = rng.integers(0, 4, size=n).astype(float) / 3.0
            assert auc(scores, labels) == pair_count_auc(scores, labels)

    def test_flip_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(4, 80))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            scores = np.round(rng.normal(size=n), 1)
            value = auc(scores, labels)
            assert auc(-scores, 1 - labels) == pytest.approx(value, abs=1e-15)
            assert auc(scores, 1 - labels) == pytest.approx(1.0 - value, abs=1e-15)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(4, 60))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            scores = rng.normal(size=n)
            value = auc(scores, labels)
            assert auc(np.exp(scores), labels) == pytest.approx(value, abs=1e-15)
            assert auc(3.0 * scores + 7.0, labels) == pytest.approx(value, abs=1e-15)

    def test_trapezoid_equals_rank_auc(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 100))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            scores = np.round(rng.normal(size=n), 1)
            value = auc(scores, labels)
            area = trapezoid_area(roc_curve(scores, labels))
            assert abs(value - area) < 1e-12


@pytest.mark.parametrize("metric", [roc_curve, auc, lambda s, y: accuracy(s, y, threshold=0.5)],
                         ids=["roc_curve", "auc", "accuracy"])
def test_labels_other_than_zero_and_one_rejected(metric):
    # Counting a 2 as a positive or as a negative would each give a number.
    with pytest.raises(InvalidArgumentError, match="0 or 1"):
        metric([0.1, 0.2, 0.3], [0, 2, 1])
    # A fractional label must not be truncated to 0 first.
    with pytest.raises(InvalidArgumentError, match="0 or 1"):
        metric([0.1, 0.9, 0.5], [0.7, 1, 0])


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([0.9, 0.1], [1, 0], threshold=0.5) == 1.0

    def test_flipped_labels_complement(self):
        scores = [0.9, 0.1, 0.7, 0.2]
        labels = np.array([1, 0, 0, 1])
        a = accuracy(scores, labels, threshold=0.5)
        assert accuracy(scores, 1 - labels, threshold=0.5) == pytest.approx(1.0 - a)

    def test_single_row(self):
        assert accuracy([0.7], [1], threshold=0.5) == 1.0


class TestForestImportance:
    def test_single_informative_column_dominates(self):
        rng = np.random.default_rng(3)
        n = 200
        y = rng.integers(0, 2, size=n)
        x = np.zeros((n, 5))
        x[:, 2] = y * 4 + rng.normal(scale=0.1, size=n)  # only column 2 carries signal
        ds = make_binary(x, y)
        model = train_model(ModelKind.RANDOM_FOREST, ds, HyperParams(forest_n_trees=20, seed=1))
        importance = forest_importance(model)
        assert int(np.argmax(importance)) == 2
        assert importance[2] > 0.9

    def test_importances_sum_to_one(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(120, 6))
        y = (x[:, 0] + x[:, 3] > 0).astype(int)
        ds = make_binary(x, y)
        model = train_model(ModelKind.RANDOM_FOREST, ds, HyperParams(forest_n_trees=15, seed=2))
        importance = forest_importance(model)
        assert importance.shape == (6,)
        assert importance.sum() == pytest.approx(1.0, abs=1e-9)
        assert (importance >= 0).all()

    def test_kind_mismatch(self):
        ds = make_binary(np.array([[0.0], [1.0]]), [0, 1])
        model = train_model(ModelKind.DECISION_TREE, ds, HyperParams())
        with pytest.raises(KindMismatchError):
            forest_importance(model)

    def test_no_split_error(self):
        # All-identical rows: no tree can split.
        ds = make_binary(np.ones((10, 3)), [1] * 10)
        model = train_model(ModelKind.RANDOM_FOREST, ds, HyperParams(forest_n_trees=5, seed=3))
        with pytest.raises(NoSplitError):
            forest_importance(model)

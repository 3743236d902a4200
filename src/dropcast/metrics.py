"""ROC curves, AUC, accuracy, and impurity-based feature importance.

AUC follows the Mann-Whitney convention: over all (positive, negative)
pairs a strict win counts 1 and a tied pair counts 0.5. Scores from the
tree-based models and k-NN are heavily quantized, so the tie rule is
load-bearing here, not a corner case.

ROC curves carry one point per distinct score (tied rows move across
the threshold together) plus the (0, 0) anchor, whose threshold is
+infinity. The trapezoid area under that curve is the Mann-Whitney
statistic (Bamber 1975), so the AUC comes from the curve's tie runs as
twice the win count, an exact integer, over 2 * n_pos * n_neg; it
equals brute-force pair counting bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, KindMismatchError, LengthMismatchError, NoSplitError, SingleClassError
from .ingest import FeatureGroup
from .models import ModelKind, TrainedModel
from .models.forest import Forest


@dataclass(frozen=True)
class RocCurve:
    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray  # thresholds[0] is +inf for the (0, 0) anchor


@dataclass(frozen=True)
class RocReport:
    """One (model, feature subset, seed) evaluation."""

    model_kind: ModelKind
    excluded_group: FeatureGroup | None
    seed: int
    auc: float
    accuracy: float
    curve: RocCurve
    svm_objective: float | None = None


def _validate_pair(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise LengthMismatchError(
            f"scores and labels must be equal-length vectors, got {scores.shape} and {labels.shape}"
        )
    # Checked before the cast, which would truncate a fractional label to 0 or 1.
    if not np.isin(labels, (0, 1)).all():
        raise InvalidArgumentError("labels must be 0 or 1")
    return scores, labels.astype(np.int64, copy=False)


def _tie_runs(scores, labels):
    """n_pos, n_neg and, for each distinct score, descending, the score
    and the cumulative integer true- and false-positive counts of the
    rows scoring at least it. Both classes must be present."""
    scores, labels = _validate_pair(scores, labels)
    n_pos = int((labels == 1).sum())
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("need at least one positive and one negative label")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    # Last index of each distinct-score run.
    run_ends = np.append(np.nonzero(np.diff(sorted_scores))[0], scores.shape[0] - 1)
    tp = np.cumsum(labels[order])[run_ends]
    return n_pos, n_neg, sorted_scores[run_ends], tp, (run_ends + 1) - tp


def roc_curve(scores, labels) -> RocCurve:
    """Sweep thresholds over distinct score values, descending."""
    n_pos, n_neg, run_scores, tp, fp = _tie_runs(scores, labels)
    fpr = np.concatenate([[0.0], fp / n_neg])
    tpr = np.concatenate([[0.0], tp / n_pos])
    thresholds = np.concatenate([[np.inf], run_scores])
    for arr in (fpr, tpr, thresholds):
        arr.setflags(write=False)
    return RocCurve(fpr=fpr, tpr=tpr, thresholds=thresholds)


def auc(scores, labels) -> float:
    """Mann-Whitney AUC with ties counting one half.

    Twice the win count is the integer sum of Δfp * (tp_prev + tp) over
    the ROC's tie runs, so the value equals exhaustive pair counting.
    """
    n_pos, n_neg, _, tp, fp = _tie_runs(scores, labels)
    twice_wins = int(np.diff(fp, prepend=0) @ (tp + np.concatenate([[0], tp[:-1]])))
    return twice_wins / (2 * n_pos * n_neg)


def accuracy(scores, labels, threshold: float) -> float:
    """Fraction of rows where (score >= threshold) matches the label."""
    scores, labels = _validate_pair(scores, labels)
    if scores.shape[0] == 0:
        raise LengthMismatchError("accuracy over zero rows is undefined")
    predicted = (scores >= threshold).astype(np.int64)
    return float((predicted == labels).mean())


def forest_importance(model: TrainedModel) -> np.ndarray:
    """Mean decrease in impurity, averaged over trees, normalized to 1,
    one value per feature column in column order.

    Each split contributes (node samples / root samples) times the drop
    from its node's Gini to the weighted Gini of its children.
    """
    if model.kind is not ModelKind.RANDOM_FOREST:
        raise KindMismatchError(f"feature importance needs a random forest, got {model.kind.value}")
    forest: Forest = model.payload
    totals = np.zeros(model.n_features, dtype=np.float64)
    any_split = False
    for tree in forest.trees:
        internal = tree.feature >= 0
        if not internal.any():
            continue
        any_split = True
        n = tree.n_samples.astype(np.float64)
        pos = tree.n_positive.astype(np.float64)
        gini = 1.0 - (pos / n) ** 2 - ((n - pos) / n) ** 2
        nodes = np.nonzero(internal)[0]
        lefts = tree.left[nodes]
        rights = tree.right[nodes]
        child_gini = (n[lefts] * gini[lefts] + n[rights] * gini[rights]) / n[nodes]
        drop = (n[nodes] / n[0]) * (gini[nodes] - child_gini)
        np.add.at(totals, tree.feature[nodes], drop)
    if not any_split:
        raise NoSplitError("every tree in the forest is a single leaf")

    totals /= len(forest.trees)
    totals /= totals.sum()
    return totals

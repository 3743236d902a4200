"""ROC curves, AUC, accuracy, and impurity-based feature importance.

AUC follows the Mann-Whitney convention: over all (positive, negative)
pairs a strict win counts 1 and a tied pair counts 0.5. Scores from the
tree-based models and k-NN are heavily quantized, so the tie rule is
load-bearing here, not a corner case. The rank-based computation below
is exact: every intermediate is an integer or half-integer well inside
float64's exact range, so the result equals brute-force pair counting
bit for bit.

ROC curves carry one point per distinct score (tied rows move across
the threshold together) plus the (0, 0) anchor, whose threshold is
+infinity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KindMismatchError, LengthMismatchError, NoSplitError, SingleClassError
from .ingest import FeatureGroup
from .models import ModelKind, TrainedModel
from .models.forest import Forest


@dataclass(frozen=True)
class RocCurve:
    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray  # thresholds[0] is +inf for the (0, 0) anchor

    @property
    def n_points(self) -> int:
        return self.fpr.shape[0]


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


@dataclass(frozen=True)
class ImportanceReport:
    """(feature name, importance) sorted by descending importance;
    importances are normalized to sum to 1."""

    entries: tuple[tuple[str, float], ...]

    def top_names(self, k: int) -> set[str]:
        return {name for name, _ in self.entries[:k]}


def _validate_pair(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise LengthMismatchError(
            f"scores and labels must be equal-length vectors, got {scores.shape} and {labels.shape}"
        )
    return scores, labels


def _require_both_classes(labels: np.ndarray) -> tuple[int, int]:
    n_pos = int((labels == 1).sum())
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("need at least one positive and one negative label")
    return n_pos, n_neg


def roc_curve(scores, labels) -> RocCurve:
    """Sweep thresholds over distinct score values, descending."""
    scores, labels = _validate_pair(scores, labels)
    n_pos, n_neg = _require_both_classes(labels)

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # Last index of each distinct-score run.
    boundary = np.nonzero(np.diff(sorted_scores))[0]
    run_ends = np.concatenate([boundary, [scores.shape[0] - 1]])

    tp = np.cumsum(sorted_labels)[run_ends]
    fp = (run_ends + 1) - tp
    fpr = np.concatenate([[0.0], fp / n_neg])
    tpr = np.concatenate([[0.0], tp / n_pos])
    thresholds = np.concatenate([[np.inf], sorted_scores[run_ends]])
    for arr in (fpr, tpr, thresholds):
        arr.setflags(write=False)
    return RocCurve(fpr=fpr, tpr=tpr, thresholds=thresholds)


def auc(scores, labels) -> float:
    """Mann-Whitney AUC with ties counting one half.

    Computed from mid-ranks: all intermediates are exact half-integers,
    so the value equals exhaustive pair counting exactly.
    """
    scores, labels = _validate_pair(scores, labels)
    n_pos, n_neg = _require_both_classes(labels)

    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    n = scores.shape[0]
    boundary = np.nonzero(np.diff(sorted_scores))[0]
    run_ends = np.concatenate([boundary, [n - 1]]).astype(np.float64)
    run_starts = np.concatenate([[0.0], boundary.astype(np.float64) + 1.0])
    # 1-based mid-rank of each tie run, a half-integer.
    mid = (run_starts + run_ends) / 2.0 + 1.0
    run_of_row = np.zeros(n, dtype=np.int64)
    run_of_row[run_starts[1:].astype(np.int64)] = 1
    run_of_row = np.cumsum(run_of_row)
    ranks = mid[run_of_row]

    pos_rank_sum = float(ranks[labels[order] == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def accuracy(scores, labels, threshold: float) -> float:
    """Fraction of rows where (score >= threshold) matches the label."""
    scores, labels = _validate_pair(scores, labels)
    if scores.shape[0] == 0:
        raise LengthMismatchError("accuracy over zero rows is undefined")
    predicted = (scores >= threshold).astype(np.int64)
    return float((predicted == labels).mean())


def forest_importance(model: TrainedModel, feature_names) -> ImportanceReport:
    """Mean decrease in impurity, averaged over trees, normalized to 1.

    Each split contributes (node samples / root samples) times the drop
    from its node's Gini to the weighted Gini of its children.
    """
    if model.kind is not ModelKind.RANDOM_FOREST:
        raise KindMismatchError(f"feature importance needs a random forest, got {model.kind.value}")
    forest: Forest = model.payload
    feature_names = tuple(feature_names)
    if len(feature_names) != model.n_features:
        raise LengthMismatchError(
            f"{model.n_features} features in model, {len(feature_names)} names given"
        )

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
    ranked = sorted(zip(feature_names, totals), key=lambda item: (-item[1], item[0]))
    return ImportanceReport(entries=tuple((name, float(v)) for name, v in ranked))

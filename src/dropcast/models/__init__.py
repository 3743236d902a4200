"""The four binary classifiers under one train/score contract.

``train_model`` is the one trainer, a pure function of (model kind,
dataset, training rows, hyperparameters); scoring returns one finite
real per row, higher meaning more dropout-like. Both take raw feature
values for all four kinds: for the SVM and k-NN, ``train_model`` fits a
standardizer on the training rows and the model carries it, so
``score`` standardizes incoming rows itself.

A fit reads its training rows from the dataset's own matrix: trees and
forests code one column at a time at those rows, and the SVM and k-NN
gather them once and standardize that gather in place. The k-NN model
keeps that gather; Pegasos copies it once more, with its bias column.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidArgumentError
from ..ingest import Dataset
from ..preprocess import Standardizer, apply_standardizer, fit_standardizer
from ..rng import check_seed
from .forest import Forest, build_forest, forest_scores
from .knn import KnnModel, knn_scores, train_knn as _fit_knn
from .svm import LinearSvm, svm_scores, train_svm as _fit_svm
from .tree import Tree, build_tree, tree_scores


class ModelKind(enum.Enum):
    DECISION_TREE = "dt"
    RANDOM_FOREST = "rf"
    LINEAR_SVM = "svc"
    KNN = "knn"

    @property
    def label(self) -> str:
        return _LABELS[self]

    @property
    def needs_standardization(self) -> bool:
        return self in (ModelKind.LINEAR_SVM, ModelKind.KNN)

    @property
    def accuracy_threshold(self) -> float:
        """Decision threshold for hard labels: 0 for margin scores,
        0.5 for fraction-of-positives scores."""
        return 0.0 if self is ModelKind.LINEAR_SVM else 0.5


_LABELS = {
    ModelKind.LINEAR_SVM: "SVC",
    ModelKind.DECISION_TREE: "DT",
    ModelKind.RANDOM_FOREST: "RF",
    ModelKind.KNN: "KNN",
}

GRID_MODEL_ORDER = (
    ModelKind.LINEAR_SVM,
    ModelKind.DECISION_TREE,
    ModelKind.RANDOM_FOREST,
    ModelKind.KNN,
)


@dataclass(frozen=True)
class HyperParams:
    """The six model settings, one per CLI flag. The forest's other
    settings are fixed: bootstrap samples, ceil(sqrt(p)) candidates per
    split, no depth limit (see ``forest``)."""

    tree_max_depth: int = 5
    forest_n_trees: int = 100
    svm_regularization_c: float = 1.0
    svm_epochs: int = 200
    knn_k: int = 20
    seed: int = 42

    def __post_init__(self):
        counts = {
            "tree_max_depth": self.tree_max_depth,
            "forest_n_trees": self.forest_n_trees,
            "svm_epochs": self.svm_epochs,
            "knn_k": self.knn_k,
        }
        for name, value in counts.items():
            if value < 1:
                raise InvalidArgumentError(f"{name} must be >= 1, got {value}")
        if not (math.isfinite(self.svm_regularization_c) and self.svm_regularization_c > 0):
            raise InvalidArgumentError(
                f"svm_regularization_c must be positive and finite, got {self.svm_regularization_c}"
            )
        check_seed(self.seed)


@dataclass(frozen=True)
class TrainedModel:
    kind: ModelKind
    n_features: int
    payload: Tree | Forest | LinearSvm | KnnModel
    standardizer: Standardizer | None = None


def _check_finite(matrix: np.ndarray, problem: str, rows: np.ndarray | None = None) -> None:
    """Reject the first row (of ``rows`` when given, named by its place
    there) with a value that is not finite; the rows are gathered only
    when the matrix holds such a value."""
    if np.isfinite(matrix).all():
        return
    finite = np.isfinite(matrix if rows is None else matrix[rows]).all(axis=1)
    if not finite.all():
        raise InvalidArgumentError(f"row {int(np.argmin(finite))} {problem}")


def train_model(
    kind: ModelKind, data: Dataset, hp: HyperParams, rows: np.ndarray | None = None
) -> TrainedModel:
    """Fit one model of ``kind`` on the raw rows ``rows`` of ``data``
    (every row when None), in that order; an SVM or k-NN model carries
    the standardizer fitted on them. Non-finite features and labels
    other than 0 or 1 in those rows are rejected, a row named by its
    place in ``rows``."""
    x = data.feature_matrix
    y = data.labels if rows is None else data.labels[rows]
    if y.size == 0:
        raise InvalidArgumentError("training set is empty")
    _check_finite(x, "has a non-finite feature value; training needs finite rows", rows)
    if not np.isin(y, (0, 1)).all():
        raise InvalidArgumentError("training labels must be 0 or 1")
    standardizer = None
    if kind.needs_standardization:
        # The one gather of the training rows, standardized in place.
        x = (np.array(x, dtype=np.float64, order="C") if rows is None
             else x[rows].astype(np.float64, copy=False))
        standardizer = fit_standardizer(x)
        x = apply_standardizer(standardizer, x, out=x)
    if kind is ModelKind.DECISION_TREE:
        payload = build_tree(x, data.labels, max_depth=hp.tree_max_depth, rows=rows)
    elif kind is ModelKind.RANDOM_FOREST:
        payload = build_forest(x, data.labels, n_trees=hp.forest_n_trees, seed=hp.seed, rows=rows)
    elif kind is ModelKind.LINEAR_SVM:
        payload = _fit_svm(x, y, c=hp.svm_regularization_c, epochs=hp.svm_epochs, seed=hp.seed)
    else:
        payload = _fit_knn(x, y, k=hp.knn_k)
    return TrainedModel(kind, data.n_columns, payload, standardizer)


def score(model: TrainedModel, rows: np.ndarray) -> np.ndarray:
    """One score per row; higher means more dropout-like.

    ``rows`` are raw (unstandardized) feature values; the model applies
    its own standardizer when it carries one. A row with a ``nan`` or
    infinite value is rejected with ``InvalidArgumentError``, and so is a
    row too far from the training data to standardize to finite values.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1 and rows.size == 0:
        rows = rows.reshape(0, model.n_features)
    if rows.ndim != 2 or rows.shape[1] != model.n_features:
        got = rows.shape[1] if rows.ndim == 2 else None
        raise InvalidArgumentError(
            f"model fitted on {model.n_features} features, rows have {got}"
        )
    _check_finite(rows, "has a non-finite feature value; scoring needs finite rows")
    if model.standardizer is not None:
        with np.errstate(over="ignore"):
            rows = apply_standardizer(model.standardizer, rows)
        _check_finite(rows, "is too far from the training data to standardize")
    if model.kind is ModelKind.DECISION_TREE:
        return tree_scores(model.payload, rows)
    if model.kind is ModelKind.RANDOM_FOREST:
        return forest_scores(model.payload, rows)
    if model.kind is ModelKind.LINEAR_SVM:
        return svm_scores(model.payload, rows)
    return knn_scores(model.payload, rows)

"""Independent oracles and test-only helpers shared by the suites.

The oracles recompute expectations from first principles (exact
rational arithmetic, exhaustive enumeration, brute-force pairwise
counting) without calling into the implementation's internals. The
helpers at the end serialize, parse and measure what the program
produces; only the tests need them.
"""

from __future__ import annotations

import csv
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from dropcast.ingest import TARGET_COLUMN, BinaryDataset, Dataset
from dropcast.metrics import RocCurve
from dropcast.models.tree import Tree
from dropcast.preprocess import Standardizer, apply_standardizer


def gini_fraction(labels) -> Fraction:
    n = len(labels)
    pos = int(sum(labels))
    return 1 - Fraction(pos, n) ** 2 - Fraction(n - pos, n) ** 2


def enumerate_axis_splits(x, y):
    """All (feature, threshold, weighted child Gini) over midpoint
    thresholds, in exact rational arithmetic."""
    x = np.asarray(x, dtype=float)
    results = []
    for feature in range(x.shape[1]):
        values = np.unique(x[:, feature])
        for a, b in zip(values, values[1:]):
            threshold = (a + b) / 2.0
            left = [y[i] for i in range(len(y)) if x[i, feature] <= threshold]
            right = [y[i] for i in range(len(y)) if x[i, feature] > threshold]
            weighted = (
                Fraction(len(left), len(y)) * gini_fraction(left)
                + Fraction(len(right), len(y)) * gini_fraction(right)
            )
            results.append((feature, threshold, weighted))
    return results


def walk_nodes_with_samples(tree, x: np.ndarray, initial_idx: np.ndarray | None = None):
    """Yield (node, sample index array) by routing training rows through
    the stored structure. ``initial_idx`` supports bootstrap samples
    (duplicate row indices)."""
    if initial_idx is None:
        initial_idx = np.arange(x.shape[0])
    stack = [(0, np.asarray(initial_idx))]
    while stack:
        node, idx = stack.pop()
        yield node, idx
        feature = int(tree.feature[node])
        if feature >= 0:
            mask = x[idx, feature] <= tree.threshold[node]
            stack.append((int(tree.left[node]), idx[mask]))
            stack.append((int(tree.right[node]), idx[~mask]))


def assert_strict_gini_decrease(tree, x: np.ndarray, y: np.ndarray,
                                initial_idx: np.ndarray | None = None) -> int:
    """Exact-rational check of the split invariant on every internal
    node; returns the number of internal nodes checked."""
    checked = 0
    for node, idx in walk_nodes_with_samples(tree, x, initial_idx):
        if tree.feature[node] < 0:
            continue
        labels = [int(y[i]) for i in idx]
        parent = gini_fraction(labels)
        mask = x[idx, int(tree.feature[node])] <= tree.threshold[node]
        left = [int(y[i]) for i in idx[mask]]
        right = [int(y[i]) for i in idx[~mask]]
        assert left and right
        weighted = (
            Fraction(len(left), len(labels)) * gini_fraction(left)
            + Fraction(len(right), len(labels)) * gini_fraction(right)
        )
        assert weighted < parent
        checked += 1
    return checked


def pair_count_auc(scores, labels) -> float:
    """Exhaustive pair counting: wins + half-ties over every
    (positive, negative) pair."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels != 1]
    wins = int((pos[:, None] > neg[None, :]).sum())
    ties = int((pos[:, None] == neg[None, :]).sum())
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def brute_force_knn_scores(train_x, train_y, queries, k) -> np.ndarray:
    """Per query, Python-sorted (distance, index) pairs; ties go to the
    lower training-row index."""
    out = []
    for q in queries:
        dist = [(float(((q - train_x[i]) ** 2).sum()), i) for i in range(len(train_x))]
        dist.sort()
        chosen = [train_y[i] for _, i in dist[:k]]
        out.append(sum(chosen) / k)
    return np.array(out)


def trapezoid_area(curve: RocCurve) -> float:
    dx = curve.fpr[1:] - curve.fpr[:-1]
    mid_y = (curve.tpr[1:] + curve.tpr[:-1]) / 2.0
    return float((dx * mid_y).sum())


def max_node_depth(tree: Tree) -> int:
    depth = 0
    stack = [(0, 0)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        if tree.feature[node] >= 0:
            stack.append((int(tree.left[node]), d + 1))
            stack.append((int(tree.right[node]), d + 1))
    return depth


def standardize_dataset(dataset: BinaryDataset, standardizer: Standardizer) -> BinaryDataset:
    """Same dataset with the feature matrix transformed."""
    matrix = apply_standardizer(standardizer, dataset.feature_matrix)
    matrix.setflags(write=False)
    return replace(dataset, feature_matrix=matrix)


def write_dataset_csv(
    dataset: Dataset, csv_path: str | Path, delimiter: str = ";"
) -> None:
    """Serialize a dataset back to CSV.

    Cells are written with ``repr(float)``, the shortest decimal text
    that parses back to the identical value, so a load/write/load cycle
    preserves every cell bit-for-bit.
    """
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n")
        writer.writerow(list(dataset.column_names) + [TARGET_COLUMN])
        for i in range(dataset.n_rows):
            cells = [repr(float(value)) for value in dataset.feature_matrix[i]]
            cells.append(dataset.outcomes[i].value)
            writer.writerow(cells)


def read_ablation_csv(path: str | Path) -> tuple[list[str], list[str], np.ndarray]:
    """Parse a grid written by ``write_ablation_csv`` back into
    (model labels, column labels, mean-AUC matrix), exactly."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    column_labels = rows[0][1:]
    model_rows = rows[1:-2]
    labels = [row[0] for row in model_rows]
    grid = np.array([[float(cell) for cell in row[1:]] for row in model_rows])
    return labels, column_labels, grid

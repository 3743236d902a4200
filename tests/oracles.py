"""Independent oracles and test-only helpers shared by the suites.

The oracles recompute expectations from first principles (exact
rational arithmetic, exhaustive enumeration, brute-force pairwise
counting) without calling into the implementation's internals. The
helpers at the end serialize, parse and measure what the program
produces; only the tests need them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from dropcast.errors import CellParseError, DuplicateColumnError, MissingColumnError, MissingValueError
from dropcast.ingest import (
    TARGET_COLUMN,
    BinaryDataset,
    Dataset,
    GroupManifest,
    Outcome,
    _freeze,
)
from dropcast.metrics import RocCurve
from dropcast.models.svm import BATCH_SIZE, LinearSvm, _objective
from dropcast.models.tree import _NO_NODE, Tree, _strictly_improves
from dropcast.preprocess import Standardizer, apply_standardizer
from dropcast.rng import SeededRng, subsets


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


def _reference_best_split(x, y, idx, candidates, min_leaf):
    """Best (feature, threshold, left_count, left_pos) over candidates,
    by a float argsort of the node's rows; None when no cut is valid."""
    m = idx.shape[0]
    sub = x[np.ix_(idx, candidates)]
    order = np.argsort(sub, axis=0, kind="stable")
    sorted_vals = np.take_along_axis(sub, order, axis=0)
    sorted_y = y[idx][order].astype(np.float64)

    cum_pos = np.cumsum(sorted_y, axis=0)[:-1]  # positives left of each cut
    left_n = np.arange(1, m, dtype=np.float64)[:, None]
    total_pos = float(y[idx].sum())

    valid = sorted_vals[:-1] < sorted_vals[1:]
    if min_leaf > 1:
        valid = valid & (left_n >= min_leaf) & (m - left_n >= min_leaf)
    if not valid.any():
        return None

    right_n = m - left_n
    left_pos = cum_pos
    right_pos = total_pos - left_pos
    left_neg = left_n - left_pos
    right_neg = right_n - right_pos
    score = (
        left_n - (left_pos**2 + left_neg**2) / left_n
        + right_n - (right_pos**2 + right_neg**2) / right_n
    )
    score = np.where(valid, score, np.inf)

    flat = np.argmin(score.T)  # feature-major scan for tie-breaking
    f_local, cut = divmod(flat, m - 1)
    low = float(sorted_vals[cut, f_local])
    high = float(sorted_vals[cut + 1, f_local])
    threshold = (low + high) / 2.0
    if threshold >= high:
        threshold = low
    return int(candidates[f_local]), threshold, int(cut + 1), int(round(cum_pos[cut, f_local]))


def reference_build_tree(x, y, sample_idx=None, max_depth=None, min_leaf=1,
                         n_candidates=None, rng=None) -> Tree:
    """The CART grower as first written: per node, argsort the raw float
    values of every candidate column and draw one ``subsets([rng], ...)``
    row per split, depth-first, left child first. ``build_tree`` must return
    the same arrays for the same arguments."""
    if sample_idx is None:
        sample_idx = np.arange(x.shape[0], dtype=np.int64)
    n_features = x.shape[1]
    nodes: list[list] = []  # feature, threshold, left, right, pos_fraction, n, pos

    def new_node() -> int:
        nodes.append([-1, 0.0, -1, -1, 0.0, 0, 0])
        return len(nodes) - 1

    stack = [(new_node(), sample_idx, 0)]
    while stack:
        node, idx, depth = stack.pop()
        m = idx.shape[0]
        pos = int(y[idx].sum())
        nodes[node][4:] = [pos / m, m, pos]
        at_depth_limit = max_depth is not None and depth >= max_depth
        if at_depth_limit or pos == 0 or pos == m or m < 2 * min_leaf:
            continue
        if n_candidates is not None and n_candidates < n_features:
            candidates = subsets([rng], n_features, n_candidates)[0]
        else:
            candidates = np.arange(n_features, dtype=np.int64)
        found = _reference_best_split(x, y, idx, candidates, min_leaf)
        if found is None:
            continue
        feat, thr, left_count, left_pos = found
        if not _strictly_improves(m, pos, left_count, left_pos):
            continue
        go_left = x[idx, feat] <= thr
        left_id, right_id = new_node(), new_node()
        nodes[node][:4] = [feat, thr, left_id, right_id]
        stack.append((right_id, idx[~go_left], depth + 1))
        stack.append((left_id, idx[go_left], depth + 1))

    columns = list(zip(*nodes))
    dtypes = (np.int64, np.float64, np.int64, np.int64, np.float64, np.int64, np.int64)
    return Tree(*(np.array(c, dtype=d) for c, d in zip(columns, dtypes)))


def _grow(coded, sample_idx, max_depth, min_leaf, n_candidates, rng) -> Tree:
    """One tree on columns coded by ``_code_columns``, searched node by
    node: each node sorts its rows' keys per candidate feature and takes
    the first minimum of the float64 Gini scores. The lockstep grower
    must return the same arrays for the same sample and stream."""
    keys, values, labels = coded
    n_features, n_rows = keys.shape
    if sample_idx is None:
        sample_idx = np.arange(n_rows, dtype=np.int64)
    if len(sample_idx) == 0:
        raise ValueError("a tree needs at least one training row")
    subsample = n_candidates is not None and n_candidates < n_features

    # One [feature, threshold, left, right, n_samples, n_positive] row per
    # node; a split fills in its first four and appends its two children.
    nodes = [[_NO_NODE, 0.0, _NO_NODE, _NO_NODE, len(sample_idx), int(labels[sample_idx].sum())]]
    stack = [(0, sample_idx, 0)]
    while stack:
        node, idx, depth = stack.pop()
        m, pos = nodes[node][4:]
        at_depth_limit = max_depth is not None and depth >= max_depth
        if at_depth_limit or pos == 0 or pos == m or m < 2 * min_leaf:
            continue

        if not subsample:
            candidates = None
            packed = keys[:, idx]
        else:
            candidates = subsets([rng], n_features, n_candidates)[0]
            packed = keys[candidates[:, None], idx]
        packed.sort(axis=1)
        cuts = (packed[:, :-1] ^ packed[:, 1:]) > 1  # the bin changes
        if min_leaf > 1:
            cuts[:, : min_leaf - 1] = False
            cuts[:, m - min_leaf :] = False
        f_at, cut_at = cuts.nonzero()  # feature-major, for the tie-break
        if f_at.size == 0:
            continue

        # Weighted Gini * m, dropping the constant factor: lower is better.
        left_pos = (packed & 1).cumsum(axis=1)[f_at, cut_at].astype(np.float64)
        left_n = cut_at + 1.0
        right_n = m - left_n
        right_pos = pos - left_pos
        left_neg = left_n - left_pos
        right_neg = right_n - right_pos
        score = (
            left_n - (left_pos**2 + left_neg**2) / left_n
            + right_n - (right_pos**2 + right_neg**2) / right_n
        )
        best = int(score.argmin())
        f_local, cut = int(f_at[best]), int(cut_at[best])
        left_count, left_pos_count = cut + 1, int(left_pos[best])
        if not _strictly_improves(m, pos, left_count, left_pos_count):
            continue

        low_bin = int(packed[f_local, cut]) >> 1
        low = float(values[low_bin])
        high = float(values[packed[f_local, cut + 1] >> 1])
        thr = (low + high) / 2.0
        if thr >= high:  # adjacent floats: midpoint may round up
            thr = low
        feat = f_local if candidates is None else int(candidates[f_local])
        go_left = keys[feat, idx] <= 2 * low_bin + 1
        child = len(nodes)
        nodes[node][:4] = feat, thr, child, child + 1
        nodes.append([_NO_NODE, 0.0, _NO_NODE, _NO_NODE, left_count, left_pos_count])
        nodes.append([_NO_NODE, 0.0, _NO_NODE, _NO_NODE, m - left_count, pos - left_pos_count])
        # Push right first so the left child is expanded first.
        stack.append((child + 1, idx[~go_left], depth + 1))
        stack.append((child, idx[go_left], depth + 1))

    feature, threshold, left, right, n_samples, n_positive = (
        np.array(column, dtype=np.float64 if i == 1 else np.int64)
        for i, column in enumerate(zip(*nodes))
    )
    arrays = (feature, threshold, left, right, n_positive / n_samples, n_samples, n_positive)
    for arr in arrays:
        arr.setflags(write=False)
    return Tree(*arrays)


def reference_train_svm(x: np.ndarray, y: np.ndarray, c: float, epochs: int,
                        seed: int) -> LinearSvm:
    """The Pegasos loop as first written: per step, the batch's rows are
    gathered from the whole matrix, and the violators' rows are gathered
    again for the push, which is skipped when there are none. The
    objective of ``train_svm`` must stay within rounding of this one."""
    n, p = x.shape
    y_signed = np.where(y == 1, 1.0, -1.0)
    xb = np.concatenate([x, np.ones((n, 1))], axis=1)
    lam = 1.0 / (c * n)
    radius = 1.0 / np.sqrt(lam)
    rng = SeededRng(seed)
    w = np.zeros(p + 1, dtype=np.float64)
    best_w = w.copy()
    best_obj = _objective(xb, y_signed, w, c)

    t = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, BATCH_SIZE):
            batch = order[start : start + BATCH_SIZE]
            t += 1
            eta = 1.0 / (lam * t)
            margins = y_signed[batch] * (xb[batch] @ w)
            violators = margins < 1.0
            w *= 1.0 - eta * lam
            if violators.any():
                push = y_signed[batch][violators] @ xb[batch][violators]
                w += (eta / batch.shape[0]) * push
            norm = np.linalg.norm(w)
            if norm > radius:
                w *= radius / norm
        obj = _objective(xb, y_signed, w, c)
        if obj < best_obj:
            best_obj = obj
            best_w = w.copy()

    return LinearSvm(weights=best_w[:p].copy(), bias=float(best_w[p]), objective=best_obj,
                     epochs=epochs)


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


def reference_load_dataset(
    csv_path: str | Path, manifest: GroupManifest, delimiter: str = ";"
) -> Dataset:
    """Parse the records CSV against a manifest, one row and one cell at
    a time: the loader ``load_dataset`` replaced, kept verbatim as the
    reference for its results and its errors.

    Feature columns are returned in manifest order regardless of file
    order. Header names are stripped of surrounding whitespace (some
    releases of the records file carry stray tabs in header cells).
    Missing, unparsable and non-finite (``nan``, ``inf``) cells are hard
    errors; there is no imputation. A manifest column or ``Target``
    named twice in the header is an error too.
    """
    with open(csv_path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumnError(TARGET_COLUMN) from None
        names = [name.strip() for name in header]
        positions = {name: i for i, name in enumerate(names)}
        for name in (*manifest.column_names, TARGET_COLUMN):
            if name not in positions:
                raise MissingColumnError(name)
            if names.count(name) > 1:
                raise DuplicateColumnError(f"column appears twice in header: {name!r}")
        feature_pos = [positions[name] for name in manifest.column_names]
        target_pos = positions[TARGET_COLUMN]

        rows: list[list[float]] = []
        outcomes: list[Outcome] = []
        for row_no, record in enumerate(reader, start=1):
            if not record:
                continue
            values = []
            for name, pos in zip(manifest.column_names, feature_pos):
                if pos >= len(record):
                    raise MissingValueError(row_no, name)
                text = record[pos].strip()
                if not text:
                    raise MissingValueError(row_no, name)
                try:
                    values.append(float(text))
                except ValueError:
                    raise CellParseError(row_no, name, text) from None
            if not math.isfinite(sum(values)):  # a nan or inf cell, or an overflowing sum
                for name, pos, value in zip(manifest.column_names, feature_pos, values):
                    if not math.isfinite(value):
                        raise CellParseError(row_no, name, record[pos].strip())
            if target_pos >= len(record):
                raise MissingValueError(row_no, TARGET_COLUMN)
            target_text = record[target_pos].strip()
            try:
                outcomes.append(Outcome(target_text))
            except ValueError:
                raise CellParseError(row_no, TARGET_COLUMN, target_text) from None
            rows.append(values)

    matrix = np.array(rows, dtype=np.float64).reshape(len(rows), len(manifest.entries))
    return Dataset(
        feature_matrix=_freeze(matrix),
        column_names=manifest.column_names,
        column_groups=manifest.column_groups,
        outcomes=tuple(outcomes),
    )


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

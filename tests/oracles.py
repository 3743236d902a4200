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
from collections import deque
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from dropcast.errors import (
    CellParseError,
    FileFormatError,
    InvalidArgumentError,
    MissingColumnError,
    MissingValueError,
)
from dropcast.fixture import (
    ENROLLED_SHARE,
    _CODE_MEAN,
    _CODE_RANGE,
    _CODE_STD,
    _MACRO_SPAN,
    _MACRO_STD,
)
from dropcast.ingest import (
    LABELS,
    TARGET_COLUMN,
    Dataset,
    FeatureGroup,
    GroupManifest,
    Outcome,
    _freeze,
    default_manifest_path,
    load_manifest,
)
from dropcast.metrics import RocCurve
from dropcast.models import ModelKind, TrainedModel
from dropcast.models.forest import Forest
from dropcast.models.knn import KnnModel
from dropcast.models.svm import BATCH_SIZE, LinearSvm, _objective
from dropcast.models.tree import _NO_NODE, Tree, _code_columns, _grow_trees
from dropcast.preprocess import Standardizer, apply_standardizer
from dropcast.rng import SeededRng, scramble


def gini_counts(n: int, pos: int) -> Fraction:
    """Exact Gini impurity of ``n`` labels of which ``pos`` are positive."""
    return 1 - Fraction(pos, n) ** 2 - Fraction(n - pos, n) ** 2


def gini_fraction(labels) -> Fraction:
    return gini_counts(len(labels), int(sum(labels)))


def _strictly_improves(n: int, pos: int, left_n: int, left_pos: int) -> bool:
    """Exact test that a split lowers weighted Gini impurity.

    With integer class counts, weighted-child < parent reduces to
        n * (rn*lp*ln_neg + ln*rp*rn_neg) < ln * rn * pos * neg
    after clearing denominators, so the comparison is exact.
    """
    neg = n - pos
    right_n = n - left_n
    right_pos = pos - left_pos
    left_neg = left_n - left_pos
    right_neg = right_n - right_pos
    lhs = n * (right_n * left_pos * left_neg + left_n * right_pos * right_neg)
    rhs = left_n * right_n * pos * neg
    return lhs < rhs


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


def node_subset(seed, n_samples, node, n_features, n_candidates) -> np.ndarray:
    """The sorted candidate features of node ``node`` of a forest tree of
    seed ``seed`` grown on ``n_samples`` sample rows: the first
    ``n_candidates`` of the permutation that the tree's stream draws
    after its first ``n_samples + node * n_features`` values."""
    stream = SeededRng(seed)
    stream.uint64(n_samples + node * n_features)
    return np.sort(stream.permutation(n_features)[:n_candidates])


def reference_build_tree(x, y, sample_idx=None, max_depth=None, min_leaf=1,
                         n_candidates=None, seed=None) -> Tree:
    """The CART grower as first written: per node, argsort the raw float
    values of every candidate column; level by level, left child first,
    so node ids are level-order. Node ``v`` draws its subset at its
    address (see ``node_subset``). ``build_tree`` must return the same
    arrays for the same arguments."""
    if sample_idx is None:
        sample_idx = np.arange(x.shape[0], dtype=np.int64)
    n_features = x.shape[1]
    nodes: list[list] = []  # feature, threshold, left, right, pos_fraction, n, pos

    def new_node() -> int:
        nodes.append([-1, 0.0, -1, -1, 0.0, 0, 0])
        return len(nodes) - 1

    queue = deque([(new_node(), sample_idx, 0)])
    while queue:
        node, idx, depth = queue.popleft()
        m = idx.shape[0]
        pos = int(y[idx].sum())
        nodes[node][4:] = [pos / m, m, pos]
        at_depth_limit = max_depth is not None and depth >= max_depth
        if at_depth_limit or pos == 0 or pos == m or m < 2 * min_leaf:
            continue
        if n_candidates is not None and n_candidates < n_features:
            candidates = node_subset(seed, len(sample_idx), node, n_features, n_candidates)
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
        queue.append((left_id, idx[go_left], depth + 1))
        queue.append((right_id, idx[~go_left], depth + 1))

    columns = list(zip(*nodes))
    dtypes = (np.int64, np.float64, np.int64, np.int64, np.float64, np.int64, np.int64)
    return Tree(*(np.array(c, dtype=d) for c, d in zip(columns, dtypes)))


def _grow(coded, sample_idx, max_depth, min_leaf, n_candidates, seed) -> Tree:
    """One tree on columns coded by ``_code_columns``, searched node by
    node: each node sorts its rows' keys per candidate feature and takes
    the first minimum of the float64 Gini scores. The lockstep grower
    must return the same arrays for the same sample and seed."""
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
    queue = deque([(0, sample_idx, 0)])
    while queue:
        node, idx, depth = queue.popleft()
        m, pos = nodes[node][4:]
        at_depth_limit = max_depth is not None and depth >= max_depth
        if at_depth_limit or pos == 0 or pos == m or m < 2 * min_leaf:
            continue

        if not subsample:
            candidates = None
            packed = keys[:, idx]
        else:
            candidates = node_subset(seed, len(sample_idx), node, n_features, n_candidates)
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
        # Queue the left child first, so each level is expanded left to right.
        queue.append((child, idx[go_left], depth + 1))
        queue.append((child + 1, idx[~go_left], depth + 1))

    feature, threshold, left, right, n_samples, n_positive = (
        np.array(column, dtype=np.float64 if i == 1 else np.int64)
        for i, column in enumerate(zip(*nodes))
    )
    arrays = (feature, threshold, left, right, n_positive / n_samples, n_samples, n_positive)
    for arr in arrays:
        arr.setflags(write=False)
    return Tree(*arrays)


def reference_tree_scores(tree: Tree, x: np.ndarray) -> np.ndarray:
    """Leaf positive-fraction for every row of x: one tree walked level by
    level on its own arrays, as ``tree_scores`` first walked it."""
    n = x.shape[0]
    node = np.zeros(n, dtype=np.int64)
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    while True:
        feats = tree.feature[node]
        active = np.nonzero(feats >= 0)[0]
        if active.size == 0:
            break
        current = node[active]
        vals = x[active, tree.feature[current]]
        go_left = vals <= tree.threshold[current]
        node[active] = np.where(go_left, tree.left[current], tree.right[current])
    return tree.pos_fraction[node]


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


def grow_tree(x, y, sample_idx=None, max_depth=None, n_candidates=None, seed=None) -> Tree:
    """One tree grown alone on rows ``sample_idx`` of (x, y), drawing
    ``n_candidates`` features per split at the tree seed ``seed`` when
    given, as ``build_forest`` grows each of its trees."""
    keys = None if seed is None else scramble([seed])
    return _grow_trees(_code_columns(x, y), [sample_idx], keys, max_depth, n_candidates)[0]


def standardize_dataset(dataset: Dataset, standardizer: Standardizer) -> Dataset:
    """Same dataset with the feature matrix transformed."""
    matrix = apply_standardizer(standardizer, dataset.feature_matrix)
    matrix.setflags(write=False)
    return replace(dataset, feature_matrix=matrix)


def reference_fit_standardizer(rows: np.ndarray) -> Standardizer:
    """``fit_standardizer`` on the whole matrix at once: numpy's own mean
    over the C-ordered rows and one full-size squared-deviation array."""
    rows = np.ascontiguousarray(rows)
    if rows.shape[0] == 0:
        raise InvalidArgumentError("cannot fit standardizer on zero training rows")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = rows.mean(axis=0)
        std = np.sqrt(((rows - mean) ** 2).mean(axis=0))
    all_equal = (rows == rows[0]).all(axis=0)
    constant = all_equal | (std == 0.0)
    mean = np.where(all_equal, rows[0], mean)
    std = np.where(constant, 1.0, std)
    bad = ~(np.isfinite(mean) & np.isfinite(std))
    if bad.any():
        raise InvalidArgumentError(
            f"cannot standardize column {int(np.argmax(bad))}: its mean or standard deviation "
            "is not finite"
        )
    return Standardizer(mean=mean, std=std, constant=constant)


def reference_correlation(matrix: np.ndarray) -> np.ndarray:
    """Pearson r of every column pair from one standardized copy of the
    whole matrix, with ``correlation_matrix``'s symmetrize, constant,
    diagonal and clip steps."""
    standardizer = reference_fit_standardizer(matrix)
    normalized = apply_standardizer(standardizer, matrix)
    constant = standardizer.constant
    values = (normalized.T @ normalized) / matrix.shape[0]
    values = (values + values.T) / 2.0
    values[constant, :] = 0.0
    values[:, constant] = 0.0
    np.fill_diagonal(values, np.where(constant, 0.0, 1.0))
    return np.clip(values, -1.0, 1.0)


def reference_load_dataset(
    csv_path: str | Path, manifest: GroupManifest, delimiter: str = ";"
) -> Dataset:
    """Parse the records CSV against a manifest, one row and one cell at
    a time: the loader ``load_dataset`` replaced, kept as the reference
    for its results and its errors. Its one change is numpy's cell rule:
    a stripped feature cell that is not ASCII or holds ``_`` is bad.

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
                raise FileFormatError(f"column appears twice in header: {name!r}")
        feature_pos = [positions[name] for name in manifest.column_names]
        target_pos = positions[TARGET_COLUMN]

        rows: list[list[float]] = []
        labels: list[int] = []
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
                if not text.isascii() or "_" in text:  # numpy's reader parses neither
                    raise CellParseError(row_no, name, text)
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
                labels.append(LABELS[Outcome(target_text)])
            except ValueError:
                raise CellParseError(row_no, TARGET_COLUMN, target_text) from None
            rows.append(values)

    matrix = np.array(rows, dtype=np.float64).reshape(len(rows), len(manifest.entries))
    return Dataset(
        feature_matrix=_freeze(matrix),
        column_names=manifest.column_names,
        column_groups=manifest.column_groups,
        labels=_freeze(np.array(labels, dtype=np.int64)),
    )


def write_dataset_csv(
    dataset: Dataset, csv_path: str | Path, delimiter: str = ";"
) -> None:
    """Serialize a dataset back to CSV.

    Cells are written with ``repr(float)``, the shortest decimal text
    that parses back to the identical value, so a load/write/load cycle
    preserves every cell bit-for-bit; each label is written as its word.
    """
    words = {label: outcome.value for outcome, label in LABELS.items()}
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n")
        writer.writerow(list(dataset.column_names) + [TARGET_COLUMN])
        for i in range(dataset.n_rows):
            cells = [repr(float(value)) for value in dataset.feature_matrix[i]]
            cells.append(words[int(dataset.labels[i])])
            writer.writerow(cells)


def reference_fixture_bytes(
    n_rows: int,
    seed: int,
    planted_group: FeatureGroup | None = None,
    signal_strength: float = 0.0,
) -> bytes:
    """The records file ``generate_fixture`` writes, built row by row.

    The same draws as ``generate_fixture``, then one Python string per
    cell: ``str`` of each integer code, ``f"{v:.2f}"`` of each
    macroeconomic value, one ``join`` per row. Arguments are not checked.
    """
    manifest = load_manifest(default_manifest_path("default-34"))
    parent = SeededRng(seed)

    columns: list[np.ndarray] = []
    signal = np.zeros(n_rows, dtype=np.float64)
    n_planted = 0
    for name, group in manifest.entries:
        rng = parent.child()
        if group is FeatureGroup.MACROECONOMIC:
            values = np.round(rng.uniforms(n_rows) * 2.0 * _MACRO_SPAN - _MACRO_SPAN, 2)
            centered = values / _MACRO_STD
        else:
            values = rng.integers(n_rows, _CODE_RANGE).astype(np.float64)
            centered = (values - _CODE_MEAN) / _CODE_STD
        if planted_group is not None and group is planted_group:
            signal += centered
            n_planted += 1
        columns.append(values)

    if n_planted > 0 and signal_strength > 0:
        z = signal / np.sqrt(n_planted)
        p_dropout = 1.0 / (1.0 + np.exp(-signal_strength * z))
    else:
        p_dropout = np.full(n_rows, 0.5)
    labels = parent.child().uniforms(n_rows) < p_dropout
    enrolled = parent.child().uniforms(n_rows) < ENROLLED_SHARE

    cells = []  # one list of cell texts per column
    for values, (_, group) in zip(columns, manifest.entries):
        if group is FeatureGroup.MACROECONOMIC:
            cells.append([f"{v:.2f}" for v in values.tolist()])
        else:
            cells.append(list(map(str, values.astype(np.int64).tolist())))
    cells.append(np.where(enrolled, "Enrolled", np.where(labels, "Dropout", "Graduate")).tolist())
    lines = [";".join(list(manifest.column_names) + ["Target"])]
    lines.extend(map(";".join, zip(*cells)))

    return ("\n".join(lines) + "\n").encode("utf-8")


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


def same_bits(a, b) -> bool:
    """Same types and the same bits, through dataclass fields and tuples."""
    if is_dataclass(a):
        return type(a) is type(b) and all(
            same_bits(getattr(a, field.name), getattr(b, field.name)) for field in fields(a)
        )
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(same_bits, a, b))
    if isinstance(a, np.ndarray):
        return (type(b) is np.ndarray and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    return type(a) is type(b) and a == b


class _Reader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise InvalidArgumentError("truncated model text")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect(self, prefix: str) -> str:
        line = self.next()
        if not line.startswith(prefix):
            raise InvalidArgumentError(f"expected {prefix!r}, got {line!r}")
        return line[len(prefix):].strip()


def _read_tree(reader: _Reader, n_features: int) -> Tree:
    n_nodes = int(reader.expect("tree "))
    if n_nodes < 1:
        raise InvalidArgumentError("malformed tree: no nodes")
    feature = np.empty(n_nodes, dtype=np.int64)
    threshold = np.empty(n_nodes, dtype=np.float64)
    left = np.empty(n_nodes, dtype=np.int64)
    right = np.empty(n_nodes, dtype=np.int64)
    pos_fraction = np.empty(n_nodes, dtype=np.float64)
    n_samples = np.empty(n_nodes, dtype=np.int64)
    n_positive = np.empty(n_nodes, dtype=np.int64)
    for i in range(n_nodes):
        parts = reader.next().split()
        if len(parts) != 7:
            raise InvalidArgumentError(f"malformed tree: node {i} has {len(parts)} fields, not 7")
        feature[i] = int(parts[0])
        threshold[i] = float(parts[1])
        left[i] = int(parts[2])
        right[i] = int(parts[3])
        pos_fraction[i] = float(parts[4])
        n_samples[i] = int(parts[5])
        n_positive[i] = int(parts[6])
    # The builder appends children after their parent, so valid child
    # indices only grow and scoring always ends at a leaf.
    i = np.arange(n_nodes)
    split_ok = (i < left) & (left < n_nodes) & (i < right) & (right < n_nodes)
    ok = np.where(feature >= 0, split_ok, (left == -1) & (right == -1))
    ok &= (feature >= -1) & (feature < n_features) & np.isfinite(threshold)
    # A score is the builder's class fraction, so it lies in [0, 1].
    ok &= (0 <= n_positive) & (n_positive <= n_samples) & (n_samples >= 1)
    ok &= pos_fraction == n_positive / np.maximum(n_samples, 1)
    if not ok.all():
        raise InvalidArgumentError(f"malformed tree: bad node {np.argmin(ok)}")
    return Tree(
        feature=feature, threshold=threshold, left=left, right=right,
        pos_fraction=pos_fraction, n_samples=n_samples, n_positive=n_positive,
    )


def model_from_text(text: str) -> TrainedModel:
    """Parse text written by ``model_to_text`` back into a model.

    The package only writes this format. Malformed text, or text that
    breaks an invariant of a trained model (tree links that may not end
    at a leaf, a score outside [0, 1], a deviation that is not finite
    and positive, a k-NN label other than 0 or 1), raises one
    ``InvalidArgumentError`` line, so a test that reads the writer's
    text back also checks that the text is well formed.
    """
    reader = _Reader(text)
    try:
        return _read_model(reader)
    except ValueError as exc:
        raise InvalidArgumentError(
            f"malformed model text at line {reader.pos}: {exc}"
        ) from None


def _read_model(reader: _Reader) -> TrainedModel:
    if reader.next() != "dropcast-model 1":
        raise InvalidArgumentError("not a dropcast model text (bad magic line)")
    kind = ModelKind(reader.expect("kind "))
    n_features = int(reader.expect("n_features "))

    standardizer = None
    mode = reader.expect("standardizer ")
    if mode == "fitted":
        mean = np.array([float(v) for v in reader.expect("mean ").split()])
        std = np.array([float(v) for v in reader.expect("std ").split()])
        constant = np.array([bool(int(v)) for v in reader.expect("constant ").split()])
        if not len(mean) == len(std) == len(constant) == n_features:
            raise InvalidArgumentError(
                f"malformed standardizer: mean/std/constant have {len(mean)}/{len(std)}/"
                f"{len(constant)} values, not {n_features}"
            )
        if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
            raise InvalidArgumentError(
                "malformed standardizer: a mean is not finite or a std is not finite and positive"
            )
        standardizer = Standardizer(mean=mean, std=std, constant=constant)
    elif mode != "none":
        raise InvalidArgumentError(f"bad standardizer mode: {mode!r}")

    if kind is ModelKind.DECISION_TREE:
        payload = _read_tree(reader, n_features)
    elif kind is ModelKind.RANDOM_FOREST:
        n_trees = int(reader.expect("trees "))
        tree_seeds = tuple(int(v) for v in reader.expect("tree_seeds ").split())
        if n_trees < 1 or len(tree_seeds) != n_trees:
            raise InvalidArgumentError(f"malformed forest: {n_trees} trees, {len(tree_seeds)} seeds")
        trees = tuple(_read_tree(reader, n_features) for _ in range(n_trees))
        payload = Forest(trees=trees, tree_seeds=tree_seeds)
    elif kind is ModelKind.LINEAR_SVM:
        weights = np.array([float(v) for v in reader.expect("weights ").split()])
        bias = float(reader.expect("bias "))
        objective = float(reader.expect("objective "))
        epochs = int(reader.expect("epochs "))
        if len(weights) != n_features:
            raise InvalidArgumentError(
                f"malformed SVM model: {len(weights)} weights, not {n_features}"
            )
        if not (np.isfinite(weights).all() and np.isfinite(bias)):
            raise InvalidArgumentError("malformed SVM model: non-finite weight or bias")
        if not (np.isfinite(objective) and objective >= 0 and epochs >= 1):
            raise InvalidArgumentError(
                f"malformed SVM model: objective {objective!r} is not finite and >= 0 "
                f"or epochs {epochs} is below 1"
            )
        payload = LinearSvm(weights=weights, bias=bias, objective=objective, epochs=epochs)
    else:
        k = int(reader.expect("k "))
        n_rows = int(reader.expect("train_rows "))
        train_x = np.empty((n_rows, n_features), dtype=np.float64)
        train_y = np.empty(n_rows, dtype=np.float64)
        for i in range(n_rows):
            xs, label = reader.next().split(" | ")
            cells = [float(v) for v in xs.split()]
            if len(cells) != n_features:
                raise InvalidArgumentError(
                    f"malformed k-NN model: row {i} has {len(cells)} values, not {n_features}"
                )
            train_x[i] = cells
            train_y[i] = float(label)
        if not 1 <= k <= n_rows:
            raise InvalidArgumentError(f"malformed k-NN model: k {k} outside [1, {n_rows}]")
        if not (np.isfinite(train_x).all() and np.isin(train_y, (0.0, 1.0)).all()):
            raise InvalidArgumentError("malformed k-NN model: non-finite value or non-0/1 label")
        payload = KnnModel(train_x=train_x, train_y=train_y, k=k)

    return TrainedModel(kind=kind, n_features=n_features, payload=payload,
                        standardizer=standardizer)

"""Greedy CART for binary labels, Gini criterion, axis-aligned splits.

Candidate thresholds are midpoints between consecutive distinct sorted
values of each candidate feature. A node is split only if the best
candidate strictly decreases weighted Gini impurity; that check is done
in exact integer arithmetic on class counts, so float rounding can
never admit a zero-gain split. Ties between equal-impurity candidates
break toward the lower feature index, then the lower threshold.

The search runs on integer-coded columns, built once per training
matrix and shared by every tree of a forest. A value's bin is its rank
among its column's distinct values, numbered feature-major; a row's key
is ``2 * bin + label``. Each node sorts its rows' keys per candidate
feature: cuts are where the bin (``key >> 1``) changes and positive
counts are prefix sums of bit 0. Scores and thresholds (midpoints of
the two bins' values) are computed as from the raw values, so the
coding changes no tree. With feature subsampling, ``rng`` is consumed
in blocks of 64 subset draws, whose values and order are those of
successive ``rng.subset`` calls.

Leaves store the positive-class fraction of their training samples,
which is the tree's score. Trees are flat parallel arrays; traversal is
vectorized level by level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rng import SeededRng

_NO_NODE = -1


@dataclass(frozen=True)
class Tree:
    """Flat binary tree. ``feature[i] == -1`` marks node i as a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    pos_fraction: np.ndarray
    n_samples: np.ndarray
    n_positive: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]


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


def _code_columns(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """(keys, the value of each bin, labels) as described above; ``keys``
    is a (features, rows) int64 matrix."""
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("tree features must be finite")
    y = np.asarray(y, dtype=np.int64)
    if ((y != 0) & (y != 1)).any():
        raise ValueError("tree labels must be 0 or 1")
    keys, values = np.empty(x.shape[::-1], dtype=np.int64), [np.zeros(0)]
    for f, column in enumerate(x.T):
        distinct, bins = np.unique(column, return_inverse=True)
        keys[f] = 2 * (bins + sum(map(len, values))) + y
        values.append(distinct)
    return keys, np.concatenate(values), y


def _subset_draws(rng: SeededRng, n_features: int, k: int):
    """Successive ``rng.subset(n_features, k)`` results, drawn 64 at a time."""
    while True:
        raw = rng.uint64(64 * n_features).reshape(64, n_features)
        yield from np.sort(np.argsort(raw, axis=1, kind="stable")[:, :k], axis=1)


def build_tree(
    x: np.ndarray,
    y: np.ndarray,
    sample_idx: np.ndarray | None = None,
    max_depth: int | None = None,
    min_leaf: int = 1,
    n_candidates: int | None = None,
    rng: SeededRng | None = None,
) -> Tree:
    """Grow a CART tree on rows ``sample_idx`` of (x, y).

    ``sample_idx`` may contain duplicates (bootstrap samples). When
    ``n_candidates`` is given, each split considers a fresh seeded
    subset of that many features drawn from ``rng``; otherwise all
    features are candidates. Nodes are expanded depth-first, left child
    first, which fixes the rng consumption order.
    """
    if n_candidates is not None and rng is None:
        raise ValueError("feature subsampling requires an rng")
    return _grow(_code_columns(x, y), sample_idx, max_depth, min_leaf, n_candidates, rng)


def _grow(coded, sample_idx, max_depth, min_leaf, n_candidates, rng) -> Tree:
    """``build_tree`` on columns already coded by ``_code_columns``."""
    keys, values, labels = coded
    n_features, n_rows = keys.shape
    if sample_idx is None:
        sample_idx = np.arange(n_rows, dtype=np.int64)
    if len(sample_idx) == 0:
        raise ValueError("a tree needs at least one training row")
    if n_candidates is not None and n_candidates < n_features:
        subsets = _subset_draws(rng, n_features, n_candidates)
    else:
        subsets = None

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

        if subsets is None:
            candidates = None
            packed = keys[:, idx]
        else:
            candidates = next(subsets)
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


def tree_scores(tree: Tree, x: np.ndarray) -> np.ndarray:
    """Leaf positive-fraction for every row of x."""
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

"""Greedy CART for binary labels, Gini criterion, axis-aligned splits.

Candidate thresholds are midpoints between consecutive distinct sorted
values of each candidate feature. A node is split only if the best
candidate strictly decreases weighted Gini impurity; that check is done
in exact integer arithmetic on class counts, so float rounding can
never admit a zero-gain split. Ties between equal-impurity candidates
break toward the lower feature index, then the lower threshold.

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


def _best_split(
    x: np.ndarray,
    y: np.ndarray,
    idx: np.ndarray,
    candidates: np.ndarray,
    min_leaf: int,
):
    """Best (feature, threshold, left_count, left_pos) over candidates.

    Returns None when no candidate feature admits a valid split.
    ``candidates`` must be sorted ascending: the argmin below scans
    feature-major then position-major, which implements the
    (feature index, threshold) tie-break.
    """
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
        ok = (left_n >= min_leaf) & (m - left_n >= min_leaf)
        valid = valid & ok
    if not valid.any():
        return None

    right_n = m - left_n
    left_pos = cum_pos
    right_pos = total_pos - left_pos
    left_neg = left_n - left_pos
    right_neg = right_n - right_pos
    # Weighted Gini * m, dropping the constant factor: lower is better.
    score = (
        left_n - (left_pos**2 + left_neg**2) / left_n
        + right_n - (right_pos**2 + right_neg**2) / right_n
    )
    score = np.where(valid, score, np.inf)

    flat = np.argmin(score.T)  # feature-major scan for tie-breaking
    f_local, cut = divmod(flat, m - 1)
    feature = int(candidates[f_local])
    low = float(sorted_vals[cut, f_local])
    high = float(sorted_vals[cut + 1, f_local])
    threshold = (low + high) / 2.0
    if threshold >= high:  # adjacent floats: midpoint may round up
        threshold = low
    return feature, threshold, int(cut + 1), int(round(cum_pos[cut, f_local]))


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
    if sample_idx is None:
        sample_idx = np.arange(x.shape[0], dtype=np.int64)
    n_features = x.shape[1]
    if n_candidates is not None and rng is None:
        raise ValueError("feature subsampling requires an rng")

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    pos_fraction: list[float] = []
    n_samples: list[int] = []
    n_positive: list[int] = []

    def new_node() -> int:
        feature.append(_NO_NODE)
        threshold.append(0.0)
        left.append(_NO_NODE)
        right.append(_NO_NODE)
        pos_fraction.append(0.0)
        n_samples.append(0)
        n_positive.append(0)
        return len(feature) - 1

    root = new_node()
    stack: list[tuple[int, np.ndarray, int]] = [(root, sample_idx, 0)]
    while stack:
        node, idx, depth = stack.pop()
        m = idx.shape[0]
        pos = int(y[idx].sum())
        n_samples[node] = m
        n_positive[node] = pos
        pos_fraction[node] = pos / m

        at_depth_limit = max_depth is not None and depth >= max_depth
        if at_depth_limit or pos == 0 or pos == m or m < 2 * min_leaf:
            continue

        if n_candidates is not None and n_candidates < n_features:
            candidates = rng.subset(n_features, n_candidates)
        else:
            candidates = np.arange(n_features, dtype=np.int64)
        found = _best_split(x, y, idx, candidates, min_leaf)
        if found is None:
            continue
        feat, thr, left_count, left_pos = found
        if not _strictly_improves(m, pos, left_count, left_pos):
            continue

        go_left = x[idx, feat] <= thr
        feature[node] = feat
        threshold[node] = thr
        left_id = new_node()
        right_id = new_node()
        left[node] = left_id
        right[node] = right_id
        # Push right first so the left child is expanded first.
        stack.append((right_id, idx[~go_left], depth + 1))
        stack.append((left_id, idx[go_left], depth + 1))

    tree = Tree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        pos_fraction=np.array(pos_fraction, dtype=np.float64),
        n_samples=np.array(n_samples, dtype=np.int64),
        n_positive=np.array(n_positive, dtype=np.int64),
    )
    for arr in (tree.feature, tree.threshold, tree.left, tree.right,
                tree.pos_fraction, tree.n_samples, tree.n_positive):
        arr.setflags(write=False)
    return tree


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

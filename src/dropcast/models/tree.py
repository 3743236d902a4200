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
is ``2 * bin + label``. Scores and thresholds (midpoints of the two
bins' values) are computed as from the raw values, so the coding
changes no tree.

Trees grow in lockstep; a forest passes all of its trees to one call.
Each tree keeps its own subset stream and its own depth-first stack,
left child first, which holds only nodes that may split. At each step
every growing tree pops one node, and one ``subsets`` call draws all of
their feature subsets as one block, so a tree's draws and nodes come in
the order a lone tree would make them. The popped nodes are searched in
chunks of at most ``_CHUNK_ELEMENTS`` (node, candidate, row) elements,
which bounds the search's memory however many trees grow together; a
larger node is searched alone.

A chunk is searched in one of two ways, which find the same split:

- Sorted (``_search``). A node's rows are gathered once per candidate
  feature, tagged with the node's index above the key bits
  (``node << shift | key``) and sorted together. Because bins are
  numbered feature-major and subsets are drawn sorted, each node's keys
  sort candidate by candidate, in candidate order, and within a
  candidate by threshold. Cuts are where the bin (``key >> 1``) changes
  inside one candidate's run; positive counts are prefix sums of bit 0.
- Counted (``_count_search``), for a chunk of one node whose rows times
  candidates are at least ``2 * n_bins``, the length of the count array
  (one slot per possible key). One ``np.bincount`` of the node's keys counts
  each (bin, label); a bin holds one distinct value, so the prefix sums
  of the counts over the present bins, in bin order, are the sorted
  search's counts at its cuts, in its order. This is the decision
  tree's path on large data; forests' batched small nodes keep the sort.

Either way each cut's left size and positives are the same integers,
scored by the same float64 expression, and the first minimum in
(candidate, threshold) order is the tie-break winner. Only each node's
winner is put to the exact test, and the winners' rows are partitioned
stably in place. With feature subsampling, each split attempt advances
its tree's stream by one subset draw of ``n_features`` counters.

Leaves store the positive-class fraction of their training samples,
which is the tree's score. Trees are flat parallel arrays; traversal is
vectorized level by level.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from ..rng import SeededRng, subsets

_NO_NODE = -1

# At most this many (node, candidate feature, row) elements are searched
# by one set of numpy calls; a single node with more is searched alone.
_CHUNK_ELEMENTS = 1 << 15


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


def _key_shift(n_nodes: int, n_bins: int) -> int:
    """Bit position of the node index in the sort key ``node << shift | key``.

    Keys are below ``2 * n_bins``. Raises OverflowError when the key of
    node ``n_nodes - 1`` would not fit in an int64.
    """
    shift = (2 * n_bins - 1).bit_length()
    if n_nodes << shift > 1 << 63:
        raise OverflowError(f"{n_nodes} nodes over {n_bins} bins overflow an int64 sort key")
    return shift


def build_tree(
    x: np.ndarray,
    y: np.ndarray,
    sample_idx: np.ndarray | None = None,
    max_depth: int | None = None,
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
    coded = _code_columns(x, y)
    return _grow_trees(coded, [(sample_idx, rng)], max_depth, n_candidates)[0]


class _Growing:
    """One tree mid-growth: per-node counts, split records, and the stack
    of (node, start, size, positives, depth) nodes still to search."""

    __slots__ = ("n_samples", "n_positive", "split_node", "split_feature", "split_threshold",
                 "stack")

    def __init__(self, size: int, positives: int):
        self.n_samples, self.n_positive = array("q", [size]), array("q", [positives])
        self.split_node, self.split_feature = array("q"), array("q")
        self.split_threshold = array("d")
        self.stack = []

    def tree(self) -> Tree:
        n_samples = np.array(self.n_samples, dtype=np.int64)
        n_positive = np.array(self.n_positive, dtype=np.int64)
        split = np.array(self.split_node, dtype=np.int64)
        feature = np.full(n_samples.shape, _NO_NODE, dtype=np.int64)
        feature[split] = self.split_feature
        threshold = np.zeros(n_samples.shape)
        threshold[split] = self.split_threshold
        # The i-th split appended nodes 2i + 1 and 2i + 2 as its children.
        left = np.full(n_samples.shape, _NO_NODE, dtype=np.int64)
        left[split] = 2 * np.arange(split.size) + 1
        right = np.full(n_samples.shape, _NO_NODE, dtype=np.int64)
        right[split] = left[split] + 1
        arrays = (feature, threshold, left, right, n_positive / n_samples, n_samples, n_positive)
        for arr in arrays:
            arr.setflags(write=False)
        return Tree(*arrays)


def _grow_trees(coded, trees, max_depth, n_candidates) -> list[Tree]:
    """One ``Tree`` per (sample_idx, rng) of ``trees``, grown in lockstep
    on columns coded by ``_code_columns``; each equals the tree
    ``build_tree`` would grow alone from the same arguments."""
    keys, values, labels = coded
    n_features, n_rows = keys.shape
    subsample = n_candidates is not None and n_candidates < n_features
    k = n_candidates if subsample else n_features
    shift = _key_shift(len(trees), len(values))
    depth_limit = math.inf if max_depth is None else max_depth

    def push(state, node, start, size, positives, depth):
        if depth < depth_limit and 0 < positives < size:
            state.stack.append((node, start, size, positives, depth))

    # Every tree's rows, one range per tree; each node owns a subrange,
    # which its split partitions stably in place, left rows first.
    samples = [
        np.arange(n_rows, dtype=np.int64) if idx is None else np.asarray(idx, dtype=np.int64)
        for idx, _ in trees
    ]
    if any(len(sample) == 0 for sample in samples):
        raise ValueError("a tree needs at least one training row")
    order = np.concatenate(samples)
    states, start = [], 0
    for sample in samples:
        size, positives = len(sample), int(labels[sample].sum())
        states.append(_Growing(size, positives))
        push(states[-1], 0, start, size, positives, 0)
        start += size
    del samples

    growing = [(state, rng) for state, (_, rng) in zip(states, trees) if state.stack]
    while growing:
        # One (tree, node, start, size, positives, depth) per growing tree.
        batch = [(state, *state.stack.pop()) for state, _ in growing]
        if subsample:
            candidates = subsets([rng for _, rng in growing], n_features, k)
        else:
            candidates = np.broadcast_to(np.arange(n_features), (len(batch), n_features))

        for lo, hi in _chunks([entry[3] * k for entry in batch]):
            splits = []  # (start, size, feature, low bin, left size)
            # A lone node with at least one key per count slot is counted.
            if hi - lo == 1 and batch[lo][3] * k >= 2 * len(values):
                found = _count_search(keys, values, order, batch[lo], candidates[lo])
            else:
                found = _search(keys, values, order, batch[lo:hi], candidates[lo:hi], shift)
            for i, feature, thr, left_size, left_pos, low_bin in zip(*found):
                state, node, start, size, positives, depth = batch[lo + i]
                if not _strictly_improves(size, positives, left_size, left_pos):
                    continue
                child = len(state.n_samples)
                state.split_node.append(node)
                state.split_feature.append(feature)
                state.split_threshold.append(thr)
                state.n_samples.extend((left_size, size - left_size))
                state.n_positive.extend((left_pos, positives - left_pos))
                # Push right first so the left child is expanded first.
                push(state, child + 1, start + left_size, size - left_size,
                     positives - left_pos, depth + 1)
                push(state, child, start, left_size, left_pos, depth + 1)
                splits.append((start, size, feature, low_bin, left_size))
            if splits:
                _partition(keys, order, *np.array(splits, dtype=np.int64).T)
        growing = [(state, rng) for state, rng in growing if state.stack]
    return [state.tree() for state in states]


def _chunks(elements: list[int]):
    """(lo, hi) runs of consecutive nodes of at most ``_CHUNK_ELEMENTS``
    elements each; a node with more forms a run of its own."""
    lo, total = 0, 0
    for i, count in enumerate(elements):
        if i > lo and total + count > _CHUNK_ELEMENTS:
            yield lo, i
            lo, total = i, 0
        total += count
    if elements:
        yield lo, len(elements)


def _search(keys, values, order, batch, candidates, shift):
    """Each node's first-minimum valid cut, for the nodes that have one;
    row i of ``candidates`` holds node i's candidate features.

    Returns parallel lists: the node's index in ``batch``, the winner's
    feature and threshold, its left child's size and positives, and the
    bin just below the cut.
    """
    n_rows = keys.shape[1]
    _, _, starts, sizes, positives, _ = zip(*batch)
    n, k = candidates.shape
    if k == 0:
        return ()
    sizes, positives = np.array(sizes), np.array(positives)
    # One segment per (node, candidate), node-major, in candidate order.
    seg_len = np.repeat(sizes, k)
    seg_end = seg_len.cumsum()
    seg_start = seg_end - seg_len
    total = int(seg_end[-1])

    # Element j of segment s holds the key of its candidate for row
    # order[start + j] of its node.
    flat = np.repeat(np.repeat(np.array(starts), k) - seg_start, seg_len)
    flat += np.arange(total)
    flat = order.take(flat)
    flat += np.repeat(candidates.ravel() * n_rows, seg_len)
    packed = keys.take(flat)
    del flat
    if n > 1:
        packed |= np.repeat(np.arange(n, dtype=np.int64) << shift, sizes * k)
    packed.sort()

    # A cut follows position j of a segment where the bin changes, short
    # of the segment's last row.
    cut = np.empty(total, dtype=bool)
    np.greater(packed[:-1] ^ packed[1:], 1, out=cut[:-1])
    cut[seg_end - 1] = False
    at = np.flatnonzero(cut)
    del cut
    if at.size == 0:
        return ()
    seg = np.searchsorted(seg_end, at, side="right")

    running = packed & 1
    np.cumsum(running, out=running)
    left_count = running[at] - (running[seg_start] - (packed[seg_start] & 1))[seg]
    del running
    cut_at = at - seg_start[seg]
    node = seg // k

    score = _scores(sizes[node], positives[node], cut_at + 1.0, left_count.astype(np.float64))
    # Cuts are sorted node-major, then by feature and threshold, so each
    # node's first minimum is its tie-break winner.
    new_node = np.empty(node.size, dtype=bool)
    new_node[0] = True
    np.not_equal(node[1:], node[:-1], out=new_node[1:])
    first = np.flatnonzero(new_node)
    lowest = np.minimum.reduceat(score, first)[new_node.cumsum() - 1]
    hits = np.flatnonzero(score == lowest)
    win = hits[np.searchsorted(hits, first)]

    key_mask = (1 << shift) - 1
    won = at[win]
    low_bin = (packed[won] & key_mask) >> 1
    return (
        node[win].tolist(),
        candidates.ravel()[seg[win]].tolist(),
        _midpoints(values, low_bin, (packed[won + 1] & key_mask) >> 1).tolist(),
        (cut_at[win] + 1).tolist(),
        left_count[win].tolist(),
        low_bin.tolist(),
    )


def _count_search(keys, values, order, node, candidates):
    """``_search`` of a chunk holding the one batch entry ``node``, from
    one ``np.bincount`` of the node's keys instead of a sort."""
    _, _, start, size, positives, _ = node
    rows = order[start:start + size]
    counts = np.bincount(keys[candidates[:, None], rows].ravel(), minlength=2 * len(values))
    counts = counts.reshape(-1, 2)  # (bin, label); absent bins, other features' too, are 0
    present = np.flatnonzero(counts.any(axis=1))
    # Rows and positives at or below each present bin, over the candidates
    # so far. Every candidate holds all ``size`` rows, so a candidate's run
    # of bins ends exactly where the running row count is a multiple of
    # ``size``; a cut follows each present bin that does not end a run.
    n_at = counts[present].sum(axis=1).cumsum()
    pos_at = counts[present, 1].cumsum()
    at = np.flatnonzero(n_at % size)
    if at.size == 0:
        return ()
    run = (n_at[at] - 1) // size
    left_n = n_at[at] - run * size
    left_pos = pos_at[at] - run * positives
    score = _scores(size, positives, left_n.astype(np.float64), left_pos.astype(np.float64))
    win = int(np.argmin(score))  # the first minimum: candidate, then threshold order
    low_bin, high_bin = present[at[win]], present[at[win] + 1]
    return (
        [0],
        [int(candidates[run[win]])],
        [float(_midpoints(values, low_bin, high_bin))],
        [int(left_n[win])],
        [int(left_pos[win])],
        [int(low_bin)],
    )


def _scores(m, pos, left_n, left_pos):
    """Weighted Gini * m of each cut, dropping the constant factor: lower
    is better. ``left_n`` and ``left_pos`` are float64 arrays of counts."""
    right_n = m - left_n
    right_pos = pos - left_pos
    left_neg = left_n - left_pos
    right_neg = right_n - right_pos
    return (
        left_n - (left_pos**2 + left_neg**2) / left_n
        + right_n - (right_pos**2 + right_neg**2) / right_n
    )


def _midpoints(values, low_bin, high_bin):
    """Thresholds between the values of bins ``low_bin`` and ``high_bin``."""
    low, high = values[low_bin], values[high_bin]
    thr = (low + high) / 2.0
    return np.where(thr >= high, low, thr)  # adjacent floats: midpoint may round up


def _partition(keys, order, starts, sizes, features, low_bins, left_sizes):
    """Stably reorder each range ``order[start:start + size]`` so that
    its ``left_size`` rows whose bin of ``feature`` is at most
    ``low_bin`` come first."""
    first = sizes.cumsum() - sizes
    at = np.repeat(starts - first, sizes)
    at += np.arange(at.size)  # positions in ``order``, range by range
    rows = order[at]
    go_left = keys.take(np.repeat(features * keys.shape[1], sizes) + rows)
    go_left = go_left <= np.repeat(2 * low_bins + 1, sizes)
    # The left rows ahead of each row in its range.
    ahead = np.cumsum(go_left) - go_left
    ahead -= np.repeat(ahead[first], sizes)
    dest = np.where(
        go_left,
        np.repeat(starts, sizes) + ahead,
        at + np.repeat(left_sizes, sizes) - ahead,
    )
    order[dest] = rows


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

"""Greedy CART for binary labels, Gini criterion, axis-aligned splits.

Candidate thresholds are midpoints between consecutive distinct sorted
values of each candidate feature. A node is split only if the best
candidate strictly decreases weighted Gini impurity. Gini is strictly
concave: the decrease is ``2 * ln * rn * (lp/ln - rp/rn)**2 / n**2``,
zero exactly when both children hold the same positive fraction. The
check is therefore ``lp * rn != rp * ln`` on class counts, exact even in
int64: both products are below ``n**2 <= 2**60`` for the 2**30 rows the
int32 keys allow. Ties between equal-impurity candidates break toward
the lower feature index, then the lower threshold.

The search runs on integer-coded columns, built once per training
matrix and shared by every tree of a forest. A value's bin is its rank
among its column's distinct values, numbered feature-major; a row's key
is ``2 * bin + label``, stored as int32, so the key matrix is half the
size of the float64 training matrix. A matrix of more than 2**30 values
could hold more than 2**30 bins, whose keys would not fit, and is
refused. Scores and thresholds (midpoints of the two bins' values) are
computed as from the raw values, so the coding changes no tree.

Trees grow together, level by level; a forest passes all of its trees
to one call. The nodes that may split at the current depth form one
frontier, tree by tree and left to right. One ``subsets`` call draws a
feature subset for every frontier node at the node's own address (see
``_grow_trees``), so no draw depends on other trees or on the order of
growth. The frontier is searched in chunks of at most
``_CHUNK_ELEMENTS`` (node, candidate, row) elements, which bounds the
search's memory however many nodes a depth holds; a larger node is
searched alone.

A chunk is searched in one of two ways, which find the same split:

- Sorted (``_search``). A node's rows are gathered once per candidate
  feature; each (node, candidate) pair is a segment, numbered
  node-major and in candidate order. Every key is tagged with its
  segment above the key bits (``segment << shift | key``), as int32
  when the chunk's largest tag fits (``segments << shift <= 2**31``)
  and as int64 otherwise, and the chunk is sorted together. Because
  bins are numbered feature-major and subsets are drawn sorted, this is
  the order of the node tag alone: node by node, candidate by
  candidate, and within a candidate by threshold. Cuts are where the
  bin (``key >> 1``) changes inside one segment; a cut's segment is its
  key's tag, and positive counts are prefix sums of bit 0.
- Counted (``_count_search``), for a chunk of one node whose rows times
  candidates are at least ``2 * n_bins``, the length of the count array
  (one slot per possible key). The node's keys are counted one candidate
  at a time, each ``np.bincount`` spanning only that candidate's keys,
  into the one count array of each (bin, label); a bin holds one
  distinct value, so the prefix sums of the counts over the present
  bins, in bin order, are the sorted search's counts at its cuts, in its
  order. No (candidates, rows) block of keys is gathered. This is the
  decision tree's path on large data; forests' batched small nodes keep
  the sort.

Either way each cut's left size and positives are the same integers,
scored by the same float64 expression, and the first minimum in
(candidate, threshold) order is the tie-break winner; its rows are
partitioned stably in place. Then the depth's winners take the exact
test and number their children: a tree's j-th split, counted level by
level and left to right, appends nodes 2j + 1 and 2j + 2. The children
that may split form the next frontier. Each of these is one array
operation for all trees. A node's id is therefore its level-order
position, and a split's right child is its left child plus one.

Leaves store the positive-class fraction of their training samples,
which is the tree's score. Trees are flat parallel arrays. Scoring walks
the (tree, query row) pairs of all trees at once, level by level, in
blocks of query rows (``_mean_scores``); a lone tree is the one-tree
case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rng import subsets

_NO_NODE = -1

# At most this many (node, candidate feature, row) elements are searched
# by one set of numpy calls; a single node with more is searched alone.
_CHUNK_ELEMENTS = 1 << 15

# Bins number at most the matrix's values; with at most 2**30 bins every
# key ``2 * bin + label`` is below 2**31 and fits an int32.
_MAX_VALUES = 1 << 30

# Scoring walks the (tree, query row) pairs of about this many at once.
_WALK_PAIRS = 1 << 16


@dataclass(frozen=True)
class Tree:
    """Flat binary tree. ``feature[i] == -1`` marks node i as a leaf;
    a split node's right child is ``left[i] + 1``."""

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


def _strictly_improves(left_n: int, left_pos: int, right_n: int, right_pos: int) -> bool:
    """Exact test that a split lowers weighted Gini impurity: the
    children's positive fractions differ (see the module docstring)."""
    return left_pos * right_n != right_pos * left_n


def _code_columns(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """(keys, the value of each bin, labels) as described above; ``keys``
    is a (features, rows) int32 matrix. Raises ValueError, before
    allocating anything of the matrix's size, when ``x`` has more than
    2**30 values."""
    x = np.asarray(x, dtype=np.float64)
    if x.size > _MAX_VALUES:
        raise ValueError(f"{x.size} tree feature values could overflow an int32 key; "
                         f"at most {_MAX_VALUES} are allowed")
    if not np.isfinite(x).all():
        raise ValueError("tree features must be finite")
    y = np.asarray(y, dtype=np.int64)
    if ((y != 0) & (y != 1)).any():
        raise ValueError("tree labels must be 0 or 1")
    keys, values = np.empty(x.shape[::-1], dtype=np.int32), [np.zeros(0)]
    for f, column in enumerate(x.T):
        distinct, bins = np.unique(column, return_inverse=True)
        keys[f] = 2 * (bins + sum(map(len, values))) + y
        values.append(distinct)
    return keys, np.concatenate(values), y


def _key_shift(n_nodes: int, n_bins: int) -> int:
    """Bit position of the tag in the sort key ``tag << shift | key``;
    ``_search`` tags each key with its (node, candidate) segment.

    Keys are below ``2 * n_bins``. Raises OverflowError when the key of
    tag ``n_nodes - 1`` would not fit in an int64.
    """
    shift = (2 * n_bins - 1).bit_length()
    if n_nodes << shift > 1 << 63:
        raise OverflowError(f"{n_nodes} nodes over {n_bins} bins overflow an int64 sort key")
    return shift


def build_tree(x: np.ndarray, y: np.ndarray, max_depth: int | None = None) -> Tree:
    """Grow a CART tree on all rows of (x, y), every feature a candidate
    at each split."""
    return _grow_trees(_code_columns(x, y), [None], None, max_depth, None)[0]


def _grow_trees(coded, samples, seeds, max_depth, n_candidates) -> list[Tree]:
    """One ``Tree`` per sample of ``samples``, grown together level by
    level on columns coded by ``_code_columns``: on rows ``samples[i]``
    (all rows when None; a bootstrap sample repeats rows), each split
    drawing ``n_candidates`` features when given. Node ``v`` of tree ``i``
    draws them at ``(seeds[i], len(samples[i]) + v * n_features)``, so
    each tree equals the tree grown alone from the same sample and seed."""
    keys, values, labels = coded
    n_features, n_rows = keys.shape
    subsample = n_candidates is not None and n_candidates < n_features
    k = n_candidates if subsample else n_features
    # A chunk of several nodes of at least two rows holds fewer segments
    # than elements; a lone node holds k.
    shift = _key_shift(max(_CHUNK_ELEMENTS, k), len(values))
    depth_limit = np.iinfo(np.int64).max if max_depth is None else max_depth

    # Every tree's rows, one range per tree; each node owns a subrange,
    # which its split partitions stably in place, left rows first.
    samples = [
        np.arange(n_rows, dtype=np.int64) if idx is None else np.asarray(idx, dtype=np.int64)
        for idx in samples
    ]
    if any(len(sample) == 0 for sample in samples):
        raise ValueError("a tree needs at least one training row")
    order = np.concatenate(samples)
    sizes = np.array([len(sample) for sample in samples], dtype=np.int64)
    del samples
    starts = sizes.cumsum() - sizes
    positives = np.add.reduceat(labels[order], starts)

    # The nodes of the current depth as columns (tree, node, start, size,
    # positives), tree by tree and left to right.
    frontier = np.stack((np.arange(len(sizes)), np.zeros_like(sizes), starts, sizes, positives))
    n_splits = np.zeros(len(sizes), dtype=np.int64)
    records = []  # per depth: the splits' nodes, features, thresholds, and children's columns
    depth = 0
    while depth < depth_limit:
        frontier = frontier[:, (frontier[4] > 0) & (frontier[4] < frontier[3])]
        tree, node, start, size, positive = frontier
        if not tree.size:
            break
        if subsample:
            candidates = subsets(seeds[tree], sizes[tree] + node * n_features, n_features, k)
        else:
            candidates = np.broadcast_to(np.arange(n_features), (tree.size, n_features))

        found = []
        elements = (size * k).tolist()
        for lo, hi in _chunks(elements):
            # A lone node with at least one key per count slot is counted.
            if hi - lo == 1 and elements[lo] >= 2 * len(values):
                chunk = _count_search(keys, values, order, start[lo], size[lo], positive[lo],
                                      candidates[lo])
            else:
                chunk = _search(keys, values, order, start[lo:hi], size[lo:hi],
                                positive[lo:hi], candidates[lo:hi], shift)
            if chunk:
                i, feature, threshold, left_n, left_pos, low_bin = chunk
                if lo:
                    i += lo
                # A winner that fails the exact test below stays a leaf,
                # and no later depth reads its rows' order.
                _partition(keys, order, start[i], size[i], feature, low_bin, left_n)
                found.append((i, feature, threshold, left_n, left_pos))
        if not found:
            break
        i, feature, threshold, left_n, left_pos = (
            found[0] if len(found) == 1 else map(np.concatenate, zip(*found)))
        right_n, right_pos = size[i] - left_n, positive[i] - left_pos
        better = _strictly_improves(left_n, left_pos, right_n, right_pos)
        if not better.all():
            i, feature, threshold, left_n, left_pos, right_n, right_pos = (
                column[better]
                for column in (i, feature, threshold, left_n, left_pos, right_n, right_pos))

        # A tree's j-th split, counted level by level and left to right,
        # appends nodes 2j + 1 (left) and 2j + 2; the splits of one tree
        # are consecutive, in that order.
        t = tree[i]
        j = n_splits[t] + np.arange(t.size) - np.searchsorted(t, t)
        n_splits += np.bincount(t, minlength=len(sizes))
        kids = np.empty((5, t.size, 2), dtype=np.int64)
        kids[:, :, 0] = t, 2 * j + 1, start[i], left_n, left_pos
        kids[:, :, 1] = t, 2 * j + 2, start[i] + left_n, right_n, right_pos
        frontier = kids.reshape(5, -1)
        records.append((node[i], feature, threshold, frontier))
        depth += 1
    return _assemble(sizes, positives, 2 * n_splits + 1, records)


def _assemble(sizes, positives, n_nodes, records) -> list[Tree]:
    """Every tree from its root's counts, node count and split records,
    filled as one set of joint arrays that the ``Tree``s slice."""
    empty = np.zeros(0, dtype=np.int64)
    node, feature, threshold, kids = (
        np.concatenate(column, axis=-1)
        for column in zip(*records or [(empty, empty, empty, empty.reshape(5, 0))]))
    first = n_nodes.cumsum() - n_nodes
    split_at = first[kids[0, ::2]] + node
    links = np.full((3, n_nodes.sum()), _NO_NODE, dtype=np.int64)
    links[:, split_at] = feature, kids[1, ::2], kids[1, 1::2]
    threshold_of = np.zeros(links.shape[1])
    threshold_of[split_at] = threshold
    counts = np.empty((2, links.shape[1]), dtype=np.int64)
    counts[:, first] = sizes, positives
    counts[:, first[kids[0]] + kids[1]] = kids[3:]
    (feature_of, left, right), (n_samples, n_positive) = links, counts
    arrays = (feature_of, threshold_of, left, right, n_positive / n_samples, n_samples, n_positive)
    for arr in arrays:
        arr.setflags(write=False)
    ends = first + n_nodes
    return [Tree(*(arr[lo:hi] for arr in arrays)) for lo, hi in zip(first.tolist(), ends.tolist())]


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


def _search(keys, values, order, starts, sizes, positives, candidates, shift):
    """Each node's first-minimum valid cut, for the nodes that have one;
    node i owns ``order[starts[i]:][:sizes[i]]``, ``positives[i]`` of its
    rows are positive, and row i of ``candidates`` holds its candidates.

    Returns parallel arrays, or ``()`` when no node has a cut: the node's
    index i, the winner's feature and threshold, its left child's size
    and positives, and the bin just below the cut.
    """
    n_rows = keys.shape[1]
    n, k = candidates.shape
    if k == 0:
        return ()
    # One segment per (node, candidate), node-major, in candidate order.
    seg_len = np.repeat(sizes, k)
    seg_end = seg_len.cumsum()
    seg_start = seg_end - seg_len
    total = int(seg_end[-1])

    # Element j of segment s holds the key of its candidate for row
    # order[start + j] of its node.
    flat = np.repeat(np.repeat(starts, k) - seg_start, seg_len)
    flat += np.arange(total)
    flat = order.take(flat)
    flat += np.repeat(candidates.ravel() * n_rows, seg_len)
    # Each key tagged with its segment above the key bits, as int32 when
    # the largest tagged key fits. A chunk sorted here holds fewer than
    # 2**31 keys (a lone node with more is counted), so int32 prefix sums
    # of the positives do not overflow either.
    narrow = n * k << shift <= 1 << 31
    packed = keys.take(flat).astype(np.int32 if narrow else np.int64, copy=False)
    del flat
    packed |= np.repeat(np.arange(n * k, dtype=packed.dtype) << shift, seg_len)
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
    # int64 segments: numpy converts an int32 index array on every gather.
    seg = (packed[at] >> shift).astype(np.int64, copy=False)

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
    threshold = _midpoints(values, low_bin, (packed[won + 1] & key_mask) >> 1)
    return (node[win], candidates.ravel()[seg[win]], threshold, cut_at[win] + 1,
            left_count[win].astype(np.int64, copy=False), low_bin)


def _count_search(keys, values, order, start, size, positives, candidates):
    """``_search`` of a chunk holding one node, from counts of the node's
    keys instead of a sort. Each candidate's keys are gathered and
    counted alone, from the lowest (bin, label) pair they reach, into
    that feature's slice of the count array."""
    rows = order[start:start + size]
    counts = np.zeros(2 * len(values), dtype=np.int64)
    for feature in candidates:
        column = keys[feature].take(rows)
        low = int(column.min()) & ~1  # a (bin, label) pair starts at an even key
        column -= low
        part = np.bincount(column)
        counts[low:low + part.size] = part  # features' bins do not overlap
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
    # The first minimum: candidate, then threshold order.
    win = np.argmin(score, keepdims=True)
    low_bin, high_bin = present[at[win]], present[at[win] + 1]
    return (np.zeros(1, dtype=np.int64), candidates[run[win]],
            _midpoints(values, low_bin, high_bin), left_n[win], left_pos[win], low_bin)


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
    return _mean_scores((tree,), x)


def _mean_scores(trees, x: np.ndarray) -> np.ndarray:
    """``np.mean`` over ``trees`` of each row's leaf positive-fraction.

    The trees' nodes are concatenated, and the (tree, row) pairs of at
    most ``max(2, _WALK_PAIRS // len(trees))`` query rows are walked
    together, level by level. Each block's (trees × rows) leaf values
    are averaged along the tree axis, which numpy sums tree by tree for
    every row, as over all rows at once. A block of one row would be
    summed pairwise instead, so a final one-row block is walked with the
    row before it.
    """
    n, n_features = x.shape
    sizes = [tree.n_nodes for tree in trees]
    roots = np.cumsum([0] + sizes[:-1])
    feature = np.concatenate([tree.feature for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    left = np.concatenate([tree.left + root for tree, root in zip(trees, roots)])
    leaf_value = np.concatenate([tree.pos_fraction for tree in trees])
    x = x.ravel()
    block = max(2, _WALK_PAIRS // len(trees))
    scores = np.empty(n)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        first = lo - 1 if hi - lo == 1 and n > 1 else lo
        node = np.repeat(roots, hi - first)
        # Where each pair's query row starts in the flat ``x``.
        row_at = np.tile(np.arange(first, hi) * n_features, len(trees))
        while True:
            split = feature.take(node)
            active = np.flatnonzero(split >= 0)
            if active.size == 0:
                break
            current = node.take(active)
            go_right = x.take(row_at.take(active) + split.take(active)) > threshold.take(current)
            node[active] = left.take(current) + go_right
        leaves = leaf_value.take(node).reshape(len(trees), hi - first)
        scores[lo:hi] = np.mean(leaves, axis=0)[lo - first:]
    return scores

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dropcast.models.tree as tree_module
from dropcast.fixture import generate_fixture
from dropcast.ingest import load_dataset, load_manifest, to_binary
from dropcast.models import HyperParams, ModelKind, score, train_model
from dropcast.models.forest import build_forest
from dropcast.models.tree import (
    _code_columns,
    _count_search,
    _grow_trees,
    _key_shift,
    _search,
    _strictly_improves,
    build_tree,
    tree_scores,
)
from dropcast.rng import SeededRng, scramble, subsets

from conftest import make_binary
from oracles import (
    _grow,
    _strictly_improves as quartic_strictly_improves,
    assert_strict_gini_decrease,
    enumerate_axis_splits,
    gini_counts,
    gini_fraction,
    grow_tree,
    max_node_depth,
    reference_build_tree,
)


class TestPureAndDegenerate:
    def test_all_positive_gives_single_leaf_scoring_one(self):
        ds = make_binary(np.arange(8, dtype=float).reshape(4, 2), [1, 1, 1, 1])
        model = train_model(ModelKind.DECISION_TREE, ds, HyperParams())
        tree = model.payload
        assert tree.n_nodes == 1
        assert score(model, np.array([[5.0, -3.0], [0.0, 0.0]])).tolist() == [1.0, 1.0]

    def test_constant_features_single_leaf(self):
        ds = make_binary(np.ones((6, 3)), [1, 0, 1, 0, 1, 0])
        tree = train_model(ModelKind.DECISION_TREE, ds, HyperParams()).payload
        assert tree.n_nodes == 1
        assert tree.pos_fraction[0] == 0.5


class TestXor:
    # 4-point XOR: {(0,0)-, (1,1)-, (0,1)+, (1,0)+}. By exhaustive
    # enumeration, every axis split leaves weighted Gini at the parent's
    # 1/2, so no strictly improving split exists and the greedy builder
    # must stop at the root.
    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    Y = np.array([0, 0, 1, 1])

    def test_enumeration_shows_no_strict_improvement(self):
        parent = gini_fraction(self.Y.tolist())
        splits = enumerate_axis_splits(self.X, self.Y.tolist())
        assert splits, "midpoint candidates exist"
        assert all(weighted >= parent for _, _, weighted in splits)

    def test_builder_stops_at_root(self):
        ds = make_binary(self.X, self.Y)
        tree = train_model(ModelKind.DECISION_TREE, ds, HyperParams()).payload
        assert tree.n_nodes == 1
        assert tree.pos_fraction[0] == 0.5

    def test_tilted_xor_is_solved_at_depth_two(self):
        # Adding a fifth point breaks the tie: feature-0 split gains
        # strictly (verified by the same enumeration), children purify.
        x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.1]])
        y = np.array([0, 0, 1, 1, 1])
        parent = gini_fraction(y.tolist())
        best = min(w for _, _, w in enumerate_axis_splits(x, y.tolist()))
        assert best < parent
        ds = make_binary(x, y)
        model = train_model(ModelKind.DECISION_TREE, ds, HyperParams())
        assert max_node_depth(model.payload) == 2
        predictions = (score(model, x) >= 0.5).astype(int)
        assert predictions.tolist() == y.tolist()


@st.composite
def split_counts(draw):
    """(n, pos, left_n, left_pos) of a cut of up to 2**30 rows into two
    nonempty children: any counts, children with equal positive
    fractions, or children whose fractions are the closest their sizes
    allow without being equal, less than a float64 ulp apart when large."""
    kind = draw(st.sampled_from(["any", "equal", "closest"]))
    if kind == "equal":
        # Children of g * u and g * v rows, t / g of each positive.
        u, v = draw(st.integers(1, 1 << 15)), draw(st.integers(1, 1 << 15))
        g = draw(st.integers(1, (1 << 30) // (u + v)))
        t = draw(st.integers(0, g))
        return g * (u + v), t * (u + v), g * u, t * u
    n = draw(st.integers(2, 1 << 30))
    left_n = draw(st.integers(1, n - 1))
    if kind == "any":
        left_pos = draw(st.integers(0, left_n))
        return n, left_pos + draw(st.integers(0, n - left_n)), left_n, left_pos
    # left_pos * v - right_pos * u == 1, so lp * rn - rp * ln == g.
    g = math.gcd(left_n, n - left_n)
    u, v = left_n // g, (n - left_n) // g
    left_pos = pow(v, -1, u) if u > 1 else 1
    return n, left_pos + (left_pos * v - 1) // u, left_n, left_pos


@settings(max_examples=500, deadline=None)
@given(split_counts())
# 2**28 / (2**29 + 1) and (2**28 - 1) / (2**29 - 1): unequal, but one float64.
@example((1 << 30, (1 << 29) - 1, (1 << 29) + 1, 1 << 28))
def test_exact_split_tests_agree_with_fraction_gini(counts):
    n, pos, left_n, left_pos = counts
    weighted = (Fraction(left_n, n) * gini_counts(left_n, left_pos)
                + Fraction(n - left_n, n) * gini_counts(n - left_n, pos - left_pos))
    improves = weighted < gini_counts(n, pos)
    children = (left_n, left_pos, n - left_n, pos - left_pos)
    assert _strictly_improves(*children) is improves
    assert quartic_strictly_improves(*counts) is improves
    # Every product is below n**2 <= 2**60, so int64 arrays cannot overflow.
    as_int64 = _strictly_improves(*(np.array([count], dtype=np.int64) for count in children))
    assert as_int64.tolist() == [improves]


class TestGreedyChoice:
    def test_picks_enumerated_best_split_at_root(self):
        rng = np.random.default_rng(10)
        for trial in range(20):
            n = int(rng.integers(6, 40))
            x = rng.integers(0, 5, size=(n, 3)).astype(float)
            y = rng.integers(0, 2, size=n)
            if y.sum() in (0, n):
                continue
            tree = build_tree(x, y, max_depth=1)
            splits = enumerate_axis_splits(x, y.tolist())
            parent = gini_fraction(y.tolist())
            improving = [s for s in splits if s[2] < parent]
            if tree.feature[0] < 0:
                assert not improving
                continue
            best_weighted = min(w for _, _, w in splits)
            # tie-break: lowest feature, then lowest threshold
            expected = min(
                (s for s in splits if s[2] == best_weighted),
                key=lambda s: (s[0], s[1]),
            )
            assert int(tree.feature[0]) == expected[0]
            assert tree.threshold[0] == pytest.approx(expected[1], abs=1e-12)

    def test_strict_decrease_on_random_fixtures(self):
        rng = np.random.default_rng(11)
        total_internal = 0
        for trial in range(15):
            n = int(rng.integers(10, 80))
            x = rng.integers(0, 6, size=(n, 4)).astype(float)
            y = rng.integers(0, 2, size=n)
            if y.sum() in (0, n):
                continue
            tree = build_tree(x, y, max_depth=5)
            total_internal += assert_strict_gini_decrease(tree, x, y)
        assert total_internal > 10

    def test_depth_bound_respected(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(300, 6))
        y = rng.integers(0, 2, size=300)
        ds = make_binary(x, y)
        model = train_model(ModelKind.DECISION_TREE, ds, HyperParams())  # default depth 5
        assert max_node_depth(model.payload) <= 5


class TestInvariance:
    def test_monotone_transform_keeps_partitions(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(120, 4))
        y = (x[:, 1] + 0.3 * rng.normal(size=120) > 0).astype(int)
        x_test = rng.normal(size=(40, 4))

        base = build_tree(x, y, max_depth=5)
        base_scores = tree_scores(base, x_test)

        transformed = x.copy()
        transformed[:, 1] = np.exp(transformed[:, 1])  # strictly monotone
        transformed_test = x_test.copy()
        transformed_test[:, 1] = np.exp(transformed_test[:, 1])
        other = build_tree(transformed, y, max_depth=5)
        assert np.array_equal(tree_scores(other, transformed_test), base_scores)

    def test_adjacent_float_values_split_cleanly(self):
        # Midpoint of adjacent doubles can round up to the larger value;
        # the builder must still produce two nonempty children.
        low = 1.0
        high = np.nextafter(low, 2.0)
        x = np.array([[low], [low], [high], [high]])
        y = np.array([0, 0, 1, 1])
        tree = build_tree(x, y, max_depth=3)
        assert tree.n_nodes == 3
        assert tree_scores(tree, x).tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(80, 5))
        y = rng.integers(0, 2, size=80)
        a = build_tree(x, y, max_depth=5)
        b = build_tree(x, y, max_depth=5)
        assert np.array_equal(a.feature, b.feature)
        assert np.array_equal(a.threshold, b.threshold)

    def test_scores_are_leaf_fractions_in_unit_interval(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(100, 3))
        y = rng.integers(0, 2, size=100)
        ds = make_binary(x, y)
        model = train_model(ModelKind.DECISION_TREE, ds, HyperParams())
        out = score(model, rng.normal(size=(30, 3)))
        assert ((out >= 0.0) & (out <= 1.0)).all()


TREE_ARRAYS = ("feature", "threshold", "left", "right", "pos_fraction", "n_samples", "n_positive")


@st.composite
def tree_problems(draw):
    """Small (x, y, grow_tree kwargs, rng seed) with ties, duplicates and limits."""
    n = draw(st.integers(2, 60))
    p = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    g = np.random.default_rng(seed)
    if draw(st.booleans()):  # integer codes: many ties
        x = g.integers(0, draw(st.integers(1, 6)), size=(n, p)).astype(float)
    else:  # continuous values, rounded to a grid so that some still tie
        x = np.round(g.normal(size=(n, p)) * 10.0, draw(st.integers(0, 3)))
    y = g.integers(0, 2, size=n)
    kwargs = {
        "sample_idx": g.integers(0, n, size=n) if draw(st.booleans()) else None,
        "max_depth": draw(st.one_of(st.none(), st.integers(1, 5))),
        "n_candidates": draw(st.one_of(st.none(), st.integers(1, p))),
    }
    return x, y, kwargs, seed


class TestAgainstReferenceGrower:
    @settings(max_examples=300, deadline=None)
    @given(tree_problems())
    def test_every_array_equals_the_reference(self, problem):
        x, y, kwargs, seed = problem
        # Each grower draws each node's subset at the node's address.
        tree = grow_tree(x, y, **kwargs, seed=seed)
        reference = reference_build_tree(x, y, **kwargs, seed=seed)
        for name in TREE_ARRAYS:
            assert np.array_equal(getattr(tree, name), getattr(reference, name)), name

    def test_forest_trees_equal_the_reference(self):
        rng = np.random.default_rng(27)
        x = rng.integers(0, 8, size=(120, 9)).astype(float)
        y = (x[:, 0] + rng.normal(size=120) > 4).astype(int)
        forest = build_forest(x, y, n_trees=12, seed=42)
        for tree, tree_seed in zip(forest.trees, forest.tree_seeds):
            sample = SeededRng(tree_seed).integers(120, 120)
            reference = reference_build_tree(x, y, sample, n_candidates=3, seed=tree_seed)
            for name in TREE_ARRAYS:
                assert np.array_equal(getattr(tree, name), getattr(reference, name)), name

    @pytest.mark.parametrize("n_features, k", [(1, 1), (5, 2), (34, 6), (36, 6), (9, 9)])
    def test_batched_subsets_equal_successive_subset_calls(self, n_features, k):
        # Two streams drawn together, then apart, as trees stop growing, at
        # the counters of successive nodes of a tree of 120 sample rows;
        # alone, each stream skips the sample and draws one permutation a node.
        keys = scramble([11, 12])
        fresh = [SeededRng(11), SeededRng(12)]
        for stream in fresh:
            stream.uint64(120)
        for step in range(150):
            drawn = [i for i in range(2) if step % 3 != i]
            block = subsets(keys[drawn], [120 + step * n_features] * len(drawn), n_features, k)
            assert block.shape == (len(drawn), k)
            alone = [np.sort(stream.permutation(n_features)[:k]) for stream in fresh]
            for row, i in zip(block, drawn):
                assert np.array_equal(row, alone[i])


@st.composite
def forest_problems(draw):
    """(x, y, tree seeds, bootstrap, max_depth, n_candidates, elements per chunk)."""
    x, y, kwargs, seed = draw(tree_problems())
    if draw(st.booleans()):  # duplicate rows with conflicting labels
        half = len(y) // 2
        x[half : 2 * half] = x[:half]
    seeds = [seed ^ i for i in range(draw(st.integers(1, 40)))]
    return (x, y, seeds, draw(st.booleans()), kwargs["max_depth"], kwargs["n_candidates"],
            draw(st.integers(20, 400)))


def forest_sample(n_rows, tree_seed, bootstrap):
    """The sample of a tree grown as ``build_forest`` grows one: the
    bootstrap sample, when drawn, comes first from the tree's stream."""
    return SeededRng(tree_seed).integers(n_rows, n_rows) if bootstrap else None


class TestLockstepAgainstPerNodeGrower:
    @settings(max_examples=300, deadline=None)
    @given(forest_problems())
    def test_every_tree_equals_the_per_node_grower(self, problem):
        # Small chunks: a step's nodes are searched in several chunks or alone.
        x, y, seeds, bootstrap, max_depth, n_candidates, chunk = problem
        coded = _code_columns(x, y)
        samples = [forest_sample(len(y), seed, bootstrap) for seed in seeds]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tree_module, "_CHUNK_ELEMENTS", chunk)
            grown = _grow_trees(coded, samples, scramble(seeds), max_depth, n_candidates)
        for lockstep, sample, seed in zip(grown, samples, seeds):
            expected = _grow(coded, sample, max_depth, 1, n_candidates, seed)
            for name in TREE_ARRAYS:
                assert np.array_equal(getattr(lockstep, name), getattr(expected, name)), name

    def test_sort_key_overflow_is_refused(self):
        # Keys below 2**62 leave one bit for the node index: two nodes fit.
        assert _key_shift(2, 2**61) == 62
        with pytest.raises(OverflowError, match="int64 sort key"):
            _key_shift(3, 2**61)
        with pytest.raises(OverflowError, match="int64 sort key"):
            _key_shift(25, 2**58)


@st.composite
def mixed_trees(draw):
    """(x, y, samples, tree seeds, max_depth, n_candidates) of one
    lockstep call whose trees grow very differently: some
    end at the root (a one-row sample, or a sample of one label), others
    grow on all rows or a bootstrap sample, of random data or of a
    staircase whose every split peels off one row."""
    if draw(st.booleans()):
        x, y, _, seed = draw(tree_problems())
    else:  # ascending values with alternating labels, beside a constant column
        n, seed = draw(st.integers(2, 60)), draw(st.integers(0, 2**32 - 1))
        x = np.column_stack((np.arange(n, dtype=float), np.zeros(n)))
        y = np.arange(n) % 2
    g = np.random.default_rng(seed)
    n = len(y)
    samples = []
    for kind in draw(st.lists(st.sampled_from(["all", "bootstrap", "one row", "one label"]),
                              min_size=1, max_size=12)):
        if kind == "all":
            samples.append(None)
        elif kind == "bootstrap":
            samples.append(g.integers(0, n, size=n))
        elif kind == "one row":
            samples.append(g.integers(0, n, size=1))
        else:
            same_label = np.flatnonzero(y == y[g.integers(n)])
            samples.append(g.choice(same_label, size=draw(st.integers(1, n))))
    return (x, y, samples, [seed ^ j for j in range(len(samples))],
            draw(st.sampled_from([0, 1, 2, 3, None])),
            draw(st.one_of(st.none(), st.integers(1, x.shape[1]))))


@settings(max_examples=300, deadline=None)
@given(mixed_trees())
def test_trees_that_grow_unalike_in_one_call_equal_the_per_node_grower(problem):
    x, y, samples, seeds, max_depth, n_candidates = problem
    coded = _code_columns(x, y)
    grown = _grow_trees(coded, samples, scramble(seeds), max_depth, n_candidates)
    for tree, sample, seed in zip(grown, samples, seeds):
        expected = _grow(coded, sample, max_depth, 1, n_candidates, seed)
        for name in TREE_ARRAYS:
            assert np.array_equal(getattr(tree, name), getattr(expected, name)), name


@st.composite
def lone_nodes(draw):
    """(coded columns, row order, (start, size, positives), candidates) of
    a node searched alone."""
    n = draw(st.integers(1, 80))
    p = draw(st.integers(1, 6))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # few codes: ties, constant columns, absent bins
        x = g.integers(0, draw(st.integers(1, 5)), size=(n, p)).astype(float)
    else:
        x = np.round(g.normal(size=(n, p)) * 10.0, draw(st.integers(0, 2)))
    labels = draw(st.sampled_from(["random", "all 0", "all 1"]))
    y = g.integers(0, 2, size=n) if labels == "random" else np.full(n, int(labels[-1]))
    coded = _code_columns(x, y)
    # The rows of every tree; a bootstrap repeats rows.
    order = g.integers(0, n, size=n) if draw(st.booleans()) else g.permutation(n)
    start = draw(st.integers(0, n - 1))
    size = draw(st.integers(1, n - start))
    k = draw(st.integers(1, p))
    candidates = np.sort(g.permutation(p)[:k])
    positives = int(coded[2][order[start:start + size]].sum())
    return coded, order, (start, size, positives), candidates


def same_splits(found, expected):
    """Two search results hold equal columns, or are both empty."""
    return len(found) == len(expected) and all(map(np.array_equal, found, expected))


class TestCountedSearch:
    @settings(max_examples=400, deadline=None)
    @given(lone_nodes())
    def test_counts_find_the_sorted_search_split(self, problem):
        (keys, values, _), order, node, candidates = problem
        shift = _key_shift(1, len(values))
        assert same_splits(_count_search(keys, values, order, *node, candidates), _search(
            keys, values, order, *(np.array([count]) for count in node), candidates[None], shift))

    @pytest.mark.parametrize("offset, counted", [(-1, False), (0, True), (1, True)])
    def test_a_lone_node_is_counted_from_twice_the_bins(self, offset, counted):
        # Three columns of 4 codes: 12 bins, and one candidate per node.
        g = np.random.default_rng(5)
        x = np.array([g.permutation(np.arange(40) % 4) for _ in range(3)], dtype=float).T
        y = np.arange(40) % 2
        sample = g.integers(0, 40, size=2 * 12 + offset)  # size * k at 2 * n_bins + offset
        with mock.patch.object(tree_module, "_count_search", wraps=_count_search) as count, \
             mock.patch.object(tree_module, "_search", wraps=_search) as sort:
            tree = grow_tree(x, y, sample, max_depth=1, n_candidates=1, seed=3)
        assert (count.call_count, sort.call_count) == ((1, 0) if counted else (0, 1))
        expected = _grow(_code_columns(x, y), sample, 1, 1, 1, 3)
        for name in TREE_ARRAYS:
            assert np.array_equal(getattr(tree, name), getattr(expected, name)), name


def generated_binary(folder, n_rows):
    """The binary table of a generated records file of ``n_rows`` rows."""
    generate_fixture(folder / "d.csv", folder / "m.tsv", n_rows=n_rows, seed=7)
    return to_binary(load_dataset(folder / "d.csv", load_manifest(folder / "m.tsv")))


def test_large_nodes_of_a_decision_tree_are_counted(tmp_path):
    binary = generated_binary(tmp_path, 5000)
    x, y = binary.feature_matrix, binary.labels
    with mock.patch.object(tree_module, "_count_search", wraps=_count_search) as count:
        tree = build_tree(x, y, max_depth=5)
    assert count.call_count > 0
    expected = _grow(_code_columns(x, y), None, 5, 1, None, None)
    for name in TREE_ARRAYS:
        assert np.array_equal(getattr(tree, name), getattr(expected, name)), name


def test_depth_5_tree_peak_memory_is_near_the_matrix(tmp_path):
    binary = generated_binary(tmp_path, 20000)
    tracemalloc.start()
    try:
        build_tree(binary.feature_matrix, binary.labels, max_depth=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Measured 0.74x: the int32 keys (0.5x) and the root's partition.
    # With int64 keys and the root's gathered key block it was 2.07x.
    assert peak <= 1.0 * binary.feature_matrix.nbytes


def test_keys_are_int32_up_to_the_largest_key():
    x = np.array([[0.5, 3.0], [1.5, 3.0], [0.5, -1.0]])
    keys, values, _ = _code_columns(x, [1, 0, 1])
    assert keys.dtype == np.int32
    assert keys.tolist() == [[1, 2, 1], [7, 6, 5]]  # column 1's bins: 2 for -1.0, 3 for 3.0
    # 2**30 bins at most: the largest key, 2 * (2**30 - 1) + 1, is the int32 maximum.
    assert 2 * tree_module._MAX_VALUES - 1 == np.iinfo(np.int32).max


def test_a_matrix_that_could_overflow_the_keys_is_refused_without_allocating():
    # 2**30 + 2**15 values, all one broadcast zero: no memory behind them.
    x = np.broadcast_to(np.float64(0.0), (1 << 15, (1 << 15) + 1))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="overflow an int32 key"):
            build_tree(x, np.zeros(1 << 15, dtype=np.int64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_the_value_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(tree_module, "_MAX_VALUES", 12)
    assert build_tree(np.arange(12.0).reshape(4, 3), [0, 1, 0, 1]).n_nodes > 1
    with pytest.raises(ValueError, match="at most 12"):
        build_tree(np.arange(13.0).reshape(13, 1), np.arange(13) % 2)


def test_a_node_tag_above_bit_31_keeps_nodes_apart():
    # Several nodes sorted together give the same splits with their tag
    # at bit 40, above the int32 key bits, as at the narrowest shift.
    g = np.random.default_rng(11)
    x = g.integers(0, 6, size=(90, 4)).astype(float)
    keys, values, labels = _code_columns(x, g.integers(0, 2, size=90))
    order = g.permutation(90)
    starts = np.array([0, 30, 60])
    nodes = (starts, np.full(3, 30), np.array([labels[order[s:s + 30]].sum() for s in starts]))
    candidates = np.broadcast_to(np.arange(4), (3, 4))
    narrow = _search(keys, values, order, *nodes, candidates, _key_shift(3, len(values)))
    assert narrow[0].tolist() == [0, 1, 2]
    assert same_splits(_search(keys, values, order, *nodes, candidates, 40), narrow)
    for i in range(3):
        node = (column[i:i + 1] for column in nodes)
        alone = _search(keys, values, order, *node, candidates[:1], _key_shift(1, len(values)))
        assert [column[0] for column in alone[1:]] == [column[i] for column in narrow[1:]]


@st.composite
def batched_nodes(draw):
    """(coded columns, row order, the nodes' (starts, sizes, positives),
    their candidates) of several nodes searched together, as one lockstep
    step searches them."""
    n = draw(st.integers(2, 60))
    p = draw(st.integers(1, 6))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # few codes: ties, constant columns, absent bins
        x = g.integers(0, draw(st.integers(1, 5)), size=(n, p)).astype(float)
    else:
        x = np.round(g.normal(size=(n, p)) * 10.0, draw(st.integers(0, 2)))
    coded = _code_columns(x, g.integers(0, 2, size=n))
    # Several trees' bootstrap samples, one after another.
    order = g.integers(0, n, size=n * draw(st.integers(1, 4)))
    k = draw(st.integers(1, p))
    batch, candidates = [], []
    for _ in range(draw(st.integers(2, 8))):
        start = draw(st.integers(0, len(order) - 2))
        size = draw(st.integers(2, len(order) - start))
        positives = int(coded[2][order[start:start + size]].sum())
        batch.append((start, size, positives))
        candidates.append(np.sort(g.permutation(p)[:k]))
    return coded, order, tuple(np.array(column) for column in zip(*batch)), np.array(candidates)


@settings(max_examples=300, deadline=None)
@given(batched_nodes())
def test_batched_nodes_split_alike_on_int32_and_int64_keys_and_alone(problem):
    # The narrowest shift sorts the tagged keys as int32, shift 40 as int64.
    (keys, values, _), order, nodes, candidates = problem
    n, k = candidates.shape
    shift = _key_shift(n * k, len(values))
    assert n * k << shift <= 1 << 31 < n * k << 40
    together = _search(keys, values, order, *nodes, candidates, shift)
    assert same_splits(_search(keys, values, order, *nodes, candidates, 40), together)
    together = together or ([],) * 6
    for i in range(n):
        node = (column[i:i + 1] for column in nodes)
        alone = _search(keys, values, order, *node, candidates[i:i + 1], _key_shift(k, len(values)))
        alone = alone or ([],) * 6
        mine = [j for j, of in enumerate(together[0]) if of == i]
        assert list(alone[0]) == [0] * len(mine)
        assert [list(column) for column in alone[1:]] == [
            [column[j] for j in mine] for column in together[1:]]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_builders_reject_non_finite_features(bad):
    x = np.arange(12, dtype=float).reshape(6, 2)
    x[3, 1] = bad
    y = np.array([0, 1, 0, 1, 0, 1])
    with pytest.raises(ValueError, match="finite"):
        build_tree(x, y)
    with pytest.raises(ValueError, match="finite"):
        build_forest(x, y, n_trees=2, seed=1)


def test_builder_rejects_empty_sample():
    with pytest.raises(ValueError, match="training row"):
        grow_tree(np.zeros((3, 2)), np.array([0, 1, 0]), sample_idx=np.zeros(0, dtype=np.int64))


def test_builder_rejects_a_label_other_than_0_or_1():
    with pytest.raises(ValueError, match=r"^tree labels must be 0 or 1$"):
        build_tree(np.zeros((3, 2)), np.array([0, 1, 2]))

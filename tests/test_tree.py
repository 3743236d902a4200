import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
    build_tree,
    tree_scores,
)
from dropcast.rng import SeededRng, subsets

from conftest import make_binary
from oracles import (
    _grow,
    assert_strict_gini_decrease,
    enumerate_axis_splits,
    gini_fraction,
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
    """Small (x, y, build_tree kwargs, rng seed) with ties, duplicates and limits."""
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
        # Each grower draws from its own stream at the same seed.
        tree = build_tree(x, y, **kwargs, rng=SeededRng(seed))
        reference = reference_build_tree(x, y, **kwargs, rng=SeededRng(seed))
        for name in TREE_ARRAYS:
            assert np.array_equal(getattr(tree, name), getattr(reference, name)), name

    def test_forest_trees_equal_the_reference(self):
        rng = np.random.default_rng(27)
        x = rng.integers(0, 8, size=(120, 9)).astype(float)
        y = (x[:, 0] + rng.normal(size=120) > 4).astype(int)
        forest = build_forest(x, y, n_trees=12, seed=42)
        for tree, tree_seed in zip(forest.trees, forest.tree_seeds):
            stream = SeededRng(tree_seed)
            sample = stream.integers(120, 120)
            reference = reference_build_tree(x, y, sample, n_candidates=3, rng=stream)
            for name in TREE_ARRAYS:
                assert np.array_equal(getattr(tree, name), getattr(reference, name)), name

    @pytest.mark.parametrize("n_features, k", [(1, 1), (5, 2), (34, 6), (36, 6), (9, 9)])
    def test_batched_subsets_equal_successive_subset_calls(self, n_features, k):
        # Two streams drawn together, then apart, as trees stop growing.
        streams, fresh = [SeededRng(11), SeededRng(12)], [SeededRng(11), SeededRng(12)]
        for step in range(150):
            drawn = [i for i in range(2) if step % 3 != i]
            block = subsets([streams[i] for i in drawn], n_features, k)
            assert block.shape == (len(drawn), k)
            for row, i in zip(block, drawn):
                assert np.array_equal(row, np.sort(fresh[i].permutation(n_features)[:k]))

    def test_growth_leaves_the_stream_where_sequential_draws_leave_it(self):
        rng = np.random.default_rng(28)
        x = rng.integers(0, 8, size=(120, 9)).astype(float)
        y = (x[:, 0] + rng.normal(size=120) > 4).astype(int)
        a, b = SeededRng(5), SeededRng(5)
        build_tree(x, y, n_candidates=3, rng=a)
        reference_build_tree(x, y, n_candidates=3, rng=b)
        assert a.uint64(1) == b.uint64(1)


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


def forest_tree_args(n_rows, tree_seed, bootstrap):
    """(sample, stream) of a tree grown as ``build_forest`` grows one: the
    bootstrap sample, when drawn, comes first from the tree's stream."""
    stream = SeededRng(tree_seed)
    return (stream.integers(n_rows, n_rows) if bootstrap else None), stream


class TestLockstepAgainstPerNodeGrower:
    @settings(max_examples=300, deadline=None)
    @given(forest_problems())
    def test_every_tree_equals_the_per_node_grower(self, problem):
        # Small chunks: a step's nodes are searched in several chunks or alone.
        x, y, seeds, bootstrap, max_depth, n_candidates, chunk = problem
        coded = _code_columns(x, y)
        trees = [forest_tree_args(len(y), seed, bootstrap) for seed in seeds]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tree_module, "_CHUNK_ELEMENTS", chunk)
            grown = _grow_trees(coded, trees, max_depth, n_candidates)
        for lockstep, seed in zip(grown, seeds):
            sample, stream = forest_tree_args(len(y), seed, bootstrap)
            expected = _grow(coded, sample, max_depth, 1, n_candidates, stream)
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
def lone_nodes(draw):
    """(coded columns, row order, one batch entry, its candidates) of a node
    searched alone."""
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
    return coded, order, (None, 0, start, size, positives, 0), candidates


class TestCountedSearch:
    @settings(max_examples=400, deadline=None)
    @given(lone_nodes())
    def test_counts_find_the_sorted_search_split(self, problem):
        (keys, values, _), order, node, candidates = problem
        shift = _key_shift(1, len(values))
        assert _count_search(keys, values, order, node, candidates) == _search(
            keys, values, order, [node], candidates[None], shift)

    @pytest.mark.parametrize("offset, counted", [(-1, False), (0, True), (1, True)])
    def test_a_lone_node_is_counted_from_twice_the_bins(self, offset, counted):
        # Three columns of 4 codes: 12 bins, and one candidate per node.
        g = np.random.default_rng(5)
        x = np.array([g.permutation(np.arange(40) % 4) for _ in range(3)], dtype=float).T
        y = np.arange(40) % 2
        sample = g.integers(0, 40, size=2 * 12 + offset)  # size * k at 2 * n_bins + offset
        with mock.patch.object(tree_module, "_count_search", wraps=_count_search) as count, \
             mock.patch.object(tree_module, "_search", wraps=_search) as sort:
            tree = build_tree(x, y, sample, max_depth=1, n_candidates=1, rng=SeededRng(3))
        assert (count.call_count, sort.call_count) == ((1, 0) if counted else (0, 1))
        expected = _grow(_code_columns(x, y), sample, 1, 1, 1, SeededRng(3))
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
    # Measured 2.07x: the int64 keys and one node's gathered keys.
    assert peak <= 2.6 * binary.feature_matrix.nbytes


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
        build_tree(np.zeros((3, 2)), np.array([0, 1, 0]), sample_idx=np.zeros(0, dtype=np.int64))

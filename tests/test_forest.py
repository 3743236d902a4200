import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dropcast.models.tree as tree_module
from dropcast.metrics import auc
from dropcast.models import HyperParams, ModelKind, score, train_model
from dropcast.models.forest import build_forest, candidate_count, forest_scores
from dropcast.models.tree import tree_scores
from dropcast.preprocess import split
from dropcast.rng import SeededRng

from conftest import make_binary
from oracles import grow_tree, reference_tree_scores


def trees_equal(a, b) -> bool:
    if a.n_nodes != b.n_nodes:
        return False
    return (
        np.array_equal(a.feature, b.feature)
        and np.array_equal(a.threshold, b.threshold)
        and np.array_equal(a.left, b.left)
        and np.array_equal(a.right, b.right)
        and np.array_equal(a.pos_fraction, b.pos_fraction)
        and np.array_equal(a.n_samples, b.n_samples)
        and np.array_equal(a.n_positive, b.n_positive)
    )


def test_candidate_count_is_ceil_sqrt():
    assert candidate_count(34) == 6
    assert candidate_count(36) == 6
    assert candidate_count(17) == 5
    assert candidate_count(9) == 3
    assert candidate_count(1) == 1


def test_all_negative_training_scores_zero():
    ds = make_binary(np.arange(20, dtype=float).reshape(10, 2), [0] * 10)
    model = train_model(ModelKind.RANDOM_FOREST, ds, HyperParams(forest_n_trees=8))
    out = score(model, np.array([[3.0, 4.0], [100.0, -7.0]]))
    assert out.tolist() == [0.0, 0.0]


def test_lockstep_trees_equal_trees_grown_alone():
    rng = np.random.default_rng(21)
    x = rng.integers(0, 8, size=(150, 7)).astype(float)
    y = (x[:, 0] > 3).astype(int)
    hp = HyperParams(forest_n_trees=60, seed=42)
    forest = train_model(ModelKind.RANDOM_FOREST, make_binary(x, y), hp)
    queries = rng.normal(size=(40, 7)) * 4
    k = candidate_count(7)
    for i, grown in enumerate(forest.payload.trees):
        sample = SeededRng(42 ^ i).integers(150, 150)
        alone = grow_tree(x, y, sample_idx=sample, n_candidates=k, seed=42 ^ i)
        assert trees_equal(grown, alone)
        assert np.array_equal(tree_scores(grown, queries), tree_scores(alone, queries))


def test_retraining_is_bit_identical():
    rng = np.random.default_rng(22)
    x = rng.normal(size=(100, 5))
    y = rng.integers(0, 2, size=100)
    ds = make_binary(x, y)
    hp = HyperParams(forest_n_trees=10, seed=7)
    a = train_model(ModelKind.RANDOM_FOREST, ds, hp)
    b = train_model(ModelKind.RANDOM_FOREST, ds, hp)
    for ta, tb in zip(a.payload.trees, b.payload.trees):
        assert trees_equal(ta, tb)


def test_per_tree_seeds_are_xor_of_seed_and_index():
    ds = make_binary(np.arange(40, dtype=float).reshape(20, 2), [0, 1] * 10)
    model = train_model(ModelKind.RANDOM_FOREST, ds, HyperParams(forest_n_trees=5, seed=42))
    assert model.payload.tree_seeds == tuple(42 ^ i for i in range(5))


def test_perfectly_predictive_column_gives_auc_one():
    # Column 0 separates the classes at a clean threshold; every other
    # column is constant, so trees either split on column 0 or stay
    # single leaves and contribute a constant that cannot disturb the
    # ranking. Held-out AUC is exactly 1.
    rng = np.random.default_rng(23)
    n = 120
    y = rng.integers(0, 2, size=n)
    x = np.zeros((n, 6))
    x[:, 0] = y * 2.0 + rng.uniform(-0.5, 0.5, size=n)
    ds = make_binary(x, y)
    indices = split(n, 0.25, seed=3)
    train = make_binary(x[indices.train_rows], y[indices.train_rows])
    model = train_model(ModelKind.RANDOM_FOREST, train, HyperParams(forest_n_trees=30, seed=4))
    held_out = score(model, x[indices.test_rows])
    assert auc(held_out, y[indices.test_rows]) == 1.0


def test_forest_score_is_mean_of_tree_scores():
    rng = np.random.default_rng(24)
    x = rng.normal(size=(80, 4))
    y = rng.integers(0, 2, size=80)
    ds = make_binary(x, y)
    model = train_model(ModelKind.RANDOM_FOREST, ds, HyperParams(forest_n_trees=12, seed=5))
    queries = rng.normal(size=(25, 4))
    per_tree = np.stack([tree_scores(t, queries) for t in model.payload.trees])
    assert np.array_equal(score(model, queries), per_tree.mean(axis=0))


def test_bootstrap_sampling_varies_between_trees():
    rng = np.random.default_rng(26)
    x = rng.normal(size=(60, 4))
    y = rng.integers(0, 2, size=60)
    forest = build_forest(x, y, n_trees=6, seed=9)
    # Trees grown on different bootstrap draws almost surely differ.
    assert not all(trees_equal(forest.trees[0], t) for t in forest.trees[1:])


def assert_scores_match_the_per_tree_walk(forest, queries):
    """Each tree scores as the per-tree walk, and the forest as the
    ``np.mean`` of those scores stacked, byte for byte."""
    per_tree = [reference_tree_scores(tree, queries) for tree in forest.trees]
    for tree, expected in zip(forest.trees, per_tree):
        assert tree_scores(tree, queries).tobytes() == expected.tobytes()
    expected = np.mean(np.stack(per_tree), axis=0)
    got = forest_scores(forest, queries)
    assert got.dtype == np.float64 and got.shape == (len(queries),)
    assert got.tobytes() == expected.tobytes()


@st.composite
def scored_forests(draw):
    """(forest, pairs per block, query rows): 1-40 trees, single-leaf
    trees among them, and query counts around the block boundaries."""
    n_trees = draw(st.integers(1, 40))
    n_rows = draw(st.integers(1, 30))
    p = draw(st.integers(1, 4))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Few codes: repeated rows with mixed labels leave impure leaves, whose
    # fractions a different summation order would round differently.
    x = g.integers(0, 3, size=(n_rows, p)).astype(float)
    labels = draw(st.sampled_from(["random", "all 0", "all 1"]))  # one class: single leaves
    y = g.integers(0, 2, size=n_rows) if labels == "random" else np.full(n_rows, int(labels[-1]))
    forest = build_forest(x, y, n_trees, draw(st.integers(0, 2**64 - 1)))
    pairs = draw(st.sampled_from([1, 2, 3, 17, 100, 1000]))
    block = max(2, pairs // n_trees)
    n_queries = draw(st.one_of(
        st.sampled_from([0, 1]),
        st.integers(1, 3).flatmap(lambda m: st.sampled_from([m * block - 1, m * block,
                                                            m * block + 1])),
        st.integers(0, 60),
    ))
    # Half-integers: some queries sit on a threshold, which goes left.
    queries = g.integers(-2, 10, size=(n_queries, p)) / 2.0
    return forest, pairs, queries


@settings(max_examples=300, deadline=None)
@given(scored_forests())
def test_blocked_walk_scores_as_the_per_tree_walk(problem):
    forest, pairs, queries = problem
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tree_module, "_WALK_PAIRS", pairs)
        assert_scores_match_the_per_tree_walk(forest, queries)


@pytest.mark.parametrize("n_queries", [1, 1637, 1638, 1639, 3276, 3277])
def test_full_blocks_score_as_the_per_tree_walk(n_queries):
    # 40 trees: blocks of 2**16 // 40 = 1638 query rows. Two features of
    # three codes and random labels: most leaves are impure.
    assert tree_module._WALK_PAIRS // 40 == 1638
    g = np.random.default_rng(27)
    forest = build_forest(g.integers(0, 3, size=(120, 2)).astype(float),
                          g.integers(0, 2, size=120), 40, 3)
    assert_scores_match_the_per_tree_walk(forest, g.integers(-1, 7, size=(n_queries, 2)) / 2.0)


def test_scoring_peak_memory_is_bounded_by_the_block():
    g = np.random.default_rng(31)
    x = g.integers(0, 10, size=(400, 34)).astype(float)
    forest = build_forest(x, (x[:, 0] + g.normal(size=400) > 4.5).astype(int), 100, 42)
    queries = g.integers(0, 10, size=(17690, 34)).astype(float)
    tracemalloc.start()
    try:
        forest_scores(forest, queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Measured 4.8 MB; stacking every tree's scores peaked at 28.3 MB.
    nodes = sum(tree.n_nodes for tree in forest.trees)
    bound = 8 * (10 * tree_module._WALK_PAIRS + len(queries) + 8 * nodes)
    assert tree_module._WALK_PAIRS <= 1 << 16
    assert bound < 8 * forest.n_trees * len(queries)  # below the (trees × rows) scores
    assert peak <= bound

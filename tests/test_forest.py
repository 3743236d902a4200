import numpy as np

from dropcast.metrics import auc
from dropcast.models import HyperParams, ModelKind, score, train_model
from dropcast.models.forest import build_forest, candidate_count
from dropcast.models.tree import build_tree, tree_scores
from dropcast.preprocess import split
from dropcast.rng import SeededRng

from conftest import make_binary


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
        stream = SeededRng(42 ^ i)
        sample = stream.integers(150, 150)
        alone = build_tree(x, y, sample_idx=sample, n_candidates=k, rng=stream)
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

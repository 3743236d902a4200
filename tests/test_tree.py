import numpy as np
import pytest

from dropcast.models import HyperParams, score, train_decision_tree
from dropcast.models.tree import build_tree, tree_scores

from conftest import make_binary
from oracles import (
    assert_strict_gini_decrease,
    enumerate_axis_splits,
    gini_fraction,
    max_node_depth,
    walk_nodes_with_samples,
)


class TestPureAndDegenerate:
    def test_all_positive_gives_single_leaf_scoring_one(self):
        ds = make_binary(np.arange(8, dtype=float).reshape(4, 2), [1, 1, 1, 1])
        model = train_decision_tree(ds, HyperParams())
        tree = model.payload
        assert tree.n_nodes == 1
        assert score(model, np.array([[5.0, -3.0], [0.0, 0.0]])).tolist() == [1.0, 1.0]

    def test_constant_features_single_leaf(self):
        ds = make_binary(np.ones((6, 3)), [1, 0, 1, 0, 1, 0])
        tree = train_decision_tree(ds, HyperParams()).payload
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
        tree = train_decision_tree(ds, HyperParams()).payload
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
        model = train_decision_tree(ds, HyperParams())
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
        model = train_decision_tree(ds, HyperParams())  # default depth 5
        assert max_node_depth(model.payload) <= 5

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(60, 3))
        y = rng.integers(0, 2, size=60)
        tree = build_tree(x, y, min_leaf=7)
        for node, idx in walk_nodes_with_samples(tree, x):
            if tree.feature[node] < 0:
                assert len(idx) >= 7 or node == 0


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
        model = train_decision_tree(ds, HyperParams())
        out = score(model, rng.normal(size=(30, 3)))
        assert ((out >= 0.0) & (out <= 1.0)).all()

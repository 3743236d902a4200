import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropcast.errors import InvalidArgumentError
from dropcast.models import HyperParams, ModelKind, score, train_model
from dropcast.models.svm import svm_scores, train_svm

from conftest import make_binary
from oracles import reference_train_svm


def hinge_objective(x, y01, w, b, c) -> float:
    y = np.where(np.asarray(y01) == 1, 1.0, -1.0)
    margins = y * (x @ w + b)
    return 0.5 * (float(w @ w) + b * b) + c * float(np.maximum(0.0, 1.0 - margins).sum())


def test_two_point_problem_separates():
    # x=-1 labeled 0, x=+1 labeled 1 (already zero-mean, unit-std). The
    # analytic optimum for large C is w=1, b=0: any sign(w) > 0 solution
    # classifies both points correctly.
    ds = make_binary(np.array([[-1.0], [1.0]]), [0, 1])
    hp = HyperParams(svm_regularization_c=100.0, svm_epochs=300)
    model = train_model(ModelKind.LINEAR_SVM, ds, hp)
    assert model.payload.weights[0] > 0.0
    predictions = (score(model, ds.feature_matrix) >= 0.0).astype(int)
    assert predictions.tolist() == [0, 1]


def test_single_class_raises():
    ds = make_binary(np.array([[-1.0], [1.0]]), [1, 1])
    with pytest.raises(InvalidArgumentError, match="^linear SVM training needs both classes present$"):
        train_model(ModelKind.LINEAR_SVM, ds, HyperParams())


def test_objective_never_exceeds_initialization():
    # At w=0, b=0 the objective is C * n. The trainer keeps the best
    # iterate seen, so the reported objective can only be lower.
    rng = np.random.default_rng(30)
    for c in (0.1, 1.0, 10.0):
        x = rng.normal(size=(50, 4))
        y = rng.integers(0, 2, size=50)
        if y.sum() in (0, 50):
            continue
        model = train_svm(x, y, c=c, epochs=30, seed=42)
        assert model.objective <= c * 50
        # and the reported objective matches an independent evaluation
        recomputed = hinge_objective(x, y, model.weights, model.bias, c)
        assert recomputed == pytest.approx(model.objective, rel=1e-12)


def test_separable_fixture_reaches_zero_hinge():
    # 20 points, two clusters separated with margin >= 1 around the
    # hyperplane x0 = 0 (verified exhaustively below), so the hinge term
    # of the optimum is 0.
    rng = np.random.default_rng(31)
    n_half = 10
    pos = np.column_stack([rng.uniform(1.5, 3.0, n_half), rng.normal(0, 1, n_half)])
    neg = np.column_stack([rng.uniform(-3.0, -1.5, n_half), rng.normal(0, 1, n_half)])
    x = np.vstack([pos, neg])
    y = np.array([1] * n_half + [0] * n_half)
    # exhaustive separability check for w=(1,0), b=0 scaled so margin>=1
    margins = np.where(y == 1, 1.0, -1.0) * (x @ np.array([1.0, 0.0]) / 1.5)
    assert (margins >= 1.0 - 1e-12).all()

    model = train_svm(x, y, c=10.0, epochs=500, seed=42)
    y_signed = np.where(y == 1, 1.0, -1.0)
    hinge = np.maximum(
        0.0, 1.0 - y_signed * (x @ model.weights + model.bias)
    ).sum()
    assert hinge < 1e-6


def test_negating_features_mirrors_weights_exactly():
    # The objective with negated inputs is minimized by the mirrored
    # weight vector, and the update rule preserves that symmetry step
    # for step, so retraining on -X gives exactly (-w, b): the decision
    # for -x equals the decision for x under the original model.
    rng = np.random.default_rng(32)
    x = rng.normal(size=(40, 3))
    y = (x[:, 0] - x[:, 2] > 0).astype(int)
    a = train_svm(x, y, c=1.0, epochs=50, seed=42)
    b = train_svm(-x, y, c=1.0, epochs=50, seed=42)
    assert np.array_equal(b.weights, -a.weights)
    assert b.bias == a.bias
    queries = rng.normal(size=(15, 3))
    assert np.array_equal(svm_scores(b, -queries), svm_scores(a, queries))


def test_training_is_deterministic():
    rng = np.random.default_rng(33)
    x = rng.normal(size=(60, 5))
    y = rng.integers(0, 2, size=60)
    a = train_svm(x, y, c=1.0, epochs=40, seed=9)
    b = train_svm(x, y, c=1.0, epochs=40, seed=9)
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias
    assert a.objective == b.objective


def test_scores_are_affine_in_inputs():
    rng = np.random.default_rng(34)
    x = rng.normal(size=(30, 4))
    y = (x[:, 1] > 0).astype(int)
    model = train_svm(x, y, c=1.0, epochs=30, seed=1)
    q = rng.normal(size=(5, 4))
    expected = q @ model.weights + model.bias
    assert np.array_equal(svm_scores(model, q), expected)


@st.composite
def svm_problems(draw):
    """(x, y, C, epochs, seed) with both classes; n is often not a
    multiple of the batch size, so the last batch is partial."""
    n = draw(st.integers(2, 300))
    p = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    g = np.random.default_rng(seed)
    x = g.normal(size=(n, p)) * draw(st.sampled_from([0.1, 1.0, 3.0]))
    y = g.integers(0, 2, size=n)
    y[:2] = (0, 1)
    c = draw(st.floats(0.01, 10.0))
    return x, y, c, draw(st.integers(1, 4)), seed


@settings(max_examples=150, deadline=None)
@given(svm_problems())
def test_fit_matches_the_reference_loop(problem):
    x, y, c, epochs, seed = problem
    model = train_svm(x, y, c=c, epochs=epochs, seed=seed)
    reference = reference_train_svm(x, y, c=c, epochs=epochs, seed=seed)
    assert model.objective == pytest.approx(reference.objective, rel=1e-9)
    recomputed = hinge_objective(x, y, model.weights, model.bias, c)
    assert recomputed == pytest.approx(model.objective, rel=1e-12)

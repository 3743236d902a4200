from dataclasses import fields, replace

import numpy as np
import pytest

from dropcast.errors import InvalidArgumentError
from dropcast.models import (
    GRID_MODEL_ORDER,
    HyperParams,
    ModelKind,
    score,
    train_model,
)
from dropcast.models.knn import train_knn
from dropcast.models.serialize import model_to_text
from dropcast.models.svm import train_svm
from dropcast.preprocess import apply_standardizer, fit_standardizer

from conftest import make_binary
from oracles import same_bits


def test_defaults_match_documented_configuration():
    hp = HyperParams()
    assert hp.tree_max_depth == 5
    assert hp.forest_n_trees == 100
    assert hp.svm_regularization_c == 1.0
    assert hp.svm_epochs == 200
    assert hp.knn_k == 20
    assert hp.seed == 42


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tree_max_depth": 0},
        {"forest_n_trees": 0},
        {"svm_regularization_c": 0.0},
        {"svm_regularization_c": -2.0},
        {"svm_epochs": 0},
        {"knn_k": 0},
        {"seed": -1},
        {"svm_regularization_c": float("nan")},
        {"svm_regularization_c": float("inf")},
        {"seed": 1 << 64},
    ],
)
def test_invalid_hyperparams_rejected(kwargs):
    with pytest.raises(InvalidArgumentError):
        HyperParams(**kwargs)


def test_grid_order_is_table_order():
    assert tuple(k.label for k in GRID_MODEL_ORDER) == ("SVC", "DT", "RF", "KNN")


def test_accuracy_thresholds_per_kind():
    assert ModelKind.LINEAR_SVM.accuracy_threshold == 0.0
    for kind in (ModelKind.DECISION_TREE, ModelKind.RANDOM_FOREST, ModelKind.KNN):
        assert kind.accuracy_threshold == 0.5


def test_train_model_dispatch():
    rng = np.random.default_rng(70)
    x = rng.normal(size=(40, 3))
    y = (x[:, 0] > 0).astype(int)
    ds = make_binary(x, y)
    hp = HyperParams(forest_n_trees=4, svm_epochs=10, knn_k=3)
    for kind in ModelKind:
        model = train_model(kind, ds, hp)
        assert model.kind is kind
        # SVM and k-NN carry their standardizer; DT and RF carry none.
        assert (model.standardizer is not None) == kind.needs_standardization
        out = score(model, x)
        assert out.shape == (40,)
        assert np.isfinite(out).all()


def test_svm_single_class_via_dispatch():
    ds = make_binary(np.ones((5, 2)), [1] * 5)
    with pytest.raises(InvalidArgumentError, match="^linear SVM training needs both classes present$"):
        train_model(ModelKind.LINEAR_SVM, ds, HyperParams())


def test_empty_training_set_rejected():
    ds = make_binary(np.zeros((0, 3)), [])
    with pytest.raises(InvalidArgumentError):
        train_model(ModelKind.DECISION_TREE, ds, HyperParams())


@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_score_rejects_non_finite_rows(kind, bad):
    rng = np.random.default_rng(71)
    x = rng.normal(size=(30, 3))
    ds = make_binary(x, (x[:, 0] > 0).astype(int))
    model = train_model(kind, ds, HyperParams(forest_n_trees=3, svm_epochs=5, knn_k=20))
    rows = rng.normal(size=(4, 3))
    rows[2, 1] = bad
    with pytest.raises(InvalidArgumentError, match="row 2 has a non-finite") as info:
        score(model, rows)
    assert "\n" not in str(info.value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", [ModelKind.LINEAR_SVM, ModelKind.KNN])
def test_score_rejects_a_finite_row_that_overflows_when_standardized(kind):
    x = np.column_stack([np.arange(40) * 1e-3, np.arange(40) % 3])
    model = train_model(kind, make_binary(x, np.arange(40) >= 20), HyperParams())
    with pytest.raises(InvalidArgumentError, match="row 1 is too far from the training data") as info:
        score(model, np.array([[0.01, 1.0], [1e308, 1.0]]))
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_train_rejects_non_finite_rows(kind, bad):
    rng = np.random.default_rng(72)
    x = rng.normal(size=(30, 3))
    x[4, 2] = bad
    ds = make_binary(x, (x[:, 0] > 0).astype(int))
    with pytest.raises(InvalidArgumentError, match="row 4 has a non-finite feature value; training") as info:
        train_model(kind, ds, HyperParams(forest_n_trees=3, svm_epochs=5, knn_k=3))
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("bad, message", [
    (2, "training labels must be 0 or 1"),
    # -1 and 0.5 make no Dataset
    (-1, "labels must be 0, 1 or 2, got -1 to 1"),
    (0.5, "labels must be a 1-D integer array"),
], ids=["two", "minus-one", "half"])
def test_train_rejects_labels_other_than_zero_and_one(kind, bad, message):
    rng = np.random.default_rng(73)
    x = rng.normal(size=(30, 3))
    labels = (x[:, 0] > 0).astype(type(bad))
    labels[5] = bad
    with pytest.raises(InvalidArgumentError, match=message) as info:
        # Built past make_binary, whose int64 cast would truncate 0.5 to 0.
        ds = replace(make_binary(x, np.zeros(30)), labels=labels)
        train_model(kind, ds, HyperParams(forest_n_trees=3, svm_epochs=5, knn_k=3))
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("kind", [ModelKind.LINEAR_SVM, ModelKind.KNN])
def test_train_model_equals_the_three_step_protocol(kind):
    """Reference: the standardizer fitted on the full matrix's train rows,
    the payload trainer run on the standardized rows, then attached."""
    rng = np.random.default_rng(74)
    matrix = np.column_stack([
        rng.integers(0, 9, size=120).astype(float),
        rng.normal(loc=40.0, scale=7.0, size=120),
        np.full(120, 3.0),  # constant column
        rng.integers(0, 2, size=120).astype(float),
    ])
    labels = (matrix[:, 0] + rng.normal(size=120) > 4).astype(np.int64)
    train_rows = rng.permutation(120)[:90]
    hp = HyperParams(svm_epochs=15, knn_k=7)

    standardizer = fit_standardizer(matrix[train_rows])
    standardized = apply_standardizer(standardizer, matrix[train_rows])
    if kind is ModelKind.LINEAR_SVM:
        payload = train_svm(standardized, labels[train_rows], c=hp.svm_regularization_c,
                            epochs=hp.svm_epochs, seed=hp.seed)
    else:
        payload = train_knn(standardized, labels[train_rows], k=hp.knn_k)

    model = train_model(kind, make_binary(matrix[train_rows], labels[train_rows]), hp)
    assert model.standardizer is not None
    assert model.standardizer.constant.tolist() == [False, False, True, False]
    for name in ("mean", "std", "constant"):
        assert same_bits(getattr(model.standardizer, name), getattr(standardizer, name)), name
    assert type(model.payload) is type(payload)
    for field in fields(payload):
        assert same_bits(getattr(model.payload, field.name), getattr(payload, field.name)), field.name


@pytest.mark.parametrize("kind", list(ModelKind))
def test_training_on_rows_of_a_table_equals_training_on_their_copy(kind):
    # Rows in any order, some twice; a non-finite value in a row not
    # trained on is never read.
    rng = np.random.default_rng(75)
    matrix = np.round(rng.normal(size=(90, 4)) * 3.0, 1)
    labels = (matrix[:, 0] + rng.normal(size=90) > 0).astype(np.int64)
    rows = np.concatenate([rng.permutation(80)[:60], [5, 5, 17]])
    matrix[85, 2] = np.nan
    hp = HyperParams(forest_n_trees=6, svm_epochs=8, knn_k=5)
    model = train_model(kind, make_binary(matrix, labels), hp, rows=rows)
    copy = train_model(kind, make_binary(matrix[rows], labels[rows]), hp)
    assert model_to_text(model) == model_to_text(copy)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_a_non_finite_training_row_is_named_by_its_place_in_the_rows(kind):
    x = np.random.default_rng(76).normal(size=(30, 3))
    x[4, 2] = np.inf
    ds = make_binary(x, (x[:, 0] > 0).astype(int))
    with pytest.raises(InvalidArgumentError, match="^row 7 has a non-finite feature value"):
        train_model(kind, ds, HyperParams(forest_n_trees=3, svm_epochs=5, knn_k=3),
                    rows=np.array([0, 1, 2, 3, 5, 6, 7, 4, 8, 9]))


@pytest.mark.parametrize("kind", list(ModelKind))
def test_a_table_with_no_feature_column_trains_and_scores(kind):
    # Nothing to split on or to measure distance by: every row gets one score.
    model = train_model(kind, make_binary(np.zeros((6, 0)), [0, 1, 1, 0, 1, 1]),
                        HyperParams(forest_n_trees=4, svm_epochs=5, knn_k=3))
    out = score(model, np.zeros((3, 0)))
    assert out.shape == (3,) and np.isfinite(out).all() and (out == out[0]).all()
    if kind is ModelKind.DECISION_TREE:
        assert out[0] == 4 / 6

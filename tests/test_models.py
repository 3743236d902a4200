import numpy as np
import pytest

from dropcast.errors import InvalidArgumentError, SingleClassError
from dropcast.models import (
    GRID_MODEL_ORDER,
    HyperParams,
    ModelKind,
    score,
    train_model,
)

from conftest import make_binary


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
        out = score(model, x)
        assert out.shape == (40,)
        assert np.isfinite(out).all()


def test_svm_single_class_via_dispatch():
    ds = make_binary(np.ones((5, 2)), [1] * 5)
    with pytest.raises(SingleClassError):
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

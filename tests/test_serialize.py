import numpy as np
import pytest

from dropcast.errors import InvalidArgumentError
from dropcast.models import (
    HyperParams,
    ModelKind,
    score,
    train_model,
)
from dropcast.models.serialize import load_model, model_from_text, model_to_text, save_model

from conftest import make_binary


@pytest.fixture(scope="module")
def training_data():
    rng = np.random.default_rng(60)
    x = rng.integers(0, 7, size=(60, 4)).astype(float)
    y = (x[:, 0] + rng.normal(scale=1.0, size=60) > 3).astype(int)
    return make_binary(x, y), rng.normal(size=(12, 4)) * 3


@pytest.mark.parametrize("kind", list(ModelKind))
def test_round_trip_preserves_scores(kind, training_data):
    ds, queries = training_data
    hp = HyperParams(forest_n_trees=6, svm_epochs=30, knn_k=5)
    model = train_model(kind, ds, hp)
    text = model_to_text(model)
    restored = model_from_text(text)
    assert restored.kind is model.kind
    assert restored.n_features == model.n_features
    assert np.array_equal(score(restored, queries), score(model, queries))
    # serialization is stable: a second round trip gives identical text
    assert model_to_text(restored) == text


def test_save_and_load_file(tmp_path, training_data):
    ds, queries = training_data
    model = train_model(ModelKind.DECISION_TREE, ds, HyperParams())
    path = tmp_path / "model.txt"
    save_model(model, path)
    restored = load_model(path)
    assert np.array_equal(score(restored, queries), score(model, queries))


def test_bad_magic_rejected():
    with pytest.raises(InvalidArgumentError):
        model_from_text("not-a-model 9\n")


def test_truncated_text_rejected(training_data):
    ds, _ = training_data
    model = train_model(ModelKind.DECISION_TREE, ds, HyperParams())
    text = model_to_text(model)
    with pytest.raises(InvalidArgumentError):
        model_from_text("\n".join(text.splitlines()[:2]))


def _tree_text(*node_lines: str, n_features: int = 2) -> str:
    return "\n".join([
        "dropcast-model 1", "kind dt", f"n_features {n_features}", "standardizer none",
        f"tree {len(node_lines)}", *node_lines,
    ]) + "\n"


def test_well_formed_tree_text_loads():
    text = _tree_text("1 0.5 1 2 0.5 4 2", "-1 0.0 -1 -1 0.0 2 0", "-1 0.0 -1 -1 1.0 2 2")
    model = model_from_text(text)
    assert score(model, np.array([[0.0, 0.0], [0.0, 1.0]])).tolist() == [0.0, 1.0]


@pytest.mark.parametrize("nodes", [
    # two-node cycle: scoring would follow 0 -> 1 -> 0 forever
    ("0 0.5 1 1 0.5 4 2", "0 0.5 0 0 0.5 2 1"),
    # child index outside (parent, n_nodes)
    ("0 0.5 1 3 0.5 4 2", "-1 0.0 -1 -1 0.0 2 0", "-1 0.0 -1 -1 1.0 2 2"),
    ("0 0.5 0 2 0.5 4 2", "-1 0.0 -1 -1 0.0 2 0", "-1 0.0 -1 -1 1.0 2 2"),
    # leaf in `feature` with children, and a split without them
    ("-1 0.5 1 2 0.5 4 2", "-1 0.0 -1 -1 0.0 2 0", "-1 0.0 -1 -1 1.0 2 2"),
    ("0 0.5 -1 -1 0.5 4 2",),
    # feature index past the model's width, and below the leaf marker
    ("2 0.5 1 2 0.5 4 2", "-1 0.0 -1 -1 0.0 2 0", "-1 0.0 -1 -1 1.0 2 2"),
    ("-2 0.5 -1 -1 0.5 4 2",),
    # no root
    (),
    # too few and too many fields
    ("1 0.5 1",),
    ("-1 0.0 -1 -1 0.0 2 0 9",),
    # a score outside [0, 1] or not n_positive / n_samples
    ("-1 0.0 -1 -1 nan 2 0",),
    ("-1 0.0 -1 -1 7.0 2 0",),
    ("-1 0.0 -1 -1 1.0 2 0",),
    # counts outside 0 <= n_positive <= n_samples, 1 <= n_samples
    ("-1 0.0 -1 -1 1.5 2 3",),
    ("-1 0.0 -1 -1 -0.5 2 -1",),
    ("-1 0.0 -1 -1 0.0 0 0",),
    # a non-finite threshold sends every row one way
    ("0 nan 1 2 0.5 4 2", "-1 0.0 -1 -1 0.0 2 0", "-1 0.0 -1 -1 1.0 2 2"),
    ("0 inf 1 2 0.5 4 2", "-1 0.0 -1 -1 0.0 2 0", "-1 0.0 -1 -1 1.0 2 2"),
])
def test_malformed_tree_rejected(nodes):
    with pytest.raises(InvalidArgumentError, match="malformed tree"):
        model_from_text(_tree_text(*nodes))


@pytest.mark.parametrize("text", [
    _tree_text("x 0.5 -1 -1 0.5 4 2"),
    _tree_text("-1 half -1 -1 0.5 4 2"),
    _tree_text("-1 0.0 -1 -1 0.0 2 0").replace("tree 1", "tree x"),
    "dropcast-model 1\nkind zz\n",
], ids=["node-feature", "node-threshold", "tree-count", "kind"])
def test_non_numeric_or_unknown_field_rejected(text):
    with pytest.raises(InvalidArgumentError, match="malformed model text at line"):
        model_from_text(text)


def _forest_text(n_trees, seeds) -> str:
    return "\n".join([
        "dropcast-model 1", "kind rf", "n_features 2", "standardizer none",
        f"trees {n_trees}", f"tree_seeds {seeds}", "tree 1", "-1 0.0 -1 -1 0.5 2 1",
    ]) + "\n"


def test_well_formed_forest_text_loads():
    model = model_from_text(_forest_text(1, "7"))
    assert score(model, np.array([[0.0, 0.0]])).tolist() == [0.5]


@pytest.mark.parametrize("n_trees, seeds", [(1, "7 8 9"), (2, "7"), (0, "")],
                         ids=["extra-seeds", "missing-seed", "no-trees"])
def test_malformed_forest_rejected(n_trees, seeds):
    with pytest.raises(InvalidArgumentError, match="malformed forest"):
        model_from_text(_forest_text(n_trees, seeds))


def _knn_text(rows, k="2", n_features=2) -> str:
    return "\n".join([
        "dropcast-model 1", "kind knn", f"n_features {n_features}", "standardizer none",
        f"k {k}", f"train_rows {len(rows)}", *rows,
    ]) + "\n"


GOOD_KNN_ROWS = ("0.0 0.0 | 1.0", "1.0 1.0 | 0.0", "2.0 2.0 | 0.0")


def test_well_formed_knn_text_loads():
    model = model_from_text(_knn_text(GOOD_KNN_ROWS))
    assert score(model, np.array([[0.0, 0.1]])).tolist() == [0.5]


@pytest.mark.parametrize("rows, k", [
    (("0.0 0.0 1.0",) + GOOD_KNN_ROWS[1:], "2"),  # no " | "
    (("0.0 zero | 1.0",) + GOOD_KNN_ROWS[1:], "2"),  # non-numeric cell
    (("0.0 0.0 | one",) + GOOD_KNN_ROWS[1:], "2"),  # non-numeric label
    (("0.0 | 1.0",) + GOOD_KNN_ROWS[1:], "2"),  # one cell for two features
    (("0.0 0.0 0.0 | 1.0",) + GOOD_KNN_ROWS[1:], "2"),
    (GOOD_KNN_ROWS, "two"),
    (GOOD_KNN_ROWS, "0"),  # k outside [1, train_rows]
    (GOOD_KNN_ROWS, "4"),
    (("nan 0.0 | 1.0",) + GOOD_KNN_ROWS[1:], "2"),  # non-finite cells
    (("0.0 inf | 1.0",) + GOOD_KNN_ROWS[1:], "2"),
    (("0.0 0.0 | nan",) + GOOD_KNN_ROWS[1:], "2"),
    (("0.0 0.0 | 5.0",) + GOOD_KNN_ROWS[1:], "2"),  # a label outside {0, 1}
    (("0.0 0.0 | 0.5",) + GOOD_KNN_ROWS[1:], "2"),
])
def test_malformed_knn_text_rejected(rows, k):
    with pytest.raises(InvalidArgumentError, match="malformed"):
        model_from_text(_knn_text(rows, k=k))


def _svm_text(weights="0.5 -0.5", bias="0.25", mean="0.0 1.0", std="1.0 2.0",
              constant="0 0", n_features=2, objective="1.5", epochs="3") -> str:
    return "\n".join([
        "dropcast-model 1", "kind svc", f"n_features {n_features}", "standardizer fitted",
        f"mean {mean}", f"std {std}", f"constant {constant}",
        f"weights {weights}", f"bias {bias}", f"objective {objective}", f"epochs {epochs}",
    ]) + "\n"


def test_well_formed_svm_text_loads():
    model = model_from_text(_svm_text())
    # standardized row (1, -0.5): 0.5 + 0.25 + 0.25
    assert score(model, np.array([[1.0, 0.0]])).tolist() == [1.0]


@pytest.mark.parametrize("fields", [
    dict(mean="0.0"),  # standardizer vectors not of length n_features
    dict(std="1.0 2.0 3.0"),
    dict(constant="0"),
    dict(mean="0.0 1.0 2.0", std="1.0 2.0 3.0", constant="0 0 0"),
    dict(std="1.0 0.0"),  # a zero, negative or non-finite deviation
    dict(std="-1.0 2.0"),
    dict(std="1.0 inf"),
    dict(std="nan 2.0"),
    dict(mean="nan 1.0"),
], ids=["mean-short", "std-long", "constant-short", "all-three-long",
        "std-zero", "std-negative", "std-inf", "std-nan", "mean-nan"])
def test_malformed_standardizer_rejected(fields):
    with pytest.raises(InvalidArgumentError, match="malformed standardizer"):
        model_from_text(_svm_text(**fields))


@pytest.mark.parametrize("fields", [
    dict(weights="0.5 -0.5 1.0"),  # weights not of length n_features
    dict(weights="0.5"),
    dict(weights=""),
    dict(weights="0.5 nan"),  # a non-finite weight or bias
    dict(weights="inf -0.5"),
    dict(bias="nan"),
    dict(bias="-inf"),
    dict(objective="nan"),  # an objective that is not finite and >= 0
    dict(objective="inf"),
    dict(objective="-1"),
    dict(epochs="0"),  # fewer than one epoch
    dict(epochs="-3"),
], ids=["weights-long", "weights-short", "weights-empty", "weight-nan", "weight-inf",
        "bias-nan", "bias-inf", "objective-nan", "objective-inf", "objective-negative",
        "epochs-zero", "epochs-negative"])
def test_malformed_svm_rejected(fields):
    with pytest.raises(InvalidArgumentError, match="malformed SVM model"):
        model_from_text(_svm_text(**fields))

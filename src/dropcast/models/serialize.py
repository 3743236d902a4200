"""Versioned text serialization of trained models.

A reproducibility-audit format, not a stability-guaranteed interchange
format: floats are written with ``repr`` so a round trip reproduces the
model bit for bit. Line-oriented; the first line names the format and
version. Malformed text raises ``InvalidArgumentError``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import InvalidArgumentError
from ..preprocess import Standardizer
from . import ModelKind, TrainedModel
from .forest import Forest
from .knn import KnnModel
from .svm import LinearSvm
from .tree import Tree

_MAGIC = "dropcast-model 1"


def _floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _ints(values) -> str:
    return " ".join(str(int(v)) for v in values)


def _tree_lines(tree: Tree) -> list[str]:
    lines = [f"tree {tree.n_nodes}"]
    for i in range(tree.n_nodes):
        lines.append(
            f"{tree.feature[i]} {float(tree.threshold[i])!r} {tree.left[i]} {tree.right[i]} "
            f"{float(tree.pos_fraction[i])!r} {tree.n_samples[i]} {tree.n_positive[i]}"
        )
    return lines


def model_to_text(model: TrainedModel) -> str:
    lines = [_MAGIC, f"kind {model.kind.value}", f"n_features {model.n_features}"]
    if model.standardizer is None:
        lines.append("standardizer none")
    else:
        lines.append("standardizer fitted")
        lines.append("mean " + _floats(model.standardizer.mean))
        lines.append("std " + _floats(model.standardizer.std))
        lines.append("constant " + _ints(model.standardizer.constant.astype(int)))

    payload = model.payload
    if model.kind is ModelKind.DECISION_TREE:
        lines.extend(_tree_lines(payload))
    elif model.kind is ModelKind.RANDOM_FOREST:
        lines.append(f"trees {payload.n_trees}")
        lines.append("tree_seeds " + _ints(payload.tree_seeds))
        for tree in payload.trees:
            lines.extend(_tree_lines(tree))
    elif model.kind is ModelKind.LINEAR_SVM:
        lines.append("weights " + _floats(payload.weights))
        lines.append(f"bias {payload.bias!r}")
        lines.append(f"objective {payload.objective!r}")
        lines.append(f"epochs {payload.epochs}")
    else:
        lines.append(f"k {payload.k}")
        lines.append(f"train_rows {payload.train_x.shape[0]}")
        for i in range(payload.train_x.shape[0]):
            lines.append(_floats(payload.train_x[i]) + " | " + repr(float(payload.train_y[i])))
    return "\n".join(lines) + "\n"


class _Reader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise InvalidArgumentError("truncated model text")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect(self, prefix: str) -> str:
        line = self.next()
        if not line.startswith(prefix):
            raise InvalidArgumentError(f"expected {prefix!r}, got {line!r}")
        return line[len(prefix):].strip()


def _read_tree(reader: _Reader, n_features: int) -> Tree:
    n_nodes = int(reader.expect("tree "))
    if n_nodes < 1:
        raise InvalidArgumentError("malformed tree: no nodes")
    feature = np.empty(n_nodes, dtype=np.int64)
    threshold = np.empty(n_nodes, dtype=np.float64)
    left = np.empty(n_nodes, dtype=np.int64)
    right = np.empty(n_nodes, dtype=np.int64)
    pos_fraction = np.empty(n_nodes, dtype=np.float64)
    n_samples = np.empty(n_nodes, dtype=np.int64)
    n_positive = np.empty(n_nodes, dtype=np.int64)
    for i in range(n_nodes):
        parts = reader.next().split()
        if len(parts) != 7:
            raise InvalidArgumentError(f"malformed tree: node {i} has {len(parts)} fields, not 7")
        feature[i] = int(parts[0])
        threshold[i] = float(parts[1])
        left[i] = int(parts[2])
        right[i] = int(parts[3])
        pos_fraction[i] = float(parts[4])
        n_samples[i] = int(parts[5])
        n_positive[i] = int(parts[6])
    # The builder appends children after their parent, so valid child
    # indices only grow and scoring always ends at a leaf.
    i = np.arange(n_nodes)
    split_ok = (i < left) & (left < n_nodes) & (i < right) & (right < n_nodes)
    ok = np.where(feature >= 0, split_ok, (left == -1) & (right == -1))
    ok &= (feature >= -1) & (feature < n_features) & np.isfinite(threshold)
    # A score is the builder's class fraction, so it lies in [0, 1].
    ok &= (0 <= n_positive) & (n_positive <= n_samples) & (n_samples >= 1)
    ok &= pos_fraction == n_positive / np.maximum(n_samples, 1)
    if not ok.all():
        raise InvalidArgumentError(f"malformed tree: bad node {np.argmin(ok)}")
    return Tree(
        feature=feature, threshold=threshold, left=left, right=right,
        pos_fraction=pos_fraction, n_samples=n_samples, n_positive=n_positive,
    )


def model_from_text(text: str) -> TrainedModel:
    reader = _Reader(text)
    try:
        return _read_model(reader)
    except ValueError as exc:
        raise InvalidArgumentError(
            f"malformed model text at line {reader.pos}: {exc}"
        ) from None


def _read_model(reader: _Reader) -> TrainedModel:
    if reader.next() != _MAGIC:
        raise InvalidArgumentError("not a dropcast model text (bad magic line)")
    kind = ModelKind(reader.expect("kind "))
    n_features = int(reader.expect("n_features "))

    standardizer = None
    mode = reader.expect("standardizer ")
    if mode == "fitted":
        mean = np.array([float(v) for v in reader.expect("mean ").split()])
        std = np.array([float(v) for v in reader.expect("std ").split()])
        constant = np.array([bool(int(v)) for v in reader.expect("constant ").split()])
        if not len(mean) == len(std) == len(constant) == n_features:
            raise InvalidArgumentError(
                f"malformed standardizer: mean/std/constant have {len(mean)}/{len(std)}/"
                f"{len(constant)} values, not {n_features}"
            )
        if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
            raise InvalidArgumentError(
                "malformed standardizer: a mean is not finite or a std is not finite and positive"
            )
        standardizer = Standardizer(mean=mean, std=std, constant=constant)
    elif mode != "none":
        raise InvalidArgumentError(f"bad standardizer mode: {mode!r}")

    if kind is ModelKind.DECISION_TREE:
        payload = _read_tree(reader, n_features)
    elif kind is ModelKind.RANDOM_FOREST:
        n_trees = int(reader.expect("trees "))
        tree_seeds = tuple(int(v) for v in reader.expect("tree_seeds ").split())
        if n_trees < 1 or len(tree_seeds) != n_trees:
            raise InvalidArgumentError(f"malformed forest: {n_trees} trees, {len(tree_seeds)} seeds")
        trees = tuple(_read_tree(reader, n_features) for _ in range(n_trees))
        payload = Forest(trees=trees, tree_seeds=tree_seeds)
    elif kind is ModelKind.LINEAR_SVM:
        weights = np.array([float(v) for v in reader.expect("weights ").split()])
        bias = float(reader.expect("bias "))
        objective = float(reader.expect("objective "))
        epochs = int(reader.expect("epochs "))
        if len(weights) != n_features:
            raise InvalidArgumentError(
                f"malformed SVM model: {len(weights)} weights, not {n_features}"
            )
        if not (np.isfinite(weights).all() and np.isfinite(bias)):
            raise InvalidArgumentError("malformed SVM model: non-finite weight or bias")
        if not (np.isfinite(objective) and objective >= 0 and epochs >= 1):
            raise InvalidArgumentError(
                f"malformed SVM model: objective {objective!r} is not finite and >= 0 "
                f"or epochs {epochs} is below 1"
            )
        payload = LinearSvm(weights=weights, bias=bias, objective=objective, epochs=epochs)
    else:
        k = int(reader.expect("k "))
        n_rows = int(reader.expect("train_rows "))
        train_x = np.empty((n_rows, n_features), dtype=np.float64)
        train_y = np.empty(n_rows, dtype=np.float64)
        for i in range(n_rows):
            xs, label = reader.next().split(" | ")
            cells = [float(v) for v in xs.split()]
            if len(cells) != n_features:
                raise InvalidArgumentError(
                    f"malformed k-NN model: row {i} has {len(cells)} values, not {n_features}"
                )
            train_x[i] = cells
            train_y[i] = float(label)
        if not 1 <= k <= n_rows:
            raise InvalidArgumentError(f"malformed k-NN model: k {k} outside [1, {n_rows}]")
        if not (np.isfinite(train_x).all() and np.isin(train_y, (0.0, 1.0)).all()):
            raise InvalidArgumentError("malformed k-NN model: non-finite value or non-0/1 label")
        payload = KnnModel(train_x=train_x, train_y=train_y, k=k)

    return TrainedModel(kind=kind, n_features=n_features, payload=payload,
                        standardizer=standardizer)


def save_model(model: TrainedModel, path: str | Path) -> None:
    Path(path).write_text(model_to_text(model), encoding="utf-8")


def load_model(path: str | Path) -> TrainedModel:
    return model_from_text(Path(path).read_text(encoding="utf-8"))

"""Versioned text serialization of trained models.

A write-only format for auditing and diffing runs, not an interchange
format: nothing in the package reads it back. Floats are written with
``repr``, so the text holds every stored value bit for bit.
Line-oriented; the first line names the format and version.
"""

from __future__ import annotations

from pathlib import Path

from . import ModelKind, TrainedModel
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


def save_model(model: TrainedModel, path: str | Path) -> None:
    Path(path).write_text(model_to_text(model), encoding="utf-8")


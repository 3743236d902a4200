"""Random forest: bagged CART trees with per-split feature subsets.

Tree ``i`` draws its bootstrap sample and all of its split-time feature
subsets from a generator seeded with ``seed XOR i``, so the forest is a
pure function of (data, hyperparameters) no matter how many worker
threads build it or in what order trees finish.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..rng import SeededRng
from .tree import Tree, _code_columns, _grow, tree_scores


@dataclass(frozen=True)
class Forest:
    trees: tuple[Tree, ...]
    tree_seeds: tuple[int, ...]

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def candidate_count(n_features: int, rule: str) -> int:
    if rule == "sqrt":
        # ceil(sqrt(p)) without float rounding
        return math.isqrt(n_features - 1) + 1 if n_features > 0 else 0
    if rule == "all":
        return n_features
    raise ValueError(f"unknown feature rule: {rule!r}")


def build_forest(
    x: np.ndarray,
    y: np.ndarray,
    n_trees: int,
    seed: int,
    feature_rule: str = "sqrt",
    bootstrap: bool = True,
    max_depth: int | None = None,
    min_leaf: int = 1,
    threads: int = 1,
) -> Forest:
    n_rows, n_features = x.shape
    k = candidate_count(n_features, feature_rule)
    subsample = k if k < n_features else None
    tree_seeds = tuple((seed ^ i) & 0xFFFFFFFFFFFFFFFF for i in range(n_trees))
    coded = _code_columns(x, y)  # shared read-only by every tree and worker

    def grow(tree_seed: int) -> Tree:
        rng = SeededRng(tree_seed)
        sample = rng.integers(n_rows, n_rows) if bootstrap else None
        return _grow(coded, sample, max_depth, min_leaf, subsample, rng)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            trees = tuple(pool.map(grow, tree_seeds))
    else:
        trees = tuple(grow(s) for s in tree_seeds)
    return Forest(trees=trees, tree_seeds=tree_seeds)


def forest_scores(forest: Forest, x: np.ndarray) -> np.ndarray:
    """Mean of per-tree leaf positive-fractions."""
    stacked = np.stack([tree_scores(tree, x) for tree in forest.trees])
    return np.mean(stacked, axis=0)

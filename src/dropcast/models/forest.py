"""Random forest: bagged CART trees with per-split feature subsets.

Tree ``i`` draws its bootstrap sample and all of its split-time feature
subsets from a generator seeded with ``seed XOR i``. Trees are grown in
contiguous groups of ``_GROUP_TREES``, the trees of a group in lockstep
(see ``tree``); worker threads map over the groups. No tree's stream
depends on which other trees share its group or on how many threads run,
so the forest is a pure function of (data, hyperparameters).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..rng import SeededRng
from .tree import Tree, _code_columns, _grow_trees, tree_scores

# Trees grown in lockstep by one call; the group bounds the memory of a
# growth step, and it is the unit of work of a worker thread.
_GROUP_TREES = 25


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

    def grow(first: int) -> list[Tree]:
        group = []
        for tree_seed in tree_seeds[first : first + _GROUP_TREES]:
            rng = SeededRng(tree_seed)
            group.append((rng.integers(n_rows, n_rows) if bootstrap else None, rng))
        return _grow_trees(coded, group, max_depth, min_leaf, subsample)

    firsts = range(0, n_trees, _GROUP_TREES)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            groups = list(pool.map(grow, firsts))
    else:
        groups = [grow(first) for first in firsts]
    return Forest(trees=tuple(chain.from_iterable(groups)), tree_seeds=tree_seeds)


def forest_scores(forest: Forest, x: np.ndarray) -> np.ndarray:
    """Mean of per-tree leaf positive-fractions."""
    stacked = np.stack([tree_scores(tree, x) for tree in forest.trees])
    return np.mean(stacked, axis=0)

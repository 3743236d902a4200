"""Random forest: bagged CART trees with per-split feature subsets.

Every tree grows on a bootstrap sample with ceil(sqrt(p)) candidate
features per split and no depth limit; the tree count and the seed are
the only settings. Tree ``i`` draws from the stream seeded with
``seed XOR i``, each draw at a fixed address: its bootstrap sample of
``rows`` indices at counters 1 to ``rows``, and the subset of its node
``v`` (the level-order id written in the model text) from the
``n_features`` counters after ``rows + v * n_features``. All trees are
grown together by one call (see ``tree``). No draw depends on the other
trees or on the order of growth, so each tree equals the tree grown
alone from its sample and seed, any node's candidates can be recomputed
from the saved model, and the forest is a pure function of
(data, tree count, seed).

A forest's score is the ``np.mean`` over its trees of the leaf
positive-fractions. Scoring walks all trees together, in blocks of
query rows (``tree._mean_scores``), and averages each block along the
tree axis, which gives the same bytes as averaging all rows at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..rng import integer_block, scramble
from .tree import Tree, _code_columns, _grow_trees, _mean_scores


@dataclass(frozen=True)
class Forest:
    trees: tuple[Tree, ...]
    tree_seeds: tuple[int, ...]

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def candidate_count(n_features: int) -> int:
    """ceil(sqrt(p)) without float rounding."""
    return math.isqrt(n_features - 1) + 1 if n_features > 0 else 0


def build_forest(x: np.ndarray, y: np.ndarray, n_trees: int, seed: int) -> Forest:
    n_rows, n_features = x.shape
    tree_seeds = tuple((seed ^ i) & 0xFFFFFFFFFFFFFFFF for i in range(n_trees))
    seeds = scramble(tree_seeds)
    samples = integer_block(seeds, np.zeros(n_trees, dtype=np.uint64), n_rows, n_rows)
    grown = _grow_trees(_code_columns(x, y), samples, seeds, max_depth=None,
                        n_candidates=candidate_count(n_features))
    return Forest(trees=tuple(grown), tree_seeds=tree_seeds)


def forest_scores(forest: Forest, x: np.ndarray) -> np.ndarray:
    """Mean of per-tree leaf positive-fractions, walked in blocks."""
    return _mean_scores(forest.trees, x)

"""Seeded splitting, train-fitted standardization, group exclusion.

Standard deviations use the population convention (divide by n). The
split permutation comes from the package's counter-based generator
(see :mod:`dropcast.rng`), so splits are bit-reproducible everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ColumnMismatchError, InvalidArgumentError, InvalidFractionError, UnknownGroupError
from .ingest import BinaryDataset, FeatureGroup
from .rng import SeededRng


@dataclass(frozen=True)
class SplitIndices:
    train_rows: np.ndarray
    test_rows: np.ndarray
    seed: int
    test_fraction: float


@dataclass(frozen=True)
class Standardizer:
    """Per-column center/scale fitted on training rows only.

    Constant training columns are flagged and store a standard
    deviation of 1, so transforming maps them to exactly 0.
    """

    mean: np.ndarray
    std: np.ndarray
    constant: np.ndarray

    @property
    def n_columns(self) -> int:
        return self.mean.shape[0]


def split(n_rows: int, test_fraction: float, seed: int) -> SplitIndices:
    """Seeded uniform split; the first round(test_fraction * n) rows of
    the permutation become the test set. Rounding is half-up.
    """
    if not 0.0 < test_fraction < 1.0:
        raise InvalidFractionError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if n_rows < 2:
        raise InvalidArgumentError(f"need at least 2 rows to split, got {n_rows}")
    perm = SeededRng(seed).permutation(n_rows)
    n_test = int(math.floor(test_fraction * n_rows + 0.5))
    test_rows = perm[:n_test].copy()
    train_rows = perm[n_test:].copy()
    test_rows.setflags(write=False)
    train_rows.setflags(write=False)
    return SplitIndices(
        train_rows=train_rows,
        test_rows=test_rows,
        seed=seed,
        test_fraction=test_fraction,
    )


def fit_standardizer(matrix: np.ndarray, train_rows: np.ndarray) -> Standardizer:
    train_rows = np.asarray(train_rows, dtype=np.int64)
    if train_rows.size == 0:
        raise InvalidArgumentError("cannot fit standardizer on zero training rows")
    sub = matrix[train_rows]
    mean = sub.mean(axis=0)
    std = np.sqrt(((sub - mean) ** 2).mean(axis=0))
    constant = std == 0.0
    std = np.where(constant, 1.0, std)
    for arr in (mean, std, constant):
        arr.setflags(write=False)
    return Standardizer(mean=mean, std=std, constant=constant)


def apply_standardizer(standardizer: Standardizer, matrix: np.ndarray) -> np.ndarray:
    if matrix.shape[1] != standardizer.n_columns:
        raise ColumnMismatchError(
            f"standardizer fitted on {standardizer.n_columns} columns, "
            f"matrix has {matrix.shape[1]}"
        )
    return (matrix - standardizer.mean) / standardizer.std


def exclude_group(dataset: BinaryDataset, group: FeatureGroup) -> BinaryDataset:
    """Remove every column tagged with ``group``; order and labels kept."""
    if group not in dataset.column_groups:
        raise UnknownGroupError(f"no columns tagged {group.value!r} in dataset")
    keep = [i for i, g in enumerate(dataset.column_groups) if g is not group]
    matrix = dataset.feature_matrix[:, np.array(keep, dtype=np.int64)]
    matrix.setflags(write=False)
    return BinaryDataset(
        feature_matrix=matrix,
        column_names=tuple(dataset.column_names[i] for i in keep),
        column_groups=tuple(dataset.column_groups[i] for i in keep),
        labels=dataset.labels,
    )

"""Seeded splitting, train-fitted standardization, group exclusion.

Standard deviations use the population convention (divide by n). The
split permutation comes from the package's counter-based generator
(see :mod:`dropcast.rng`), so splits are bit-reproducible everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .ingest import Dataset, FeatureGroup
from .rng import SeededRng


@dataclass(frozen=True)
class SplitIndices:
    train_rows: np.ndarray
    test_rows: np.ndarray
    seed: int


@dataclass(frozen=True)
class Standardizer:
    """Per-column center/scale fitted on training rows only.

    A column is constant when all its values equal the first row's (the
    float mean of 3176 copies of 10.8 is not 10.8) or its deviation is
    0. It is flagged and stores deviation 1, and an all-equal column its
    value as the mean, so transforming maps it to exactly 0.
    """

    mean: np.ndarray
    std: np.ndarray
    constant: np.ndarray

    @property
    def n_columns(self) -> int:
        return self.mean.shape[0]


def split(n_rows: int, test_fraction: float, seed: int) -> SplitIndices:
    """Seeded uniform split; the first round(test_fraction * n) rows of
    the permutation become the test set. Rounding is half-up, and a
    fraction that rounds to an empty test or training set is rejected.
    """
    if not 0.0 < test_fraction < 1.0:
        raise InvalidArgumentError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if n_rows < 2:
        raise InvalidArgumentError(f"need at least 2 rows to split, got {n_rows}")
    n_test = int(math.floor(test_fraction * n_rows + 0.5))
    if n_test in (0, n_rows):
        empty = "test" if n_test == 0 else "training"
        raise InvalidArgumentError(
            f"test_fraction {test_fraction} of {n_rows} rows leaves an empty {empty} set"
        )
    perm = SeededRng(seed).permutation(n_rows)
    test_rows = perm[:n_test].copy()
    train_rows = perm[n_test:].copy()
    test_rows.setflags(write=False)
    train_rows.setflags(write=False)
    return SplitIndices(
        train_rows=train_rows,
        test_rows=test_rows,
        seed=seed,
    )


def fit_standardizer(rows: np.ndarray) -> Standardizer:
    """Fit on every row given; pass only the training rows. A column
    whose sum or squared deviations overflow, so that its mean or std is
    not finite, raises ``InvalidArgumentError``; an all-equal column is
    constant and never does."""
    # numpy sums a C-ordered column row by row but an F-ordered one
    # pairwise, so fix the order to keep the fit independent of layout.
    rows = np.ascontiguousarray(rows)
    if rows.shape[0] == 0:
        raise InvalidArgumentError("cannot fit standardizer on zero training rows")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = rows.mean(axis=0)
        std = np.sqrt(((rows - mean) ** 2).mean(axis=0))
    all_equal = (rows == rows[0]).all(axis=0)
    constant = all_equal | (std == 0.0)
    mean = np.where(all_equal, rows[0], mean)
    std = np.where(constant, 1.0, std)
    bad = ~(np.isfinite(mean) & np.isfinite(std))
    if bad.any():
        raise InvalidArgumentError(
            f"cannot standardize column {int(np.argmax(bad))}: its mean or standard deviation "
            "is not finite"
        )
    for arr in (mean, std, constant):
        arr.setflags(write=False)
    return Standardizer(mean=mean, std=std, constant=constant)


def apply_standardizer(standardizer: Standardizer, matrix: np.ndarray) -> np.ndarray:
    if matrix.shape[1] != standardizer.n_columns:
        raise InvalidArgumentError(
            f"standardizer fitted on {standardizer.n_columns} columns, "
            f"matrix has {matrix.shape[1]}"
        )
    out = matrix - standardizer.mean
    out /= standardizer.std
    return out


def exclude_group(dataset: Dataset, group: FeatureGroup) -> Dataset:
    """Remove every column tagged with ``group``; order and labels kept.
    At least one column must be left."""
    if group not in dataset.column_groups:
        raise InvalidArgumentError(f"no columns tagged {group.value!r} in dataset")
    keep = [i for i, g in enumerate(dataset.column_groups) if g is not group]
    if not keep:
        raise InvalidArgumentError(f"excluding group {group.value!r} leaves no feature column")
    matrix = dataset.feature_matrix[:, np.array(keep, dtype=np.int64)]
    matrix.setflags(write=False)
    return Dataset(
        feature_matrix=matrix,
        column_names=tuple(dataset.column_names[i] for i in keep),
        column_groups=tuple(dataset.column_groups[i] for i in keep),
        labels=dataset.labels,
    )

"""Exploratory statistics: class counts, per-category outcome rates,
gender breakdown, and the all-features Pearson correlation matrix.

Rates and the gender breakdown share one count of rows and dropout
rows per distinct code. Correlations are computed over the raw
integer-coded feature values, including categorical codes, standardized
over all rows; the matrix is a descriptive artifact, not an inferential
claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .ingest import LABELS, Dataset, Outcome
from .preprocess import apply_standardizer, fit_standardizer

GENDER_COLUMN = "Gender"


@dataclass(frozen=True)
class CorrelationMatrix:
    values: np.ndarray
    column_names: tuple[str, ...]


def class_distribution(dataset: Dataset) -> dict[Outcome, int]:
    counts = np.bincount(dataset.labels, minlength=len(LABELS))
    return {outcome: int(counts[LABELS[outcome]]) for outcome in Outcome}


def _column(binary: Dataset, feature_name: str) -> np.ndarray:
    try:
        index = binary.column_names.index(feature_name)
    except ValueError:
        raise InvalidArgumentError(f"no feature named {feature_name!r}") from None
    return binary.feature_matrix[:, index]


def _counts_by_code(binary: Dataset, feature_name: str):
    """Distinct codes of one feature, ascending, and their row and dropout counts."""
    codes, code_of_row = np.unique(_column(binary, feature_name), return_inverse=True)
    n_rows = np.bincount(code_of_row, minlength=codes.shape[0])
    n_dropout = np.bincount(code_of_row[binary.labels == 1], minlength=codes.shape[0])
    return codes, n_rows, n_dropout


def rate_by_category(
    binary: Dataset, feature_name: str
) -> tuple[tuple[float, int, float, float], ...]:
    """(code, row count, dropout rate, graduate rate) per distinct code of
    one feature, code ascending; every observed value is a code."""
    codes, n_rows, n_dropout = _counts_by_code(binary, feature_name)
    return tuple((float(code), int(n), float(rate), 1.0 - float(rate))
                 for code, n, rate in zip(codes, n_rows, n_dropout / n_rows))


def gender_distribution(binary: Dataset) -> dict[tuple[float, int], int]:
    """Counts per (gender code, label). In the source records file the
    gender column codes female as 0 and male as 1."""
    counts: dict[tuple[float, int], int] = {}
    for code, n, n_dropout in zip(*_counts_by_code(binary, GENDER_COLUMN)):
        counts[(float(code), 0)] = int(n - n_dropout)
        counts[(float(code), 1)] = int(n_dropout)
    return counts


def correlation_matrix(binary: Dataset) -> CorrelationMatrix:
    """Pearson r for every feature pair.

    Constant columns (every value equal to the first row's, or a
    standard deviation of 0) get r = 0 against every column including
    themselves, so the diagonal marks them: it is exactly 0 for a
    constant column and 1 for every other.
    """
    matrix = binary.feature_matrix
    n = matrix.shape[0]
    standardizer = fit_standardizer(matrix)
    normalized = apply_standardizer(standardizer, matrix)
    constant = standardizer.constant
    values = (normalized.T @ normalized) / n
    values = (values + values.T) / 2.0  # force exact symmetry
    values[constant, :] = 0.0
    values[:, constant] = 0.0
    np.fill_diagonal(values, np.where(constant, 0.0, 1.0))
    values = np.clip(values, -1.0, 1.0)
    values.setflags(write=False)
    return CorrelationMatrix(values=values, column_names=binary.column_names)

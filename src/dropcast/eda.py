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

from .errors import UnknownFeatureError
from .ingest import BinaryDataset, Dataset, Outcome
from .preprocess import apply_standardizer, fit_standardizer

GENDER_COLUMN = "Gender"


@dataclass(frozen=True)
class CategoryRateTable:
    """Dropout/graduate rates per distinct code of one feature."""

    feature_name: str
    # (category code, row count, dropout rate, graduate rate), code ascending
    rows: tuple[tuple[float, int, float, float], ...]

    def rate_for(self, code: float) -> tuple[float, float]:
        for row_code, _, dropout_rate, graduate_rate in self.rows:
            if row_code == code:
                return dropout_rate, graduate_rate
        raise UnknownFeatureError(
            f"no category code {code} observed for {self.feature_name!r}"
        )


@dataclass(frozen=True)
class CorrelationMatrix:
    values: np.ndarray
    column_names: tuple[str, ...]
    constant_flags: tuple[bool, ...]

    def pair(self, name_a: str, name_b: str) -> float:
        i = self.column_names.index(name_a)
        j = self.column_names.index(name_b)
        return float(self.values[i, j])


def class_distribution(dataset: Dataset) -> dict[Outcome, int]:
    return {outcome: dataset.outcomes.count(outcome) for outcome in Outcome}


def _column(binary: BinaryDataset, feature_name: str) -> np.ndarray:
    try:
        index = binary.column_names.index(feature_name)
    except ValueError:
        raise UnknownFeatureError(f"no feature named {feature_name!r}") from None
    return binary.feature_matrix[:, index]


def _counts_by_code(binary: BinaryDataset, feature_name: str):
    """Distinct codes of one feature, ascending, and their row and dropout counts."""
    codes, code_of_row = np.unique(_column(binary, feature_name), return_inverse=True)
    n_rows = np.bincount(code_of_row, minlength=codes.shape[0])
    n_dropout = np.bincount(code_of_row[binary.labels == 1], minlength=codes.shape[0])
    return codes, n_rows, n_dropout


def rate_by_category(binary: BinaryDataset, feature_name: str) -> CategoryRateTable:
    """Per-code dropout/graduate rates; every observed value is a code."""
    codes, n_rows, n_dropout = _counts_by_code(binary, feature_name)
    rows = [(float(code), int(n), float(rate), 1.0 - float(rate))
            for code, n, rate in zip(codes, n_rows, n_dropout / n_rows)]
    return CategoryRateTable(feature_name=feature_name, rows=tuple(rows))


def gender_distribution(binary: BinaryDataset) -> dict[tuple[float, int], int]:
    """Counts per (gender code, label). In the source records file the
    gender column codes female as 0 and male as 1."""
    counts: dict[tuple[float, int], int] = {}
    for code, n, n_dropout in zip(*_counts_by_code(binary, GENDER_COLUMN)):
        counts[(float(code), 0)] = int(n - n_dropout)
        counts[(float(code), 1)] = int(n_dropout)
    return counts


def correlation_matrix(binary: BinaryDataset) -> CorrelationMatrix:
    """Pearson r for every feature pair.

    Constant columns get r = 0 against every column including
    themselves, and are flagged so consumers can tell that apart from
    genuine zero correlation.
    """
    matrix = binary.feature_matrix
    n = matrix.shape[0]
    standardizer = fit_standardizer(matrix, np.arange(n))
    normalized = apply_standardizer(standardizer, matrix)
    constant = standardizer.constant
    values = (normalized.T @ normalized) / n
    values = (values + values.T) / 2.0  # force exact symmetry
    values[constant, :] = 0.0
    values[:, constant] = 0.0
    np.fill_diagonal(values, np.where(constant, 0.0, 1.0))
    values = np.clip(values, -1.0, 1.0)
    values.setflags(write=False)
    return CorrelationMatrix(
        values=values,
        column_names=binary.column_names,
        constant_flags=tuple(bool(flag) for flag in constant),
    )

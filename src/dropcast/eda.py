"""Exploratory statistics: class counts, per-category outcome rates,
gender breakdown, and the all-features Pearson correlation matrix.

Correlations are computed over the raw integer-coded feature values,
including categorical codes; the matrix is a descriptive artifact, not
an inferential claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnknownFeatureError
from .ingest import BinaryDataset, Dataset, Outcome

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


def rate_by_category(binary: BinaryDataset, feature_name: str) -> CategoryRateTable:
    """Per-code dropout/graduate rates; every observed value is a code."""
    column = _column(binary, feature_name)
    rows = []
    for code in np.unique(column):
        mask = column == code
        n = int(mask.sum())
        dropout_rate = float(binary.labels[mask].mean())
        rows.append((float(code), n, dropout_rate, 1.0 - dropout_rate))
    return CategoryRateTable(feature_name=feature_name, rows=tuple(rows))


def gender_distribution(binary: BinaryDataset) -> dict[tuple[float, int], int]:
    """Counts per (gender code, label). In the source records file the
    gender column codes female as 0 and male as 1."""
    column = _column(binary, GENDER_COLUMN)
    counts: dict[tuple[float, int], int] = {}
    for code in np.unique(column):
        mask = column == code
        for label in (0, 1):
            counts[(float(code), label)] = int((binary.labels[mask] == label).sum())
    return counts


def correlation_matrix(binary: BinaryDataset) -> CorrelationMatrix:
    """Pearson r for every feature pair.

    Constant columns get r = 0 against every column including
    themselves, and are flagged so consumers can tell that apart from
    genuine zero correlation.
    """
    matrix = binary.feature_matrix
    n = matrix.shape[0]
    mean = matrix.mean(axis=0)
    centered = matrix - mean
    std = np.sqrt((centered**2).mean(axis=0))
    constant = std == 0.0
    safe_std = np.where(constant, 1.0, std)
    normalized = centered / safe_std
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

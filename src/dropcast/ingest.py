"""Dataset ingestion: group manifests, CSV parsing, binary-task filtering.

The records file is a delimited table (default ';') with a header row,
one student per line, every feature cell numeric, and a ``Target``
column holding one of ``Dropout``, ``Graduate``, ``Enrolled``. Feature
columns are assigned to one of four groups (demographic, socioeconomic,
macroeconomic, academic) by an external manifest file so that schema
variants of the records file can be mapped without code changes.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CellParseError,
    DuplicateColumnError,
    EmptyResultError,
    ManifestParseError,
    MissingColumnError,
    MissingValueError,
)

TARGET_COLUMN = "Target"

_MANIFEST_DIR = Path(__file__).parent / "manifests"


class FeatureGroup(enum.Enum):
    DEMOGRAPHIC = "demographic"
    SOCIOECONOMIC = "socioeconomic"
    MACROECONOMIC = "macroeconomic"
    ACADEMIC = "academic"

    @classmethod
    def from_tag(cls, tag: str) -> "FeatureGroup":
        try:
            return cls(tag)
        except ValueError:
            raise ManifestParseError(f"unknown feature group tag: {tag!r}") from None


class Outcome(enum.Enum):
    DROPOUT = "Dropout"
    GRADUATE = "Graduate"
    ENROLLED = "Enrolled"


@dataclass(frozen=True)
class GroupManifest:
    """Ordered mapping from feature column name to feature group."""

    entries: tuple[tuple[str, FeatureGroup], ...]
    version_tag: str

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    @property
    def column_groups(self) -> tuple[FeatureGroup, ...]:
        return tuple(group for _, group in self.entries)

    def group_sizes(self) -> dict[FeatureGroup, int]:
        sizes = {group: 0 for group in FeatureGroup}
        for _, group in self.entries:
            sizes[group] += 1
        return sizes


@dataclass(frozen=True)
class Dataset:
    """Parsed records with the three-valued outcome still attached."""

    feature_matrix: np.ndarray
    column_names: tuple[str, ...]
    column_groups: tuple[FeatureGroup, ...]
    outcomes: tuple[Outcome, ...]

    @property
    def n_rows(self) -> int:
        return self.feature_matrix.shape[0]

    @property
    def n_columns(self) -> int:
        return self.feature_matrix.shape[1]


@dataclass(frozen=True)
class BinaryDataset:
    """Dropout-vs-graduate task: label 1 = Dropout, 0 = Graduate."""

    feature_matrix: np.ndarray
    column_names: tuple[str, ...]
    column_groups: tuple[FeatureGroup, ...]
    labels: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.feature_matrix.shape[0]

    @property
    def n_columns(self) -> int:
        return self.feature_matrix.shape[1]


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def default_manifest_path(version: str = "default-34") -> Path:
    """Path of a shipped manifest: 'default-34' or 'variant-36'."""
    files = {"default-34": "default34.tsv", "variant-36": "variant36.tsv"}
    if version not in files:
        raise ManifestParseError(f"no shipped manifest named {version!r}")
    return _MANIFEST_DIR / files[version]


def load_manifest(path: str | Path) -> GroupManifest:
    """Parse a manifest file of ``column<TAB>group`` lines.

    Lines starting with '#' are comments; a comment of the form
    ``# version: <tag>`` sets the manifest's version tag.
    """
    entries: list[tuple[str, FeatureGroup]] = []
    seen: set[str] = set()
    version_tag = "unversioned"
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.lstrip().startswith("#"):
                comment = line.lstrip().lstrip("#").strip()
                if comment.lower().startswith("version:"):
                    version_tag = comment.split(":", 1)[1].strip()
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ManifestParseError(
                    f"{path}:{line_no}: expected 'column<TAB>group', got {line!r}"
                )
            name = parts[0].strip()
            if not name:
                raise ManifestParseError(f"{path}:{line_no}: empty column name")
            group = FeatureGroup.from_tag(parts[1].strip())
            if name in seen:
                raise DuplicateColumnError(f"column listed twice in manifest: {name!r}")
            seen.add(name)
            entries.append((name, group))
    if not entries:
        raise ManifestParseError(f"{path}: manifest contains no entries")
    return GroupManifest(entries=tuple(entries), version_tag=version_tag)


def load_dataset(
    csv_path: str | Path, manifest: GroupManifest, delimiter: str = ";"
) -> Dataset:
    """Parse the records CSV against a manifest.

    Feature columns are returned in manifest order regardless of file
    order. Header names are stripped of surrounding whitespace (some
    releases of the records file carry stray tabs in header cells).
    Missing cells and unparsable cells are hard errors; there is no
    imputation.
    """
    with open(csv_path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumnError(TARGET_COLUMN) from None
        positions = {name.strip(): i for i, name in enumerate(header)}
        for name in manifest.column_names:
            if name not in positions:
                raise MissingColumnError(name)
        if TARGET_COLUMN not in positions:
            raise MissingColumnError(TARGET_COLUMN)
        feature_pos = [positions[name] for name in manifest.column_names]
        target_pos = positions[TARGET_COLUMN]

        rows: list[list[float]] = []
        outcomes: list[Outcome] = []
        for row_no, record in enumerate(reader, start=1):
            if not record:
                continue
            values = []
            for name, pos in zip(manifest.column_names, feature_pos):
                if pos >= len(record):
                    raise MissingValueError(row_no, name)
                text = record[pos].strip()
                if not text:
                    raise MissingValueError(row_no, name)
                try:
                    values.append(float(text))
                except ValueError:
                    raise CellParseError(row_no, name, text) from None
            if target_pos >= len(record):
                raise MissingValueError(row_no, TARGET_COLUMN)
            target_text = record[target_pos].strip()
            try:
                outcomes.append(Outcome(target_text))
            except ValueError:
                raise CellParseError(row_no, TARGET_COLUMN, target_text) from None
            rows.append(values)

    matrix = np.array(rows, dtype=np.float64).reshape(len(rows), len(manifest.entries))
    return Dataset(
        feature_matrix=_freeze(matrix),
        column_names=manifest.column_names,
        column_groups=manifest.column_groups,
        outcomes=tuple(outcomes),
    )


def to_binary(dataset: Dataset) -> BinaryDataset:
    """Drop Enrolled rows and encode Dropout=1 / Graduate=0.

    Relative row order is preserved.
    """
    keep = [i for i, o in enumerate(dataset.outcomes) if o is not Outcome.ENROLLED]
    if not keep:
        raise EmptyResultError("no Dropout or Graduate rows in dataset")
    labels = np.array(
        [1 if dataset.outcomes[i] is Outcome.DROPOUT else 0 for i in keep],
        dtype=np.int64,
    )
    matrix = dataset.feature_matrix[np.array(keep, dtype=np.int64)]
    return BinaryDataset(
        feature_matrix=_freeze(matrix),
        column_names=dataset.column_names,
        column_groups=dataset.column_groups,
        labels=_freeze(labels),
    )

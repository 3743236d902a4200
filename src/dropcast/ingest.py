"""Dataset ingestion: group manifests, CSV parsing, binary-task filtering.

The records file is a delimited table (default ';') with a header row,
one student per line, every feature cell numeric, and a ``Target``
column holding one of ``Dropout``, ``Graduate``, ``Enrolled``. Feature
columns are assigned to one of four groups (demographic, socioeconomic,
macroeconomic, academic) by an external manifest file so that schema
variants of the records file can be mapped without code changes.

``load_dataset`` parses the data rows in one call to numpy's C text
reader (``np.loadtxt``), which splits records as ``csv.reader`` does,
unquotes ``"``-quoted cells, converts the manifest cells and maps each
``Target`` word to its place in ``Outcome``, so a load peaks near the
size of its matrix. If that reader raises (on a short row, a cell it
cannot parse, the delimiter ``"``) or gives a value that is not finite
(a ``nan`` or ``inf`` cell, an unknown ``Target``), ``_parse_rows``
reads the file again cell by cell and raises the error a plain row loop
raises, with its data-row number and text. It also loads what only
``float`` parses (``1_000``, ``１``). Both paths give the same matrix and
outcomes for every file the row loop loads. numpy's reader has no field
limit, so a file it reads whole loads even with a data cell longer than
``csv.field_size_limit()``; ``"1" * 131073`` reads as ``inf`` and takes
the row loop, where the csv reader cannot split its record. A manifest
or records file that is not UTF-8 text, or a header or, in the row
loop, a record the csv reader cannot split, raises one
``FileFormatError`` line naming the file and, for a record, its data
row. Both files may open with a byte-order mark.
"""

from __future__ import annotations

import csv
import enum
import math
import warnings
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CellParseError,
    DuplicateColumnError,
    EmptyResultError,
    FileFormatError,
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


_OUTCOMES = {outcome.value: outcome for outcome in Outcome}
_OUTCOME_LIST = tuple(Outcome)
_OUTCOME_CODES = {outcome.value: float(i) for i, outcome in enumerate(Outcome)}
# to_binary's codes: a kept row's label is its code, Enrolled rows are dropped.
_BINARY_CODES = {Outcome.GRADUATE: 0, Outcome.DROPOUT: 1, Outcome.ENROLLED: 2}


def _outcome_code(text: str) -> float:
    """A ``Target`` cell's index in ``Outcome``, nan for an unknown word."""
    return _OUTCOME_CODES.get(text.strip(), math.nan)


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


@contextmanager
def _open_text(path: str | Path, **kwargs):
    """``open(path, **kwargs)`` for reading; a byte that is not UTF-8
    raises one ``FileFormatError`` line naming the file."""
    try:
        with open(path, **kwargs) as handle:
            yield handle
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start:exc.end].hex()
        raise FileFormatError(f"{path}: not UTF-8 text: cannot decode byte 0x{bad}") from None


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
    with _open_text(path, encoding="utf-8-sig") as handle:
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
            if name == TARGET_COLUMN:
                raise ManifestParseError(f"{path}:{line_no}: {name!r} is the label, not a feature")
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
    Missing, unparsable and non-finite (``nan``, ``inf``) cells are hard
    errors; there is no imputation. A manifest column or ``Target``
    named twice in the header is an error too. The error names the
    first bad cell in file order, by data row (blank lines count) and
    column.
    """
    columns = manifest.column_names
    with _open_text(csv_path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumnError(TARGET_COLUMN) from None
        except csv.Error as exc:
            raise FileFormatError(f"{csv_path}: header: {exc}") from None
        names = [name.strip() for name in header]
        positions = {name: i for i, name in enumerate(names)}
        for name in (*columns, TARGET_COLUMN):
            if name not in positions:
                raise MissingColumnError(name)
            if names.count(name) > 1:
                raise DuplicateColumnError(f"column appears twice in header: {name!r}")
        feature_pos = [positions[name] for name in columns]
        target_pos = positions[TARGET_COLUMN]

        try:
            with warnings.catch_warnings():
                # A file with no data row is an empty matrix, not a warning.
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(
                    handle, delimiter=delimiter, quotechar='"', comments=None,
                    usecols=[*feature_pos, target_pos], converters={target_pos: _outcome_code},
                    dtype=np.float64, ndmin=2,
                )
        except (IndexError, TypeError, ValueError):  # TypeError: the delimiter is '"'
            values = None
    if values is not None and np.isfinite(values).all():
        matrix = values[:, :-1]
        outcomes = [_OUTCOME_LIST[i] for i in values[:, -1].astype(np.intp).tolist()]
    else:
        values, outcomes = _parse_rows(csv_path, delimiter, columns, feature_pos, target_pos)
        matrix = np.asarray(values).reshape(len(outcomes), len(columns))
    return Dataset(
        feature_matrix=_freeze(matrix),
        column_names=columns,
        column_groups=manifest.column_groups,
        outcomes=tuple(outcomes),
    )


def _parse_rows(
    csv_path: str | Path,
    delimiter: str,
    columns: tuple[str, ...],
    feature_pos: list[int],
    target_pos: int,
) -> tuple[array, list[Outcome]]:
    """Parse the data rows one cell at a time and raise the error for
    the first bad cell: rows in file order; within a row, missing or
    unparsable feature cells in manifest order, then non-finite ones,
    then ``Target``. If no cell is bad, return the feature values,
    row-major, and the outcomes: every cell was good once stripped."""
    values = array("d")
    outcomes: list[Outcome] = []
    with _open_text(csv_path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        next(reader)  # the header, already checked
        row_no = 0  # the last data row read
        try:
            for row_no, record in enumerate(reader, start=1):
                if not record:
                    continue
                row = []
                for name, pos in zip(columns, feature_pos):
                    text = record[pos].strip() if pos < len(record) else ""
                    if not text:
                        raise MissingValueError(row_no, name)
                    try:
                        row.append(float(text))
                    except ValueError:
                        raise CellParseError(row_no, name, text) from None
                for name, pos, value in zip(columns, feature_pos, row):
                    if not math.isfinite(value):
                        raise CellParseError(row_no, name, record[pos].strip())
                if target_pos >= len(record):
                    raise MissingValueError(row_no, TARGET_COLUMN)
                target_text = record[target_pos].strip()
                if target_text not in _OUTCOMES:
                    raise CellParseError(row_no, TARGET_COLUMN, target_text)
                values.extend(row)
                outcomes.append(_OUTCOMES[target_text])
        except csv.Error as exc:
            raise FileFormatError(f"{csv_path}: data row {row_no + 1}: {exc}") from None
    return values, outcomes


def to_binary(dataset: Dataset) -> BinaryDataset:
    """Drop Enrolled rows and encode Dropout=1 / Graduate=0.

    Relative row order is preserved.
    """
    codes = np.fromiter(
        map(_BINARY_CODES.__getitem__, dataset.outcomes),
        dtype=np.int64,
        count=len(dataset.outcomes),
    )
    keep = np.flatnonzero(codes != _BINARY_CODES[Outcome.ENROLLED])
    if keep.size == 0:
        raise EmptyResultError("no Dropout or Graduate rows in dataset")
    labels = codes[keep]
    matrix = dataset.feature_matrix[keep]
    return BinaryDataset(
        feature_matrix=_freeze(matrix),
        column_names=dataset.column_names,
        column_groups=dataset.column_groups,
        labels=_freeze(labels),
    )

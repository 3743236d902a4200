"""Dataset ingestion: group manifests, CSV parsing, binary-task filtering.

The records file is a delimited table (default ';') with a header row,
one student per line, every feature cell numeric, and a ``Target``
column holding one of ``Dropout``, ``Graduate``, ``Enrolled``. Feature
columns are assigned to one of four groups (demographic, socioeconomic,
macroeconomic, academic) by an external manifest file so that schema
variants of the records file can be mapped without code changes.

One reader turns a records file into a matrix: ``load_dataset`` parses
the data rows in one call to numpy's C text reader (``np.loadtxt``),
which splits records as ``csv.reader`` does, unquotes ``"``-quoted
cells, converts the manifest cells and maps each ``Target`` word to its
label in ``LABELS``, so a load peaks near the size of its matrix. A
feature cell is good if, stripped of whitespace, it is ASCII text with
no ``_`` that ``float`` parses to a finite value: ``1_000`` and the
fullwidth ``１``, which ``float`` alone takes, are bad. If the reader
raises (on a short row or a bad cell) or gives a value that is not
finite (a ``nan`` or ``inf`` cell, an unknown ``Target``),
``_raise_first_bad_cell`` reads the file again row by row only to raise
the first bad cell's error, with its data-row number and text; it
returns nothing. The delimiter ``"`` is the quote character and is
rejected. numpy's reader has no field limit, so a file it reads whole
loads even with a data cell longer than ``csv.field_size_limit()``;
``"1" * 131073`` reads as ``inf``, and the row loop's csv reader cannot
split its record. A manifest or records file that is not UTF-8 text,
or a header or, in the row loop, a record the csv reader cannot split,
raises one ``FileFormatError`` line naming the file and, for a record,
its data row. Both files may open with a byte-order mark.
"""

from __future__ import annotations

import csv
import enum
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import (
    CellParseError,
    FileFormatError,
    InvalidArgumentError,
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


class Outcome(enum.Enum):
    DROPOUT = "Dropout"
    GRADUATE = "Graduate"
    ENROLLED = "Enrolled"


# Each outcome's label: the binary task's codes, so ``to_binary`` only
# drops the Enrolled rows.
LABELS = {Outcome.GRADUATE: 0, Outcome.DROPOUT: 1, Outcome.ENROLLED: 2}
# LABELS keyed by word, for the loader: ``Outcome(word)`` per cell made
# loading 88 480 rows about a third slower.
_WORD_LABELS = {outcome.value: label for outcome, label in LABELS.items()}


def _label(text: str) -> float:
    """A ``Target`` cell's label, nan for an unknown word."""
    return _WORD_LABELS.get(text.strip(), math.nan)


@dataclass(frozen=True)
class GroupManifest:
    """Ordered mapping from feature column name to feature group. It
    must list at least one column, no name twice and not ``Target``."""

    entries: tuple[tuple[str, FeatureGroup], ...]
    version_tag: str

    def __post_init__(self):
        if not self.entries:
            raise FileFormatError("manifest contains no entries")
        seen: set[str] = set()
        for name in self.column_names:
            if name == TARGET_COLUMN:
                raise FileFormatError(f"{name!r} is the label, not a feature")
            if name in seen:
                raise FileFormatError(f"column listed twice in manifest: {name!r}")
            seen.add(name)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    @property
    def column_groups(self) -> tuple[FeatureGroup, ...]:
        return tuple(group for _, group in self.entries)


@dataclass(frozen=True)
class Dataset:
    """Parsed records: one feature row and one ``LABELS`` label per student.

    The matrix must be 2-D, with one column name and one group per column
    and one integer label in ``LABELS`` per row.
    """

    feature_matrix: np.ndarray
    column_names: tuple[str, ...]
    column_groups: tuple[FeatureGroup, ...]
    labels: np.ndarray

    def __post_init__(self):
        shape, labels = np.shape(self.feature_matrix), self.labels
        if len(shape) != 2:
            raise InvalidArgumentError(f"feature matrix must be 2-D, got shape {shape}")
        if not (isinstance(labels, np.ndarray) and labels.dtype.kind in "iu"
                and labels.shape == shape[:1]):
            raise InvalidArgumentError(
                f"labels must be a 1-D integer array with one entry per row of {shape[0]}, "
                f"got shape {np.shape(labels)} of {np.asarray(labels).dtype}"
            )
        if labels.size and (labels.min() < 0 or labels.max() > LABELS[Outcome.ENROLLED]):
            raise InvalidArgumentError(
                f"labels must be 0, 1 or 2, got {labels.min()} to {labels.max()}"
            )
        if not len(self.column_names) == len(self.column_groups) == shape[1]:
            raise InvalidArgumentError(
                f"{len(self.column_names)} column names and {len(self.column_groups)} "
                f"column groups for {shape[1]} columns"
            )

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
        raise InvalidArgumentError(f"no shipped manifest named {version!r}")
    return _MANIFEST_DIR / files[version]


def load_manifest(path: str | Path) -> GroupManifest:
    """Parse a manifest file of ``column<TAB>group`` lines.

    Lines starting with '#' are comments; a comment of the form
    ``# version: <tag>`` sets the manifest's version tag.
    """
    entries: list[tuple[str, FeatureGroup]] = []
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
            at, parts = f"{path}:{line_no}", line.split("\t")
            if len(parts) != 2:
                raise FileFormatError(f"{at}: expected 'column<TAB>group', got {line!r}")
            name, tag = (part.strip() for part in parts)
            if not name:
                raise FileFormatError(f"{at}: empty column name")
            if name == TARGET_COLUMN:
                raise FileFormatError(f"{at}: {name!r} is the label, not a feature")
            if name in (listed for listed, _ in entries):
                raise FileFormatError(f"{at}: column listed twice in manifest: {name!r}")
            try:
                entries.append((name, FeatureGroup(tag)))
            except ValueError:
                raise FileFormatError(f"{at}: unknown feature group tag: {tag!r}") from None
    if not entries:
        raise FileFormatError(f"{path}: manifest contains no entries")
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
    column. The delimiter may not be ``"``, the quote character.
    """
    if delimiter == '"':
        raise InvalidArgumentError(f"delimiter {delimiter!r} is the quote character")
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
                raise FileFormatError(f"column appears twice in header: {name!r}")
        feature_pos = [positions[name] for name in columns]
        target_pos = positions[TARGET_COLUMN]

        try:
            with warnings.catch_warnings():
                # A file with no data row is an empty matrix, not a warning.
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(
                    handle, delimiter=delimiter, quotechar='"', comments=None,
                    usecols=[*feature_pos, target_pos], converters={target_pos: _label},
                    dtype=np.float64, ndmin=2,
                )
        except (IndexError, ValueError):
            values = None
    if values is None or not np.isfinite(values).all():
        _raise_first_bad_cell(csv_path, delimiter, columns, feature_pos, target_pos)
    return Dataset(
        feature_matrix=_freeze(values[:, :-1]),
        column_names=columns,
        column_groups=manifest.column_groups,
        labels=_freeze(values[:, -1].astype(np.int64)),
    )


def _raise_first_bad_cell(
    csv_path: str | Path,
    delimiter: str,
    columns: tuple[str, ...],
    feature_pos: list[int],
    target_pos: int,
) -> NoReturn:
    """Read the data rows one cell at a time and raise the error for the
    first bad cell: rows in file order; within a row, missing or
    unparsable feature cells in manifest order, then non-finite ones,
    then ``Target``. Called only once numpy's reader has rejected the
    file, it raises ``FileFormatError`` if it finds no bad cell."""
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
                    if not text.isascii() or "_" in text:  # numpy's reader takes neither
                        raise CellParseError(row_no, name, text)
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
                if target_text not in _WORD_LABELS:
                    raise CellParseError(row_no, TARGET_COLUMN, target_text)
        except csv.Error as exc:
            raise FileFormatError(f"{csv_path}: data row {row_no + 1}: {exc}") from None
    raise FileFormatError(f"{csv_path}: cannot read the data rows, though no cell is bad")


def to_binary(dataset: Dataset) -> Dataset:
    """Keep the Dropout (label 1) and Graduate (label 0) rows, in order."""
    keep = np.flatnonzero(dataset.labels < LABELS[Outcome.ENROLLED])
    if keep.size == 0:
        raise InvalidArgumentError("no Dropout or Graduate rows in dataset")
    return Dataset(
        feature_matrix=_freeze(dataset.feature_matrix[keep]),
        column_names=dataset.column_names,
        column_groups=dataset.column_groups,
        labels=_freeze(dataset.labels[keep]),
    )

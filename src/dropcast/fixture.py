"""Synthetic records files for dataset-free testing.

The generated CSV carries the default 34-column schema plus Target.
Labels are driven by the columns of one chosen feature group through a
logistic link whose slope is ``signal_strength``; all other columns are
label-independent noise. With no planted group (and strength 0) every
column is noise, so downstream AUCs concentrate at 0.5; a planted group
needs a positive strength, and a positive strength needs a planted
group. A fixed share of rows is marked Enrolled to exercise the binary
filter. The output files' directories are made if missing, once the
arguments have been checked and the text is built.

Output bytes are a pure function of the arguments. numpy builds the text
as one byte block per column, so no Python call is made per cell; the
layout is in ``docs/formats.md``.
"""

from __future__ import annotations

import math
import shutil
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError
from .ingest import FeatureGroup, default_manifest_path, load_manifest
from .rng import SeededRng, check_seed

ENROLLED_SHARE = 0.1
_CODE_RANGE = 10  # integer columns draw codes 0..9
_MACRO_SPAN = 3.0  # macroeconomic columns draw uniform [-3, 3), 2 decimals

# Moments of the integer-code distribution, used to center the signal.
_CODE_MEAN = (_CODE_RANGE - 1) / 2.0
_CODE_STD = float(np.sqrt((_CODE_RANGE**2 - 1) / 12.0))
_MACRO_STD = float(np.sqrt(_MACRO_SPAN**2 / 3.0))


def generate_fixture(
    csv_path: str | Path,
    manifest_path: str | Path,
    n_rows: int,
    seed: int,
    planted_group: FeatureGroup | None = None,
    signal_strength: float = 0.0,
) -> None:
    if n_rows < 20:
        raise InvalidArgumentError(f"fixture needs at least 20 rows, got {n_rows}")
    check_seed(seed)
    if not (math.isfinite(signal_strength) and signal_strength >= 0):
        raise InvalidArgumentError(
            f"signal_strength must be non-negative and finite, got {signal_strength}"
        )
    if planted_group is None and signal_strength > 0:
        raise InvalidArgumentError(
            f"signal_strength {signal_strength} needs a planted group to drive the labels"
        )
    if planted_group is not None and signal_strength == 0:
        raise InvalidArgumentError(
            f"planted group {planted_group.value!r} needs a positive signal_strength"
        )

    manifest = load_manifest(default_manifest_path("default-34"))
    # One child stream per column and per decision keeps the lanes
    # statistically independent; slicing a single stream at constant
    # offsets leaves measurable cross-lane correlation.
    parent = SeededRng(seed)

    cells: list[np.ndarray] = []  # per column, see _join_rows
    signal = np.zeros(n_rows, dtype=np.float64)
    n_planted = 0
    for name, group in manifest.entries:
        rng = parent.child()
        if group is FeatureGroup.MACROECONOMIC:
            values = np.round(rng.uniforms(n_rows) * 2.0 * _MACRO_SPAN - _MACRO_SPAN, 2)
            centered = values / _MACRO_STD
            cells.append(_hundredths_block(values))
        else:
            codes = rng.integers(n_rows, _CODE_RANGE)
            centered = (codes - _CODE_MEAN) / _CODE_STD
            cells.append(_digits_block(codes))
        if planted_group is not None and group is planted_group:
            signal += centered
            n_planted += 1

    if planted_group is not None:
        z = signal / np.sqrt(n_planted)
        p_dropout = 1.0 / (1.0 + np.exp(-signal_strength * z))
    else:
        p_dropout = np.full(n_rows, 0.5)
    labels = parent.child().uniforms(n_rows) < p_dropout
    enrolled = parent.child().uniforms(n_rows) < ENROLLED_SHARE

    words = np.where(enrolled, "Enrolled", np.where(labels, "Dropout", "Graduate"))
    cells.append(words.astype("S8").view(np.uint8).reshape(n_rows, 8))
    header = ";".join(list(manifest.column_names) + ["Target"]) + "\n"

    text = header.encode("utf-8") + _join_rows(cells)
    for path in (csv_path, manifest_path):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(csv_path).write_bytes(text)
    shutil.copyfile(default_manifest_path("default-34"), manifest_path)


def _join_rows(cells: list[np.ndarray]) -> bytes:
    """The data rows, from each column's cells as a (rows, width) block of
    ASCII bytes with 0 where a cell is shorter than its block: cells
    joined by ``;``, each row ended by a newline, the 0 bytes dropped."""
    widths = [block.shape[1] for block in cells]
    body = np.full((len(cells[0]), sum(widths) + len(widths)), ord(";"), dtype=np.uint8)
    start = 0
    for block, width in zip(cells, widths):
        body[:, start:start + width] = block
        start += width + 1
    body[:, -1] = ord("\n")
    return body[body != 0].tobytes()


def _digits_block(values: np.ndarray) -> np.ndarray:
    """Decimal digits of non-negative integers, one row each, leading zeros as 0 bytes."""
    width = len(str(int(values.max())))
    block = np.empty((len(values), width), dtype=np.uint8)
    rest = values
    for j in range(width - 1, 0, -1):
        rest, digit = np.divmod(rest, 10)
        block[:, j] = digit + ord("0")
    block[:, 0] = rest + ord("0")
    for j in range(width - 1):
        block[values < 10 ** (width - 1 - j), j] = 0
    return block


def _hundredths_block(values: np.ndarray) -> np.ndarray:
    """``f"{v:.2f}"`` of values that are whole hundredths, ``-0.00`` included."""
    k = np.rint(np.abs(values) * 100).astype(np.int64)
    sign = np.where(np.signbit(values), ord("-"), 0).astype(np.uint8)
    cents = k % 100
    return np.column_stack([
        sign, _digits_block(k // 100), np.full(len(k), ord("."), dtype=np.uint8),
        (cents // 10 + ord("0")).astype(np.uint8), (cents % 10 + ord("0")).astype(np.uint8),
    ])

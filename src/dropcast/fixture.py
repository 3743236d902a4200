"""Synthetic records files for dataset-free testing.

The generated CSV carries the default 34-column schema plus Target.
Labels are driven by the columns of one chosen feature group through a
logistic link whose slope is ``signal_strength``; all other columns are
label-independent noise. Strength 0 (or no planted group) makes every
column noise, so downstream AUCs concentrate at 0.5. A fixed share of
rows is marked Enrolled to exercise the binary filter.

Output bytes are a pure function of the arguments.
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

    manifest = load_manifest(default_manifest_path("default-34"))
    # One child stream per column and per decision keeps the lanes
    # statistically independent; slicing a single stream at constant
    # offsets leaves measurable cross-lane correlation.
    parent = SeededRng(seed)

    columns: list[np.ndarray] = []
    signal = np.zeros(n_rows, dtype=np.float64)
    n_planted = 0
    for name, group in manifest.entries:
        rng = parent.child()
        if group is FeatureGroup.MACROECONOMIC:
            values = np.round(rng.uniforms(n_rows) * 2.0 * _MACRO_SPAN - _MACRO_SPAN, 2)
            centered = values / _MACRO_STD
        else:
            values = rng.integers(n_rows, _CODE_RANGE).astype(np.float64)
            centered = (values - _CODE_MEAN) / _CODE_STD
        if planted_group is not None and group is planted_group:
            signal += centered
            n_planted += 1
        columns.append(values)

    if n_planted > 0 and signal_strength > 0:
        z = signal / np.sqrt(n_planted)
        p_dropout = 1.0 / (1.0 + np.exp(-signal_strength * z))
    else:
        p_dropout = np.full(n_rows, 0.5)
    labels = parent.child().uniforms(n_rows) < p_dropout
    enrolled = parent.child().uniforms(n_rows) < ENROLLED_SHARE

    cells = []  # one list of cell texts per column
    for values, (_, group) in zip(columns, manifest.entries):
        if group is FeatureGroup.MACROECONOMIC:
            cells.append([f"{v:.2f}" for v in values.tolist()])
        else:
            cells.append(list(map(str, values.astype(np.int64).tolist())))
    cells.append(np.where(enrolled, "Enrolled", np.where(labels, "Dropout", "Graduate")).tolist())
    lines = [";".join(list(manifest.column_names) + ["Target"])]
    lines.extend(map(";".join, zip(*cells)))

    Path(csv_path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    shutil.copyfile(default_manifest_path("default-34"), manifest_path)

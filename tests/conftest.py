from __future__ import annotations

import csv
import os
from pathlib import Path

import numpy as np
import pytest

from dropcast.ingest import Dataset, FeatureGroup, default_manifest_path, load_dataset, load_manifest, to_binary

DATA_ENV = "DROPCAST_DATA"
REPO_ROOT = Path(__file__).resolve().parents[1]


def real_data_path() -> Path | None:
    """The public student records CSV, if the user supplied it."""
    candidate = os.environ.get(DATA_ENV)
    if candidate:
        path = Path(candidate)
        return path if path.exists() else None
    default = REPO_ROOT / "data" / "students.csv"
    return default if default.exists() else None


requires_dataset = pytest.mark.skipif(
    real_data_path() is None,
    reason=f"records file not present (set {DATA_ENV} or add data/students.csv)",
)


def sniff_manifest_path(csv_path: Path) -> Path:
    """Pick the shipped manifest matching the file's feature count."""
    with open(csv_path, encoding="utf-8-sig", newline="") as handle:
        header = next(csv.reader(handle, delimiter=";"))
    n_features = len([h for h in header if h.strip() != "Target"])
    return default_manifest_path("variant-36" if n_features >= 36 else "default-34")


@pytest.fixture(scope="session")
def real_dataset():
    path = real_data_path()
    if path is None:
        pytest.skip("records file not present")
    manifest = load_manifest(sniff_manifest_path(path))
    return load_dataset(path, manifest, delimiter=";")


@pytest.fixture(scope="session")
def real_binary(real_dataset):
    return to_binary(real_dataset)


def make_binary(
    x,
    y,
    groups: tuple[FeatureGroup, ...] | None = None,
    names: tuple[str, ...] | None = None,
) -> Dataset:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    p = x.shape[1]
    if names is None:
        names = tuple(f"f{i}" for i in range(p))
    if groups is None:
        groups = tuple([FeatureGroup.ACADEMIC] * p)
    return Dataset(
        feature_matrix=x, column_names=names, column_groups=groups, labels=y
    )


def write_rows(path: Path, header: list[str], rows: list[list[str]], delimiter: str = ";") -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

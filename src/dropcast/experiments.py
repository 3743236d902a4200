"""Baseline runs and the four-way feature-group exclusion study.

A run evaluates (model, seed) pairs: seeded 80/20 split, train-fitted
standardization for the margin/distance models, training, scoring of
held-out rows, ROC/AUC. The ablation repeats the baseline with each
feature group excluded in turn, reusing the exact same split per seed
across all five columns so the feature subset is the only varying
factor.

Reported grids are means over seeds. Two standard deviations appear in
reports, both sample-style (n-1): across the models within a column,
and across seeds within a cell; they answer different questions and are
labeled accordingly. Either is zero when there is a single sample.
"""

from __future__ import annotations

import functools
import os
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .errors import InvalidArgumentError
from .ingest import LABELS, Dataset, FeatureGroup, Outcome, load_binary_dataset, load_manifest
from .metrics import RocReport, accuracy, auc, roc_curve
from .models import (
    GRID_MODEL_ORDER,
    HyperParams,
    ModelKind,
    TrainedModel,
    score,
    train_model,
)
from .preprocess import SplitIndices, exclude_group, split
from .rng import check_seeds

# Unused here; bound only because the trace in perfbench/spans.py patches these names.
from .ingest import load_dataset, to_binary  # noqa: F401
from .preprocess import fit_standardizer  # noqa: F401

DEFAULT_SEEDS = (42, 43, 44, 45, 46)

ABLATION_COLUMNS: tuple[FeatureGroup | None, ...] = (
    None,
    FeatureGroup.ACADEMIC,
    FeatureGroup.DEMOGRAPHIC,
    FeatureGroup.MACROECONOMIC,
    FeatureGroup.SOCIOECONOMIC,
)


def column_label(group: FeatureGroup | None) -> str:
    return "baseline" if group is None else f"excl_{group.value}"


@dataclass(frozen=True)
class RunConfig:
    data_path: str | Path
    manifest_path: str | Path
    delimiter: str = ";"
    excluded_group: FeatureGroup | None = None
    models: tuple[ModelKind, ...] = GRID_MODEL_ORDER
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    test_fraction: float = 0.2
    hyperparams: HyperParams = field(default_factory=HyperParams)

    def __post_init__(self):
        check_seeds(self.seeds)
        if not 0.0 < self.test_fraction < 1.0:
            raise InvalidArgumentError(
                f"test_fraction must be in (0, 1), got {self.test_fraction}"
            )
        if not self.models:
            raise InvalidArgumentError("models list must be nonempty")


@dataclass(frozen=True)
class AblationReport:
    """Mean-AUC grid: one row per model, one column per feature subset."""

    model_labels: tuple[str, ...]
    column_labels: tuple[str, ...]
    mean_auc: np.ndarray  # models x columns, mean over seeds
    seed_std: np.ndarray  # models x columns, sample std across seeds
    column_mean: np.ndarray  # mean of the model cells per column
    column_std: np.ndarray  # sample std of the model cells per column
    manifest_version: str
    seeds: tuple[int, ...]
    runs: tuple[RocReport, ...]  # one per (column, model, seed), columns outermost


def evaluate_single(
    binary: Dataset,
    indices: SplitIndices,
    kind: ModelKind,
    hp: HyperParams,
    excluded_group: FeatureGroup | None = None,
) -> tuple[TrainedModel, RocReport]:
    """Train one model on the train rows and score the held-out rows."""
    model = train_model(kind, binary, hp, rows=indices.train_rows)
    test_scores = score(model, binary.feature_matrix[indices.test_rows])
    test_labels = binary.labels[indices.test_rows]
    curve = roc_curve(test_scores, test_labels)
    report = RocReport(
        model_kind=kind,
        excluded_group=excluded_group,
        seed=indices.seed,
        auc=auc(test_scores, test_labels),
        accuracy=accuracy(test_scores, test_labels, kind.accuracy_threshold),
        curve=curve,
        svm_objective=model.payload.objective if kind is ModelKind.LINEAR_SVM else None,
    )
    return model, report


def load_binary(config: RunConfig) -> tuple[Dataset, str]:
    """The Dropout/Graduate table and the manifest's version tag."""
    manifest = load_manifest(config.manifest_path)
    binary, _ = load_binary_dataset(config.data_path, manifest, delimiter=config.delimiter)
    return binary, manifest.version_tag


def evaluate_cells(
    binary: Dataset,
    columns: Iterable[FeatureGroup | None],
    config: RunConfig,
    workers: int = 1,
    keep: Callable[[TrainedModel], Any] = lambda model: model,
) -> Iterator[tuple[Any, RocReport]]:
    """Yield (keep(model), report) per (column, model, seed), columns outermost.

    A column is the group to exclude, or None for all features. Every
    column reuses the same split per seed, so the feature subset is the
    only factor that varies. ``keep`` maps each trained model to what
    the caller keeps of it (by default the model itself). A seed whose
    test split lacks an outcome that the table holds is rejected before
    the first fit, since its AUC is undefined; a table short of an
    outcome is left to the fit's or the metric's own check.

    With ``workers`` above 1 (capped at the number of cells) the cells
    are computed in that many forked processes, handed out and yielded
    in cell order (``workers.forked_map``); only the report and what
    ``keep`` returns come back, and no byte depends on the count. Where
    ``os.fork`` does not exist, the cells run in this process.
    """
    splits = [split(binary.n_rows, config.test_fraction, seed) for seed in config.seeds]
    present = np.bincount(binary.labels, minlength=2) > 0
    for indices in splits:
        missing = present & (np.bincount(binary.labels[indices.test_rows], minlength=2) == 0)
        for outcome in (Outcome.DROPOUT, Outcome.GRADUATE):
            if missing[LABELS[outcome]]:
                raise InvalidArgumentError(
                    f"seed {indices.seed}: its test split of {indices.test_rows.size} "
                    f"of {binary.n_rows} rows holds no {outcome.value} row; "
                    f"ROC-AUC needs both outcomes"
                )
    cells = [(group, kind, indices)
             for group in columns for kind in config.models for indices in splits]

    @functools.lru_cache(maxsize=1)  # cells come column by column
    def column(group: FeatureGroup | None) -> Dataset:
        return binary if group is None else exclude_group(binary, group)

    def compute(i: int) -> tuple[Any, RocReport]:
        group, kind, indices = cells[i]
        model, report = evaluate_single(
            column(group), indices, kind, config.hyperparams, excluded_group=group
        )
        return keep(model), report

    workers = min(workers, len(cells))
    if workers > 1 and hasattr(os, "fork"):
        from .workers import forked_map

        yield from forked_map(compute, len(cells), workers)
    else:
        yield from map(compute, range(len(cells)))


def run_baseline(config: RunConfig) -> list[RocReport]:
    """One report per (model, seed); honors config.excluded_group."""
    binary, _ = load_binary(config)
    return [report for _, report in evaluate_cells(binary, (config.excluded_group,), config)]


def _sample_std(values: np.ndarray, axis: int) -> np.ndarray:
    """Sample std along ``axis``; zeros when there is a single sample."""
    if values.shape[axis] > 1:
        return values.std(axis=axis, ddof=1)
    return np.zeros_like(values.take(0, axis=axis))


def run_ablation(config: RunConfig, workers: int = 1) -> AblationReport:
    """Baseline plus the four exclusions under identical per-seed splits."""
    if config.excluded_group is not None:
        raise InvalidArgumentError(
            "the ablation excludes every group in turn; excluded_group must be unset"
        )
    binary, manifest_version = load_binary(config)
    cells = evaluate_cells(binary, ABLATION_COLUMNS, config, workers, keep=lambda model: None)
    runs = tuple(report for _, report in cells)
    # columns x models x seeds, in the generator's order; then models first.
    grid = np.array([r.auc for r in runs]).reshape(
        len(ABLATION_COLUMNS), len(config.models), len(config.seeds)
    ).transpose(1, 0, 2)

    mean_auc = grid.mean(axis=2)
    report = AblationReport(
        model_labels=tuple(kind.label for kind in config.models),
        column_labels=tuple(column_label(group) for group in ABLATION_COLUMNS),
        mean_auc=mean_auc,
        seed_std=_sample_std(grid, axis=2),
        column_mean=mean_auc.mean(axis=0),
        column_std=_sample_std(mean_auc, axis=0),
        manifest_version=manifest_version,
        seeds=config.seeds,
        runs=runs,
    )
    for arr in (report.mean_auc, report.seed_std, report.column_mean, report.column_std):
        arr.setflags(write=False)
    return report


def rank_group_influence(report: AblationReport) -> list[tuple[FeatureGroup, float]]:
    """AUC drop per excluded group, largest first; ties alphabetical.

    Drop = baseline column mean minus the excluded column mean; negative
    drops (exclusion helped) are reported as-is.
    """
    baseline = float(report.column_mean[report.column_labels.index("baseline")])
    drops = []
    for group in FeatureGroup:
        label = column_label(group)
        drop = baseline - float(report.column_mean[report.column_labels.index(label)])
        drops.append((group, drop))
    drops.sort(key=lambda item: (-item[1], item[0].value))
    return drops

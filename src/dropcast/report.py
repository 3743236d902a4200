"""Report documents: versioned JSON, Table-2-shaped CSV, ROC point CSVs.

Every JSON report carries full provenance (command, seeds, manifest
version, hyperparameters, tool version) so each number is traceable,
and no wall-clock fields, so identical runs produce identical bytes.
Floats are serialized with ``repr``, the shortest round-tripping
decimal form, which makes the CSV grid parse back to the exact values.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .eda import CorrelationMatrix
from .experiments import AblationReport, RunConfig, rank_group_influence
from .ingest import Outcome
from .metrics import RocCurve, RocReport

SCHEMA_VERSION = "dropcast-report-2"
SCHEMA_PATH = Path(__file__).parent / "schemas" / "report.schema.json"


def _curve_json(curve: RocCurve) -> dict:
    thresholds = [None if np.isinf(t) else float(t) for t in curve.thresholds]
    return {
        "fpr": [float(v) for v in curve.fpr],
        "tpr": [float(v) for v in curve.tpr],
        "thresholds": thresholds,
    }


def _run_json(report: RocReport, include_curve: bool) -> dict:
    doc = {
        "model": report.model_kind.label,
        "excluded_group": None if report.excluded_group is None else report.excluded_group.value,
        "seed": report.seed,
        "auc": float(report.auc),
        "accuracy": float(report.accuracy),
        "standardized": report.model_kind.needs_standardization,
    }
    if report.svm_objective is not None:
        doc["svm_objective"] = float(report.svm_objective)
    if include_curve:
        doc["curve"] = _curve_json(report.curve)
    return doc


def _provenance(command: str, config: RunConfig, manifest_version: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "dropcast", "version": __version__},
        "command": command,
        "manifest_version": manifest_version,
        "seeds": list(config.seeds),
        "test_fraction": float(config.test_fraction),
        "hyperparams": asdict(config.hyperparams),
    }


def build_run_document(
    command: str,
    config: RunConfig,
    manifest_version: str,
    reports: list[RocReport],
) -> dict:
    doc = _provenance(command, config, manifest_version)
    doc["runs"] = [_run_json(r, include_curve=True) for r in reports]
    return doc


def build_ablation_document(config: RunConfig, report: AblationReport) -> dict:
    doc = _provenance("ablate", config, report.manifest_version)
    ranking = rank_group_influence(report)
    doc["runs"] = [_run_json(r, include_curve=False) for r in report.runs]
    doc["ablation"] = {
        "models": list(report.model_labels),
        "columns": list(report.column_labels),
        "mean_auc": [[float(v) for v in row] for row in report.mean_auc],
        "seed_std": [[float(v) for v in row] for row in report.seed_std],
        "column_mean": [float(v) for v in report.column_mean],
        "column_std_across_models": [float(v) for v in report.column_std],
        "influence_ranking": [
            {"group": group.value, "auc_drop": float(drop)} for group, drop in ranking
        ],
    }
    return doc


def write_json(doc: dict, path: str | Path) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_bytes((text + "\n").encode("utf-8"))


def _write_csv(path: str | Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_ablation_csv(report: AblationReport, path: str | Path) -> None:
    """Grid shaped like the published table plus a baseline column:
    one row per model, then Average and STDV rows (sample std across
    the four models)."""
    rows = [[label, *(repr(float(v)) for v in report.mean_auc[row])]
            for row, label in enumerate(report.model_labels)]
    rows.append(["Average", *(repr(float(v)) for v in report.column_mean)])
    rows.append(["STDV", *(repr(float(v)) for v in report.column_std)])
    _write_csv(path, ["model", *report.column_labels], rows)


def write_roc_csv(curve: RocCurve, path: str | Path) -> None:
    _write_csv(path, ["threshold", "fpr", "tpr"], (
        [repr(float(threshold)), repr(float(fpr)), repr(float(tpr))]
        for threshold, fpr, tpr in zip(curve.thresholds, curve.fpr, curve.tpr)
    ))


def roc_csv_name(model_label: str, seed: int) -> str:
    return f"roc_{model_label.lower()}_seed{seed}.csv"


def write_class_distribution_csv(counts: dict[Outcome, int], path: str | Path) -> None:
    _write_csv(path, ["outcome", "count"],
               ([outcome.value, counts[outcome]] for outcome in Outcome))


def write_category_rates_csv(
    rows: tuple[tuple[float, int, float, float], ...], path: str | Path
) -> None:
    _write_csv(path, ["category_code", "n", "dropout_rate", "graduate_rate"], (
        [repr(code), n, repr(dropout_rate), repr(graduate_rate)]
        for code, n, dropout_rate, graduate_rate in rows
    ))


def write_gender_csv(counts: dict[tuple[float, int], int], path: str | Path) -> None:
    _write_csv(path, ["gender_code", "label", "count"], (
        [repr(code), label, count] for (code, label), count in sorted(counts.items())
    ))


def write_correlation_csv(matrix: CorrelationMatrix, path: str | Path) -> None:
    _write_csv(path, ["feature", *matrix.column_names], (
        [name, *(repr(float(v)) for v in matrix.values[i])]
        for i, name in enumerate(matrix.column_names)
    ))


def write_importance_csv(entries, path: str | Path) -> None:
    _write_csv(path, ["feature", "importance"],
               ([name, repr(float(importance))] for name, importance in entries))

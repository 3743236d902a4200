"""The benchmark's workloads: fixture size, CLI commands, content checks.

Every workload runs on ``dropcast fixture`` output with the ``academic``
group planted at strength 3.0; the fixture seed is the benchmark's
``--seed``. One operation is the workload's command list, run in order.
Each command writes into its own output directory and is checked there
by its content check, which raises ``CheckFailed`` and otherwise returns
the AUC values the operation reports.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

PLANTED_GROUP = "academic"
PLANTED_STRENGTH = "3.0"
AUC_TOLERANCE = 1e-9


class CheckFailed(Exception):
    """An output that breaks a correctness rule; the message says which."""


@dataclass(frozen=True)
class Fixture:
    data: Path
    manifest: Path
    rows: int

    def groups(self) -> dict[str, str]:
        """Column name to feature group, from the fixture's manifest."""
        out = {}
        for line in self.manifest.read_text(encoding="utf-8").splitlines():
            if line.strip() and not line.lstrip().startswith("#"):
                name, group = line.split("\t")
                out[name.strip()] = group.strip()
        return out


@dataclass(frozen=True)
class Command:
    label: str  # output subdirectory and digest key
    args: tuple[str, ...]  # subcommand and its flags, without --data/--manifest/--out
    check: Callable[[Path, Fixture], list[float]]

    def argv(self, fixture: Fixture, out: Path) -> list[str]:
        return [*self.args, "--data", str(fixture.data),
                "--manifest", str(fixture.manifest), "--out", str(out)]


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    commands: tuple[Command, ...]


def _report(out: Path) -> dict:
    path = out / "report.json"
    if not path.is_file():
        raise CheckFailed(f"{out.name}: no report.json")
    return json.loads(path.read_text(encoding="utf-8"))


def check_ablate(out: Path, fixture: Fixture) -> list[float]:
    report = _report(out)
    top = report["ablation"]["influence_ranking"][0]["group"]
    if top != PLANTED_GROUP:
        raise CheckFailed(f"ablate: influence ranking is headed by {top!r}, not {PLANTED_GROUP!r}")
    return [run["auc"] for run in report["runs"]]


def check_importance(out: Path, fixture: Fixture) -> list[float]:
    """The planted group holds the largest summed importance; no AUC cells."""
    groups = fixture.groups()
    entries = _report(out)["importance"]
    sums: dict[str, float] = {}
    for entry in entries:
        group = groups[entry["feature"]]
        sums[group] = sums.get(group, 0.0) + entry["importance"]
    top = max(sums, key=lambda g: (sums[g], g))
    if top != PLANTED_GROUP:
        raise CheckFailed(f"importance: group {top!r} outweighs {PLANTED_GROUP!r}")
    return []


def trapezoid(fpr: list[float], tpr: list[float]) -> float:
    return sum((fpr[i + 1] - fpr[i]) * (tpr[i + 1] + tpr[i]) / 2.0 for i in range(len(fpr) - 1))


def check_train(out: Path, fixture: Fixture) -> list[float]:
    """Every reported AUC equals the trapezoid area of its ROC CSV."""
    runs = _report(out)["runs"]
    if not runs:
        raise CheckFailed("train: report has no runs")
    for run in runs:
        path = out / f"roc_{run['model'].lower()}_seed{run['seed']}.csv"
        if not path.is_file():
            raise CheckFailed(f"train: missing {path.name}")
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        area = trapezoid([float(r["fpr"]) for r in rows], [float(r["tpr"]) for r in rows])
        if abs(area - run["auc"]) > AUC_TOLERANCE:
            raise CheckFailed(f"train: {path.name} area {area!r} != reported AUC {run['auc']!r}")
    return [run["auc"] for run in runs]


def check_eda(out: Path, fixture: Fixture) -> list[float]:
    """The class distribution accounts for every fixture row."""
    with open(out / "eda_class_distribution.csv", encoding="utf-8", newline="") as handle:
        total = sum(int(row["count"]) for row in csv.DictReader(handle))
    if total != fixture.rows:
        raise CheckFailed(f"eda: class counts sum to {total}, fixture has {fixture.rows} rows")
    return []


# Rows are sized so one operation takes a few seconds on a 2-core
# machine: the ROADMAP's 4424-row ablate takes about 55 s per seed,
# longer than a whole benchmark run may last. The importance command
# shares the ablate fixture and operation, so the forest's thread pool is
# measured without a workload of its own, and the three workloads each
# get a window long enough to average out the processor-speed drift of a
# shared machine within the time all runs together may take.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ablate-importance", 450, (
            Command("ablate", ("ablate", "--seeds", "42", "--threads", "1"), check_ablate),
            Command("importance", ("importance", "--seeds", "42", "--threads", "2"),
                    check_importance),
        )),
        Workload("margin", 4424, (
            Command("knn", ("train", "--model", "knn", "--seeds", "42,43"), check_train),
            Command("svc", ("train", "--model", "svc", "--seeds", "42,43"), check_train),
        )),
        Workload("ingest-large", 88480, (
            Command("eda", ("eda",), check_eda),
            Command("dt", ("train", "--model", "dt", "--seeds", "42"), check_train),
        )),
    )
}

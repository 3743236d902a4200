import json
import re

import jsonschema
import numpy as np
import pytest

from dropcast.errors import InvalidArgumentError
from dropcast.experiments import RunConfig, run_ablation, run_baseline
from dropcast.fixture import generate_fixture
from dropcast.ingest import FeatureGroup
from dropcast.models import HyperParams, ModelKind
from dropcast.report import (
    SCHEMA_PATH,
    build_ablation_document,
    build_run_document,
    roc_csv_name,
    write_ablation_csv,
    write_json,
    write_roc_csv,
)
from dropcast.svg import render_roc_svg

from oracles import read_ablation_csv


@pytest.fixture(scope="module")
def fixture_paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("report_fixture")
    generate_fixture(d / "f.csv", d / "m.tsv", n_rows=150, seed=9,
                     planted_group=FeatureGroup.ACADEMIC, signal_strength=3.0)
    return d / "f.csv", d / "m.tsv"


@pytest.fixture(scope="module")
def schema():
    return json.loads(SCHEMA_PATH.read_text())


@pytest.fixture(scope="module")
def run_config(fixture_paths):
    data, manifest = fixture_paths
    return RunConfig(
        data_path=data, manifest_path=manifest, seeds=(42, 43),
        hyperparams=HyperParams(forest_n_trees=10, svm_epochs=20),
    )


@pytest.fixture(scope="module")
def baseline_reports(run_config):
    return run_baseline(run_config)


@pytest.fixture(scope="module")
def ablation_report(run_config):
    return run_ablation(run_config)


def test_run_document_validates_against_schema(run_config, baseline_reports, schema):
    doc = build_run_document("train", run_config, "default-34", baseline_reports)
    jsonschema.validate(doc, schema)


def test_ablation_document_validates_against_schema(run_config, ablation_report, schema):
    doc = build_ablation_document(run_config, ablation_report)
    jsonschema.validate(doc, schema)


def test_written_json_is_loadable_and_sorted(tmp_path, run_config, baseline_reports):
    doc = build_run_document("train", run_config, "default-34", baseline_reports)
    path = tmp_path / "report.json"
    write_json(doc, path)
    loaded = json.loads(path.read_text())
    assert loaded["schema_version"] == "dropcast-report-2"
    assert loaded["tool"]["name"] == "dropcast"
    assert len(loaded["runs"]) == len(baseline_reports)


def test_ablation_csv_round_trip_exact(tmp_path, ablation_report):
    path = tmp_path / "ablation.csv"
    write_ablation_csv(ablation_report, path)
    labels, columns, grid = read_ablation_csv(path)
    assert labels == list(ablation_report.model_labels)
    assert columns == list(ablation_report.column_labels)
    assert np.array_equal(grid, ablation_report.mean_auc)


def test_ablation_csv_has_average_and_stdv_rows(tmp_path, ablation_report):
    path = tmp_path / "ablation.csv"
    write_ablation_csv(ablation_report, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 4 + 2
    assert lines[-2].startswith("Average,")
    assert lines[-1].startswith("STDV,")
    average_cells = [float(v) for v in lines[-2].split(",")[1:]]
    assert average_cells == [float(v) for v in ablation_report.column_mean]


def test_roc_csv_round_trip(tmp_path, baseline_reports):
    report = baseline_reports[0]
    path = tmp_path / roc_csv_name(report.model_kind.label, report.seed)
    write_roc_csv(report.curve, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "threshold,fpr,tpr"
    assert len(lines) == 1 + len(report.curve.fpr)
    first = lines[1].split(",")
    assert float(first[0]) == float("inf")
    assert float(first[1]) == 0.0 and float(first[2]) == 0.0
    parsed = [tuple(float(v) for v in line.split(",")) for line in lines[2:]]
    for (threshold, fpr, tpr), i in zip(parsed, range(1, len(report.curve.fpr))):
        assert threshold == report.curve.thresholds[i]
        assert fpr == report.curve.fpr[i]
        assert tpr == report.curve.tpr[i]


def test_svg_deterministic_and_well_formed(baseline_reports):
    first = render_roc_svg(baseline_reports)
    second = render_roc_svg(baseline_reports)
    assert first == second
    text = first.decode("utf-8")
    assert text.startswith("<svg ")
    assert text.count("<polyline") == len(baseline_reports)
    assert "stroke-dasharray" in text  # the diagonal reference line
    for report in baseline_reports:
        assert f"AUC={report.auc:.3f}" in text


def test_svg_two_point_curve(run_config, fixture_paths):
    from dropcast.metrics import RocCurve, RocReport

    curve = RocCurve(
        fpr=np.array([0.0, 1.0]), tpr=np.array([0.0, 1.0]),
        thresholds=np.array([np.inf, 0.5]),
    )
    report = RocReport(
        model_kind=ModelKind.DECISION_TREE, excluded_group=None, seed=42,
        auc=0.5, accuracy=0.5, curve=curve,
    )
    svg = render_roc_svg([report]).decode("utf-8")
    assert svg.count("<polyline") == 1
    assert "AUC=0.500" in svg


def _axis_text_boxes(svg):
    """(left, top, right, bottom) of each text but the legend's, at 0.6 em
    a character and from one em above the baseline to a quarter below."""
    boxes = []
    for attrs, text in re.findall(r"<text ([^>]*)>([^<]*)</text>", svg):
        if "AUC=" in text:
            continue
        a = dict(re.findall(r'([\w-]+)="([^"]*)"', attrs))
        x, y, size = float(a["x"]), float(a["y"]), float(a["font-size"])
        width = 0.6 * size * len(text)
        left = {"middle": x - width / 2, "end": x - width}[a["text-anchor"]]
        if "rotate(-90" in a.get("transform", ""):  # turned about (x, y)
            boxes.append((x - size, y - (left + width - x), x + size / 4, y - (left - x)))
        else:
            boxes.append((left, y - size, left + width, y + size / 4))
    return boxes


@pytest.mark.parametrize("n_reports", [1, 17, 18, 19, 20, 21, 24, 40])
def test_svg_legend_lies_inside_the_view_box(n_reports):
    from dropcast.metrics import RocCurve, RocReport

    curve = RocCurve(fpr=np.array([0.0, 0.25, 1.0]), tpr=np.array([0.0, 0.75, 1.0]),
                     thresholds=np.array([np.inf, 0.5, 0.0]))
    reports = [RocReport(model_kind=ModelKind.RANDOM_FOREST, excluded_group=None, seed=seed,
                         auc=0.75, accuracy=0.5, curve=curve) for seed in range(n_reports)]
    svg = render_roc_svg(reports).decode("utf-8")
    width, height = map(int, re.search(r'viewBox="0 0 (\d+) (\d+)"', svg).groups())
    assert svg.startswith(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                          f'height="{height}" ')
    assert f'<rect width="{width}" height="{height}" fill="white"/>' in svg
    assert height == 560 if n_reports <= 17 else height > 560
    box = re.search(r'<rect x="(\d+)" y="(\d+)" width="(\d+)" height="(\d+)" fill="white" '
                    r'stroke="#cccccc"/>', svg)
    x, y, w, h = map(int, box.groups())
    assert 0 <= x and x + w <= width and 0 <= y and y + h <= height
    labels = re.findall(r'<text x="(\d+)" y="(\d+)" font-size="13" font-family="sans-serif">'
                        r'[^<]*AUC=', svg)
    keys = re.findall(r'<line x1="(\d+)" y1="(\d+)" x2="(\d+)" y2="\d+" stroke="#', svg)
    assert len(labels) == n_reports and len(keys) == n_reports
    for _, top in labels:  # a 13-px label lies inside the box
        assert y + 13 <= int(top) <= y + h
    for left, top, right in keys:
        assert x <= int(left) < int(right) <= x + w and y <= int(top) <= y + h
    texts = _axis_text_boxes(svg)
    assert len(texts) == 2 * 6 + 2  # the tick labels and the axis titles
    for left, top, right, bottom in texts:  # the box covers none of them
        assert right <= x or x + w <= left or bottom <= y or y + h <= top


def test_svm_objective_recorded_in_runs(run_config, baseline_reports):
    doc = build_run_document("train", run_config, "default-34", baseline_reports)
    svc_runs = [r for r in doc["runs"] if r["model"] == "SVC"]
    assert svc_runs and all("svm_objective" in r for r in svc_runs)
    dt_runs = [r for r in doc["runs"] if r["model"] == "DT"]
    assert dt_runs and all("svm_objective" not in r for r in dt_runs)


def test_standardization_documented_per_model(run_config, baseline_reports):
    doc = build_run_document("train", run_config, "default-34", baseline_reports)
    flags = {r["model"]: r["standardized"] for r in doc["runs"]}
    assert flags == {"SVC": True, "KNN": True, "DT": False, "RF": False}


def test_an_empty_roc_plot_is_refused():
    with pytest.raises(InvalidArgumentError, match=r"^need at least one report to plot$"):
        render_roc_svg([])

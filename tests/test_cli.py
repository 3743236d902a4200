import csv
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import dropcast
from dropcast.cli import _config_from_args, build_parser, main
from dropcast.experiments import evaluate_cells, load_binary
from dropcast.fixture import generate_fixture
from dropcast.ingest import FeatureGroup, load_dataset, load_manifest
from dropcast.metrics import forest_importance
from dropcast.models import HyperParams
from dropcast.models.forest import candidate_count
from dropcast.report import SCHEMA_PATH

from oracles import model_from_text, node_subset


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_fixture")
    generate_fixture(d / "data.csv", d / "manifest.tsv", n_rows=160, seed=21,
                     planted_group=FeatureGroup.ACADEMIC, signal_strength=3.0)
    return d


def _fast_flags(seeds="42", trees="8"):
    return [
        "--seeds", seeds, "--forest-trees", trees, "--svm-epochs", "15",
        "--knn-k", "5",
    ]


def test_missing_data_flag_is_usage_error(capsys):
    code = main(["train", "--model", "rf"])
    assert code == 2
    assert "--data" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    code = main(["train", "--data", "x.csv", "--bogus"])
    assert code == 2


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_missing_file_is_runtime_error(tmp_path, capsys):
    code = main(["eda", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("dropcast: error:")
    assert err.count("\n") == 1



def test_header_only_records_file_is_one_stderr_line(fixture_dir, tmp_path):
    # A child process, so that any warning reaches its stderr uncaptured.
    header = (fixture_dir / "data.csv").read_text().splitlines()[0]
    data = tmp_path / "header.csv"
    data.write_text(header + "\n")
    env = {**os.environ, "PYTHONPATH": str(Path(dropcast.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "dropcast.cli", "eda", "--data", str(data),
         "--manifest", str(fixture_dir / "manifest.tsv"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, check=False,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("dropcast: error:")
    assert result.stderr.count("\n") == 1


def test_non_finite_cell_is_one_line_runtime_error(fixture_dir, tmp_path, capsys):
    lines = (fixture_dir / "data.csv").read_text().splitlines()
    cells = lines[3].split(";")
    cells[0] = "nan"
    lines[3] = ";".join(cells)
    data = tmp_path / "nan.csv"
    data.write_text("\n".join(lines) + "\n")
    code = main(["train", "--data", str(data), "--manifest", str(fixture_dir / "manifest.tsv"),
                 "--model", "rf", "--out", str(tmp_path / "out"), *_fast_flags()])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("dropcast: error: cannot parse cell at data row 3")
    assert err.count("\n") == 1

def test_manifest_listing_target_as_a_feature_is_one_line_error(fixture_dir, tmp_path, capsys):
    lines = (fixture_dir / "manifest.tsv").read_text().splitlines()
    manifest = tmp_path / "target.tsv"
    manifest.write_text("".join(f"{line}\n" for line in [*lines, "Target\tacademic"]))
    code = main(["train", "--data", str(fixture_dir / "data.csv"), "--manifest", str(manifest),
                 "--model", "dt", "--out", str(tmp_path / "out"), *_fast_flags()])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"dropcast: error: {manifest}:{len(lines) + 1}: 'Target' is the label, not a feature\n"


def test_test_fraction_leaving_empty_test_set_is_one_line_error(fixture_dir, tmp_path, capsys):
    code = main(["train", "--data", str(fixture_dir / "data.csv"),
                 "--manifest", str(fixture_dir / "manifest.tsv"), "--model", "knn",
                 "--test-fraction", "0.0001", "--out", str(tmp_path / "out"), *_fast_flags()])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("dropcast: error: test_fraction 0.0001 of ")
    assert "rows leaves an empty test set" in err
    assert err.count("\n") == 1


def test_train_writes_roc_csv_and_report(fixture_dir, tmp_path):
    out = tmp_path / "out"
    code = main([
        "train", "--data", str(fixture_dir / "data.csv"),
        "--manifest", str(fixture_dir / "manifest.tsv"),
        "--model", "rf", "--out", str(out), *_fast_flags(),
    ])
    assert code == 0
    assert (out / "roc_rf_seed42.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["command"] == "train"
    assert [r["model"] for r in report["runs"]] == ["RF"]


def test_train_default_manifest_applies(fixture_dir, tmp_path):
    # fixture uses the default 34-column schema, so --manifest may be omitted
    out = tmp_path / "out"
    code = main([
        "train", "--data", str(fixture_dir / "data.csv"),
        "--model", "dt", "--out", str(out), *_fast_flags(),
    ])
    assert code == 0
    assert (out / "roc_dt_seed42.csv").exists()


def test_train_save_models(fixture_dir, tmp_path):
    out = tmp_path / "out"
    code = main([
        "train", "--data", str(fixture_dir / "data.csv"),
        "--model", "svc", "--out", str(out), "--save-models", *_fast_flags(),
    ])
    assert code == 0
    assert (out / "model_svc_seed42.txt").exists()


def test_ablate_writes_expected_files(fixture_dir, tmp_path):
    out = tmp_path / "out"
    code = main([
        "ablate", "--data", str(fixture_dir / "data.csv"),
        "--manifest", str(fixture_dir / "manifest.tsv"),
        "--out", str(out), *_fast_flags("42,43"),
    ])
    assert code == 0
    for name in ("report.json", "ablation.json", "ablation.csv", "roc.svg"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert report["command"] == "ablate"
    assert report["ablation"]["columns"][0] == "baseline"
    assert len(report["runs"]) == 4 * 5 * 2


def test_ablate_deterministic_bytes(fixture_dir, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main([
            "ablate", "--data", str(fixture_dir / "data.csv"),
            "--manifest", str(fixture_dir / "manifest.tsv"),
            "--out", str(out), *_fast_flags(),
        ])
        assert code == 0
        outs.append(out)
    a, b = outs
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "roc.svg").read_bytes() == (b / "roc.svg").read_bytes()
    assert (a / "ablation.csv").read_bytes() == (b / "ablation.csv").read_bytes()


def test_ablate_svg_bytes_are_pinned(fixture_dir, tmp_path):
    # The baseline column's four curves of one seed, on the 720x560 canvas.
    out = tmp_path / "out"
    assert main(["ablate", *_data_flags(fixture_dir), "--out", str(out), *_fast_flags()]) == 0
    svg = (out / "roc.svg").read_bytes()
    assert svg.count(b"<polyline") == 4
    assert hashlib.sha256(svg).hexdigest() == (
        "646acdf150ff373eb3a3674b97d99b271301fd369c92538faa81e52ddcc3d2e9")


def test_threads_flag_does_not_change_output(fixture_dir, tmp_path):
    outs = []
    for name, threads in (("t1", "1"), ("t4", "4")):
        out = tmp_path / name
        code = main([
            "train", "--data", str(fixture_dir / "data.csv"),
            "--manifest", str(fixture_dir / "manifest.tsv"),
            "--model", "rf", "--threads", threads, "--out", str(out),
            *_fast_flags(trees="60"),  # three lockstep groups
        ])
        assert code == 0
        outs.append(out)
    a, b = outs
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_roc_command_emits_svg(fixture_dir, tmp_path):
    out = tmp_path / "out"
    code = main([
        "roc", "--data", str(fixture_dir / "data.csv"),
        "--manifest", str(fixture_dir / "manifest.tsv"),
        "--out", str(out), *_fast_flags(),
    ])
    assert code == 0
    svg = (out / "roc.svg").read_text()
    assert svg.count("<polyline") == 4  # one curve per model


def test_eda_outputs(fixture_dir, tmp_path):
    out = tmp_path / "out"
    code = main([
        "eda", "--data", str(fixture_dir / "data.csv"),
        "--manifest", str(fixture_dir / "manifest.tsv"), "--out", str(out),
    ])
    assert code == 0
    assert (out / "eda_class_distribution.csv").exists()
    assert (out / "eda_gender_distribution.csv").exists()
    assert (out / "eda_correlation.csv").exists()
    assert (out / "eda_rates_debtor.csv").exists()
    header = (out / "eda_rates_debtor.csv").read_text().splitlines()[0]
    assert header == "category_code,n,dropout_rate,graduate_rate"


def test_eda_without_gender_column_skips_the_gender_table(fixture_dir, tmp_path):
    lines = (fixture_dir / "manifest.tsv").read_text().splitlines()
    manifest = tmp_path / "no_gender.tsv"
    manifest.write_text("\n".join(line for line in lines if not line.startswith("Gender\t")))
    out = tmp_path / "out"
    code = main(["eda", "--data", str(fixture_dir / "data.csv"),
                 "--manifest", str(manifest), "--out", str(out)])
    assert code == 0
    assert not (out / "eda_gender_distribution.csv").exists()
    for name in ("eda_class_distribution.csv", "eda_correlation.csv", "eda_rates_debtor.csv"):
        assert (out / name).exists()


def test_eda_without_dropout_or_graduate_rows_writes_no_file(fixture_dir, tmp_path, capsys):
    lines = (fixture_dir / "data.csv").read_text().splitlines()
    data = tmp_path / "enrolled.csv"
    data.write_text("\n".join([lines[0]] + [line.rsplit(";", 1)[0] + ";Enrolled"
                                            for line in lines[1:]]) + "\n")
    out = tmp_path / "out"
    code = main(["eda", "--data", str(data), "--manifest", str(fixture_dir / "manifest.tsv"),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "dropcast: error: no Dropout or Graduate rows in dataset\n"
    assert not out.exists()


def test_eda_peak_memory_is_near_the_matrix(tmp_path):
    data, manifest = tmp_path / "d.csv", tmp_path / "m.tsv"
    generate_fixture(data, manifest, n_rows=20000, seed=7)
    matrix_bytes = load_dataset(data, load_manifest(manifest)).feature_matrix.nbytes
    tracemalloc.start()
    try:
        code = main(["eda", "--data", str(data), "--manifest", str(manifest),
                     "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # Measured 2.80x: the binary table and the correlation's copies of it.
    assert peak <= 3.5 * matrix_bytes


def test_train_dt_peak_memory_is_near_the_matrix(tmp_path):
    data, manifest = tmp_path / "d.csv", tmp_path / "m.tsv"
    generate_fixture(data, manifest, n_rows=20000, seed=7)
    matrix_bytes = load_dataset(data, load_manifest(manifest)).feature_matrix.nbytes
    tracemalloc.start()
    try:
        code = main(["train", "--model", "dt", "--seeds", "42", "--data", str(data),
                     "--manifest", str(manifest), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # Measured 2.27x (3.22x with int64 keys and a gathered root block): the
    # load, the binary table, its training rows and the tree's int32 keys.
    assert peak <= 2.6 * matrix_bytes


def test_importance_outputs(fixture_dir, tmp_path):
    out = tmp_path / "out"
    code = main([
        "importance", "--data", str(fixture_dir / "data.csv"),
        "--manifest", str(fixture_dir / "manifest.tsv"),
        "--out", str(out), *_fast_flags(),
    ])
    assert code == 0
    lines = (out / "importance.csv").read_text().strip().splitlines()
    assert lines[0] == "feature,importance"
    assert len(lines) == 1 + 34
    report = json.loads((out / "report.json").read_text())
    assert len(report["importance"]) == 34


def test_importance_averages_seeds_in_order_then_ranks_by_value_and_name(fixture_dir, tmp_path):
    flags = [
        "--data", str(fixture_dir / "data.csv"), "--manifest", str(fixture_dir / "manifest.tsv"),
        *_fast_flags(seeds="42,43,44"),
    ]
    out = tmp_path / "out"
    assert main(["importance", *flags, "--out", str(out)]) == 0

    config = _config_from_args(build_parser().parse_args(["importance", *flags]))
    binary, _ = load_binary(config)
    vectors = [forest_importance(model) for model, _ in evaluate_cells(binary, (None,), config)]
    assert len(vectors) == 3
    assert not np.array_equal(vectors[0], vectors[1])
    mean = [sum(float(v[i]) / len(vectors) for v in vectors) for i in range(binary.n_columns)]
    expected = sorted(zip(binary.column_names, mean), key=lambda item: (-item[1], item[0]))

    with open(out / "importance.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["feature", "importance"]
    assert [(name, float(value)) for name, value in rows[1:]] == expected
    report = json.loads((out / "report.json").read_text())
    assert [(e["feature"], e["importance"]) for e in report["importance"]] == expected


def test_importance_report_records_the_excluded_group(fixture_dir, tmp_path):
    schema = json.loads(SCHEMA_PATH.read_text())
    flags = ["--data", str(fixture_dir / "data.csv"),
             "--manifest", str(fixture_dir / "manifest.tsv"), *_fast_flags()]
    for exclude, expected in (([], None), (["--exclude", "academic"], "academic")):
        out = tmp_path / (expected or "none")
        assert main(["importance", *flags, *exclude, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        jsonschema.validate(report, schema)
        assert report["excluded_group"] == expected


def test_exclude_flag(fixture_dir, tmp_path):
    out = tmp_path / "out"
    code = main([
        "train", "--data", str(fixture_dir / "data.csv"),
        "--manifest", str(fixture_dir / "manifest.tsv"),
        "--model", "dt", "--exclude", "academic", "--out", str(out), *_fast_flags(),
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["runs"][0]["excluded_group"] == "academic"



@pytest.mark.parametrize("command", ["train", "importance"])
def test_exclusion_leaving_no_feature_column_is_one_line_error(fixture_dir, tmp_path, capsys,
                                                                command):
    manifest = _academic_only_manifest(fixture_dir, tmp_path)
    out = tmp_path / "out"
    code = main([command, "--data", str(fixture_dir / "data.csv"), "--manifest", str(manifest),
                 "--exclude", "academic", "--out", str(out), *_fast_flags()])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "dropcast: error: excluding group 'academic' leaves no feature column\n"
    assert not out.exists()


def test_every_hyperparameter_is_set_by_its_flag():
    args = build_parser().parse_args([
        "train", "--data", "d.csv", "--tree-max-depth", "3", "--forest-trees", "7",
        "--svm-c", "0.5", "--svm-epochs", "9", "--knn-k", "4", "--train-seed", "1",
    ])
    hp = _config_from_args(args).hyperparams
    for field in dataclasses.fields(HyperParams):
        assert getattr(hp, field.name) != field.default, field.name

def test_fixture_command(tmp_path):
    out = tmp_path / "fx"
    code = main([
        "fixture", "--rows", "50", "--seed", "3",
        "--planted-group", "academic", "--strength", "2.0", "--out", str(out),
    ])
    assert code == 0
    assert (out / "fixture.csv").exists()
    assert (out / "fixture_manifest.tsv").exists()


def test_fixture_too_small_is_runtime_error(tmp_path, capsys):
    code = main(["fixture", "--rows", "5", "--out", str(tmp_path)])
    assert code == 1
    assert "at least 20" in capsys.readouterr().err


@pytest.mark.parametrize("seed, message", [
    ("18446744073709551658", "below 2**64"),
    ("-1", "non-negative"),
])
def test_fixture_seed_outside_the_stream_range_is_runtime_error(tmp_path, capsys, seed, message):
    out = tmp_path / "out"
    code = main(["fixture", "--rows", "50", "--seed", seed, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("dropcast: error:") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--strength", "3.0"], "needs a planted group"),
    (["--planted-group", "academic"], "needs a positive signal_strength"),
    (["--planted-group", "academic", "--strength", "0"], "needs a positive signal_strength"),
], ids=["strength-alone", "group-alone", "group-zero-strength"])
def test_fixture_group_and_strength_only_together(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    code = main(["fixture", "--rows", "50", "--seed", "1", *flags, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("dropcast: error:") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def _data_flags(fixture_dir):
    return ["--data", str(fixture_dir / "data.csv"),
            "--manifest", str(fixture_dir / "manifest.tsv")]


@pytest.mark.parametrize("argv", [
    ["ablate", "--exclude", "academic"],
    ["importance", "--model", "rf"],
])
def test_flag_the_command_cannot_honor_is_usage_error(fixture_dir, tmp_path, capsys, argv):
    code = main([*argv, *_data_flags(fixture_dir), "--out", str(tmp_path)])
    assert code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--seeds", "4x", "integers"),
    ("--seeds", "42,42", "repeated seed"),
    ("--seeds", "42,-1", "non-negative"),
    ("--threads", "0", "at least 1"),
    ("--threads", "-4", "at least 1"),
    ("--threads", "x", "not an integer"),
    ("--seeds", "42,18446744073709551658", "below 2**64"),
    ("--seeds", "18446744073709551616", "below 2**64"),
    ("--delimiter", "", "exactly one character"),
    ("--delimiter", ";;", "exactly one character"),
])
def test_bad_run_flag_is_one_line_usage_error(fixture_dir, tmp_path, capsys, flag, value, message):
    code = main(["train", *_data_flags(fixture_dir), "--out", str(tmp_path), flag, value])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    error_lines = [line for line in err.splitlines() if "error:" in line]
    assert len(error_lines) == 1
    assert flag in error_lines[0] and message in error_lines[0]


def _academic_only_manifest(fixture_dir, tmp_path):
    manifest = tmp_path / "academic_only.tsv"
    lines = (fixture_dir / "manifest.tsv").read_text().splitlines()
    manifest.write_text("".join(f"{line}\n" for line in lines if line.endswith("\tacademic")))
    return manifest


@pytest.mark.parametrize("argv, code", [
    (["eda", "--data", "{tmp}/missing.csv"], 1),
    (["eda", "--manifest", "{tmp}/missing.tsv"], 1),
    (["eda", "--delimiter", ",,"], 2),
    (["train", "--test-fraction", "1.5"], 1),
    (["train", "--seeds", "42,42"], 2),
    (["train", "--model", "knn", "--knn-k", "1000"], 1),
    (["train", "--model", "dt", "--exclude", "academic", "--manifest", "{academic}"], 1),
    (["roc", "--tree-max-depth", "0"], 1),
    (["roc", "--data", "{tmp}/missing.csv"], 1),
    (["ablate", "--forest-trees", "0"], 1),
    (["ablate", "--manifest", "{tmp}/missing.tsv"], 1),
    (["importance", "--exclude", "academic", "--manifest", "{academic}"], 1),
    (["importance", "--svm-c", "nan"], 1),
    (["fixture", "--rows", "5"], 1),
    (["fixture", "--rows", "50", "--strength", "3"], 1),
    (["fixture", "--rows", "50", "--seed", "-1"], 1),
    (["fixture", "--rows", "many"], 2),
    (["eda", "--delimiter", '"'], 1),
])
def test_rejected_run_leaves_no_out_directory(fixture_dir, tmp_path, capsys, argv, code):
    fill = {"tmp": tmp_path, "academic": _academic_only_manifest(fixture_dir, tmp_path)}
    argv = [arg.format(**fill) for arg in argv]
    data = [] if argv[0] == "fixture" else _data_flags(fixture_dir)
    # A later --data or --manifest overrides the fixture's.
    out = tmp_path / "out" / "nested"
    assert main([argv[0], *data, *argv[1:], "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    if code == 1:
        assert err.startswith("dropcast: error:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_seed_whose_test_split_lacks_an_outcome_is_rejected_before_any_fit(tmp_path, capsys,
                                                                          counted):
    # Seed 1's split holds both outcomes; seed 5's two test rows are both Dropout.
    generate_fixture(tmp_path / "data.csv", tmp_path / "manifest.tsv", n_rows=20, seed=5)
    out = tmp_path / "out"
    code = main(["train", "--model", "dt", "--seeds", "1,5", "--test-fraction", "0.1",
                 "--data", str(tmp_path / "data.csv"), "--manifest", str(tmp_path / "manifest.tsv"),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "dropcast: error: seed 5: its test split of 2 of 18 rows holds no Graduate row; "
        "ROC-AUC needs both outcomes\n")
    assert counted[0].calls == 0
    assert not out.exists()


def test_fit_rejected_at_a_later_seed_leaves_no_earlier_seeds_file(tmp_path, capsys):
    # The C bound depends on each seed's standardized training rows: seed 43's
    # fit passes it, seed 42's does not.
    generate_fixture(tmp_path / "data.csv", tmp_path / "manifest.tsv", n_rows=200, seed=7,
                     planted_group=FeatureGroup.ACADEMIC, signal_strength=3.0)
    out = tmp_path / "out"
    code = main(["train", "--model", "svc", "--seeds", "43,42", "--svm-c", "8.46e150",
                 "--svm-epochs", "5", "--data", str(tmp_path / "data.csv"),
                 "--manifest", str(tmp_path / "manifest.tsv"), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("dropcast: error: SVM C = 8.46e+150 is too large for 140 training rows")
    assert not out.exists()


def test_eda_rejected_at_the_correlation_writes_no_file(fixture_dir, tmp_path, capsys):
    # Every other table takes the overflowing column; only the correlation rejects it.
    lines = (fixture_dir / "data.csv").read_text().splitlines()
    column = lines[0].split(";").index("Unemployment rate")
    rows = [line.split(";") for line in lines[1:]]
    for i, row in enumerate(rows):
        row[column] = "1e200" if i % 2 else "-1e200"
    data = tmp_path / "overflow.csv"
    data.write_text("\n".join([lines[0], *(";".join(row) for row in rows)]) + "\n")
    out = tmp_path / "out"
    code = main(["eda", "--data", str(data), "--manifest", str(fixture_dir / "manifest.tsv"),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"dropcast: error: cannot standardize column {column}: "
        "its mean or standard deviation is not finite\n")
    assert not out.exists()


def test_largest_seed_is_accepted(fixture_dir, tmp_path):
    code = main(["train", *_data_flags(fixture_dir), "--model", "dt", "--out", str(tmp_path),
                 "--seeds", "18446744073709551615,42"])
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["train", "--model", "svc", "--svm-c", "nan"],
    ["train", "--model", "svc", "--svm-c", "inf"],
    ["train", "--model", "svc", "--svm-c", "1e308"],  # Pegasos steps would overflow
    ["train", "--model", "svc", "--svm-c", "1e200"],
    ["train", "--model", "dt", "--train-seed", "18446744073709551616"],
    ["fixture", "--rows", "50", "--planted-group", "academic", "--strength", "nan"],
    ["fixture", "--rows", "50", "--planted-group", "academic", "--strength", "inf"],
])
def test_non_finite_or_oversized_value_is_one_line_runtime_error(fixture_dir, tmp_path, capsys,
                                                                 argv):
    out = tmp_path / "out"
    data = _data_flags(fixture_dir) if argv[0] == "train" else []
    code = main([*argv, *data, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("dropcast: error:") and err.count("\n") == 1
    assert not out.exists()


def test_ablate_model_flag_builds_single_model_grid(fixture_dir, tmp_path):
    out = tmp_path / "out"
    code = main(["ablate", *_data_flags(fixture_dir), "--model", "dt",
                 "--out", str(out), *_fast_flags("42,43")])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["ablation"]["models"] == ["DT"]
    assert report["ablation"]["column_std_across_models"] == [0.0] * 5
    assert {r["model"] for r in report["runs"]} == {"DT"}
    assert len(report["runs"]) == 5 * 2
    assert (out / "roc.svg").read_text().count("<polyline") == 1


class _Counter:
    """Wraps a function and counts its calls as bytes appended to a file,
    so that calls made in forked cell workers count too."""

    def __init__(self, fn, path):
        self.fn, self.path = fn, path
        self.reset()

    def reset(self) -> None:
        self.path.write_bytes(b"")

    @property
    def calls(self) -> int:
        return len(self.path.read_bytes())

    def __call__(self, *args, **kwargs):
        with open(self.path, "ab") as log:
            log.write(b".")
        return self.fn(*args, **kwargs)


@pytest.fixture
def counted(monkeypatch, tmp_path_factory):
    """Call counters on training and on CSV parsing, wherever it is called
    from, in this process or a worker."""
    import dropcast.cli as cli
    import dropcast.experiments as exp

    folder = tmp_path_factory.mktemp("counts")
    train = _Counter(exp.train_model, folder / "train_model")
    load = _Counter(exp.load_dataset, folder / "load_dataset")
    monkeypatch.setattr(exp, "train_model", train)
    monkeypatch.setattr(exp, "load_dataset", load)
    monkeypatch.setattr(cli, "load_dataset", load)
    return train, load


@pytest.mark.parametrize("argv, fits", [
    (["ablate"], 4 * 5 * 2),
    (["ablate", "--model", "knn"], 1 * 5 * 2),
    (["train", "--save-models"], 4 * 2),
    (["train", "--model", "rf", "--exclude", "academic"], 1 * 2),
    (["roc"], 4 * 2),
    (["importance"], 2),
    (["importance", "--exclude", "demographic"], 2),
])
def test_each_cell_trained_once_and_data_loaded_once(fixture_dir, tmp_path, counted, argv, fits,
                                                     monkeypatch):
    import dropcast.cli as cli

    train, load = counted
    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    # The default (one process for a main(argv) call), then two forked cell workers.
    for name, threads in (("default", []), ("workers", ["--threads", "2"])):
        train.reset()
        load.reset()
        code = main([*argv, *threads, *_data_flags(fixture_dir), "--out", str(tmp_path / name),
                     *_fast_flags("42,43")])
        assert code == 0
        assert train.calls == fits
        assert load.calls == 1


def test_ablate_svg_matches_roc_of_first_seed(fixture_dir, tmp_path):
    ablate, roc = tmp_path / "ablate", tmp_path / "roc"
    assert main(["ablate", *_data_flags(fixture_dir), "--out", str(ablate), *_fast_flags("42,43")]) == 0
    assert main(["roc", *_data_flags(fixture_dir), "--out", str(roc), *_fast_flags("42")]) == 0
    assert (ablate / "roc.svg").read_bytes() == (roc / "roc.svg").read_bytes()


def _rows_with(lines, cell):
    """The header, then each data row with every feature cell ``cell``."""
    return [lines[0], *(";".join([cell] * line.count(";") + [line.rsplit(";", 1)[1]])
                        for line in lines[1:])]


# One rejected run per error class that ``FileFormatError`` or
# ``InvalidArgumentError`` took in, with the stderr line it printed then;
# every manifest line error now leads with the manifest's path and line.
@pytest.mark.parametrize("argv, edit_manifest, edit_data, message", [
    (["eda"], lambda m: ["A academic", *m], None,
     "{manifest}:1: expected 'column<TAB>group', got 'A academic'"),
    (["eda"], lambda m: [*m, "Extra\tnonsense"], None,
     "{manifest}:38: unknown feature group tag: 'nonsense'"),
    (["eda"], lambda m: m[:1], None, "{manifest}: manifest contains no entries"),  # a comment
    (["eda"], lambda m: [*m, next(line for line in m if not line.startswith("#"))], None,
     "{manifest}:38: column listed twice in manifest: 'Marital status'"),
    (["eda"], None, lambda d: [d[0] + ";Course", *d[1:]], "column appears twice in header: 'Course'"),
    (["train", "--model", "dt", "--exclude", "macroeconomic"],
     lambda m: [line for line in m if not line.endswith("\tmacroeconomic")], None,
     "no columns tagged 'macroeconomic' in dataset"),
    (["eda"], None, lambda d: [d[0], *(line.rsplit(";", 1)[0] + ";Enrolled" for line in d[1:])],
     "no Dropout or Graduate rows in dataset"),
    (["train", "--model", "dt", "--test-fraction", "1.5"], None, None,
     "test_fraction must be in (0, 1), got 1.5"),
    (["train", "--model", "knn", "--knn-k", "1000"], None, None,
     "k-NN with k=1000 needs at least 1000 training rows, got 118"),
    (["train", "--model", "svc"], None,
     lambda d: [d[0], *(line.rsplit(";", 1)[0] + ";Dropout" for line in d[1:])],
     "linear SVM training needs both classes present"),
    (["importance"], None, lambda d: _rows_with(d, "1"),
     "every tree in the forest is a single leaf"),
], ids=["manifest-line", "manifest-group", "manifest-empty", "manifest-column-twice",
        "header-column-twice", "exclude-absent-group", "no-dropout-or-graduate",
        "test-fraction", "knn-k-over-rows", "single-class", "no-split"])
def test_merged_error_classes_keep_their_stderr_line(fixture_dir, tmp_path, capsys, argv,
                                                     edit_manifest, edit_data, message):
    paths = {}
    for name, source, edit in [("manifest", "manifest.tsv", edit_manifest),
                               ("data", "data.csv", edit_data)]:
        paths[name] = fixture_dir / source
        if edit is not None:
            paths[name] = tmp_path / source
            lines = (fixture_dir / source).read_text().splitlines()
            paths[name].write_text("".join(f"{line}\n" for line in edit(lines)))
    out = tmp_path / "out"
    fast = _fast_flags() if argv[0] != "eda" else []  # before argv, which may override them
    code = main([argv[0], *fast, *argv[1:], "--data", str(paths["data"]),
                 "--manifest", str(paths["manifest"]), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"dropcast: error: {message.format(**paths)}\n"
    assert not out.exists()


def test_each_saved_forest_node_splits_on_a_feature_of_its_addressed_subset(fixture_dir, tmp_path):
    # Node v of tree i drew its candidates at counter n + v * p of the
    # tree's seed, n the root's sample count: all read from the saved text.
    out = tmp_path / "out"
    assert main(["train", *_data_flags(fixture_dir), "--model", "rf", "--save-models",
                 "--out", str(out), *_fast_flags()]) == 0
    model = model_from_text((out / "model_rf_seed42.txt").read_text())
    p = model.n_features
    splits = 0
    for tree, seed in zip(model.payload.trees, model.payload.tree_seeds):
        for v in np.flatnonzero(tree.feature >= 0).tolist():
            subset = node_subset(seed, int(tree.n_samples[0]), v, p, candidate_count(p))
            assert tree.feature[v] in subset, (seed, v)
            splits += 1
    assert splits > 8


def test_roc_of_an_excluded_group_names_it_in_the_legend(fixture_dir, tmp_path):
    out = tmp_path / "out"
    assert main(["roc", *_data_flags(fixture_dir), "--exclude", "academic", "--model", "dt",
                 "--seeds", "42", "--out", str(out)]) == 0
    svg = (out / "roc.svg").read_text()
    assert svg.count("<polyline") == 1
    assert re.search(r">DT excl academic \(AUC=[01]\.\d{3}\)<", svg)

import numpy as np
import pytest

from dropcast.errors import (
    CellParseError,
    DuplicateColumnError,
    EmptyResultError,
    ManifestParseError,
    MissingColumnError,
    MissingValueError,
)
from dropcast.ingest import (
    FeatureGroup,
    Outcome,
    default_manifest_path,
    load_dataset,
    load_manifest,
    to_binary,
)

from conftest import write_rows
from oracles import write_dataset_csv


def test_default_manifest_counts():
    manifest = load_manifest(default_manifest_path("default-34"))
    assert len(manifest.entries) == 34
    sizes = manifest.group_sizes()
    assert sizes[FeatureGroup.DEMOGRAPHIC] == 6
    assert sizes[FeatureGroup.SOCIOECONOMIC] == 8
    assert sizes[FeatureGroup.MACROECONOMIC] == 3
    assert sizes[FeatureGroup.ACADEMIC] == 17
    assert manifest.version_tag == "default-34"


def test_variant_manifest_counts():
    manifest = load_manifest(default_manifest_path("variant-36"))
    assert len(manifest.entries) == 36
    sizes = manifest.group_sizes()
    assert sizes[FeatureGroup.ACADEMIC] == 19
    assert manifest.version_tag == "variant-36"


def test_manifest_duplicate_column(tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text("A\tacademic\nA\tdemographic\n")
    with pytest.raises(DuplicateColumnError):
        load_manifest(path)


def test_manifest_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    with pytest.raises(ManifestParseError):
        load_manifest(path)


def test_manifest_bad_group(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("A\tnonsense\n")
    with pytest.raises(ManifestParseError):
        load_manifest(path)


def test_manifest_malformed_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("A academic\n")  # space, not a tab
    with pytest.raises(ManifestParseError):
        load_manifest(path)


@pytest.fixture
def small_manifest(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text(
        "# version: test-3\nAge\tdemographic\nDebt\tsocioeconomic\nGDP\tmacroeconomic\n"
    )
    return load_manifest(path)


def test_load_dataset_five_rows(tmp_path, small_manifest):
    path = tmp_path / "d.csv"
    write_rows(
        path,
        ["Age", "Debt", "GDP", "Target"],
        [
            ["20", "1", "1.5", "Dropout"],
            ["21", "0", "1.5", "Graduate"],
            ["22", "0", "-0.5", "Enrolled"],
            ["23", "1", "0.25", "Dropout"],
            ["24", "0", "0.25", "Graduate"],
        ],
    )
    ds = load_dataset(path, small_manifest)
    assert ds.n_rows == 5
    assert ds.n_columns == 3
    assert ds.outcomes[2] is Outcome.ENROLLED
    assert ds.feature_matrix[0, 0] == 20.0
    # row order preserved from the file
    assert ds.feature_matrix[:, 0].tolist() == [20.0, 21.0, 22.0, 23.0, 24.0]


def test_load_dataset_columns_follow_manifest_order(tmp_path, small_manifest):
    path = tmp_path / "d.csv"
    write_rows(
        path,
        ["GDP", "Target", "Age", "Debt"],
        [["1.5", "Dropout", "20", "1"]],
    )
    ds = load_dataset(path, small_manifest)
    assert ds.column_names == ("Age", "Debt", "GDP")
    assert ds.feature_matrix[0].tolist() == [20.0, 1.0, 1.5]


def test_load_dataset_missing_column(tmp_path, small_manifest):
    path = tmp_path / "d.csv"
    write_rows(path, ["Age", "Debt", "Target"], [["20", "1", "Dropout"]])
    with pytest.raises(MissingColumnError) as err:
        load_dataset(path, small_manifest)
    assert err.value.column == "GDP"


def test_load_dataset_missing_target_column(tmp_path, small_manifest):
    path = tmp_path / "d.csv"
    write_rows(path, ["Age", "Debt", "GDP"], [["20", "1", "1.5"]])
    with pytest.raises(MissingColumnError) as err:
        load_dataset(path, small_manifest)
    assert err.value.column == "Target"


def test_load_dataset_cell_parse_error(tmp_path, small_manifest):
    path = tmp_path / "d.csv"
    write_rows(
        path,
        ["Age", "Debt", "GDP", "Target"],
        [["20", "1", "1.5", "Dropout"], ["x", "0", "1.0", "Graduate"]],
    )
    with pytest.raises(CellParseError) as err:
        load_dataset(path, small_manifest)
    assert err.value.row == 2
    assert err.value.column == "Age"


def test_load_dataset_missing_value(tmp_path, small_manifest):
    path = tmp_path / "d.csv"
    write_rows(
        path,
        ["Age", "Debt", "GDP", "Target"],
        [["20", "", "1.5", "Dropout"]],
    )
    with pytest.raises(MissingValueError):
        load_dataset(path, small_manifest)


def test_load_dataset_bad_target_string(tmp_path, small_manifest):
    path = tmp_path / "d.csv"
    write_rows(
        path,
        ["Age", "Debt", "GDP", "Target"],
        [["20", "1", "1.5", "dropout"]],  # wrong case: not an exact target string
    )
    with pytest.raises(CellParseError):
        load_dataset(path, small_manifest)


def test_load_dataset_strips_header_whitespace(tmp_path, small_manifest):
    path = tmp_path / "d.csv"
    write_rows(
        path,
        ["Age\t", " Debt", "GDP", "Target"],
        [["20", "1", "1.5", "Dropout"]],
    )
    ds = load_dataset(path, small_manifest)
    assert ds.column_names == ("Age", "Debt", "GDP")


def test_csv_round_trip_exact(tmp_path, small_manifest):
    path = tmp_path / "d.csv"
    write_rows(
        path,
        ["Age", "Debt", "GDP", "Target"],
        [
            ["20.125", "1", "1.7400000000000002", "Dropout"],
            ["21", "0", "-0.333333333333333314829616256247", "Graduate"],
        ],
    )
    first = load_dataset(path, small_manifest)
    out = tmp_path / "out.csv"
    write_dataset_csv(first, out)
    second = load_dataset(out, small_manifest)
    assert np.array_equal(first.feature_matrix, second.feature_matrix)
    assert first.outcomes == second.outcomes


def test_to_binary_filters_and_labels(tmp_path, small_manifest):
    path = tmp_path / "d.csv"
    write_rows(
        path,
        ["Age", "Debt", "GDP", "Target"],
        [
            ["20", "1", "1.5", "Dropout"],
            ["21", "0", "1.5", "Graduate"],
            ["22", "0", "-0.5", "Enrolled"],
            ["23", "1", "0.25", "Dropout"],
        ],
    )
    ds = load_dataset(path, small_manifest)
    binary = to_binary(ds)
    assert binary.n_rows == 3
    assert binary.labels.tolist() == [1, 0, 1]
    # relative order preserved, Enrolled row gone
    assert binary.feature_matrix[:, 0].tolist() == [20.0, 21.0, 23.0]


def test_to_binary_all_enrolled_raises(tmp_path, small_manifest):
    path = tmp_path / "d.csv"
    write_rows(
        path,
        ["Age", "Debt", "GDP", "Target"],
        [["20", "1", "1.5", "Enrolled"], ["21", "0", "1.0", "Enrolled"]],
    )
    with pytest.raises(EmptyResultError):
        to_binary(load_dataset(path, small_manifest))


def test_to_binary_identity_without_enrolled(tmp_path, small_manifest):
    path = tmp_path / "d.csv"
    write_rows(
        path,
        ["Age", "Debt", "GDP", "Target"],
        [["20", "1", "1.5", "Dropout"], ["21", "0", "1.0", "Graduate"]],
    )
    ds = load_dataset(path, small_manifest)
    assert to_binary(ds).n_rows == ds.n_rows


def test_row_count_conservation(tmp_path, small_manifest):
    # row_count(to_binary(d)) + count(d, Enrolled) == row_count(d)
    path = tmp_path / "d.csv"
    rows = []
    statuses = ["Dropout", "Graduate", "Enrolled", "Graduate", "Enrolled", "Dropout", "Graduate"]
    for i, status in enumerate(statuses):
        rows.append([str(20 + i), str(i % 2), "1.0", status])
    write_rows(path, ["Age", "Debt", "GDP", "Target"], rows)
    ds = load_dataset(path, small_manifest)
    binary = to_binary(ds)
    enrolled = sum(1 for o in ds.outcomes if o is Outcome.ENROLLED)
    assert binary.n_rows + enrolled == ds.n_rows


def test_matrices_are_immutable(tmp_path, small_manifest):
    path = tmp_path / "d.csv"
    write_rows(path, ["Age", "Debt", "GDP", "Target"], [["20", "1", "1.5", "Dropout"]])
    ds = load_dataset(path, small_manifest)
    with pytest.raises(ValueError):
        ds.feature_matrix[0, 0] = 99.0

import csv
import re
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropcast import ingest
from dropcast.eda import class_distribution
from dropcast.errors import (
    CellParseError,
    DropcastError,
    FileFormatError,
    InvalidArgumentError,
    MissingColumnError,
    MissingValueError,
)
from dropcast.fixture import generate_fixture
from dropcast.ingest import (
    LABELS,
    Dataset,
    FeatureGroup,
    GroupManifest,
    Outcome,
    default_manifest_path,
    load_binary_dataset,
    load_dataset,
    load_manifest,
    to_binary,
)

from conftest import write_rows
from oracles import reference_load_dataset, write_dataset_csv


def test_default_manifest_counts():
    manifest = load_manifest(default_manifest_path("default-34"))
    assert len(manifest.entries) == 34
    sizes = Counter(manifest.column_groups)
    assert sizes[FeatureGroup.DEMOGRAPHIC] == 6
    assert sizes[FeatureGroup.SOCIOECONOMIC] == 8
    assert sizes[FeatureGroup.MACROECONOMIC] == 3
    assert sizes[FeatureGroup.ACADEMIC] == 17
    assert manifest.version_tag == "default-34"


def test_variant_manifest_counts():
    manifest = load_manifest(default_manifest_path("variant-36"))
    assert len(manifest.entries) == 36
    sizes = Counter(manifest.column_groups)
    assert sizes[FeatureGroup.ACADEMIC] == 19
    assert manifest.version_tag == "variant-36"


def test_unknown_shipped_manifest_name_is_an_argument_error():
    with pytest.raises(InvalidArgumentError, match="^no shipped manifest named 'default-35'$"):
        default_manifest_path("default-35")


def test_manifest_duplicate_column(tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text("A\tacademic\nA\tdemographic\n")
    message = f"{path}:2: column listed twice in manifest: 'A'"
    with pytest.raises(FileFormatError, match=f"^{re.escape(message)}$"):
        load_manifest(path)


def test_manifest_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: manifest contains no entries$"):
        load_manifest(path)


def test_manifest_bad_group(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("A\tnonsense\n")
    message = f"{path}:1: unknown feature group tag: 'nonsense'"
    with pytest.raises(FileFormatError, match=f"^{re.escape(message)}$"):
        load_manifest(path)


def test_manifest_malformed_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("A academic\n")  # space, not a tab
    message = f"{path}:1: expected 'column<TAB>group', got 'A academic'"
    with pytest.raises(FileFormatError, match=f"^{re.escape(message)}$"):
        load_manifest(path)


def test_manifest_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "blank.tsv"
    path.write_text("\nAge\tdemographic\n  \nDebt\tsocioeconomic\n\n")
    assert load_manifest(path).entries == (
        ("Age", FeatureGroup.DEMOGRAPHIC), ("Debt", FeatureGroup.SOCIOECONOMIC))


def test_manifest_empty_column_name(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("A\tacademic\n \tdemographic\n")
    message = f"{path}:2: empty column name"
    with pytest.raises(FileFormatError, match=f"^{re.escape(message)}$"):
        load_manifest(path)


_DEFAULT_ENTRIES = load_manifest(default_manifest_path("default-34")).entries


@pytest.mark.parametrize("entries, message", [
    ((), "manifest contains no entries"),
    ((*_DEFAULT_ENTRIES, _DEFAULT_ENTRIES[0]), "column listed twice in manifest: 'Marital status'"),
    ((*_DEFAULT_ENTRIES, ("Target", FeatureGroup.ACADEMIC)), "'Target' is the label, not a feature"),
], ids=["empty", "repeated-name", "target"])
def test_manifest_built_in_code_is_checked(entries, message):
    with pytest.raises(FileFormatError) as err:
        GroupManifest(entries=entries, version_tag="x")
    assert str(err.value) == message


def test_empty_manifest_file_error_names_the_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("# version: none\n")
    with pytest.raises(FileFormatError) as err:
        load_manifest(path)
    assert str(err.value) == f"{path}: manifest contains no entries"


@pytest.mark.parametrize("text", [
    "# version: test-3\nAge\tdemographic\nDebt\tsocioeconomic\n",
    "Age\tdemographic\nDebt\tsocioeconomic\n",
    default_manifest_path("default-34").read_text(encoding="utf-8"),
], ids=["version-comment", "no-comment", "default-34"])
def test_manifest_with_a_byte_order_mark_loads_as_without(tmp_path, text):
    plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_manifest(marked) == load_manifest(plain)


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
    assert ds.labels[2] == LABELS[Outcome.ENROLLED]
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


def test_records_file_without_a_header_line_misses_the_target(tmp_path, small_manifest):
    path = tmp_path / "d.csv"
    path.write_text("")
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



@pytest.mark.parametrize("text", ["nan", "inf", "-Infinity", " NaN ", "1e999"])
def test_load_dataset_rejects_non_finite_cell(tmp_path, small_manifest, text):
    path = tmp_path / "d.csv"
    write_rows(
        path,
        ["Age", "Debt", "GDP", "Target"],
        [["20", "1", "1.5", "Dropout"], ["21", "0", text, "Graduate"]],
    )
    with pytest.raises(CellParseError) as err:
        load_dataset(path, small_manifest)
    assert (err.value.row, err.value.column) == (2, "GDP")
    assert repr(text.strip()) in str(err.value)


def test_load_dataset_accepts_cells_whose_sum_overflows(tmp_path, small_manifest):
    path = tmp_path / "d.csv"
    write_rows(path, ["Age", "Debt", "GDP", "Target"], [["1e308", "1e308", "0", "Dropout"]])
    assert load_dataset(path, small_manifest).feature_matrix[0, :2].tolist() == [1e308, 1e308]


@pytest.mark.parametrize("header, name", [
    (["Age", "Debt", "GDP", "Target", "Debt"], "Debt"),
    (["Age", "Target", "Debt", "GDP", " Target"], "Target"),
], ids=["header0", "header1"])
def test_load_dataset_rejects_repeated_header_name(tmp_path, small_manifest, header, name):
    path = tmp_path / "d.csv"
    write_rows(path, header, [["20", "1", "1.5", "Dropout", "2"]])
    with pytest.raises(FileFormatError, match=f"^column appears twice in header: '{name}'$"):
        load_dataset(path, small_manifest)


def test_load_dataset_ignores_repeated_unused_header_name(tmp_path, small_manifest):
    path = tmp_path / "d.csv"
    write_rows(path, ["Age", "Debt", "GDP", "Target", "Note", "Note"],
               [["20", "1", "1.5", "Dropout", "a", "b"]])
    assert load_dataset(path, small_manifest).feature_matrix.tolist() == [[20.0, 1.0, 1.5]]

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
    assert first.labels.dtype == second.labels.dtype == np.int64
    assert np.array_equal(first.labels, second.labels)


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


def test_to_binary_equals_the_row_loop():
    g = np.random.default_rng(31)
    outcomes = tuple(g.choice(list(Outcome), size=500))
    ds = Dataset(
        feature_matrix=g.normal(size=(500, 3)),
        column_names=("Age", "Debt", "GDP"),
        column_groups=(FeatureGroup.DEMOGRAPHIC, FeatureGroup.SOCIOECONOMIC,
                       FeatureGroup.MACROECONOMIC),
        labels=np.array([LABELS[o] for o in outcomes], dtype=np.int64),
    )
    keep = [i for i, o in enumerate(outcomes) if o is not Outcome.ENROLLED]
    labels = [1 if outcomes[i] is Outcome.DROPOUT else 0 for i in keep]
    binary = to_binary(ds)
    assert 0 < len(keep) < 500 and 0 < sum(labels) < len(keep)
    assert binary.labels.dtype == np.int64
    assert binary.labels.tolist() == labels
    assert np.array_equal(binary.feature_matrix, ds.feature_matrix[keep])


@pytest.mark.parametrize("fields, message", [
    (dict(labels=np.array([-1, 0, 7])), "labels must be 0, 1 or 2, got -1 to 7"),
    (dict(labels=np.array([3, 0, 1])), "labels must be 0, 1 or 2, got 0 to 3"),
    (dict(labels=np.array([0, 1])), "one entry per row of 3, got shape (2,) of int64"),
    (dict(labels=np.array([0.0, 1.0, 0.5])), "integer array with one entry per row of 3"),
    (dict(labels=np.zeros((3, 1), dtype=np.int64)), "got shape (3, 1) of int64"),
    (dict(labels=[0, 1, 0]), "integer array with one entry per row of 3"),
    (dict(feature_matrix=np.zeros(3)), "feature matrix must be 2-D, got shape (3,)"),
    (dict(column_names=("Age", "Debt")), "2 column names and 1 column groups for 1 columns"),
    (dict(column_groups=()), "1 column names and 0 column groups for 1 columns"),
], ids=["minus-one-and-seven", "three", "short", "float", "2-d", "list", "1-d-matrix",
        "extra-name", "no-group"])
def test_dataset_built_in_code_is_checked(fields, message):
    base = dict(feature_matrix=np.zeros((3, 1)), column_names=("Age",),
                column_groups=(FeatureGroup.DEMOGRAPHIC,), labels=np.array([0, 1, 2]))
    with pytest.raises(InvalidArgumentError, match=re.escape(message)) as err:
        to_binary(Dataset(**{**base, **fields}))
    assert "\n" not in str(err.value)


def test_to_binary_all_enrolled_raises(tmp_path, small_manifest):
    path = tmp_path / "d.csv"
    write_rows(
        path,
        ["Age", "Debt", "GDP", "Target"],
        [["20", "1", "1.5", "Enrolled"], ["21", "0", "1.0", "Enrolled"]],
    )
    with pytest.raises(InvalidArgumentError, match="^no Dropout or Graduate rows in dataset$"):
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
    enrolled = int((ds.labels == LABELS[Outcome.ENROLLED]).sum())
    assert binary.n_rows + enrolled == ds.n_rows


def test_matrices_are_immutable(tmp_path, small_manifest):
    path = tmp_path / "d.csv"
    write_rows(path, ["Age", "Debt", "GDP", "Target"], [["20", "1", "1.5", "Dropout"]])
    ds = load_dataset(path, small_manifest)
    with pytest.raises(ValueError):
        ds.feature_matrix[0, 0] = 99.0


@pytest.mark.parametrize("rows_before", [3, 4096])
def test_error_row_numbers_count_blank_lines(tmp_path, small_manifest, rows_before):
    good = "20;1;1.5;Dropout"
    # Two blank lines open the file; the bad cell follows rows_before
    # data rows, so it is data row rows_before + 1.
    lines = ["", ""] + [good] * (rows_before - 2) + ["20;x;1.5;Dropout", good]
    path = tmp_path / "d.csv"
    path.write_text("Age;Debt;GDP;Target\n" + "\n".join(lines) + "\n")
    with pytest.raises(CellParseError) as err:
        load_dataset(path, small_manifest)
    assert (err.value.row, err.value.column) == (rows_before + 1, "Debt")
    # A gap of blank lines between data rows counts too.
    path.write_text("Age;Debt;GDP;Target\n" + good + "\n\n\n20;1;;Dropout\n")
    with pytest.raises(MissingValueError) as err:
        load_dataset(path, small_manifest)
    assert str(err.value) == "missing value at data row 4, column 'GDP'"


def test_quoted_cell_spanning_two_lines_is_one_record(tmp_path, small_manifest):
    # Each line alone looks like a plain row; csv reads one record.
    path = tmp_path / "d.csv"
    path.write_text('Age;Debt;GDP;Target;Note\n20;1;1.5;Dropout;"a\n21;0;1.0;Graduate;b"\n')
    ds = load_dataset(path, small_manifest)
    assert ds.feature_matrix.tolist() == [[20.0, 1.0, 1.5]]
    assert ds.labels.dtype == np.int64
    assert np.array_equal(ds.labels, [LABELS[Outcome.DROPOUT]])


@pytest.mark.parametrize("rows", [
    '1;2;3;Dropout;ab"c;d\n',  # a quote inside an unquoted cell is literal
    '"1"2;2;3;Dropout;x\n',  # text after a closing quote
    ' "1";2;3;Dropout;x\n',  # a quote after a space opens no quoted cell
    '1;2;3; "Dropout";x\n',
    '1;2;3;Dropout;a\x00b\n',
    '1;2;3;Dropout;"a\rb"\r\n4;5;6;Graduate;y\r2;3;4;Enrolled\n',
    '1;2;3;Dropout;"x\n',  # a quoted cell the file ends inside
    '1;2;3;Dropout;x;extra\n \n',
    '1;2;3;Dropout;x\n\t\n',
], ids=["inner-quote", "after-quote", "space-quote", "space-quote-target", "nul",
        "quoted-cr", "open-quote", "whitespace-line", "tab-line"])
@pytest.mark.parametrize("names", [("Age", "Debt", "GDP")])
def test_odd_records_match_reference(tmp_path, rows, names):
    path = tmp_path / "d.csv"
    path.write_bytes(("Age;Debt;GDP;Target;Note\n" + rows).encode())
    manifest = GroupManifest(
        entries=tuple((name, FeatureGroup.ACADEMIC) for name in names), version_tag="t"
    )
    got = _outcome(load_dataset, path, manifest)
    assert got == _outcome(reference_load_dataset, path, manifest)


def test_cells_padded_with_separator_characters_load(tmp_path, small_manifest):
    # str.strip() removes \x1c-\x1f, which float() does not skip.
    path = tmp_path / "d.csv"
    path.write_text("Age;Debt;GDP;Target\n20\x1c;\x1f1;1.5;Dropout\n")
    ds = load_dataset(path, small_manifest)
    assert ds.feature_matrix.tolist() == [[20.0, 1.0, 1.5]]


@pytest.mark.parametrize("cell", ["1_000", "１", " ٣ "])
def test_cells_only_float_parses_are_rejected(tmp_path, small_manifest, cell):
    # float() takes underscores and non-ASCII digits; numpy's reader does not.
    path = tmp_path / "d.csv"
    path.write_text(f"Age;Debt;GDP;Target\n20;1;1.5;Dropout\n21;{cell};1.5;Graduate\n")
    with pytest.raises(CellParseError) as err:
        load_dataset(path, small_manifest)
    assert (err.value.row, err.value.column) == (2, "Debt")
    assert str(err.value) == f"cannot parse cell at data row 2, column 'Debt': {cell.strip()!r}"


def test_quote_character_is_no_delimiter(tmp_path, small_manifest):
    path = tmp_path / "d.csv"
    path.write_text('Age"Debt"GDP"Target\n20"1"1.5"Dropout\n')
    with pytest.raises(InvalidArgumentError, match="^delimiter '\"' is the quote character$"):
        load_dataset(path, small_manifest, delimiter='"')


def test_row_loop_finding_no_bad_cell_is_one_line_error(tmp_path, small_manifest):
    path = tmp_path / "d.csv"
    path.write_text("Age;Debt;GDP;Target\n20;1;1.5;Dropout\n")
    with mock.patch.object(ingest.np, "loadtxt", side_effect=ValueError("rejected")):
        with pytest.raises(FileFormatError) as err:
            load_dataset(path, small_manifest)
    assert str(err.value) == f"{path}: cannot read the data rows, though no cell is bad"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows", ["", "\n\n", '"20";1;1.5;Dropout\n'],
                         ids=["header-only", "blank-lines", "quoted-first-row"])
def test_file_without_a_plain_first_row_loads_without_warnings(tmp_path, small_manifest, rows):
    path = tmp_path / "d.csv"
    path.write_text("Age;Debt;GDP;Target\n" + rows)
    ds = load_dataset(path, small_manifest)
    assert ds.feature_matrix.shape == (rows.count(";") // 3, 3)


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """A 5000-row generated records file, its manifest and its lines."""
    folder = tmp_path_factory.mktemp("generated")
    generate_fixture(folder / "d.csv", folder / "m.tsv", n_rows=5000, seed=7)
    lines = (folder / "d.csv").read_text().splitlines()
    return folder, load_manifest(folder / "m.tsv"), lines


def _watch_row_loop():
    return mock.patch.object(ingest, "_raise_first_bad_cell", wraps=ingest._raise_first_bad_cell)


def _with_last_row_first_cell(generated, tmp_path, cell):
    folder, manifest, lines = generated
    last = lines[-1].split(";")
    last[0] = cell(last[0])
    path = tmp_path / "d.csv"
    path.write_text("\n".join([*lines[:-1], ";".join(last)]) + "\n")
    return path, manifest, lines[0].split(";")[0]


def test_bad_cell_in_last_of_5000_rows(generated, tmp_path):
    path, manifest, column = _with_last_row_first_cell(generated, tmp_path, lambda _: "x")
    with pytest.raises(CellParseError) as err:
        load_dataset(path, manifest)
    assert str(err.value) == f"cannot parse cell at data row 5000, column {column!r}: 'x'"


def test_padded_cell_in_last_of_5000_rows_loads_bit_equal(generated, tmp_path):
    folder, manifest, _ = generated
    path, _, _ = _with_last_row_first_cell(generated, tmp_path, lambda c: c + "\x1c")
    padded = load_dataset(path, manifest)
    plain = load_dataset(folder / "d.csv", manifest)
    assert padded.feature_matrix.tobytes() == plain.feature_matrix.tobytes()
    assert padded.feature_matrix.shape == plain.feature_matrix.shape == (5000, 34)
    assert padded.labels.dtype == plain.labels.dtype == np.int64
    assert np.array_equal(padded.labels, plain.labels)


@pytest.mark.parametrize("copy", ["crlf", "quoted"])
def test_crlf_and_quoted_copies_of_5000_rows_load_bit_equal(generated, tmp_path, copy):
    folder, manifest, lines = generated
    path = tmp_path / "d.csv"
    if copy == "crlf":
        path.write_bytes("\r\n".join(lines).encode() + b"\r\n")
    else:
        quoted = (";".join(f'"{cell}"' for cell in line.split(";")) for line in lines)
        path.write_text("\n".join(quoted) + "\n")
    plain = load_dataset(folder / "d.csv", manifest)
    with _watch_row_loop() as row_loop:
        ds = load_dataset(path, manifest)
    # numpy's reader takes CRLF lines and unquotes cells itself.
    assert not row_loop.called
    assert ds.feature_matrix.tobytes() == plain.feature_matrix.tobytes()
    assert ds.feature_matrix.shape == plain.feature_matrix.shape == (5000, 34)
    assert ds.labels.dtype == plain.labels.dtype == np.int64
    assert np.array_equal(ds.labels, plain.labels)


def test_load_peak_memory_is_near_the_matrix(tmp_path):
    generate_fixture(tmp_path / "d.csv", tmp_path / "m.tsv", n_rows=20000, seed=7)
    manifest = load_manifest(tmp_path / "m.tsv")
    tracemalloc.start()
    try:
        ds = load_dataset(tmp_path / "d.csv", manifest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.n_rows == 20000
    assert peak <= 1.75 * ds.feature_matrix.nbytes



@pytest.mark.parametrize("where", ["header chunk", "after 5000 rows"])
def test_non_utf8_records_file_is_one_line_error(generated, tmp_path, where):
    folder, manifest, lines = generated
    path = tmp_path / "d.csv"
    text = "\n".join(lines[:2] if where == "header chunk" else lines) + "\n"
    path.write_bytes(text.encode() + b"\xff\n")
    with pytest.raises(FileFormatError) as err:
        load_dataset(path, manifest)
    assert str(err.value) == f"{path}: not UTF-8 text: cannot decode byte 0xff"


def test_non_utf8_manifest_is_one_line_error(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_bytes(b"Age\tdemographic\nDebt\tsocio\xffeconomic\n")
    with pytest.raises(FileFormatError) as err:
        load_manifest(path)
    assert str(err.value) == f"{path}: not UTF-8 text: cannot decode byte 0xff"


def test_cell_over_the_csv_field_limit_names_its_data_row(generated, tmp_path):
    # It reads as inf, so the load goes to the row loop and its csv reader.
    oversized = "1" * (csv.field_size_limit() + 1)
    path, manifest, _ = _with_last_row_first_cell(generated, tmp_path, lambda _: oversized)
    with pytest.raises(FileFormatError) as err:
        load_dataset(path, manifest)
    limit = csv.field_size_limit()
    assert str(err.value) == f"{path}: data row 5000: field larger than field limit ({limit})"
    # The same cell in the header row
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([oversized + header, *rows]) + "\n")
    with pytest.raises(FileFormatError, match=r"d\.csv: header: field larger than field limit"):
        load_dataset(path, manifest)


@pytest.mark.parametrize("where", ["feature", "unused"])
def test_finite_cell_over_the_csv_field_limit_loads(generated, tmp_path, where):
    # numpy's reader has no field limit, so only a non-finite cell (the
    # test above) reaches the csv reader's limit.
    folder, manifest, lines = generated
    long_cell = "0" * csv.field_size_limit() + "1"
    header, *rows = lines
    first = header.split(";")[0]
    if where == "feature":
        rows[-1] = long_cell + rows[-1][rows[-1].index(";"):]
    else:
        header += ";Note"
        rows[-1] += ";" + "x" * len(long_cell)
    path = tmp_path / "d.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    ds = load_dataset(path, manifest)
    expected = load_dataset(folder / "d.csv", manifest).feature_matrix.copy()
    if where == "feature":
        expected[-1, manifest.column_names.index(first)] = 1.0
    assert ds.feature_matrix.tobytes() == expected.tobytes()


# --- the streaming loader against the row-by-row reference ------------------

COLUMNS = ("Age", "Debt", "GDP")
GOOD_CELLS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["+3", "-0.0", ".5", "5.", "1E-3", "1e308"]),
)
# "1_000" and the fullwidth "１" parse with float() alone, not numpy's reader.
BAD_CELLS = st.sampled_from(
    ["", "  ", "x", "nan", " NaN ", "inf", "-Infinity", "1e999", "1_000", "1__0", "１", "1;2",
     "\x1c"]
)
PADDING = st.sampled_from(["", "", " ", "\t", "  "])
SEPARATOR_PADDING = st.sampled_from(["", "", " ", "\t", "\x1c", " \x1f"])
GOOD_TARGETS = st.sampled_from([o.value for o in Outcome])
BAD_TARGETS = st.sampled_from(["dropout", "", "Unknown", " "])


@st.composite
def padded(draw, cells, padding):
    return draw(padding) + draw(cells) + draw(padding)


def _quote(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def records_files(draw, with_errors=True):
    """(manifest, file bytes): a header in any column order, data rows
    with padded (in some files by \\x1c-\\x1f) and quoted cells, blank
    lines, an optional BOM and, if ``with_errors``, short rows and bad
    cells."""
    chosen = draw(st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=3, unique=True))
    manifest = GroupManifest(
        entries=tuple((name, FeatureGroup.ACADEMIC) for name in chosen), version_tag="t"
    )
    header = draw(st.permutations(list(COLUMNS) + ["Target", "Note"]))
    error_rate = draw(st.sampled_from([0.0, 0.05, 0.2])) if with_errors else 0.0
    padding = draw(st.sampled_from([PADDING, SEPARATOR_PADDING]))
    lines = [[draw(padded(st.just(name), PADDING)) for name in header]]
    for _ in range(draw(st.integers(0, 24))):
        if draw(st.integers(0, 9)) == 0:
            lines.append([])  # a blank line
            continue
        # Bad cells come in bad rows, often several to a row.
        bad_row = draw(st.floats(0, 1)) < error_rate
        row = []
        for name in header:
            bad = bad_row and draw(st.booleans())
            if name == "Target":
                cells = BAD_TARGETS if bad else GOOD_TARGETS
            elif name == "Note":
                cells = st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=3)
            else:
                cells = BAD_CELLS if bad else GOOD_CELLS
            row.append(draw(padded(cells, padding)))
        if bad_row and draw(st.booleans()):
            row = row[: draw(st.integers(0, len(row) - 1))]  # a short row
        lines.append(row)
    text = draw(st.sampled_from(["\n", "\r\n"])).join(
        ";".join(
            _quote(cell) if draw(st.booleans()) or any(c in cell for c in ';"\r\n') else cell
            for cell in line
        )
        for line in lines
    ) + "\n"
    bom = "\ufeff" if draw(st.booleans()) else ""
    return manifest, (bom + text).encode("utf-8")


def _outcome(loader, path, manifest):
    """What a loader makes of a file: the exact matrix and labels, or
    the error's type and message."""
    try:
        ds = loader(path, manifest)
    except DropcastError as exc:
        return type(exc), str(exc)
    matrix = ds.feature_matrix
    return matrix.dtype, matrix.shape, matrix.tobytes(), (ds.labels.dtype, ds.labels.tolist())


def test_load_dataset_matches_reference(tmp_path_factory):
    took_numpy = []

    @settings(max_examples=300, deadline=None)
    @given(records_files())
    def check(case):
        manifest, data = case
        path = tmp_path_factory.mktemp("records") / "d.csv"
        path.write_bytes(data)
        with _watch_row_loop() as row_loop:
            got = _outcome(load_dataset, path, manifest)
        assert got == _outcome(reference_load_dataset, path, manifest)
        if len(got) == 4:  # it loaded
            took_numpy.append(not row_loop.called)

    check()
    assert sum(took_numpy) >= len(took_numpy) / 4


def _binary_outcome(load, path, manifest):
    """What ``load`` makes of a file as a binary table with class counts:
    the exact matrix and labels and the counts, or the error's type and
    message."""
    try:
        binary, counts = load(path, manifest)
    except DropcastError as exc:
        return type(exc), str(exc)
    matrix = binary.feature_matrix
    assert matrix.flags.c_contiguous and not matrix.flags.writeable
    return _outcome(lambda *args: binary, path, manifest), counts


def _to_binary_of_the_load(path, manifest):
    dataset = load_dataset(path, manifest)
    return to_binary(dataset), class_distribution(dataset)


@pytest.mark.parametrize("move_values", [1, 5, 1 << 16], ids=["row-by-row", "a-few", "default"])
def test_binary_load_equals_to_binary_of_the_load(tmp_path_factory, move_values):
    """Rows move forward in blocks of at least one row, however the
    Enrolled rows fall."""
    @settings(max_examples=80, deadline=None)
    @given(records_files())
    def check(case):
        manifest, data = case
        path = tmp_path_factory.mktemp("records") / "d.csv"
        path.write_bytes(data)
        with mock.patch.object(ingest, "_MOVE_VALUES", move_values):
            got = _binary_outcome(load_binary_dataset, path, manifest)
        assert got == _binary_outcome(_to_binary_of_the_load, path, manifest)

    check()


def test_binary_load_of_5000_rows_equals_to_binary_of_the_load(generated):
    folder, manifest, _ = generated
    got = _binary_outcome(load_binary_dataset, folder / "d.csv", manifest)
    assert got == _binary_outcome(_to_binary_of_the_load, folder / "d.csv", manifest)
    assert 0 < got[1][Outcome.ENROLLED] < 5000


@settings(max_examples=100, deadline=None)
@given(records_files(with_errors=False))
def test_load_write_load_round_trip(tmp_path_factory, case):
    manifest, data = case
    folder = tmp_path_factory.mktemp("round-trip")
    (folder / "d.csv").write_bytes(data)
    first = load_dataset(folder / "d.csv", manifest)
    write_dataset_csv(first, folder / "out.csv")
    second = load_dataset(folder / "out.csv", manifest)
    assert first.feature_matrix.tobytes() == second.feature_matrix.tobytes()
    assert first.feature_matrix.shape == second.feature_matrix.shape
    assert first.labels.dtype == second.labels.dtype == np.int64
    assert np.array_equal(first.labels, second.labels)


@settings(max_examples=100, deadline=None)
@given(records_files(with_errors=False))
def test_labels_binary_rows_and_class_counts_follow_the_target_words(tmp_path_factory, case):
    manifest, data = case
    path = tmp_path_factory.mktemp("labels") / "d.csv"
    path.write_bytes(data)
    ds = load_dataset(path, manifest)
    reference = reference_load_dataset(path, manifest)
    assert ds.labels.dtype == np.int64
    assert np.array_equal(ds.labels, reference.labels)

    keep = [i for i, label in enumerate(reference.labels.tolist()) if label < 2]
    if keep:
        binary = to_binary(ds)
        assert np.array_equal(binary.labels, reference.labels[keep])
        assert binary.feature_matrix.tobytes() == reference.feature_matrix[keep].tobytes()
    else:
        with pytest.raises(InvalidArgumentError, match="^no Dropout or Graduate rows in dataset$"):
            to_binary(ds)

    outcome_of = {label: outcome for outcome, label in LABELS.items()}
    words = Counter(outcome_of[label] for label in reference.labels.tolist())
    assert class_distribution(ds) == {outcome: words[outcome] for outcome in Outcome}


# --- unquoted files, most of which take numpy's reader alone -----------------

PLAIN_GOOD_CELLS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["+3", "-0.0", ".5", "5.", "1E-3", "1e308", "4.9e-325", "1e-400", " 2 "]),
)
# Cells numpy's reader rejects, so that the row loop names one, and cells
# both numpy's reader and float() take once stripped: "\t7", "7\t", "1\x1c".
PLAIN_ODD_CELLS = st.sampled_from(
    ["", " ", "x", "1_000", "0x10", "1d5", "１", "\t7", "7\t", "\t", "1\x1c"]
)
# Cells numpy's reader parses that the loader must still reject.
NON_FINITE_CELLS = st.sampled_from(["nan", " NaN ", "inf", "-Infinity", "1e999"])
LINE_KINDS = ["blank", "whitespace", "lone-cr", "extra", "short", "cells", "non-finite", "target"]


@st.composite
def plain_records_files(draw):
    """(manifest, delimiter, file bytes): no quoted cells, LF or CRLF
    line ends, an optional BOM and final newline, zero or more data
    rows. In half the files every row is plain; in the others one line,
    or about a third of them, is blank, whitespace-only or ended by a
    lone CR, or is a row with extra or missing columns, odd or
    non-finite cells or a bad Target word."""
    delimiter = draw(st.sampled_from([";", ";", ",", "\t"]))
    tab = "\x0b" if delimiter == "\t" else "\t"  # padding other than the delimiter
    chosen = draw(st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=3, unique=True))
    manifest = GroupManifest(
        entries=tuple((name, FeatureGroup.ACADEMIC) for name in chosen), version_tag="t"
    )
    header = draw(st.permutations(list(COLUMNS) + ["Target", "Note"]))
    n_rows = draw(st.integers(0, 24))
    odd_lines = draw(st.sampled_from(["none", "none", "one", "many"]))
    odd_line = draw(st.integers(0, max(n_rows - 1, 0)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    notes = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                                  exclude_characters='"' + delimiter), max_size=3)
    lines = [(delimiter.join(header), newline)]
    for i in range(n_rows):
        if odd_lines == "one":
            odd = i == odd_line
        else:
            odd = odd_lines == "many" and draw(st.integers(0, 2)) == 0
        kind = draw(st.sampled_from(LINE_KINDS)) if odd else None
        if kind == "blank":
            lines.append(("", newline))
            continue
        if kind == "whitespace":
            lines.append((draw(st.sampled_from([" ", "  ", tab, " " + tab])), newline))
            continue
        row = []
        for name in header:
            if name == "Target":
                cells = BAD_TARGETS if kind == "target" else GOOD_TARGETS
            elif name == "Note":
                cells = notes
            elif kind in ("cells", "non-finite") and draw(st.booleans()):
                bad = PLAIN_ODD_CELLS if kind == "cells" else NON_FINITE_CELLS
                cells = bad.map(lambda c: c.replace("\t", tab))
            else:
                cells = PLAIN_GOOD_CELLS
            row.append(draw(cells))
        if kind == "extra":
            row += draw(st.lists(PLAIN_GOOD_CELLS, min_size=1, max_size=2))
        if kind == "short":
            row = row[: draw(st.integers(0, len(row) - 1))]
        end = "\r" if kind == "lone-cr" else newline
        lines.append((delimiter.join(row) if kind != "lone-cr" or draw(st.booleans()) else "", end))
    text = "".join(body + end for body, end in lines)
    if not draw(st.booleans()):
        text = text.removesuffix(lines[-1][1])  # no final line end
    bom = "\ufeff" if draw(st.booleans()) else ""
    return manifest, delimiter, (bom + text).encode("utf-8")


def test_plain_records_files_match_reference(tmp_path_factory):
    took_numpy = []

    @settings(max_examples=300, deadline=None)
    @given(plain_records_files())
    def check(case):
        manifest, delimiter, data = case
        path = tmp_path_factory.mktemp("plain") / "d.csv"
        path.write_bytes(data)
        with _watch_row_loop() as row_loop:
            got = _outcome(lambda p, m: load_dataset(p, m, delimiter), path, manifest)
        assert got == _outcome(lambda p, m: reference_load_dataset(p, m, delimiter), path, manifest)
        # Rows came from numpy's reader: some loaded, no row loop.
        took_numpy.append(not row_loop.called and len(got) == 4 and got[1][0] > 0)

    check()
    assert sum(took_numpy) >= len(took_numpy) / 4


# --- one cell: the row loop takes it exactly when numpy's reader does --------

# Characters at the edges of a number cell, and any others; never a
# delimiter, quote or line end, so that the cell is one field to both.
CELL_CHARACTERS = st.one_of(
    st.sampled_from([*"0123456789+-.eE_ nNaAiIfFtTyY", "\t", "\x0b", "\x0c", "\x1c", "\x1d",
                     "\x1e", "\x1f", "\x85", "\xa0", "\u2003", "\u3000", "１", "٣", "߀", "²"]),
    st.characters(codec="utf-8", exclude_characters=';"\r\n'),
)
CELL_TEXTS = st.one_of(
    st.text(CELL_CHARACTERS, min_size=1, max_size=6),
    st.sampled_from(["nan", " -NaN", "inf", "+Infinity", "1e999", "1_000", "１", "\t7", "1\x1c"]),
)


@settings(max_examples=1000, deadline=None)
@given(CELL_TEXTS)
def test_row_loop_takes_a_cell_exactly_when_numpy_does(tmp_path_factory, cell):
    folder = tmp_path_factory.mktemp("cell")
    (folder / "cell.csv").write_bytes(f"{cell}\n".encode())
    try:
        with open(folder / "cell.csv", encoding="utf-8", newline="") as handle:
            value = np.loadtxt(handle, delimiter=";", quotechar='"', comments=None)
        takes = bool(value.size == 1 and np.isfinite(value))
    except ValueError:
        takes = False
    path = folder / "d.csv"
    path.write_bytes(f"Age;Target\n{cell};Dropout\n".encode())
    manifest = GroupManifest(entries=(("Age", FeatureGroup.ACADEMIC),), version_tag="t")
    with pytest.raises(DropcastError) as err:
        ingest._raise_first_bad_cell(path, ";", ("Age",), [0], 1)
    if takes:
        # The loop finds no bad cell and says so in one line; the load
        # gives numpy's value, which is the loop's float() of the cell.
        assert type(err.value) is FileFormatError
        assert str(err.value) == f"{path}: cannot read the data rows, though no cell is bad"
        assert np.float64(float(cell.strip())).tobytes() == value.tobytes()
        assert load_dataset(path, manifest).feature_matrix.tobytes() == value.tobytes()
    else:
        assert type(err.value) in (CellParseError, MissingValueError)
        assert (err.value.row, err.value.column) == (1, "Age")
        assert "\n" not in str(err.value)
        assert _outcome(load_dataset, path, manifest) == (type(err.value), str(err.value))

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropcast.errors import InvalidArgumentError
from dropcast.fixture import _digits_block, _hundredths_block, generate_fixture
from dropcast.ingest import FeatureGroup, load_dataset, load_manifest, to_binary
from dropcast.metrics import auc
from dropcast.models import HyperParams, ModelKind
from dropcast.experiments import RunConfig, run_baseline

from oracles import reference_fixture_bytes


def test_same_arguments_identical_bytes(tmp_path):
    a_csv, a_man = tmp_path / "a.csv", tmp_path / "a.tsv"
    b_csv, b_man = tmp_path / "b.csv", tmp_path / "b.tsv"
    for csv_path, man_path in ((a_csv, a_man), (b_csv, b_man)):
        generate_fixture(csv_path, man_path, n_rows=80, seed=5,
                         planted_group=FeatureGroup.SOCIOECONOMIC, signal_strength=2.0)
    assert a_csv.read_bytes() == b_csv.read_bytes()
    assert a_man.read_bytes() == b_man.read_bytes()


def test_small_fixture_bytes_are_pinned(tmp_path):
    # Digest of `dropcast fixture --rows 50 --seed 7 --planted-group academic
    # --strength 3.0` as written by the original row-by-row formatter.
    csv_path = tmp_path / "fixture.csv"
    generate_fixture(csv_path, tmp_path / "m.tsv", n_rows=50, seed=7,
                     planted_group=FeatureGroup.ACADEMIC, signal_strength=3.0)
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
        "ed5502b92682d5eeb8f17ad74cfa97728e93aa1eedcb2356857d684438cd06c8"
    )


def test_bench_fixture_bytes_are_pinned(tmp_path):
    # Digest of the bench fixture, `dropcast fixture --rows 4424 --seed 7
    # --planted-group academic --strength 3.0`, as written by the row-by-row
    # formatter.
    csv_path = tmp_path / "fixture.csv"
    generate_fixture(csv_path, tmp_path / "m.tsv", n_rows=4424, seed=7,
                     planted_group=FeatureGroup.ACADEMIC, signal_strength=3.0)
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
        "66eff1a589280294deba452f4c8f217fb4bc61842223f262eff1c6d7ff6923a4"
    )


_PLANTING = st.one_of(
    st.just((None, 0.0)),
    st.tuples(st.sampled_from(FeatureGroup),
              st.floats(min_value=0.0, max_value=20.0, exclude_min=True)),
)


@settings(max_examples=100, deadline=None)
@given(n_rows=st.integers(20, 2000), seed=st.integers(0, 2**64 - 1), planting=_PLANTING)
def test_bytes_equal_row_by_row_reference(tmp_path_factory, n_rows, seed, planting):
    group, strength = planting
    folder = tmp_path_factory.mktemp("fixture")
    generate_fixture(folder / "f.csv", folder / "m.tsv", n_rows=n_rows, seed=seed,
                     planted_group=group, signal_strength=strength)
    assert (folder / "f.csv").read_bytes() == reference_fixture_bytes(n_rows, seed, group, strength)


def test_integer_cells_match_str():
    values = np.array([0, 1, 9, 10, 99, 100, 101, 4424, 88480, 2**63 - 1], dtype=np.int64)
    block = _digits_block(values)
    for v, row in zip(values.tolist(), block):
        assert row[row != 0].tobytes() == str(v).encode(), v


def test_macroeconomic_cells_match_two_decimal_format():
    # Every value np.round(x, 2) gives for x in [-3, 3), and the -0.0 it
    # gives for x in (-0.005, 0).
    values = np.append(np.round(np.arange(-300, 301) / 100, 2), -0.0)
    block = _hundredths_block(values)
    for v, row in zip(values.tolist(), block):
        assert row[row != 0].tobytes() == f"{v:.2f}".encode(), v


def test_different_seed_different_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    generate_fixture(a, tmp_path / "a.tsv", n_rows=80, seed=5)
    generate_fixture(b, tmp_path / "b.tsv", n_rows=80, seed=6)
    assert a.read_bytes() != b.read_bytes()


def test_fixture_loads_with_default_schema(tmp_path):
    csv_path, man_path = tmp_path / "f.csv", tmp_path / "m.tsv"
    generate_fixture(csv_path, man_path, n_rows=60, seed=1)
    manifest = load_manifest(man_path)
    assert len(manifest.entries) == 34
    ds = load_dataset(csv_path, manifest)
    assert ds.n_rows == 60
    assert ds.n_columns == 34
    binary = to_binary(ds)
    assert 0 < binary.n_rows <= 60


def test_minimum_rows_enforced(tmp_path):
    with pytest.raises(InvalidArgumentError):
        generate_fixture(tmp_path / "f.csv", tmp_path / "m.tsv", n_rows=19, seed=1)


@pytest.mark.parametrize("group, strength, message", [
    (None, 3.0, "needs a planted group"),
    (FeatureGroup.ACADEMIC, 0.0, "needs a positive signal_strength"),
], ids=["strength-alone", "group-alone"])
def test_group_and_strength_only_together(tmp_path, group, strength, message):
    with pytest.raises(InvalidArgumentError, match=message):
        generate_fixture(tmp_path / "f.csv", tmp_path / "m.tsv", n_rows=50, seed=1,
                         planted_group=group, signal_strength=strength)
    assert not any(tmp_path.iterdir())


def test_negative_strength_rejected(tmp_path):
    with pytest.raises(InvalidArgumentError):
        generate_fixture(tmp_path / "f.csv", tmp_path / "m.tsv", n_rows=50, seed=1,
                         planted_group=FeatureGroup.ACADEMIC, signal_strength=-1.0)


@pytest.mark.parametrize("strength", [float("nan"), float("inf")])
def test_non_finite_strength_rejected(tmp_path, strength):
    with pytest.raises(InvalidArgumentError, match="finite"):
        generate_fixture(tmp_path / "f.csv", tmp_path / "m.tsv", n_rows=50, seed=1,
                         planted_group=FeatureGroup.ACADEMIC, signal_strength=strength)
    assert not (tmp_path / "f.csv").exists()


def test_zero_strength_gives_null_aucs(tmp_path):
    csv_path, man_path = tmp_path / "f.csv", tmp_path / "m.tsv"
    generate_fixture(csv_path, man_path, n_rows=1500, seed=3, signal_strength=0.0)
    config = RunConfig(
        data_path=csv_path, manifest_path=man_path,
        models=(ModelKind.DECISION_TREE, ModelKind.KNN), seeds=(42, 43),
        hyperparams=HyperParams(forest_n_trees=10, svm_epochs=20),
    )
    by_model: dict[str, list[float]] = {}
    for report in run_baseline(config):
        by_model.setdefault(report.model_kind.label, []).append(report.auc)
    for label, values in by_model.items():
        assert 0.4 <= float(np.mean(values)) <= 0.6, (label, values)


def test_group_exclusion_arithmetic_on_default_schema(tmp_path):
    from dropcast.preprocess import exclude_group

    csv_path, man_path = tmp_path / "f.csv", tmp_path / "m.tsv"
    generate_fixture(csv_path, man_path, n_rows=40, seed=2)
    binary = to_binary(load_dataset(csv_path, load_manifest(man_path)))
    assert binary.n_columns == 34
    assert exclude_group(binary, FeatureGroup.ACADEMIC).n_columns == 17
    assert exclude_group(binary, FeatureGroup.MACROECONOMIC).n_columns == 31
    assert exclude_group(binary, FeatureGroup.DEMOGRAPHIC).n_columns == 28
    assert exclude_group(binary, FeatureGroup.SOCIOECONOMIC).n_columns == 26


def test_planted_signal_is_learnable(tmp_path):
    csv_path, man_path = tmp_path / "f.csv", tmp_path / "m.tsv"
    generate_fixture(csv_path, man_path, n_rows=500, seed=4,
                     planted_group=FeatureGroup.MACROECONOMIC, signal_strength=4.0)
    config = RunConfig(
        data_path=csv_path, manifest_path=man_path,
        models=(ModelKind.LINEAR_SVM,), seeds=(42,),
        hyperparams=HyperParams(svm_epochs=100),
    )
    (report,) = run_baseline(config)
    assert report.auc > 0.7

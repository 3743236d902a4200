import hashlib

import numpy as np
import pytest

from dropcast.errors import InvalidArgumentError
from dropcast.fixture import generate_fixture
from dropcast.ingest import FeatureGroup, load_dataset, load_manifest, to_binary
from dropcast.metrics import auc
from dropcast.models import HyperParams, ModelKind
from dropcast.experiments import RunConfig, run_baseline


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

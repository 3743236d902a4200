import numpy as np
import pytest

from dropcast.errors import InvalidArgumentError
from dropcast.experiments import (
    ABLATION_COLUMNS,
    AblationReport,
    RunConfig,
    column_label,
    evaluate_single,
    rank_group_influence,
    run_ablation,
    run_baseline,
)
from dropcast.fixture import generate_fixture
from dropcast.ingest import FeatureGroup
from dropcast.models import HyperParams, ModelKind
from dropcast.models.serialize import model_to_text
from dropcast.preprocess import split

from conftest import make_binary


@pytest.fixture(scope="module")
def null_fixture(tmp_path_factory):
    d = tmp_path_factory.mktemp("null_fixture")
    # Large enough that chance feature-label correlation (a finite-sample
    # effect present even under a perfect generator) stays small.
    generate_fixture(d / "fix.csv", d / "man.tsv", n_rows=1500, seed=11)
    return d / "fix.csv", d / "man.tsv"


@pytest.fixture(scope="module")
def planted_fixture(tmp_path_factory):
    d = tmp_path_factory.mktemp("planted_fixture")
    generate_fixture(
        d / "fix.csv", d / "man.tsv", n_rows=420, seed=12,
        planted_group=FeatureGroup.ACADEMIC, signal_strength=4.0,
    )
    return d / "fix.csv", d / "man.tsv"


def small_hp():
    return HyperParams(forest_n_trees=40, svm_epochs=80)


def test_single_seed_single_model_one_report(null_fixture):
    data, manifest = null_fixture
    config = RunConfig(
        data_path=data, manifest_path=manifest,
        models=(ModelKind.DECISION_TREE,), seeds=(42,), hyperparams=small_hp(),
    )
    reports = run_baseline(config)
    assert len(reports) == 1
    assert reports[0].model_kind is ModelKind.DECISION_TREE
    assert reports[0].seed == 42


def test_null_fixture_auc_near_half(null_fixture):
    data, manifest = null_fixture
    config = RunConfig(
        data_path=data, manifest_path=manifest, seeds=(42, 43, 44), hyperparams=small_hp(),
    )
    reports = run_baseline(config)
    by_model: dict[str, list[float]] = {}
    for r in reports:
        by_model.setdefault(r.model_kind.label, []).append(r.auc)
    for label, aucs in by_model.items():
        assert 0.4 <= float(np.mean(aucs)) <= 0.6, (label, aucs)


def test_report_invariants(null_fixture):
    from oracles import trapezoid_area

    data, manifest = null_fixture
    config = RunConfig(
        data_path=data, manifest_path=manifest,
        models=(ModelKind.LINEAR_SVM, ModelKind.KNN), seeds=(42,), hyperparams=small_hp(),
    )
    for report in run_baseline(config):
        assert 0.0 <= report.auc <= 1.0
        assert abs(report.auc - trapezoid_area(report.curve)) < 1e-12


def test_baseline_reproducible(null_fixture):
    data, manifest = null_fixture
    config = RunConfig(
        data_path=data, manifest_path=manifest,
        models=(ModelKind.RANDOM_FOREST,), seeds=(42, 43), hyperparams=small_hp(),
    )
    a = run_baseline(config)
    b = run_baseline(config)
    assert [r.auc for r in a] == [r.auc for r in b]
    assert [r.accuracy for r in a] == [r.accuracy for r in b]


@pytest.fixture(scope="module")
def planted_report(planted_fixture):
    data, manifest = planted_fixture
    config = RunConfig(
        data_path=data, manifest_path=manifest, seeds=(42,), hyperparams=small_hp(),
    )
    return run_ablation(config)


class TestAblation:
    def test_grid_shape_and_labels(self, planted_report):
        report = planted_report
        assert report.model_labels == ("SVC", "DT", "RF", "KNN")
        assert report.column_labels == (
            "baseline", "excl_academic", "excl_demographic",
            "excl_macroeconomic", "excl_socioeconomic",
        )
        assert report.mean_auc.shape == (4, 5)
        assert ((report.mean_auc >= 0) & (report.mean_auc <= 1)).all()

    def test_column_mean_is_mean_of_model_cells(self, planted_report):
        report = planted_report
        assert np.allclose(report.column_mean, report.mean_auc.mean(axis=0), atol=1e-12)

    def test_planted_group_exclusion_is_column_minimum(self, planted_report):
        report = planted_report
        excl_academic = report.column_labels.index("excl_academic")
        assert report.column_mean.argmin() == excl_academic

    def test_influence_ranking_puts_planted_group_first(self, planted_report):
        ranking = rank_group_influence(planted_report)
        assert ranking[0][0] is FeatureGroup.ACADEMIC
        drops = [drop for _, drop in ranking]
        assert drops == sorted(drops, reverse=True)

    def test_run_scores_cover_grid(self, planted_report):
        report = planted_report
        assert len(report.runs) == 4 * 5 * len(report.seeds)
        cells = {(r.model_kind, r.excluded_group) for r in report.runs}
        assert len(cells) == 20

    def test_ablation_reproducible(self, planted_fixture):
        data, manifest = planted_fixture
        config = RunConfig(
            data_path=data, manifest_path=manifest, seeds=(42,),
            models=(ModelKind.DECISION_TREE,), hyperparams=small_hp(),
        )
        a = run_ablation(config)
        b = run_ablation(config)
        assert np.array_equal(a.mean_auc, b.mean_auc)

    def test_single_model_grid(self, planted_fixture):
        data, manifest = planted_fixture
        config = RunConfig(
            data_path=data, manifest_path=manifest, seeds=(42, 43),
            models=(ModelKind.DECISION_TREE,), hyperparams=small_hp(),
        )
        report = run_ablation(config)
        assert report.model_labels == ("DT",)
        assert report.mean_auc.shape == (1, 5)
        assert np.array_equal(report.column_mean, report.mean_auc[0])
        assert np.array_equal(report.column_std, np.zeros(5))
        assert {r.model_kind for r in report.runs} == {ModelKind.DECISION_TREE}
        assert len(report.runs) == 5 * 2

    def test_excluded_group_is_rejected(self, planted_fixture):
        data, manifest = planted_fixture
        config = RunConfig(
            data_path=data, manifest_path=manifest, seeds=(42,),
            excluded_group=FeatureGroup.ACADEMIC, hyperparams=small_hp(),
        )
        with pytest.raises(InvalidArgumentError, match="excluded_group"):
            run_ablation(config)


def test_split_consistency_across_columns(null_fixture, monkeypatch):
    """All five ablation columns must see identical train/test indices
    per seed: verified by recording every split evaluate_single sees."""
    import dropcast.experiments as exp

    data, manifest = null_fixture
    seen: list[tuple[int, tuple, tuple]] = []
    original = exp.evaluate_single

    def recording(binary, indices, kind, hp, excluded_group=None):
        seen.append((indices.seed, tuple(indices.train_rows), tuple(indices.test_rows)))
        return original(binary, indices, kind, hp, excluded_group=excluded_group)

    monkeypatch.setattr(exp, "evaluate_single", recording)
    config = RunConfig(
        data_path=data, manifest_path=manifest, seeds=(42, 43),
        hyperparams=HyperParams(forest_n_trees=5, svm_epochs=10),
    )
    exp.run_ablation(config)
    by_seed: dict[int, set] = {}
    for seed, train, test in seen:
        by_seed.setdefault(seed, set()).add((train, test))
    assert set(by_seed) == {42, 43}
    for seed, combos in by_seed.items():
        assert len(combos) == 1  # one split, reused everywhere


@pytest.mark.parametrize("kind", [ModelKind.LINEAR_SVM, ModelKind.KNN])
def test_no_leakage_from_test_rows(kind):
    """Shifting every held-out row leaves the trained model's standardizer
    and payload bit-identical: only training rows reach the fit."""
    rng = np.random.default_rng(13)
    matrix = rng.normal(loc=5.0, scale=2.0, size=(100, 3))
    labels = (matrix[:, 0] + rng.normal(size=100) > 5).astype(int)
    indices = split(100, 0.2, 42)
    tampered = matrix.copy()
    tampered[indices.test_rows] += 1000.0
    hp = HyperParams(svm_epochs=10, knn_k=5)
    model, _ = evaluate_single(make_binary(matrix, labels), indices, kind, hp)
    other, _ = evaluate_single(make_binary(tampered, labels), indices, kind, hp)
    assert model.standardizer is not None
    # The text holds the standardizer and every payload field, floats in repr.
    assert model_to_text(other) == model_to_text(model)


def test_excluding_noise_group_barely_moves_auc(planted_fixture):
    data, manifest = planted_fixture
    config = RunConfig(
        data_path=data, manifest_path=manifest, seeds=(42,), hyperparams=small_hp(),
    )
    report = run_ablation(config)
    baseline = report.column_mean[report.column_labels.index("baseline")]
    for noise_column in ("excl_macroeconomic", "excl_demographic"):
        moved = abs(report.column_mean[report.column_labels.index(noise_column)] - baseline)
        assert moved < 0.05


class TestRankGroupInfluence:
    def _report(self, grid_by_column):
        columns = tuple(column_label(g) for g in ABLATION_COLUMNS)
        grid = np.column_stack([grid_by_column[c] for c in columns])
        return AblationReport(
            model_labels=("SVC", "DT", "RF", "KNN"),
            column_labels=columns,
            mean_auc=grid,
            seed_std=np.zeros_like(grid),
            column_mean=grid.mean(axis=0),
            column_std=grid.std(axis=0, ddof=1),
            manifest_version="test",
            seeds=(42,),
            runs=(),
        )

    def test_published_style_grid_ordering(self):
        # Grid shaped like the reported results: baseline average 0.935,
        # exclusions averaging 0.811 / 0.934 / 0.935 / 0.922. Expected
        # drops: academic 0.124, socioeconomic 0.013, demographic 0.001,
        # macroeconomic ~0.000 (last).
        report = self._report({
            "baseline": [0.953, 0.911, 0.955, 0.92],
            "excl_academic": [0.821, 0.798, 0.823, 0.80],
            "excl_demographic": [0.950, 0.912, 0.953, 0.92],
            "excl_macroeconomic": [0.952, 0.904, 0.954, 0.93],
            "excl_socioeconomic": [0.939, 0.894, 0.945, 0.91],
        })
        ranking = rank_group_influence(report)
        assert [g for g, _ in ranking] == [
            FeatureGroup.ACADEMIC,
            FeatureGroup.SOCIOECONOMIC,
            FeatureGroup.DEMOGRAPHIC,
            FeatureGroup.MACROECONOMIC,
        ]
        drops = dict((g, d) for g, d in ranking)
        assert drops[FeatureGroup.ACADEMIC] == pytest.approx(0.124, abs=5e-4)
        assert drops[FeatureGroup.SOCIOECONOMIC] == pytest.approx(0.013, abs=5e-4)
        assert drops[FeatureGroup.DEMOGRAPHIC] == pytest.approx(0.001, abs=5e-4)
        assert abs(drops[FeatureGroup.MACROECONOMIC]) < 0.001

    def test_equal_columns_alphabetical(self):
        cells = [0.9, 0.9, 0.9, 0.9]
        report = self._report({column_label(g): cells for g in ABLATION_COLUMNS})
        ranking = rank_group_influence(report)
        assert [g.value for g, _ in ranking] == [
            "academic", "demographic", "macroeconomic", "socioeconomic",
        ]
        assert all(drop == 0.0 for _, drop in ranking)

    def test_negative_drop_not_clamped(self):
        report = self._report({
            "baseline": [0.8, 0.8, 0.8, 0.8],
            "excl_academic": [0.9, 0.9, 0.9, 0.9],
            "excl_demographic": [0.7, 0.7, 0.7, 0.7],
            "excl_macroeconomic": [0.8, 0.8, 0.8, 0.8],
            "excl_socioeconomic": [0.8, 0.8, 0.8, 0.8],
        })
        drops = dict(rank_group_influence(report))
        assert drops[FeatureGroup.ACADEMIC] == pytest.approx(-0.1)


@pytest.mark.parametrize("seeds", [(42, 42 + 2**64, -1), (42, 42), (-1,), (2**64,), ()])
def test_run_config_rejects_seeds_that_would_repeat_a_split(seeds):
    with pytest.raises(InvalidArgumentError):
        RunConfig(data_path="d.csv", manifest_path="m.tsv", seeds=seeds)


def test_a_run_config_without_models_is_refused():
    with pytest.raises(InvalidArgumentError, match=r"^models list must be nonempty$"):
        RunConfig(data_path="d.csv", manifest_path="m.tsv", models=())

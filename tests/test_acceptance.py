"""Acceptance suite: one test per criterion, one printed verdict line each.

Criteria 1-4 evaluate the reproduction targets on the public records
file and are skipped when it is absent (drop it at data/students.csv or
point DROPCAST_DATA at it). Criteria 5-6 run on synthetic fixtures
only. Verdict lines suspend pytest's capture so they always appear.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from dropcast.cli import main
from dropcast.experiments import RunConfig, rank_group_influence, run_ablation, run_baseline
from dropcast.fixture import generate_fixture
from dropcast.ingest import FeatureGroup
from dropcast.metrics import auc, forest_importance, roc_curve
from dropcast.models import HyperParams, ModelKind, train_model
from dropcast.models.forest import build_forest, candidate_count
import dropcast.models.knn as knn_mod
from dropcast.models.knn import knn_scores, train_knn
from dropcast.models.tree import build_tree, tree_scores
from dropcast.preprocess import split
from dropcast.rng import SeededRng

from conftest import make_binary, real_data_path, requires_dataset, sniff_manifest_path
from oracles import (
    assert_strict_gini_decrease,
    brute_force_knn_scores,
    max_node_depth,
    pair_count_auc,
    trapezoid_area,
)

TABLE_MEAN_AUC = {"RF": 0.955, "SVC": 0.953, "KNN": 0.92, "DT": 0.911}
FOUR_MODEL_AVERAGE = 0.935
EXCL_ACADEMIC_AVERAGE = 0.811
TOP_THREE_FEATURES = {
    "Curricular units 1st sem (approved)",
    "Curricular units 2nd sem (approved)",
    "Curricular units 2nd sem (grade)",
}


@pytest.fixture
def verdict(capsys):
    def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
        line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" — {detail}"
        with capsys.disabled():
            print(line, flush=True)

    return _verdict


@pytest.fixture
def skip_line(capsys):
    def _skip(number: int, name: str) -> None:
        with capsys.disabled():
            print(
                f"ACCEPTANCE {number} ({name}): SKIP — records file not present",
                flush=True,
            )

    return _skip


def _real_config(**overrides) -> RunConfig:
    path = real_data_path()
    defaults = dict(
        data_path=path,
        manifest_path=sniff_manifest_path(path),
        seeds=(42, 43, 44, 45, 46),
        test_fraction=0.2,
        hyperparams=HyperParams(),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


class TestCriterion1:
    @requires_dataset
    def test_baseline_auc_reproduction(self, verdict):
        started = time.monotonic()
        reports = run_baseline(_real_config())
        elapsed = time.monotonic() - started
        means: dict[str, float] = {}
        for label in TABLE_MEAN_AUC:
            values = [r.auc for r in reports if r.model_kind.label == label]
            means[label] = float(np.mean(values))
        overall = float(np.mean(list(means.values())))
        parts = [f"{label} {means[label]:.3f} (target {TABLE_MEAN_AUC[label]})"
                 for label in ("RF", "SVC", "KNN", "DT")]
        parts.append(f"avg {overall:.3f} (target {FOUR_MODEL_AVERAGE})")
        parts.append(f"runtime {elapsed:.0f}s")
        ok = all(abs(means[m] - t) <= 0.03 for m, t in TABLE_MEAN_AUC.items())
        ok = ok and abs(overall - FOUR_MODEL_AVERAGE) <= 0.02
        verdict(1, "baseline AUC", ok, "; ".join(parts))
        assert ok, parts

    def test_skip_notice(self, skip_line):
        if real_data_path() is None:
            skip_line(1, "baseline AUC")
            pytest.skip("records file not present")


@pytest.fixture(scope="module")
def real_ablation():
    return run_ablation(_real_config())


class TestCriterion2:
    @requires_dataset
    def test_ablation_reproduction(self, real_ablation, verdict):
        report = real_ablation
        column = report.column_labels.index("excl_academic")
        academic_mean = float(report.column_mean[column])
        ranking = rank_group_influence(report)
        drops = dict(ranking)
        academic_is_strict_max = all(
            drops[FeatureGroup.ACADEMIC] > drop
            for group, drop in drops.items()
            if group is not FeatureGroup.ACADEMIC
        )
        macro_small = abs(drops[FeatureGroup.MACROECONOMIC]) <= 0.01
        order_ok = (
            ranking[0][0] is FeatureGroup.ACADEMIC
            and ranking[-1][0] is FeatureGroup.MACROECONOMIC
        )
        ok = (
            abs(academic_mean - EXCL_ACADEMIC_AVERAGE) <= 0.04
            and academic_is_strict_max
            and macro_small
            and order_ok
        )
        detail = (
            f"excl-academic mean {academic_mean:.3f} (target {EXCL_ACADEMIC_AVERAGE}); "
            f"drops " + ", ".join(f"{g.value} {d:+.3f}" for g, d in ranking)
        )
        verdict(2, "ablation grid", ok, detail)
        assert ok, detail

    def test_skip_notice(self, skip_line):
        if real_data_path() is None:
            skip_line(2, "ablation grid")
            pytest.skip("records file not present")


class TestCriterion3:
    @requires_dataset
    def test_importance_top_three(self, real_binary, verdict):
        hits = 0
        seeds = (42, 43, 44, 45, 46)
        for seed in seeds:
            indices = split(real_binary.n_rows, 0.2, seed)
            train = make_binary(
                real_binary.feature_matrix[indices.train_rows],
                real_binary.labels[indices.train_rows],
                groups=real_binary.column_groups,
                names=real_binary.column_names,
            )
            model = train_model(ModelKind.RANDOM_FOREST, train, HyperParams())
            ranked = sorted(zip(real_binary.column_names, forest_importance(model)),
                            key=lambda item: (-item[1], item[0]))
            if {name for name, _ in ranked[:3]} == TOP_THREE_FEATURES:
                hits += 1
        ok = hits >= 4
        verdict(3, "feature importance", ok, f"top-3 match in {hits}/5 seeds")
        assert ok, hits

    def test_skip_notice(self, skip_line):
        if real_data_path() is None:
            skip_line(3, "feature importance")
            pytest.skip("records file not present")


class TestCriterion4:
    @requires_dataset
    def test_eda_exactness(self, real_dataset, real_binary, verdict):
        from dropcast.eda import class_distribution, gender_distribution, rate_by_category
        from dropcast.ingest import Outcome

        problems = []
        if real_dataset.n_rows != 4424:
            problems.append(f"row count {real_dataset.n_rows}")
        if real_binary.n_rows != 3630:
            problems.append(f"binary row count {real_binary.n_rows}")
        counts = class_distribution(real_dataset)
        if (counts[Outcome.DROPOUT], counts[Outcome.GRADUATE], counts[Outcome.ENROLLED]) != (1421, 2209, 794):
            problems.append(f"class counts {counts}")

        genders = gender_distribution(real_binary)
        female = genders.get((0.0, 0), 0) + genders.get((0.0, 1), 0)
        male = genders.get((1.0, 0), 0) + genders.get((1.0, 1), 0)
        if (female, male) != (2381, 1249):
            problems.append(f"gender totals ({female}, {male})")

        def rates(feature, code):
            """(dropout rate, graduate rate) of one code of ``feature``."""
            rows = rate_by_category(real_binary, feature)
            return next((d, g) for c, _, d, g in rows if c == code)

        dropout_rate, _ = rates("Tuition fees up to date", 0.0)
        if abs(dropout_rate - 0.94) > 0.01:
            problems.append(f"tuition-late dropout rate {dropout_rate:.3f}")

        debtor_dropout, _ = rates("Debtor", 1.0)
        if abs(debtor_dropout - 0.76) > 0.01:
            problems.append(f"debtor dropout rate {debtor_dropout:.3f}")

        _, scholar_grad = rates("Scholarship holder", 1.0)
        if abs(scholar_grad - 0.86) > 0.01:
            problems.append(f"scholarship graduate rate {scholar_grad:.3f}")

        ok = not problems
        verdict(4, "EDA exactness", ok, "; ".join(problems) or "all five statistics match")
        assert ok, problems

    def test_skip_notice(self, skip_line):
        if real_data_path() is None:
            skip_line(4, "EDA exactness")
            pytest.skip("records file not present")


class TestCriterion5:
    """Property suite; fixtures only, no dataset required."""

    def test_auc_equals_pair_count_oracle_on_1000_instances(self, verdict):
        rng = np.random.default_rng(1000)
        checked = 0
        failures = 0
        while checked < 1000:
            n = int(rng.integers(2, 501))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            if rng.random() < 0.5:
                scores = rng.normal(size=n)
            else:
                scores = rng.integers(0, 6, size=n).astype(float) / 5.0
            if auc(scores, labels) != pair_count_auc(scores, labels):
                failures += 1
            checked += 1
        ok = failures == 0
        verdict(5, "AUC pair-count oracle", ok, f"{checked} instances, {failures} mismatches")
        assert ok

    def test_trapezoid_rank_agreement(self, verdict):
        rng = np.random.default_rng(1001)
        worst = 0.0
        for _ in range(300):
            n = int(rng.integers(2, 400))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            scores = np.round(rng.normal(size=n), 1)
            gap = abs(auc(scores, labels) - trapezoid_area(roc_curve(scores, labels)))
            worst = max(worst, gap)
        ok = worst < 1e-12
        verdict(5, "trapezoid-rank agreement", ok, f"worst gap {worst:.2e}")
        assert ok

    def test_tree_depth_and_strict_impurity_decrease(self, verdict):
        rng = np.random.default_rng(1002)
        internal_nodes = 0
        depth_ok = True
        for trial in range(10):
            n = int(rng.integers(40, 160))
            x = rng.integers(0, 6, size=(n, 5)).astype(float)
            y = rng.integers(0, 2, size=n)
            if y.sum() in (0, n):
                continue
            tree = build_tree(x, y, max_depth=5)
            depth_ok = depth_ok and max_node_depth(tree) <= 5
            internal_nodes += assert_strict_gini_decrease(tree, x, y)
            # forest trees, including bootstrap duplicates
            forest = build_forest(x, y, n_trees=4, seed=trial)
            for i, ftree in enumerate(forest.trees):
                boot = SeededRng(trial ^ i).integers(n, n)
                internal_nodes += assert_strict_gini_decrease(ftree, x, y, initial_idx=boot)
        ok = depth_ok and internal_nodes > 50
        verdict(
            5, "tree invariants", ok,
            f"{internal_nodes} internal nodes checked exactly, depth bound held",
        )
        assert ok

    def test_knn_matches_brute_force_oracle(self, verdict):
        rng = np.random.default_rng(1003)
        mismatches = 0
        for trial in range(8):
            n = int(rng.integers(30, 201))
            p = int(rng.integers(2, 6))
            x = rng.integers(0, 4, size=(n, p)).astype(float)
            y = rng.integers(0, 2, size=n).astype(float)
            k = int(rng.integers(1, 21))
            queries = rng.integers(0, 4, size=(12, p)).astype(float)
            model = train_knn(x, y, k=k)
            if not np.array_equal(
                knn_scores(model, queries), brute_force_knn_scores(x, y, queries, k)
            ):
                mismatches += 1
        ok = mismatches == 0
        verdict(5, "KNN brute-force oracle", ok, f"8 fixtures <=200 rows, {mismatches} mismatches")
        assert ok

    def test_knn_matches_brute_force_oracle_on_continuous_features(self, verdict, monkeypatch):
        # 9-40 standardized features, where numpy's pairwise sums and a
        # Gram-form distance round differently; queries span several blocks
        rng = np.random.default_rng(1005)
        monkeypatch.setattr(knn_mod, "_CHUNK_ELEMENTS", 1000)
        mismatches = 0
        for trial in range(8):
            n = int(rng.integers(100, 201))
            p = int(rng.integers(9, 41))
            data = rng.normal(size=(n + 30, p))
            data = (data - data.mean(axis=0)) / data.std(axis=0)
            x, queries = data[:n], data[n:]
            if trial % 2:  # permutations of one vector: near-ties at the origin
                v = rng.normal(size=p)
                x = np.array([rng.permutation(v) for _ in range(n)])
                queries[:3] = 0.0
            y = rng.integers(0, 2, size=n).astype(float)
            k = int(rng.integers(1, 21))
            model = train_knn(x, y, k=k)
            if not np.array_equal(
                knn_scores(model, queries), brute_force_knn_scores(x, y, queries, k)
            ):
                mismatches += 1
        ok = mismatches == 0
        verdict(5, "KNN oracle, continuous features", ok,
                f"8 fixtures, p 9-40, {mismatches} mismatches")
        assert ok

    def test_forest_lockstep_bit_identity(self, verdict):
        rng = np.random.default_rng(1004)
        x = rng.integers(0, 8, size=(200, 7)).astype(float)
        y = (x[:, 1] > 3).astype(int)
        hp = HyperParams(forest_n_trees=60, seed=42)
        forest = train_model(ModelKind.RANDOM_FOREST, make_binary(x, y), hp)
        queries = rng.normal(size=(40, 7)) * 4
        k = candidate_count(7)
        mismatches = 0
        for i, grown in enumerate(forest.payload.trees):
            stream = SeededRng(42 ^ i)
            alone = build_tree(x, y, sample_idx=stream.integers(200, 200),
                               n_candidates=k, rng=stream)
            same = all(
                np.array_equal(getattr(grown, name), getattr(alone, name))
                for name in ("feature", "threshold", "left", "right", "pos_fraction",
                             "n_samples", "n_positive")
            )
            same = same and np.array_equal(tree_scores(grown, queries), tree_scores(alone, queries))
            mismatches += not same
        identical = mismatches == 0
        verdict(5, "forest lockstep vs. each tree grown alone, bit identity", identical,
                f"60 trees compared, {mismatches} mismatches")
        assert identical

    def test_planted_group_ablation_selects_planted_group(self, fixture_dir, verdict):
        csv_path = fixture_dir / "planted.csv"
        manifest_path = fixture_dir / "planted.tsv"
        generate_fixture(csv_path, manifest_path, n_rows=420, seed=77,
                         planted_group=FeatureGroup.SOCIOECONOMIC, signal_strength=4.0)
        config = RunConfig(
            data_path=csv_path, manifest_path=manifest_path, seeds=(42,),
            hyperparams=HyperParams(forest_n_trees=40, svm_epochs=60),
        )
        report = run_ablation(config)
        ranking = rank_group_influence(report)
        ok = ranking[0][0] is FeatureGroup.SOCIOECONOMIC
        detail = ", ".join(f"{g.value} {d:+.3f}" for g, d in ranking)
        verdict(5, "planted-group ablation", ok, detail)
        assert ok, detail

    def test_null_fixture_aucs_near_half(self, fixture_dir, verdict):
        csv_path = fixture_dir / "null.csv"
        manifest_path = fixture_dir / "null.tsv"
        generate_fixture(csv_path, manifest_path, n_rows=1500, seed=88, signal_strength=0.0)
        config = RunConfig(
            data_path=csv_path, manifest_path=manifest_path, seeds=(42, 43, 44),
            hyperparams=HyperParams(forest_n_trees=40, svm_epochs=60),
        )
        by_model: dict[str, list[float]] = {}
        for report in run_baseline(config):
            by_model.setdefault(report.model_kind.label, []).append(report.auc)
        means = {label: float(np.mean(v)) for label, v in by_model.items()}
        ok = all(0.4 <= m <= 0.6 for m in means.values())
        detail = ", ".join(f"{label} {m:.3f}" for label, m in sorted(means.items()))
        verdict(5, "null-fixture AUC band", ok, detail)
        assert ok, detail


class TestCriterion6:
    def test_ablate_cli_byte_determinism(self, fixture_dir, tmp_path, verdict):
        csv_path = fixture_dir / "determinism.csv"
        manifest_path = fixture_dir / "determinism.tsv"
        generate_fixture(csv_path, manifest_path, n_rows=200, seed=99,
                         planted_group=FeatureGroup.ACADEMIC, signal_strength=2.0)
        flags = [
            "ablate", "--data", str(csv_path), "--manifest", str(manifest_path),
            "--seeds", "42,43", "--forest-trees", "12", "--svm-epochs", "20",
            "--knn-k", "5",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([*flags, "--out", str(out_a)]) == 0
        assert main([*flags, "--out", str(out_b)]) == 0
        same_report = (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        same_svg = (out_a / "roc.svg").read_bytes() == (out_b / "roc.svg").read_bytes()
        ok = same_report and same_svg
        verdict(6, "ablate byte determinism", ok,
                f"report.json identical: {same_report}, roc.svg identical: {same_svg}")
        assert ok

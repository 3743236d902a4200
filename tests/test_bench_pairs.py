"""The measurement script ``tools/bench_pairs.py``: its probes, the loop
that runs them, its pair summary and its alternation order."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from conftest import REPO_ROOT
from dropcast.cli import main, usable_cpus
from dropcast.fixture import generate_fixture
from dropcast.ingest import FeatureGroup

sys.path.insert(0, str(REPO_ROOT / "tools"))
import bench_pairs  # noqa: E402


def _recorded_keys(bench: str, probe: str) -> list[str]:
    """The keys of one round of ``probe`` in a committed benchmark record."""
    doc = json.loads((REPO_ROOT / bench).read_text())
    return list(doc["in_process"][probe]["change"][0])


@pytest.fixture(scope="module")
def fixture_paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("probe_fixture")
    generate_fixture(d / "fixture.csv", d / "fixture_manifest.tsv", n_rows=200, seed=7,
                     planted_group=FeatureGroup.ACADEMIC, signal_strength=3.0)
    return str(d / "fixture.csv"), str(d / "fixture_manifest.tsv")


@pytest.fixture
def few_calls(monkeypatch):
    """Fewer timed calls and query rows; the printed keys stay the same."""
    for name, value in [("DT_FITS", 2), ("FOREST_FITS", 2), ("SCORES", 1), ("TREE_FITS", 2),
                        ("TREES", 10), ("LARGE_QUERIES", 300)]:
        monkeypatch.setattr(bench_pairs, name, value)


def _printed(capsys) -> dict:
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_dt_probe_prints_the_recorded_keys(fixture_paths, few_calls, capsys):
    bench_pairs.dt_probe(*fixture_paths)
    result = _printed(capsys)
    assert list(result) == [*_recorded_keys("BENCH_21.json", "dt_fit"), "cell_peak_over_matrix"]
    assert len(result["cpu_s"]) == 2
    assert result["tracemalloc_peak_mb"] > 0
    assert result["cell_peak_over_matrix"] > 0


def test_forest_probe_prints_the_recorded_keys_and_repeats_its_digests(fixture_paths, few_calls,
                                                                        capsys):
    bench_pairs.forest_probe(*fixture_paths)
    first = _printed(capsys)
    bench_pairs.forest_probe(*fixture_paths)
    second = _printed(capsys)
    assert list(first) == _recorded_keys("BENCH_25.json", "forest_fit")
    assert first["trees"] == 10 and first["score_rows"][1] == 300
    for key in ("trees_sha256", "scores_sha256"):
        assert first[key] == second[key]


def _run(pair, side, digest, **values):
    return {"pair": pair, "side": side,
            "result": {"metrics": {k: {"value": v} for k, v in values.items()},
                       "failed": 0, "attempted": 2, "digests": {"report.json": digest}}}


def test_summarise_counts_wins_and_ties_by_direction():
    runs = [_run(0, "parent", "a", run_s=1.0, auc_mean=0.8),
            _run(0, "change", "a", run_s=0.9, auc_mean=0.8),
            _run(1, "change", "a", run_s=1.2, auc_mean=0.9),
            _run(1, "parent", "a", run_s=1.2, auc_mean=0.7),
            _run(2, "parent", "a", run_s=1.0, auc_mean=0.9),
            _run(2, "change", "a", run_s=0.8, auc_mean=0.95),
            _run(3, "parent", "a", run_s=5.0)]  # an incomplete pair is left out
    summary = bench_pairs.summarise("w", runs, {"run_s": "lower", "auc_mean": "higher",
                                                "setup_s": "lower"})
    assert summary["pairs"] == 3
    assert set(summary["metrics"]) == {"run_s", "auc_mean"}  # setup_s was never reported
    for name in ("run_s", "auc_mean"):
        assert (summary["metrics"][name]["change_wins"], summary["metrics"][name]["ties"]) == (2, 1)
    assert summary["metrics"]["run_s"]["parent"] == {"q1": 1.0, "median": 1.0, "q3": 1.1}
    assert summary["attempted_ops"] == {"parent": 6, "change": 6}
    assert summary["output_digests"] == {"equal": True, "parent": {"report.json": ["a"]},
                                         "change": {"report.json": ["a"]}}


@pytest.mark.parametrize("digests, equal", [
    ({"parent": ["a", "a"], "change": ["a", "b"]}, False),  # the sides differ
    ({"parent": ["a", "b"], "change": ["a", "b"]}, False),  # a side is not repeatable
    ({"parent": ["b", "b"], "change": ["b", "b"]}, True),
])
def test_summarise_output_digests_equal_only_when_one_digest_on_both_sides(digests, equal):
    runs = [_run(pair, side, digests[side][pair], run_s=1.0)
            for pair in range(2) for side in ("parent", "change")]
    assert bench_pairs.summarise("w", runs, {"run_s": "lower"})["output_digests"]["equal"] is equal


def test_alternate_puts_the_parent_first_on_even_rounds(monkeypatch):
    monkeypatch.setattr(bench_pairs, "WARM_UP", "pass")
    assert list(bench_pairs.alternate(3)) == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent"), (2, "parent"), (2, "change")]


def test_ablate_probe_prints_the_recorded_keys_and_the_same_digests_for_any_thread_count(
        fixture_paths, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "ABLATE_FLAGS",
                        ("--seeds", "42,43", "--forest-trees", "5", "--svm-epochs", "5"))
    printed = []
    for threads in ("1", "2"):
        bench_pairs.ablate_probe(*fixture_paths, threads)
        printed.append(_printed(capsys))
    recorded = json.loads((REPO_ROOT / "BENCH_29.json").read_text())["ablate_threads"]["change"][0]
    assert ["round", *printed[0]] == list(recorded)
    one, two = printed
    assert (one["threads"], two["threads"]) == (1, 2)
    assert one["returncode"] == two["returncode"] == 0
    assert one["worker_peaks_mb"] == []
    assert len(two["worker_peaks_mb"]) == min(2, usable_cpus())
    assert set(one["sha256"]) == {"ablation.csv", "ablation.json", "report.json", "roc.svg"}
    assert one["sha256"] == two["sha256"]


def test_threads_summary_takes_medians_and_ratios_per_thread_count():
    runs = [{"threads": t, "wall_s": w, "cpu_s": c}
            for t, w, c in [(1, 10.0, 12.0), (2, 5.0, 12.6), (1, 12.0, 12.2), (2, 6.0, 12.4),
                            (1, 11.0, 12.1), (2, 7.0, 12.8)]]
    assert bench_pairs.threads_summary(runs) == {
        "threads_1": {"wall_s": 11.0, "cpu_s": 12.1}, "threads_2": {"wall_s": 6.0, "cpu_s": 12.6},
        "wall_s_ratio_2_over_1": round(6.0 / 11.0, 4), "cpu_s_ratio_2_over_1": round(12.6 / 12.1, 4)}


def test_fixture_probe_prints_the_recorded_keys_and_the_fixture_digest(fixture_paths, monkeypatch,
                                                                       capsys):
    monkeypatch.setattr(bench_pairs, "LARGE_ROWS", "200")
    monkeypatch.setenv("PYTHONPATH", str(REPO_ROOT / "src"))
    bench_pairs.fixture_probe("no.csv", "no.tsv")  # its row builds no fixture
    result = _printed(capsys)
    recorded = json.loads((REPO_ROOT / "BENCH_20.json").read_text())["fixture_gen"]["change"][0]
    assert list(result) == list(recorded)
    assert result["sha256"] == hashlib.sha256(Path(fixture_paths[0]).read_bytes()).hexdigest()
    assert result["wall_s"] > 0 and result["peak_rss_mb"] > 0


def test_eda_probe_prints_the_recorded_keys_and_the_digest_of_each_output(fixture_paths, tmp_path,
                                                                         monkeypatch, capsys):
    monkeypatch.setenv("PYTHONPATH", str(REPO_ROOT / "src"))
    bench_pairs.eda_probe(*fixture_paths)
    result = _printed(capsys)
    assert ["round", *result] == _recorded_keys("BENCH_32.json", "eda")
    data, manifest = fixture_paths
    assert main(["eda", "--data", data, "--manifest", manifest, "--out", str(tmp_path)]) == 0
    assert result["sha256"] == {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                for p in sorted(tmp_path.iterdir())}
    assert "eda_correlation.csv" in result["sha256"]
    assert result["wall_s"] > 0 and result["peak_rss_mb"] > 0
    assert result["correlation_tracemalloc_peak_mb"] > 0
    assert result["correlation_peak_over_matrix"] > 0


def stub_probe(data, manifest, letter):
    """Only its name reaches the child, which imports each side's stub."""


def test_probe_rounds_alternates_the_argument_lists_by_round_in_each_sides_child(tmp_path,
                                                                                 monkeypatch):
    checkouts = {}
    for side in bench_pairs.SIDES:
        checkouts[side] = tmp_path / side
        (checkouts[side] / "src").mkdir(parents=True)
        # The side's src comes first on the child's path, so this stands in for bench_pairs.
        (checkouts[side] / "src" / "bench_pairs.py").write_text(
            "import json\n"
            "def stub_probe(data, manifest, letter):\n"
            f"    print(json.dumps({{'side': {side!r}, 'letter': letter, 'sha256': 'x'}}))\n")
    monkeypatch.setattr(bench_pairs, "WARM_UP", "pass")
    monkeypatch.setitem(bench_pairs.PROBES, "stub",
                        (stub_probe, None, 3, [("a",), ("b",)], len, "a stub"))
    record = bench_pairs.probe_rounds(checkouts, "stub")
    for side in bench_pairs.SIDES:
        assert [(run["round"], run["letter"]) for run in record[side]] == [
            (0, "a"), (0, "b"), (1, "b"), (1, "a"), (2, "a"), (2, "b")]
        assert all(list(run) == ["round", "side", "letter", "sha256"] and run["side"] == side
                   for run in record[side])
    assert record["medians"] == {"parent": 6, "change": 6}
    assert record["output_digests_equal"] is True
    assert record["what"].startswith("a stub; ")

"""Run the benchmark on two checkouts in alternating pairs and summarise.

    python3 tools/bench_pairs.py --parent P --change C --out BENCH_20.json \
        ingest-large=10 margin=4 ablate-importance=6 fixture-gen

For each ``WORKLOAD=N`` it runs N pairs of

    python3 perfbench/run.py --workload W --seed 7 --seconds 30 --trace 0

once from the parent checkout P and once from the change checkout C, one
process at a time, alternating which side runs first. Before every run a
short child process makes one multithreaded matrix product, so that a
slow first BLAS call after an idle gap lands outside the measured run.

The JSON written to ``--out`` holds every run (its result line and the
output digests it printed) and, per workload, each metric's quartiles
on each side (``statistics.quantiles(n=4, method='inclusive')``), the
pairs the change wins and ties (by the metric's direction in
``BENCHMARK.json``), failed and attempted operations, and whether every
output digest is the same on both sides. Naming ``dt-fit`` among the
workloads adds ``DT_FIT_ROUNDS`` rounds of ``tools/dt_fit.py``, alternating
sides: the in-process CPU time and tracemalloc peak of the decision-tree
fit on the 88 480-row fixture. Naming ``forest-fit`` adds
``FOREST_FIT_ROUNDS`` rounds of ``tools/forest_fit.py``, alternating sides:
the in-process CPU time of the 100-tree forest fit on the 4424-row bench
fixture, a digest of its trees, its scoring time, and the CPU time of a
lone depth-5 tree on the same rows. Naming ``fixture-gen`` adds
``FIXTURE_GEN_ROUNDS`` rounds of the 88 480-row ``dropcast fixture``
child, alternating sides: its wall time, peak RSS and the sha256 of the
``fixture.csv`` it wrote. ``setup_s`` mixes fixture time with the
warm-up operation, so the fixture's own numbers get their own record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SECONDS = "30"
SEED = 7  # the benchmark's default fixture seed
WARM_UP = "import numpy as np; a = np.ones((512, 512)); a @ a"
LARGE_ROWS = "88480"  # the ingest-large fixture
BENCH_ROWS = "4424"  # the bench fixture
DT_FIT_ROUNDS = 4
FOREST_FIT_ROUNDS = 4
FIXTURE_GEN_ROUNDS = 6
EXTRAS = ("dt-fit", "forest-fit", "fixture-gen")


def run_benchmark(checkout: Path, workload: str) -> dict:
    subprocess.run([sys.executable, "-c", WARM_UP], check=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", SECONDS, "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    digests = dict(line.split()[2:4] for line in lines if line.startswith("# digest "))
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": 1, "metrics": {},
                "returncode": proc.returncode, "stderr": proc.stderr[-2000:], "digests": digests}
    return {**json.loads(lines[-1]), "digests": digests}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarise(workload: str, runs: list[dict], better: dict[str, str]) -> dict:
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
    pairs = [p for _, p in sorted(by_pair.items()) if len(p) == 2]
    metrics = {}
    for name, direction in better.items():
        values = {side: [p[side]["metrics"].get(name, {}).get("value") for p in pairs]
                  for side in ("parent", "change")}
        if any(v is None for side in values.values() for v in side):
            continue
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        ties = sum(c == p for p, c in zip(values["parent"], values["change"]))
        metrics[name] = {"parent": quartiles(values["parent"]),
                         "change": quartiles(values["change"]),
                         "change_wins": wins, "ties": ties}
    digests = {side: {} for side in ("parent", "change")}
    for run in runs:
        for label, digest in run["result"]["digests"].items():
            digests[run["side"]].setdefault(label, set()).add(digest)
    flat = {side: {label: sorted(d) for label, d in sorted(found.items())}
            for side, found in digests.items()}
    return {
        "workload": workload, "seed": SEED, "pairs": len(pairs),
        "metrics": metrics,
        "failed_ops": {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")},
        "attempted_ops": {side: sum(p[side]["attempted"] for p in pairs)
                          for side in ("parent", "change")},
        "output_digests": {"equal": flat["parent"] == flat["change"]
                           and all(len(d) == 1 for d in flat["parent"].values()),
                           **flat},
    }


def fixture_argv(folder: str | Path, rows: str = LARGE_ROWS) -> list[str]:
    return [sys.executable, "-m", "dropcast.cli", "fixture", "--rows", rows,
            "--seed", str(SEED), "--planted-group", "academic", "--strength", "3.0",
            "--out", str(folder)]


def probe_rounds(checkouts: dict[str, Path], script: str, rows: str, rounds: int) -> dict:
    """``tools/<script>`` on each side, ``rounds`` times, alternating, on one
    fixture of ``rows`` rows built by the change's checkout."""
    results: dict[str, list[dict]] = {side: [] for side in checkouts}
    with tempfile.TemporaryDirectory() as folder:
        subprocess.run(
            fixture_argv(folder, rows),
            env={**os.environ, "PYTHONPATH": str(checkouts["change"] / "src")}, check=True,
            stdout=subprocess.DEVNULL,
        )
        for r in range(rounds):
            sides = list(checkouts) if r % 2 == 0 else list(reversed(checkouts))
            for side in sides:
                subprocess.run([sys.executable, "-c", WARM_UP], check=True)
                proc = subprocess.run(
                    [sys.executable, str(HERE / script),
                     "--data", f"{folder}/fixture.csv", "--manifest", f"{folder}/fixture_manifest.tsv"],
                    env={**os.environ, "PYTHONPATH": str(checkouts[side] / "src")},
                    capture_output=True, text=True, check=True,
                )
                results[side].append(json.loads(proc.stdout.splitlines()[-1]))
    return results


def dt_fit(checkouts: dict[str, Path]) -> dict:
    """``tools/dt_fit.py`` on each side, ``DT_FIT_ROUNDS`` times, alternating."""
    results = probe_rounds(checkouts, "dt_fit.py", LARGE_ROWS, DT_FIT_ROUNDS)
    fits = len(results["change"][0]["cpu_s"])
    return {
        "what": f"tools/dt_fit.py: build_tree(max_depth=5) on the seed-42 training split of the "
                f"{LARGE_ROWS}-row seed-{SEED} fixture, CPU seconds of {fits} fits and the "
                f"tracemalloc peak of one more, per round; rounds alternate which side runs first",
        **results,
    }


def forest_fit(checkouts: dict[str, Path]) -> dict:
    """``tools/forest_fit.py`` on each side, ``FOREST_FIT_ROUNDS`` times, alternating."""
    results = probe_rounds(checkouts, "forest_fit.py", BENCH_ROWS, FOREST_FIT_ROUNDS)
    fits = len(results["change"][0]["cpu_s"])
    return {
        "what": f"tools/forest_fit.py: build_forest(100 trees, seed 42) on the seed-42 training "
                f"split of the {BENCH_ROWS}-row seed-{SEED} fixture, CPU seconds of {fits} fits, "
                f"a sha256 of the trees, and the median CPU seconds and sha256 of forest_scores "
                f"on the test rows and on them repeated to 17690 rows, with the tracemalloc "
                f"peak of the latter, and the median CPU seconds of build_tree(max_depth=5) on "
                f"the same training rows, per round; rounds alternate which side runs first",
        **results,
    }


def fixture_gen(checkouts: dict[str, Path]) -> dict:
    """The ``dropcast fixture`` child on each side, ``FIXTURE_GEN_ROUNDS`` times, alternating."""
    results: dict[str, list[dict]] = {side: [] for side in checkouts}
    with tempfile.TemporaryDirectory() as folder:
        for r in range(FIXTURE_GEN_ROUNDS):
            sides = list(checkouts) if r % 2 == 0 else list(reversed(checkouts))
            for side in sides:
                subprocess.run([sys.executable, "-c", WARM_UP], check=True)
                out = Path(folder) / side
                start = time.perf_counter()
                proc = subprocess.Popen(
                    fixture_argv(out), stdout=subprocess.DEVNULL,
                    env={**os.environ, "PYTHONPATH": str(checkouts[side] / "src")},
                )
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                returncode = os.waitstatus_to_exitcode(status)
                if returncode != 0:
                    raise subprocess.CalledProcessError(returncode, proc.args)
                digest = hashlib.sha256((out / "fixture.csv").read_bytes()).hexdigest()
                results[side].append({"wall_s": round(wall, 4),
                                      "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 2),
                                      "sha256": digest})
    return {
        "what": f"dropcast fixture --rows {LARGE_ROWS} --seed {SEED} --planted-group academic "
                f"--strength 3.0 as a child process: wall seconds from start to exit, its "
                f"peak RSS (ru_maxrss from wait4) and the sha256 of fixture.csv, per round; "
                f"rounds alternate which side runs first",
        **results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent commit's checkout")
    parser.add_argument("--change", type=Path, required=True, help="change's checkout")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("pairs", nargs="+",
                        metavar="WORKLOAD=N | dt-fit | forest-fit | fixture-gen")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}

    runs, summary = [], []
    for spec in (s for s in args.pairs if s not in EXTRAS):
        workload, n = spec.split("=")
        workload_runs = []
        for pair in range(int(n)):
            sides = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for order, side in enumerate(sides, 1):
                result = run_benchmark(checkouts[side], workload)
                run = {"workload": workload, "seed": SEED, "trace": 0, "pair": pair,
                       "side": side, "order": order, "result": result}
                workload_runs.append(run)
                print(json.dumps({k: run[k] for k in ("workload", "pair", "side")}
                                 | {k: v["value"] for k, v in result["metrics"].items()}),
                      flush=True)
        runs += workload_runs
        summary.append(summarise(workload, workload_runs, better))

    doc = {
        "what": f"perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0, parent "
                "checkout against change checkout, run by tools/bench_pairs.py; pairs alternate "
                "which side runs first (order 1 or 2). Quartiles are statistics.quantiles(n=4, "
                "method='inclusive') over the pairs; a win is a pair where the change's value "
                "is better.",
        "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} CPUs, "
                   f"Python {platform.python_version()}",
        "summary": summary,
    }
    probes = {"dt-fit": dt_fit, "forest-fit": forest_fit}
    in_process = {name.replace("-", "_"): probe(checkouts)
                  for name, probe in probes.items() if name in args.pairs}
    if in_process:
        doc["in_process"] = in_process
    if "fixture-gen" in args.pairs:
        doc["fixture_gen"] = fixture_gen(checkouts)
    doc["runs"] = runs
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark on two checkouts in alternating pairs and summarise.

    python3 tools/bench_pairs.py --parent P --change C --out BENCH_20.json \
        ingest-large=10 margin=4 ablate-importance=6 dt-fit forest-fit fixture-gen \
        ablate-threads

For each ``WORKLOAD=N`` it runs N pairs of

    python3 perfbench/run.py --workload W --seed 7 --seconds 30 --trace 0

once from the parent checkout P and once from the change checkout C, one
process at a time, alternating which side runs first (``alternate``).
Before every run a short child process makes one multithreaded matrix
product, so that a slow first BLAS call after an idle gap lands outside
the measured run.

The JSON written to ``--out`` holds every run (its result line and the
output digests it printed) and, per workload, each metric's quartiles
on each side (``statistics.quantiles(n=4, method='inclusive')``), the
pairs the change wins and ties (by the metric's direction in
``BENCHMARK.json``), failed and attempted operations, and whether every
output digest is the same on both sides.

Every other name is a row of ``PROBES``, the one table of measurements
that ``perfbench/run.py`` does not make: (probe, fixture rows, rounds,
argument lists, summary, what). ``probe_rounds`` runs every row the same
way. If the row names fixture rows, the change's checkout first builds
one seed-7 fixture of that many rows. Then each round runs on each side,
alternating which side goes first (``alternate``), the probe once per
argument list, each time in a child with the side's ``src`` first on
``PYTHONPATH``; the order of the lists alternates from round to round.
A probe is a function of this file that takes the fixture's data and
manifest paths, then the list's arguments, and prints one JSON line. Its
record, under ``in_process`` and keyed by the row's name, holds ``what``
it measures, each side's medians when the row has a summary, whether
every ``sha256`` the rounds printed is the same on both sides, and each
side's printed lines with their ``round``. One probe runs alone as

    PYTHONPATH=CHECKOUT/src:tools python3 -c \
        "import bench_pairs; bench_pairs.forest_probe('F.csv', 'M.tsv')"
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
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
SIDES = ("parent", "change")
SECONDS = "30"
SEED = 7  # the benchmark's default fixture seed
WARM_UP = "import numpy as np; a = np.ones((512, 512)); a @ a"
LARGE_ROWS = "88480"  # the ingest-large fixture
BENCH_ROWS = "4424"  # the bench fixture
ABLATE_FLAGS: tuple[str, ...] = ()  # flags after the data flags; the default seeds and models
DT_FITS = 7
FOREST_FITS = 5
SCORES = 5
TREE_FITS = 41
TREES = 100
LARGE_QUERIES = 17690


def alternate(rounds: int):
    """Yield ``(round, side)`` for ``rounds`` rounds, the parent first on
    even rounds and the change first on odd ones, after running the
    warm-up product in a child before each."""
    for r in range(rounds):
        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
            subprocess.run([sys.executable, "-c", WARM_UP], check=True)
            yield r, side


def pythonpath(*folders: Path) -> dict:
    return {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, folders))}


def run_benchmark(checkout: Path, workload: str) -> dict:
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
    """Per metric of ``better`` that every complete pair reports: its
    quartiles on each side, the pairs where the change's value is better
    in the metric's direction (``change_wins``) and those where the two
    are equal (``ties``). ``output_digests.equal`` holds when every label
    printed one digest on all runs of a side and the two sides printed
    the same labels and digests."""
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
    pairs = [p for _, p in sorted(by_pair.items()) if len(p) == 2]
    metrics = {}
    for name, direction in better.items():
        values = {side: [p[side]["metrics"].get(name, {}).get("value") for p in pairs]
                  for side in SIDES}
        if any(v is None for side in values.values() for v in side):
            continue
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        ties = sum(c == p for p, c in zip(values["parent"], values["change"]))
        metrics[name] = {"parent": quartiles(values["parent"]),
                         "change": quartiles(values["change"]),
                         "change_wins": wins, "ties": ties}
    digests = {side: {} for side in SIDES}
    for run in runs:
        for label, digest in run["result"]["digests"].items():
            digests[run["side"]].setdefault(label, set()).add(digest)
    flat = {side: {label: sorted(d) for label, d in sorted(found.items())}
            for side, found in digests.items()}
    return {
        "workload": workload, "seed": SEED, "pairs": len(pairs),
        "metrics": metrics,
        "failed_ops": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
        "attempted_ops": {side: sum(p[side]["attempted"] for p in pairs) for side in SIDES},
        "output_digests": {"equal": flat["parent"] == flat["change"]
                           and all(len(d) == 1 for d in flat["parent"].values()),
                           **flat},
    }


# The probes import dropcast when called, so each child measures the
# dropcast first on its path and the runner itself needs none.
def load_split(data: str, manifest: str):
    """Training matrix, training labels and test matrix of the seed-42
    split (test fraction 0.2), as ``train --seeds 42`` draws it."""
    from dropcast.ingest import load_dataset, load_manifest, to_binary
    from dropcast.preprocess import split

    binary = to_binary(load_dataset(data, load_manifest(manifest)))
    rows = split(binary.n_rows, 0.2, 42)
    matrix = binary.feature_matrix
    return matrix[rows.train_rows], binary.labels[rows.train_rows], matrix[rows.test_rows]


def cpu_seconds(call, times: int) -> tuple[list[float], object]:
    """CPU seconds of each of ``times`` calls, and the last call's result;
    each earlier result is dropped before the next call."""
    cpu, result = [], None
    for _ in range(times):
        result = None
        start = time.process_time()
        result = call()
        cpu.append(time.process_time() - start)
    return cpu, result


def median_cpu(call, times: int) -> float:
    return round(statistics.median(cpu_seconds(call, times)[0]), 6)


def traced_peak(call) -> int:
    """tracemalloc's peak, in bytes, over one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fit_summary(cpu: list[float]) -> dict:
    return {"cpu_s": [round(t, 4) for t in cpu], "cpu_s_min": round(min(cpu), 4),
            "cpu_s_median": round(statistics.median(cpu), 4)}


def dt_probe(data: str, manifest: str) -> None:
    """Print the CPU seconds of ``DT_FITS`` depth-5 tree fits on the
    seed-42 training split and the tracemalloc peak of one more."""
    from dropcast.models.tree import build_tree

    x, y, _ = load_split(data, manifest)
    cpu, _ = cpu_seconds(lambda: build_tree(x, y, max_depth=5), DT_FITS)
    peak = traced_peak(lambda: build_tree(x, y, max_depth=5))
    print(json.dumps({
        "rows": x.shape[0], "features": x.shape[1], **fit_summary(cpu),
        "tracemalloc_peak_mb": round(peak / 1e6, 2),
        "peak_over_matrix": round(peak / x.nbytes, 3),
    }))


def forest_probe(data: str, manifest: str) -> None:
    """Print the CPU seconds of ``FOREST_FITS`` 100-tree forest fits on the
    seed-42 training split with a sha256 of the trees, the median CPU
    seconds and a sha256 of scoring the test rows and them repeated to
    ``LARGE_QUERIES`` rows, the latter's tracemalloc peak, and the median
    CPU seconds of ``TREE_FITS`` depth-5 tree fits on the same rows."""
    import numpy as np

    from dropcast.models.forest import build_forest, forest_scores
    from dropcast.models.tree import build_tree

    x, y, queries = load_split(data, manifest)
    large = np.resize(queries, (LARGE_QUERIES, queries.shape[1]))
    cpu, forest = cpu_seconds(lambda: build_forest(x, y, TREES, 42), FOREST_FITS)
    trees = hashlib.sha256()
    for tree in forest.trees:
        for name in ("feature", "threshold", "left", "right", "n_samples", "n_positive"):
            trees.update(getattr(tree, name).tobytes())
    scores = hashlib.sha256(forest_scores(forest, queries).tobytes())
    scores.update(forest_scores(forest, large).tobytes())
    score_cpu = [median_cpu(lambda: forest_scores(forest, q), SCORES) for q in (queries, large)]
    peak = traced_peak(lambda: forest_scores(forest, large))
    tree_cpu = median_cpu(lambda: build_tree(x, y, max_depth=5), TREE_FITS)
    print(json.dumps({
        "rows": x.shape[0], "features": x.shape[1], "trees": TREES, **fit_summary(cpu),
        "trees_sha256": trees.hexdigest(),
        "score_rows": [len(queries), LARGE_QUERIES],
        "score_cpu_s_median": score_cpu,
        "score_large_tracemalloc_peak_mb": round(peak / 1e6, 2),
        "scores_sha256": scores.hexdigest(),
        "tree_fits": TREE_FITS, "tree_cpu_s_median": tree_cpu,
    }))


def own_peak_mb() -> float:
    """This process's peak RSS: ``VmHWM``, which starts afresh at exec,
    where ``/proc`` has it, else ``ru_maxrss``."""
    try:
        with open("/proc/self/status") as status:
            kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        import resource

        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(int(kb) / 1024.0, 2)


def ablate_probe(data: str, manifest: str, threads: str) -> None:
    """Print the wall and CPU seconds (this process and its reaped
    workers) of one in-process ``dropcast ablate --threads THREADS`` into
    a folder of its own, the peak RSS of this process and of each worker,
    and the sha256 of each output file. ``ru_maxrss`` from ``wait4`` on a
    child folds in the waiting process's own peak, so this process reads
    its own ``VmHWM``, and each worker's peak is read from the ``wait4``
    that reaps it, in place of the ``os.waitpid`` call that reaps it."""
    import dropcast.cli  # before numpy, as the ``dropcast`` command imports it

    workers: list[float] = []
    waitpid = os.waitpid

    def wait4(pid: int, options: int) -> tuple[int, int]:
        pid, status, usage = os.wait4(pid, options)
        workers.append(round(usage.ru_maxrss / 1024.0, 2))
        return pid, status

    os.waitpid = wait4
    with tempfile.TemporaryDirectory() as out:
        try:
            before, start = os.times(), time.perf_counter()
            code = dropcast.cli.main(["ablate", "--data", data, "--manifest", manifest,
                                      *ABLATE_FLAGS, "--threads", threads, "--out", out])
            wall, after = time.perf_counter() - start, os.times()
        finally:
            os.waitpid = waitpid
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(Path(out).iterdir())}
    cpu = sum(after[:4]) - sum(before[:4])  # user, system, children's user and system
    print(json.dumps({
        "threads": int(threads), "returncode": code, "wall_s": round(wall, 4),
        "cpu_s": round(cpu, 4), "parent_peak_mb": own_peak_mb(), "worker_peaks_mb": workers,
        "sha256": digests,
    }))


def threads_summary(runs: list[dict]) -> dict:
    """Median wall and CPU seconds per thread count, and their ratios 2 over 1."""
    out = {f"threads_{t}": {key: round(statistics.median(r[key] for r in runs if r["threads"] == t), 4)
                            for key in ("wall_s", "cpu_s")}
           for t in (1, 2)}
    for key in ("wall_s", "cpu_s"):
        out[f"{key}_ratio_2_over_1"] = round(out["threads_2"][key] / out["threads_1"][key], 4)
    return out


def fixture_argv(folder: str | Path, rows: str) -> list[str]:
    return [sys.executable, "-m", "dropcast.cli", "fixture", "--rows", rows,
            "--seed", str(SEED), "--planted-group", "academic", "--strength", "3.0",
            "--out", str(folder)]


def fixture_probe(data: str, manifest: str) -> None:
    """Print the wall seconds, the peak RSS (``ru_maxrss`` from ``wait4``)
    and the sha256 of ``fixture.csv`` of one ``LARGE_ROWS``-row ``dropcast
    fixture`` child, which writes to a folder of its own: its row builds no
    fixture, so ``data`` and ``manifest`` name none. ``setup_s`` mixes
    fixture time with the warm-up operation, so the fixture's own numbers
    get their own record."""
    with tempfile.TemporaryDirectory() as folder:
        start = time.perf_counter()
        proc = subprocess.Popen(fixture_argv(folder, LARGE_ROWS), stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        returncode = os.waitstatus_to_exitcode(status)
        if returncode != 0:
            raise subprocess.CalledProcessError(returncode, proc.args)
        digest = hashlib.sha256((Path(folder) / "fixture.csv").read_bytes()).hexdigest()
    print(json.dumps({"wall_s": round(wall, 4), "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 2),
                      "sha256": digest}))


# Name: (probe, fixture rows or None, rounds, argument lists after the
# fixture's paths, summary of one side's rounds or None, what it measures).
PROBES = {
    "dt-fit": (dt_probe, LARGE_ROWS, 4, [()], None,
               f"bench_pairs.dt_probe: build_tree(max_depth=5) on the seed-42 training split of "
               f"the {LARGE_ROWS}-row seed-{SEED} fixture, CPU seconds of {DT_FITS} fits and the "
               f"tracemalloc peak of one more, per round"),
    "forest-fit": (forest_probe, BENCH_ROWS, 4, [()], None,
                   f"bench_pairs.forest_probe: build_forest({TREES} trees, seed 42) on the seed-42 "
                   f"training split of the {BENCH_ROWS}-row seed-{SEED} fixture, CPU seconds of "
                   f"{FOREST_FITS} fits, a sha256 of the trees, and the median CPU seconds and "
                   f"sha256 of forest_scores on the test rows and on them repeated to "
                   f"{LARGE_QUERIES} rows, with the tracemalloc peak of the latter, and the median "
                   f"CPU seconds of build_tree(max_depth=5) on the same training rows, per round. "
                   f"score_cpu_s_median scores each side's own forest, so once a change alters "
                   f"the trees it mixes the walk with the forest's shape"),
    "fixture-gen": (fixture_probe, None, 6, [()], None,
                    f"bench_pairs.fixture_probe: dropcast fixture --rows {LARGE_ROWS} --seed {SEED} "
                    f"--planted-group academic --strength 3.0 as a child process: wall seconds "
                    f"from start to exit, its peak RSS (ru_maxrss from wait4) and the sha256 of "
                    f"fixture.csv, per round"),
    "ablate-threads": (ablate_probe, BENCH_ROWS, 3, [("1",), ("2",)], threads_summary,
                       f"bench_pairs.ablate_probe: dropcast ablate (default seeds and models) on "
                       f"the {BENCH_ROWS}-row seed-{SEED} fixture with --threads 1 and --threads 2; "
                       f"wall and CPU seconds of the command (CPU includes the reaped workers), "
                       f"the dropcast process's VmHWM and each worker's ru_maxrss from wait4, and "
                       f"the sha256 of each output file; medians per side and thread count"),
}


def probe_rounds(checkouts: dict[str, Path], name: str) -> dict:
    """The record of the ``PROBES`` row ``name``, run as the module docstring says."""
    probe, rows, rounds, arg_lists, summary, what = PROBES[name]
    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as folder:
        paths = [f"{folder}/fixture.csv", f"{folder}/fixture_manifest.tsv"]
        if rows:
            subprocess.run(fixture_argv(folder, rows), env=pythonpath(checkouts["change"] / "src"),
                           check=True, stdout=subprocess.DEVNULL)
        for r, side in alternate(rounds):
            for args in arg_lists if r % 2 == 0 else arg_lists[::-1]:
                call = f"import bench_pairs; bench_pairs.{probe.__name__}(*{[*paths, *args]!r})"
                proc = subprocess.run([sys.executable, "-c", call],
                                      env=pythonpath(checkouts[side] / "src", HERE),
                                      capture_output=True, text=True, check=True)
                results[side].append({"round": r, **json.loads(proc.stdout.splitlines()[-1])})
    digests = {json.dumps({k: v for k, v in run.items() if "sha256" in k}, sort_keys=True)
               for runs in results.values() for run in runs}
    return {
        "what": f"{what}; each run a child with the side's src first on PYTHONPATH, rounds "
                f"alternating which side runs first and the order of the argument lists",
        **({"medians": {side: summary(runs) for side, runs in results.items()}} if summary else {}),
        "output_digests_equal": len(digests) == 1,
        **results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent commit's checkout")
    parser.add_argument("--change", type=Path, required=True, help="change's checkout")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("pairs", nargs="+", metavar=" | ".join(["WORKLOAD=N", *PROBES]))
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}

    runs, summary = [], []
    for spec in (s for s in args.pairs if s not in PROBES):
        workload, n = spec.split("=")
        workload_runs = []
        for pair, side in alternate(int(n)):
            result = run_benchmark(checkouts[side], workload)
            run = {"workload": workload, "seed": SEED, "trace": 0, "pair": pair, "side": side,
                   "order": 1 if side == SIDES[pair % 2] else 2, "result": result}
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
    in_process = {name.replace("-", "_"): probe_rounds(checkouts, name)
                  for name in PROBES if name in args.pairs}
    if in_process:
        doc["in_process"] = in_process
    doc["runs"] = runs
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

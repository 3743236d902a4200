"""CPU time of the 100-tree forest fit of ``train --model rf``, of its scoring, and of a lone tree.

    PYTHONPATH=CHECKOUT/src python3 tools/forest_fit.py --data F.csv --manifest M.tsv

Loads the records file, keeps the seed-42 split (test fraction 0.2) as
``train --model rf --seeds 42`` does, and grows the 100-tree forest of
seed 42 on the training rows ``FITS`` times. Then it scores the test
rows, and the test rows repeated to ``LARGE_QUERIES`` rows, ``SCORES``
times each. Last it grows the depth-5 decision tree of ``ablate``'s DT
cell on the same training rows ``TREE_FITS`` times. Prints one JSON
object: the training rows and features, the CPU seconds of each forest
fit with their minimum and median, a sha256 of the grown trees' arrays,
the median CPU seconds of each scoring, the tracemalloc peak of one more
scoring of the large query set in MB, a sha256 of both score vectors,
and the median CPU seconds of the tree fits. Whichever ``dropcast`` is
on the path is measured, so one copy of this script measures any
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import time
import tracemalloc

import numpy as np

from dropcast.ingest import load_dataset, load_manifest, to_binary
from dropcast.models.forest import build_forest, forest_scores
from dropcast.models.tree import build_tree
from dropcast.preprocess import split

FITS = 5
SCORES = 5
TREE_FITS = 41
TREES = 100
LARGE_QUERIES = 17690


def cpu_median(call, times: int) -> float:
    cpu = []
    for _ in range(times):
        start = time.process_time()
        call()
        cpu.append(time.process_time() - start)
    return round(statistics.median(cpu), 6)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--data", required=True)
    parser.add_argument("--manifest", required=True)
    args = parser.parse_args(argv)
    binary = to_binary(load_dataset(args.data, load_manifest(args.manifest)))
    rows = split(binary.n_rows, 0.2, 42)
    x, y = binary.feature_matrix[rows.train_rows], binary.labels[rows.train_rows]
    queries = binary.feature_matrix[rows.test_rows]
    large = np.resize(queries, (LARGE_QUERIES, queries.shape[1]))
    del binary

    cpu = []
    for _ in range(FITS):
        start = time.process_time()
        forest = build_forest(x, y, TREES, 42)
        cpu.append(time.process_time() - start)
    trees = hashlib.sha256()
    for tree in forest.trees:
        for name in ("feature", "threshold", "left", "right", "n_samples", "n_positive"):
            trees.update(getattr(tree, name).tobytes())
    scores = hashlib.sha256(forest_scores(forest, queries).tobytes())
    scores.update(forest_scores(forest, large).tobytes())
    score_cpu = cpu_median(lambda: forest_scores(forest, queries), SCORES)
    large_cpu = cpu_median(lambda: forest_scores(forest, large), SCORES)
    tracemalloc.start()
    try:
        forest_scores(forest, large)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tree_cpu = cpu_median(lambda: build_tree(x, y, max_depth=5), TREE_FITS)
    print(json.dumps({
        "rows": x.shape[0], "features": x.shape[1], "trees": TREES,
        "cpu_s": [round(t, 4) for t in cpu],
        "cpu_s_min": round(min(cpu), 4), "cpu_s_median": round(statistics.median(cpu), 4),
        "trees_sha256": trees.hexdigest(),
        "score_rows": [len(queries), LARGE_QUERIES],
        "score_cpu_s_median": [score_cpu, large_cpu],
        "score_large_tracemalloc_peak_mb": round(peak / 1e6, 2),
        "scores_sha256": scores.hexdigest(),
        "tree_fits": TREE_FITS, "tree_cpu_s_median": tree_cpu,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

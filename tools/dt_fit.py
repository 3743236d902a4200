"""CPU time and tracemalloc peak of the decision-tree fit of ``train --model dt``.

    PYTHONPATH=CHECKOUT/src python3 tools/dt_fit.py --data F.csv --manifest M.tsv

Loads the records file, keeps the seed-42 training split (test fraction
0.2) as ``train --model dt --seeds 42`` does, and grows the depth-5 tree
on it ``FITS`` times. Prints one JSON object: the training rows and
features, the CPU seconds of each fit, their minimum and median, and the
tracemalloc peak of one more fit in MB and as a multiple of the training
matrix. Whichever ``dropcast`` is on the path is measured, so one copy of
this script measures any checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
import tracemalloc

from dropcast.ingest import load_dataset, load_manifest, to_binary
from dropcast.models.tree import build_tree
from dropcast.preprocess import split

FITS = 7


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--data", required=True)
    parser.add_argument("--manifest", required=True)
    args = parser.parse_args(argv)
    binary = to_binary(load_dataset(args.data, load_manifest(args.manifest)))
    train = split(binary.n_rows, 0.2, 42).train_rows
    x, y = binary.feature_matrix[train], binary.labels[train]
    del binary

    cpu = []
    for _ in range(FITS):
        start = time.process_time()
        build_tree(x, y, max_depth=5)
        cpu.append(time.process_time() - start)
    tracemalloc.start()
    try:
        build_tree(x, y, max_depth=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(json.dumps({
        "rows": x.shape[0], "features": x.shape[1],
        "cpu_s": [round(t, 4) for t in cpu],
        "cpu_s_min": round(min(cpu), 4), "cpu_s_median": round(statistics.median(cpu), 4),
        "tracemalloc_peak_mb": round(peak / 1e6, 2),
        "peak_over_matrix": round(peak / x.nbytes, 3),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

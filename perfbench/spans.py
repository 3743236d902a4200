"""Outside-in layer trace: spans around calls into each dropcast module.

Nothing inside ``src/`` is instrumented. ``Tracer.installed()`` replaces
the names a calling module imported (``cli`` and ``experiments`` bind
functions with ``from ... import``, so the name is patched where it is
looked up) with wrappers that record one span per call: layer, name,
start, end, parent, and the tracer's own bookkeeping time around the
call. A call made inside an unpatched namespace belongs to its caller's
layer: trees grown by ``build_forest`` count as ``models.forest``, while
``build_tree`` called for a decision tree counts as ``models.tree``.

A layer's self time is its spans' durations minus the child spans and
their bookkeeping. The remainder is computed independently, from the
gaps between root spans and the bookkeeping, so
``sum(self times) + remainder == wall`` is a real check of the
accounting, not an identity.
"""

from __future__ import annotations

import hashlib
import threading
import time
import types
from contextlib import contextmanager
from importlib import import_module

LAYERS = ("cli", "experiments", "models", "models.forest", "models.tree", "models.knn",
          "models.svm", "ingest", "preprocess", "metrics", "eda", "report", "svg")

# Per-layer self-time metric names: "<short name>.s".
SELF_METRIC = {layer: layer.removeprefix("models.") + ".s" for layer in LAYERS}


class Tracer:
    def __init__(self):
        # Each span: [layer, name, start, end, parent index, bookkeeping s, cpu s]
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.fit_keys: list[str] = []
        self._stack: list[int] = []
        self._main = threading.main_thread()

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def wrap(self, layer: str, name: str, fn, hook=None, before=None):
        """``fn`` wrapped in a span; ``hook`` updates counters afterwards."""

        def traced(*args, **kwargs):
            if threading.current_thread() is not self._main:
                # Only the forest's pool runs dropcast code off the main
                # thread, through names no boundary patches.
                return fn(*args, **kwargs)
            b0 = time.perf_counter()
            if before is not None:
                before(self, args, kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([layer, name, 0.0, 0.0, parent, 0.0, 0.0])
            self._stack.append(index)
            span = self.spans[index]
            cpu0 = time.process_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                span[2], span[3], span[6] = start, end, time.process_time() - cpu0
                self._stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result, end - start, span[6])
            span[5] = (start - b0) + (time.perf_counter() - end)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every boundary for the duration of the block."""
        saved = []
        try:
            for module_name, attr, layer, hook, before in BOUNDARIES:
                module = import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(layer, attr, getattr(module, attr), hook, before))
            cli = import_module("dropcast.cli")
            for attr, layer in (("eda_ops", "eda"), ("report_ops", "report")):
                saved.append((cli, attr, getattr(cli, attr)))
                setattr(cli, attr, self._proxy(getattr(cli, attr), layer))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _proxy(self, module: types.ModuleType, layer: str) -> types.ModuleType:
        """A stand-in module whose public functions are wrapped."""
        proxy = types.ModuleType(module.__name__)
        proxy.__dict__.update(vars(module))
        for attr, value in vars(module).items():
            if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                setattr(proxy, attr, self.wrap(layer, attr, value))
        return proxy

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer."""
        out = {layer: 0.0 for layer in LAYERS}
        child_cost = [0.0] * len(self.spans)
        for layer, _, start, end, parent, book, _ in self.spans:
            if parent >= 0:
                child_cost[parent] += (end - start) + book
        for i, (layer, _, start, end, _, _, _) in enumerate(self.spans):
            out[layer] += (end - start) - child_cost[i]
        return out

    def remainder(self, wall: float) -> float:
        """Wall time outside root spans plus all nested bookkeeping."""
        roots = sum(end - start for _, _, start, end, parent, _, _ in self.spans if parent < 0)
        nested_book = sum(book for *_, parent, book, _ in self.spans if parent >= 0)
        return (wall - roots) + nested_book

    def span_records(self) -> list[dict]:
        return [{"layer": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
                for s in self.spans]


# Counter hooks: (tracer, args, kwargs, result, wall seconds, cpu seconds).

def _forest_fit(t, args, kwargs, forest, wall, cpu):
    workers = max(1, int(kwargs.get("threads", 1)))
    t.add("forest.fit.calls", 1)
    t.add("forest.fit.s", wall)
    t.add("forest.fit.cpu_s", cpu)
    if workers > 1:
        t.add("_forest.pool_cpu_s", cpu)
        t.add("_forest.pool_worker_s", wall * workers)
    t.add("_forest.trees", forest.n_trees)
    t.add("_forest.nodes", sum(tree.n_nodes for tree in forest.trees))


def _timer(name):
    def hook(t, args, kwargs, result, wall, cpu):
        t.add(name, wall)
    return hook


def _tree_fit(t, args, kwargs, tree, wall, cpu):
    t.add("tree.fit.calls", 1)
    t.add("tree.fit.s", wall)
    t.add("tree.nodes", tree.n_nodes)


def _knn_score(t, args, kwargs, result, wall, cpu):
    model, rows = args
    q, (n, p) = rows.shape[0], model.train_x.shape
    t.add("knn.score.calls", 1)
    t.add("knn.score.s", wall)
    t.add("knn.queries", q)
    # Computed, not counted: the brute-force difference tensor has q*n*p
    # float64 cells, each a subtract, a multiply and an add.
    t.add("knn.flops", 3 * q * n * p)
    t.add("knn.bytes", 8 * q * n * p)


def _svm_fit(t, args, kwargs, result, wall, cpu):
    t.add("svm.fit.calls", 1)
    t.add("svm.fit.s", wall)


def _load_dataset(t, args, kwargs, dataset, wall, cpu):
    t.add("ingest.load_dataset.calls", 1)
    t.add("ingest.load_dataset.s", wall)
    t.add("ingest.rows", dataset.n_rows)


def _load_manifest(t, args, kwargs, result, wall, cpu):
    t.add("ingest.load_manifest.calls", 1)


def _fit_key(t, args, kwargs):
    """Key a fit by model kind plus a digest of its training matrix and labels."""
    kind, train = args[0], args[1]
    digest = hashlib.sha256(kind.value.encode())
    digest.update(train.feature_matrix.tobytes())
    digest.update(train.labels.tobytes())
    t.fit_keys.append(digest.hexdigest())


# (calling module, imported name, layer, counter hook, pre-call hook)
BOUNDARIES = (
    *[("dropcast.cli", name, layer, hook, None) for name, layer, hook in (
        ("load_manifest", "ingest", _load_manifest),
        ("load_dataset", "ingest", _load_dataset),
        ("to_binary", "ingest", None),
        ("run_ablation", "experiments", None),
        ("run_baseline", "experiments", None),
        ("evaluate_single", "experiments", None),
        ("exclude_group", "preprocess", None),
        ("split", "preprocess", None),
        ("forest_importance", "metrics", _timer("metrics.importance.s")),
        ("emit_roc_svg", "svg", None),
    )],
    *[("dropcast.experiments", name, layer, hook, None) for name, layer, hook in (
        ("load_manifest", "ingest", _load_manifest),
        ("load_dataset", "ingest", _load_dataset),
        ("to_binary", "ingest", None),
        ("exclude_group", "preprocess", None),
        ("fit_standardizer", "preprocess", None),
        ("split", "preprocess", None),
        ("score", "models", None),
        ("roc_curve", "metrics", None),
        ("auc", "metrics", None),
        ("accuracy", "metrics", None),
    )],
    ("dropcast.experiments", "train_model", "models", None, _fit_key),
    *[("dropcast.models", name, layer, hook, None) for name, layer, hook in (
        ("build_forest", "models.forest", _forest_fit),
        ("forest_scores", "models.forest", _timer("forest.score.s")),
        ("build_tree", "models.tree", _tree_fit),
        ("tree_scores", "models.tree", _timer("tree.score.s")),
        ("_fit_knn", "models.knn", None),
        ("knn_scores", "models.knn", _knn_score),
        ("_fit_svm", "models.svm", _svm_fit),
        ("svm_scores", "models.svm", _timer("svm.score.s")),
        ("apply_standardizer", "preprocess", None),
    )],
)


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation (counters plus self times)."""
    c = dict.fromkeys(COUNTERS, 0.0)
    c.update(tracer.counters)
    trees, nodes = c.pop("_forest.trees"), c.pop("_forest.nodes")
    pool_cpu, pool_worker_s = c.pop("_forest.pool_cpu_s"), c.pop("_forest.pool_worker_s")
    c["forest.nodes_per_tree"] = nodes / trees if trees else 0.0
    # Over the fits that ran on more than one worker thread.
    c["forest.parallel_eff"] = pool_cpu / pool_worker_s if pool_worker_s else 0.0
    fits = len(tracer.fit_keys)
    c["experiments.fits"] = fits
    c["experiments.unique_fits"] = len(set(tracer.fit_keys))
    c["experiments.fit_useful_ratio"] = c["experiments.unique_fits"] / fits if fits else 0.0
    for layer, seconds in tracer.self_times().items():
        c[SELF_METRIC[layer]] = seconds
    c["trace.wall_s"] = wall
    c["trace.unattributed_s"] = tracer.remainder(wall)
    c["cli.cpu_s"] = sum(s[6] for s in tracer.spans if s[4] < 0)
    return c


COUNTERS = (
    "forest.fit.calls", "forest.fit.s", "forest.fit.cpu_s", "forest.score.s",
    "_forest.pool_cpu_s", "_forest.pool_worker_s", "_forest.trees", "_forest.nodes",
    "knn.score.calls", "knn.score.s", "knn.queries", "knn.flops", "knn.bytes",
    "svm.fit.calls", "svm.fit.s", "svm.score.s",
    "tree.fit.calls", "tree.fit.s", "tree.nodes", "tree.score.s",
    "ingest.load_dataset.calls", "ingest.load_dataset.s", "ingest.rows",
    "ingest.load_manifest.calls", "metrics.importance.s",
)

"""Self-tests of the benchmark's gate and trace.

    python3 perfbench/selftest.py

Run from the root of a dropcast checkout; takes about ten seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

import run
from gate import DigestBook, Gate
from spans import Tracer, layer_metrics
from workloads import Command, Workload, check_train

SCRATCH = run.WORK / "selftest"
ROWS = 150

TRAIN_ALL = Workload("selftest", ROWS, (
    Command("all", ("train", "--model", "all", "--seeds", "42"), check_train),
))


class Tampering:
    """Runs the command in-process, then edits its report.json."""

    def __init__(self, edit):
        self.inner = run.InProcessRunner()
        self.edit = edit

    def __call__(self, argv):
        result = self.inner(argv)
        path = Path(argv[argv.index("--out") + 1]) / "report.json"
        doc = json.loads(path.read_text())
        self.edit(doc)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return result


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.check_checkout()
        shutil.rmtree(SCRATCH, ignore_errors=True)
        SCRATCH.mkdir(parents=True)
        child = run.ChildRunner(SCRATCH / "cli.log", time.perf_counter() + run.RUN_LIMIT_S)
        cls.fixture, _, _ = run.make_fixtures(TRAIN_ALL, 3, SCRATCH, child)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def gate(self, name):
        return Gate(run.SCHEMA, DigestBook(SCRATCH / f"{name}.json", run.code_digest()), name)

    def op(self, gate, runner, name):
        return run.run_op(TRAIN_ALL, self.fixture, SCRATCH / name, runner, gate)

    def test_tampered_report_is_a_failed_operation(self):
        def add_field(doc):
            doc["wall_clock"] = 1.0

        def shift_auc(doc):
            doc["runs"][0]["auc"] += 1e-6

        def reorder_runs(doc):  # schema-valid and AUC-consistent: only the digest catches it
            doc["runs"].reverse()

        for edit, reason in ((add_field, "schema"), (shift_auc, "area"), (reorder_runs, "digest")):
            with self.subTest(edit=edit.__name__):
                gate = self.gate(edit.__name__)
                clean = self.op(gate, run.InProcessRunner(), "clean")
                self.assertEqual(clean.failures, [])
                tampered = self.op(gate, Tampering(edit), "tampered")
                self.assertEqual(len(tampered.failures), 1)
                self.assertIn(reason, tampered.failures[0])

    def test_traced_and_untraced_outputs_are_identical(self):
        gate = self.gate("trace")
        plain = self.op(gate, run.InProcessRunner(), "plain")
        tracer = Tracer()
        with tracer.installed():
            traced = self.op(gate, run.InProcessRunner(tracer), "traced")
        self.assertEqual(plain.failures + traced.failures, [])
        self.assertEqual(plain.digests, traced.digests)
        self.assertTrue(tracer.spans)

    def test_self_times_plus_remainder_equal_wall(self):
        tracer = Tracer()
        with tracer.installed():
            op = self.op(self.gate("selftimes"), run.InProcessRunner(tracer), "selftimes")
        self.assertEqual(op.failures, [])
        self_times = tracer.self_times()
        remainder = tracer.remainder(op.wall)
        self.assertAlmostEqual(sum(self_times.values()) + remainder, op.wall, delta=1e-6)
        self.assertGreaterEqual(min(self_times.values()), -1e-6)
        self.assertGreaterEqual(remainder, 0.0)
        for layer in ("models.forest", "models.tree", "models.knn", "models.svm", "ingest"):
            self.assertGreater(self_times[layer], 0.0, layer)

    def test_per_layer_metrics_match_benchmark_json(self):
        tracer = Tracer()
        with tracer.installed():
            op = self.op(self.gate("names"), run.InProcessRunner(tracer), "names")
        computed = set(layer_metrics(tracer, op.wall)) | {"trace.overhead_s", "cli.ops", "out.bytes"}
        self.assertEqual(computed, set(run.metric_units("per_layer")))

    def test_checkout_without_sources_fails_without_result(self):
        bare = SCRATCH / "bare"
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ablate-importance", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()

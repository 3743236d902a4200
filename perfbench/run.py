"""dropcast benchmark: drive the CLI on seeded fixtures and check its outputs.

    python3 perfbench/run.py --workload ablate-importance --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, untraced and traced

Run from the root of a dropcast checkout; the program is imported from
its ``src/``. One run:

1. Set-up: generate the workload's fixture three times (the copies must
   be byte-identical) and run one untimed warm-up operation. ``setup_s``
   is the median generation time plus the warm-up time.
2. Window: run operations back to back for about ``--seconds``, one CLI
   child process at a time (closed loop, one client).
3. With ``--trace 0`` print the end-to-end metrics: ``run_s`` is the
   mean operation time over the window (on a shared machine the
   processor speed drifts over tens of seconds, and the mean weighs the
   whole window alike, where a median of a few operations follows
   whichever phase most of them fell in); the other metrics are medians
   over its operations. With ``--trace 1`` the window alternates an
   untraced and a traced in-process operation through
   ``dropcast.cli.main``, and the per-layer metrics are medians over the
   traced ones; ``trace.overhead_s`` is the difference of the two medians.

Every command of every operation passes the correctness gate (see
``gate``); a command that does not counts as failed. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Output digests, span records and the full
results go to ``.perfbench_work/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from gate import DigestBook, Gate, tree_bytes, tree_digest
from spans import Tracer, layer_metrics
from workloads import PLANTED_GROUP, PLANTED_STRENGTH, WORKLOADS, CheckFailed, Fixture

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SCHEMA = SRC / "dropcast" / "schemas" / "report.schema.json"
DEFAULT_SEED = 7
SETUP_ROUNDS = 3
RUN_LIMIT_S = 170.0  # every child is killed once a run has lasted this long


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Run:
    rc: int
    wall: float
    rss_mb: float = 0.0


@dataclass
class Op:
    wall: float = 0.0
    rss_mb: float = 0.0
    commands: int = 0
    out_bytes: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    aucs: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def fingerprint() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def code_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in (SRC / "dropcast").rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class ChildRunner:
    """Runs ``python -m dropcast.cli`` as a child and waits for it."""

    def __init__(self, log: Path, deadline: float):
        self.log = log
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def __call__(self, argv: list[str]) -> Run:
        with open(self.log, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "dropcast.cli", *argv],
                                    stdout=log, stderr=log, env=self.env, cwd=ROOT)
            killer = threading.Timer(max(0.1, self.deadline - start), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Run(proc.returncode, wall, usage.ru_maxrss / 1024.0)


class InProcessRunner:
    """Calls ``dropcast.cli.main`` in this process, inside a root span when traced."""

    def __init__(self, tracer=None):
        import dropcast.cli

        self.main = dropcast.cli.main
        if tracer is not None:
            self.main = tracer.wrap("cli", "main", self.main)

    def __call__(self, argv: list[str]) -> Run:
        start = time.perf_counter()
        rc = self.main(argv)
        return Run(rc, time.perf_counter() - start)


def run_op(workload, fixture, op_dir: Path, runner, gate) -> Op:
    op = Op()
    for command in workload.commands:
        out = op_dir / command.label
        run = runner(command.argv(fixture, out))
        op.wall += run.wall
        op.rss_mb = max(op.rss_mb, run.rss_mb)
        op.commands += 1
        try:
            op.digests[command.label], aucs = gate.check(command, run.rc, out, fixture)
            op.aucs += aucs
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            op.failures.append(f"{type(exc).__name__}: {exc}")
        if out.exists():
            op.out_bytes += tree_bytes(out)
    shutil.rmtree(op_dir, ignore_errors=True)
    return op


def make_fixtures(workload, seed: int, run_dir: Path, runner) -> tuple[Fixture, str, list[float]]:
    """The fixture, its digest, and the generation times."""
    times, digests = [], set()
    for i in range(SETUP_ROUNDS):
        out = run_dir / f"fixture{i}"
        run = runner(["fixture", "--rows", str(workload.rows), "--seed", str(seed),
                      "--planted-group", PLANTED_GROUP, "--strength", PLANTED_STRENGTH,
                      "--out", str(out)])
        if run.rc != 0:
            tail = runner.log.read_text(errors="replace")[-400:]
            raise SetupError(f"dropcast fixture exited {run.rc}: {tail}")
        times.append(run.wall)
        digests.add(tree_digest(out))
    if len(digests) != 1:
        raise SetupError("dropcast fixture wrote different bytes for the same arguments")
    base = run_dir / "fixture0"
    fixture = Fixture(base / "fixture.csv", base / "fixture_manifest.tsv", workload.rows)
    return fixture, digests.pop(), times


def check_checkout() -> None:
    if not (SRC / "dropcast" / "cli.py").is_file() or not SCHEMA.is_file():
        raise SetupError(f"no dropcast sources under {SRC}; run from a dropcast checkout")
    sys.path.insert(0, str(SRC))
    import dropcast

    if Path(dropcast.__file__).resolve().parent != (SRC / "dropcast").resolve():
        raise SetupError(f"imported dropcast from {dropcast.__file__}, not from {SRC}")


def metric_units(kind: str) -> dict[str, str]:
    """Metric name to unit, for ``end_to_end`` or ``per_layer``, from BENCHMARK.json."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        raise SetupError(f"no {spec}")
    return {m["name"]: m["unit"] for m in json.loads(spec.read_text())[kind]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    run_dir = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    book = DigestBook(WORK / "digests.json", code_digest())
    child = ChildRunner(run_dir / "cli.log", time.perf_counter() + RUN_LIMIT_S)
    ops: list[Op] = []
    try:
        fixture, fixture_digest, setup_times = make_fixtures(workload, seed, run_dir, child)
        gate = Gate(SCHEMA, book, f"{name}/{fixture_digest[:16]}")
        warm = run_op(workload, fixture, run_dir / "warmup", child, gate)
        ops.append(warm)
        setup_s = statistics.median(setup_times) + warm.wall

        window: list[Op] = []
        traced: list[tuple[Op, dict]] = []
        spans: list[dict] = []
        # Start another step while it is expected to end no more than half
        # a step past the window, so the measured time is close to --seconds.
        begin = time.perf_counter()
        step = 0.0
        while not window or time.perf_counter() - begin + step / 2 < seconds:
            step_start = time.perf_counter()
            n = len(window)
            if not trace:
                window.append(run_op(workload, fixture, run_dir / f"op{n}", child, gate))
            else:
                window.append(run_op(workload, fixture, run_dir / f"op{n}", InProcessRunner(), gate))
                tracer = Tracer()
                with tracer.installed():
                    op = run_op(workload, fixture, run_dir / f"traced{n}", InProcessRunner(tracer), gate)
                metrics = layer_metrics(tracer, op.wall)
                metrics.update({"cli.ops": op.commands, "out.bytes": op.out_bytes})
                traced.append((op, metrics))
                spans.append({"op": n, "wall": op.wall, "spans": tracer.span_records()})
            step = time.perf_counter() - step_start
        ops += window + [op for op, _ in traced]
    finally:
        book.save()
        shutil.rmtree(run_dir, ignore_errors=True)

    failures = [f for op in ops for f in op.failures]
    for failure in failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    samples = len(window)
    if trace:
        per_op = [m for _, m in traced]
        values = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
        values["trace.overhead_s"] = (statistics.median(op.wall for op, _ in traced)
                                      - statistics.median(op.wall for op in window))
        samples = len(traced)
        (results / f"{tag}-spans.json").write_text(json.dumps(spans) + "\n")
    else:
        aucs = next((op.aucs for op in ops if op.aucs and not op.failures), [])
        values = {
            "run_s": statistics.fmean(op.wall for op in window),
            "peak_rss_mb": statistics.median(op.rss_mb for op in window),
            "setup_s": setup_s,
            "auc_mean": statistics.fmean(aucs) if aucs else 0.0,
        }
    metrics = {k: {"value": values[k], "unit": unit}
               for k, unit in metric_units("per_layer" if trace else "end_to_end").items()}
    attempted = sum(op.commands for op in ops)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    digests = {label: d for op in ops for label, d in op.digests.items()}
    (results / f"{tag}.json").write_text(json.dumps({
        **result, "workload": name, "seed": seed, "seconds": seconds, "samples": samples,
        "op_walls": [op.wall for op in window], "traced_walls": [op.wall for op, _ in traced],
        "code_digest": book.code, "output_digests": digests, "failures": failures,
        "fingerprint": fingerprint(),
    }, indent=1, sort_keys=True) + "\n")
    print(f"# {tag}: {samples} samples, fail_ratio {len(failures)}/{attempted}"
          f" = {len(failures) / attempted:.3g}")
    for label, digest in sorted(digests.items()):
        print(f"# digest {label} {digest}")
    for key, metric in metrics.items():
        print(f"{key:32s} {metric['value']:.6g} {metric['unit']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all of them, untraced and traced)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="fixture seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        if args.workload:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
            return 0
        summary = {}
        for name in WORKLOADS:
            for trace in (False, True):
                summary[f"{name}/trace{int(trace)}"] = run_workload(name, args.seed, args.seconds, trace)
        print(json.dumps(summary))
        return 0 if all(r["correct"] for r in summary.values()) else 1
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

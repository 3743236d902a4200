"""Forked cell workers: ``workers.forked_map`` and the commands that use it.

Every test here uses at most 4 workers.
"""

import contextlib
import io
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dropcast.cli as cli
from dropcast.errors import InvalidArgumentError
from dropcast.fixture import generate_fixture
from dropcast.ingest import FeatureGroup
from dropcast.workers import _Worker, forked_map

from conftest import REPO_ROOT

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that hangs rather than hang the suite; a forked child
    does not inherit the alarm."""
    def expire(signum, frame):
        raise TimeoutError("test ran for over 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _square_or_fail(i):
    if i in (5, 7):
        raise InvalidArgumentError(f"task {i} rejected")
    return i * i


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_results_come_back_in_task_order(workers):
    assert list(forked_map(lambda i: i * i, 9, workers)) == [i * i for i in range(9)]
    _assert_no_child_left()


def test_results_are_computed_in_the_children():
    pids = {pid for _, pid in forked_map(lambda i: (i, os.getpid()), 6, 2)}
    assert os.getpid() not in pids and 1 <= len(pids) <= 2


@pytest.mark.parametrize("workers", [2, 4])
def test_first_failed_task_in_order_is_raised_with_its_class_and_message(workers):
    results = []
    with pytest.raises(InvalidArgumentError, match=r"^task 5 rejected$"):
        for value in forked_map(_square_or_fail, 9, workers):
            results.append(value)
    assert results == [0, 1, 4, 9, 16]
    _assert_no_child_left()


def test_a_worker_that_dies_is_an_error_and_every_child_is_reaped():
    def die_at_two(i):
        if i == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    with pytest.raises(ChildProcessError, match="ended without returning task 2"):
        list(forked_map(die_at_two, 6, 2))
    _assert_no_child_left()


def test_a_worker_killed_after_its_last_task_is_no_error(tmp_path):
    pid_file = tmp_path / "pid"

    def kill_the_idle_worker(i):
        if i == 1:
            (tmp_path / "pid.tmp").write_text(str(os.getpid()))
            (tmp_path / "pid.tmp").rename(pid_file)
            return i
        while not pid_file.exists():
            time.sleep(0.01)
        time.sleep(0.3)  # task 1's result is back and its worker is idle
        os.kill(int(pid_file.read_text()), signal.SIGKILL)
        time.sleep(0.3)  # that worker's pipe closes before this result is back
        return i

    assert list(forked_map(kill_the_idle_worker, 2, 2)) == [0, 1]
    _assert_no_child_left()


def test_a_result_cut_short_after_its_header_is_a_child_process_error():
    result = pickle.dumps((True, bytes(80)), protocol=pickle.HIGHEST_PROTOCOL)
    read, write = os.pipe()
    os.write(write, len(result).to_bytes(8, "little") + result[:5])  # then the child dies
    os.close(write)
    worker = _Worker.__new__(_Worker)  # the parent's end of a child's pipes, with no child
    worker.pid, worker.task, worker.results = 123, 0, open(read, "rb")
    with worker.results, pytest.raises(ChildProcessError, match="ended without returning task 0"):
        worker.receive()


def test_a_generator_closed_early_reaps_its_busy_children():
    def slow(i):
        if i > 0:
            signal.pause()  # never returns: the worker must be killed
        return i

    results = forked_map(slow, 4, 3)
    assert next(results) == 0
    results.close()
    _assert_no_child_left()


def _data_flags(folder: Path) -> list[str]:
    return ["--data", str(folder / "data.csv"), "--manifest", str(folder / "manifest.tsv")]


def _outputs(argv: list[str], out: Path) -> tuple:
    """Exit code, stderr and every output file's bytes of one run."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main([*argv, "--out", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else None
    return code, err.getvalue(), files


_FAST = ["--seeds", "42,43", "--forest-trees", "6", "--svm-epochs", "6", "--knn-k", "3"]


@settings(max_examples=6, deadline=None)
@given(rows=st.integers(40, 120), seed=st.integers(0, 2**32),
       group=st.sampled_from([None, *FeatureGroup]), strength=st.floats(0.5, 4.0))
def test_outputs_do_not_depend_on_the_worker_count(tmp_path_factory, rows, seed, group, strength):
    folder = tmp_path_factory.mktemp("random_fixture")
    generate_fixture(folder / "data.csv", folder / "manifest.tsv", n_rows=rows, seed=seed,
                     planted_group=group, signal_strength=strength if group else 0.0)
    with mock.patch.object(cli, "usable_cpus", lambda: 4):
        for command in (["train", "--model", "all", "--save-models"], ["ablate"], ["importance"]):
            argv = [*command, *_data_flags(folder), *_FAST]
            runs = [_outputs([*argv, "--threads", str(workers)], folder / f"{command[0]}{workers}")
                    for workers in (1, 2, 3)]
            assert runs[0] == runs[1] == runs[2]
    _assert_no_child_left()


def test_fit_rejected_in_a_worker_is_one_line_and_leaves_no_out_and_no_child(tmp_path, capsys):
    # The C bound depends on each seed's standardized training rows: seed 43's
    # fit passes it, seed 42's does not; each seed is one worker's cell.
    generate_fixture(tmp_path / "data.csv", tmp_path / "manifest.tsv", n_rows=200, seed=7,
                     planted_group=FeatureGroup.ACADEMIC, signal_strength=3.0)
    out = tmp_path / "out"
    with mock.patch.object(cli, "usable_cpus", lambda: 2):
        code = cli.main(["train", "--model", "svc", "--seeds", "43,42", "--svm-c", "8.46e150",
                         "--svm-epochs", "5", "--threads", "2", *_data_flags(tmp_path),
                         "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("dropcast: error: SVM C = 8.46e+150 is too large for 140 training rows")
    assert not out.exists()
    _assert_no_child_left()


@pytest.fixture(scope="module")
def small_fixture(tmp_path_factory):
    folder = tmp_path_factory.mktemp("workers_fixture")
    generate_fixture(folder / "data.csv", folder / "manifest.tsv", n_rows=300, seed=9,
                     planted_group=FeatureGroup.ACADEMIC, signal_strength=3.0)
    return folder


@pytest.fixture
def fork_calls():
    """One entry per ``os.fork`` call made while the test runs."""
    real_fork, calls = os.fork, []

    def counted_fork():
        calls.append(1)
        return real_fork()

    with mock.patch.object(os, "fork", counted_fork):
        yield calls


@pytest.mark.parametrize("threads, cpus, forks", [("1000", 2, 2), ("4", 4, 2), ("1", 4, 0)])
def test_workers_are_capped_at_the_cells_and_the_usable_cpus(small_fixture, tmp_path, fork_calls,
                                                             threads, cpus, forks):
    with mock.patch.object(cli, "usable_cpus", lambda: cpus):
        code = cli.main(["train", "--model", "dt", "--seeds", "42,43", "--threads", threads,
                         *_data_flags(small_fixture), "--out", str(tmp_path / "out")])
    assert code == 0
    assert len(fork_calls) == forks


def test_the_program_forks_by_default_and_a_calling_program_only_when_asked(small_fixture,
                                                                          tmp_path, fork_calls):
    argv = ["train", "--model", "dt", "--seeds", "42,43", *_data_flags(small_fixture)]
    with mock.patch.object(cli, "usable_cpus", lambda: 2):
        assert cli.main([*argv, "--out", str(tmp_path / "called")]) == 0
        assert fork_calls == []
        with mock.patch.object(sys, "argv", ["dropcast", *argv, "--out", str(tmp_path / "program")]):
            assert cli.main() == 0
        assert len(fork_calls) == 2
    _assert_no_child_left()


def test_without_fork_the_cells_run_in_this_process(small_fixture, tmp_path, monkeypatch):
    outs = []
    for name in ("fork", "nofork"):
        if name == "nofork":
            monkeypatch.delattr(os, "fork")
        with mock.patch.object(cli, "usable_cpus", lambda: 2):
            assert cli.main(["train", "--model", "all", "--threads", "2", *_FAST,
                             *_data_flags(small_fixture), "--out", str(tmp_path / name)]) == 0
        outs.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
    assert outs[0] == outs[1]


def _run_cli(args: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env={**os.environ, **env}, timeout=timeout,
                          capture_output=True, text=True)


def test_pooled_run_after_a_blas_call_in_the_parent_finishes(small_fixture, tmp_path):
    # numpy is imported first, so the two BLAS threads asked for here are
    # running when the two workers are forked.
    code = ("import sys; import numpy as np; a = np.ones((400, 400)); a @ a; "
            "import dropcast.cli as cli; cli.usable_cpus = lambda: 2; sys.exit(cli.main(sys.argv[1:]))")
    proc = _run_cli(["-c", code, "train", "--model", "all", "--threads", "2", *_FAST,
                     *_data_flags(small_fixture), "--out", str(tmp_path / "out")],
                    {"OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": str(REPO_ROOT / "src")},
                    timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "report.json").is_file()


def test_outputs_do_not_depend_on_the_blas_thread_count(small_fixture, tmp_path):
    outputs = []
    for blas in ("1", "2"):
        files = {}
        for command in (["train", "--model", "all", "--threads", "2", *_FAST], ["eda"]):
            out = tmp_path / f"{command[0]}{blas}"
            proc = _run_cli(["-m", "dropcast.cli", *command, *_data_flags(small_fixture),
                             "--out", str(out)],
                            {"OPENBLAS_NUM_THREADS": blas, "PYTHONPATH": str(REPO_ROOT / "src")},
                            timeout=120)
            assert proc.returncode == 0, proc.stderr
            files.update({f"{command[0]}/{p.name}": p.read_bytes() for p in out.iterdir()})
        outputs.append(files)
    assert outputs[0] == outputs[1]

"""``tools/expect_rejected.sh``, the check every rejected run in CI calls:
exit 1, one stderr line matching a whole-line glob, no Traceback, no --out."""

import os
import shutil
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

SCRIPT = REPO_ROOT / "tools" / "expect_rejected.sh"

pytestmark = pytest.mark.skipif(shutil.which("bash") is None, reason="no bash")


def _check(out, pattern, *command) -> tuple[int, str]:
    """The script's exit status and the last line it printed."""
    proc = subprocess.run(["bash", str(SCRIPT), str(out), pattern, *command], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    return proc.returncode, proc.stderr.splitlines()[-1] if proc.stderr else ""


def _shell(stderr: str, status: int) -> list[str]:
    return ["sh", "-c", f"printf '{stderr}' >&2; exit {status}"]


def test_a_real_rejected_run_passes(tmp_path):
    command = [sys.executable, "-m", "dropcast.cli", "eda", "--data", str(tmp_path / "none.csv"),
               "--out", str(tmp_path / "out")]
    status, line = _check(tmp_path / "out", "dropcast: error: *No such file or directory: *",
                          *command)
    assert (status, line) == (0, f"dropcast: error: [Errno 2] No such file or directory: "
                                 f"'{tmp_path / 'none.csv'}'")


def test_the_stand_in_command_passes(tmp_path):
    command = _shell("dropcast: error: a.c\\n", 1)
    assert _check(tmp_path / "out", "dropcast: error: a.c", *command) == (0, "dropcast: error: a.c")


@pytest.mark.parametrize("stderr, status, pattern, reason", [
    ("dropcast: error: a.c\\n", 0, "dropcast: error: *", "exit status 0, not 1"),
    ("dropcast: error: a.c\\n", 2, "dropcast: error: *", "exit status 2, not 1"),
    ("dropcast: error: a.c\\nmore\\n", 1, "dropcast: error: *", "2 lines on stderr, not 1"),
    ("", 1, "*", "0 lines on stderr, not 1"),
    ("dropcast: error: a.c\\n", 1, "dropcast: error: b*",
     "stderr line does not match: dropcast: error: b*"),
    ("dropcast: error: abc\\n", 1, "dropcast: error: a.c",
     "stderr line does not match: dropcast: error: a.c"),
    ("dropcast: error: a.c and more\\n", 1, "dropcast: error: a.c",
     "stderr line does not match: dropcast: error: a.c"),
    ("Traceback (most recent call last):\\n", 1, "*", "a Traceback on stderr"),
], ids=["exit-0", "exit-2", "two-lines", "no-line", "no-match", "dot-is-literal", "whole-line",
        "traceback"])
def test_each_broken_promise_fails_with_its_reason(tmp_path, stderr, status, pattern, reason):
    assert _check(tmp_path / "out", pattern, *_shell(stderr, status)) == (
        1, f"expect_rejected: {reason}")


def test_an_out_that_exists_fails(tmp_path):
    (tmp_path / "out").mkdir()
    assert _check(tmp_path / "out", "dropcast: error: *", *_shell("dropcast: error: a.c\\n", 1)) == (
        1, f"expect_rejected: {tmp_path / 'out'} exists")

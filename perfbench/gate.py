"""Correctness gate: an operation's command fails on any of
a nonzero exit, a ``report.json`` that breaks the report schema, output
digests that differ from the first run of the same code, or a failed
content check (see ``workloads``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import jsonschema

from workloads import CheckFailed, Command, Fixture


def tree_digest(directory: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(path.relative_to(directory).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


class DigestBook:
    """Output digests of the first run of each code version.

    Keyed by a digest of the program's source tree, so a rerun of the
    same code, in this process or a later one, must reproduce them; a
    change to ``src/`` starts a fresh entry.
    """

    def __init__(self, path: Path, code_digest: str):
        self.path = path
        self.code = code_digest
        self.book = json.loads(path.read_text()) if path.is_file() else {}
        self.entries = self.book.setdefault(code_digest, {})

    def check(self, key: str, digest: str) -> None:
        first = self.entries.setdefault(key, digest)
        if first != digest:
            raise CheckFailed(f"{key}: output digest {digest[:12]} differs from first run {first[:12]}")

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.book, indent=1, sort_keys=True) + "\n")


class Gate:
    def __init__(self, schema_path: Path, book: DigestBook, key_prefix: str):
        """``key_prefix`` names the workload and its input, e.g. by the fixture's digest."""
        self.validator = jsonschema.Draft202012Validator(json.loads(schema_path.read_text()))
        self.book = book
        self.prefix = key_prefix

    def check(self, command: Command, rc: int, out: Path, fixture: Fixture) -> tuple[str, list[float]]:
        """Digest and AUC values of one command's output; raises CheckFailed."""
        if rc != 0:
            raise CheckFailed(f"{command.label}: exit code {rc}")
        report = out / "report.json"
        if report.is_file():
            errors = sorted(self.validator.iter_errors(json.loads(report.read_text())), key=str)
            if errors:
                raise CheckFailed(f"{command.label}: report.json breaks the schema: {errors[0].message}")
        aucs = command.check(out, fixture)
        digest = tree_digest(out)
        self.book.check(f"{self.prefix}/{command.label}: {' '.join(command.args)}", digest)
        return digest, aucs

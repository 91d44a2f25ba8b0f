"""Correctness gate: runs one ``storyworlds`` CLI call in process and checks it.

Every benchmark operation is one ``storyworlds.cli.main([...])`` call with
stdout and stderr captured. An operation fails when any of these holds:

- an exception escapes ``main`` (the CLI must map every error to an exit code);
- the exit code differs from the one the generator expects (refusals included);
- stderr holds a Python traceback;
- the report fails its checks: JSON must validate against the shipped schema,
  and the per-step world counts, belief counts and kernel flags (JSON and
  CSV alike) must equal the generator's own counts;
- running the same story and flags again does not give byte-identical output.

The checks run outside the timed region.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from storygen import Story

TRACEBACK_MARK = "Traceback (most recent call last)"

# The CSV column set the README documents for ``--format csv``.
CSV_COLUMNS = [
    "step",
    "world_count",
    "belief_count",
    "changed_fraction_num",
    "changed_fraction_den",
    "changed_fraction",
    "is_kernel",
    "world_coherence_num",
    "world_coherence_den",
    "world_coherence",
]


@dataclass(frozen=True)
class Outcome:
    """What one CLI call did: exit code, both output channels, stderr."""

    code: int | None
    stdout: bytes
    out_file: bytes | None
    stderr: str
    error: str | None = None

    @property
    def report(self) -> bytes:
        return self.out_file if self.out_file is not None else self.stdout

    def digest(self) -> tuple:
        """A compact stand-in for the outcome, for byte-identity checks."""
        return (
            self.code,
            hashlib.sha256(self.stdout).hexdigest(),
            None if self.out_file is None else hashlib.sha256(self.out_file).hexdigest(),
            self.stderr,
            self.error,
        )


def call(main, argv: list[str], out_path: Path | None) -> tuple[Outcome, int]:
    """Run ``main(argv)`` with captured streams; return the outcome and the
    call's wall time in nanoseconds."""
    if out_path is not None and out_path.exists():
        out_path.unlink()
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = stdout, stderr
    code: int | None = None
    error = None
    try:
        start = time.perf_counter_ns()
        try:
            code = main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code if isinstance(e.code, int) else 1
        except Exception:
            error = traceback.format_exc()
        elapsed = time.perf_counter_ns() - start
    finally:
        sys.stdout, sys.stderr = saved
    stdout.flush()
    out_file = out_path.read_bytes() if out_path is not None and out_path.exists() else None
    return Outcome(code, stdout.buffer.getvalue(), out_file, stderr.getvalue(), error), elapsed


class Gate:
    """Checks outcomes against the generator's expectations."""

    def __init__(self, schema_path: Path):
        import jsonschema

        schema = json.loads(schema_path.read_text(encoding="utf-8"))
        self.validator = jsonschema.validators.validator_for(schema)(schema)

    def check(self, story: Story, outcome: Outcome) -> list[str]:
        """Problems with one outcome; an empty list means it passed."""
        problems = []
        if outcome.error is not None:
            problems.append("uncaught exception: " + outcome.error.strip().splitlines()[-1])
        if TRACEBACK_MARK in outcome.stderr:
            problems.append("traceback on stderr")
        if outcome.code != story.expect_exit:
            problems.append(f"exit code {outcome.code}, expected {story.expect_exit}")
        if problems:
            return problems
        if story.expect_exit != 0:
            if outcome.stdout or outcome.out_file is not None:
                problems.append("a refused call wrote a report")
            if not outcome.stderr.startswith("error: "):
                problems.append("a refused call printed no error message")
            return problems
        if story.use_out and outcome.stdout:
            problems.append("--out call also wrote to stdout")
        if story.use_out and outcome.out_file is None:
            problems.append("--out file missing")
        try:
            rows = self._rows(story.fmt, outcome.report)
        except ValueError as e:
            return problems + [f"unreadable {story.fmt} report: {e}"]
        expected = list(zip(story.world_counts, story.belief_counts, story.kernels))
        if rows != expected:
            problems.append(f"per-step (worlds, beliefs, kernel) {rows} != expected {expected}")
        return problems

    def _rows(self, fmt: str, payload: bytes) -> list[tuple[int, int, bool]]:
        if fmt == "json":
            report = json.loads(payload.decode("utf-8"))
            errors = sorted(self.validator.iter_errors(report), key=str)
            if errors:
                raise ValueError(f"schema: {errors[0].message}")
            return [(s["world_count"], s["belief_count"], s["is_kernel"]) for s in report["steps"]]
        table = list(csv.reader(io.StringIO(payload.decode("utf-8"))))
        if not table or table[0] != CSV_COLUMNS:
            raise ValueError("CSV header differs from the documented columns")
        rows = []
        for t, row in enumerate(table[1:]):
            if len(row) != len(CSV_COLUMNS) or int(row[0]) != t:
                raise ValueError(f"malformed CSV row {row}")
            rows.append((int(row[1]), int(row[2]), row[6] == "true"))
        return rows


def compare(first: tuple, second: tuple) -> list[str]:
    """Problems when two runs of the same call (given as ``Outcome.digest()``)
    differ in any byte."""
    if first == second:
        return []
    return ["re-running the same story and flags gave different output"]

"""README's "Library quickstart" block runs and prints what its comments say.

Each ``print(...)`` line in the block is followed by its expected output as a
comment, either at the end of the same line or alone on the next line.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quickstart() -> tuple[str, list[str]]:
    """The quickstart's code and the outputs its comments promise."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    expected = []
    lines = code.splitlines()
    for i, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        code_part, _, comment = line.partition("  # ")
        if not comment and i + 1 < len(lines) and lines[i + 1].startswith("# "):
            comment = lines[i + 1][2:]
        assert comment, f"print without an expected-output comment: {line}"
        expected.append(comment.strip())
    return code, expected


def test_quickstart_prints_what_its_comments_say():
    code, expected = quickstart()
    assert expected, "the quickstart block has no print lines"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == expected

"""Reachability: every function under ``src/storyworlds`` runs in the
program's call set, or ``ALLOWED`` names it with its reason.

The call set is what ``storyworlds`` does for its users plus what the
acceptance criteria ask of the library: every ``test_golden.CONFIGS``
report, ``validate`` and ``enumerate --list`` on the three fixtures, one
call for each exit path, and ``tests/test_acceptance.py`` run as a script.
It runs in a fresh interpreter under ``sys.setprofile``; ``cli.build_parser``
is cached per process, so a warm one would hide its body. The test fails on
a ``def`` that no call reaches and ``ALLOWED`` does not name, and on an
``ALLOWED`` entry that a call reaches or that names no ``def``.

Run as a script, this file is that interpreter: it reads the calls as JSON
on stdin, runs them, and prints as JSON each call's exit code and the
``[file name, first line]`` of every code object under ``src/storyworlds``
that was called.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "storyworlds"
DATA = TESTS / "data"

BENCH = "`bench/spans.py` resolves it; goes with ROADMAP item 6"
VALUE = "value semantics of an immutable type: tests compare, hash and print it"

#: Uncalled functions that stay, by ``module.Qualified.name``: one line each.
#: (``report``'s six imports that only ``bench/spans.py`` reads are imports,
#: not defs, so they need no entry.)
ALLOWED = {
    "filters.plausibility_status": "the paper's plausibility classification of a formula",
    "story.serialize_timeline": "documented round-trip API: parse_story(serialize_timeline(t)) == t",
    "metrics.kernel_questions": BENCH,
    "metrics.derive_world_questions": BENCH,
    "metrics._question_pairs": BENCH,
    "metrics.mean_question_entropy": BENCH,
    "worlds.agreement_check": BENCH,
    "logic.Universe.__hash__": VALUE,
    "logic.Universe.__repr__": VALUE,
    "story.Fabula.__eq__": VALUE,
    "story.Fabula.__hash__": VALUE,
    "story.Fabula.__iter__": "iteration in canonical order, which README documents",
    "story.Fabula.__repr__": VALUE,
    "worlds.WorldSet.__eq__": VALUE,
    "worlds.WorldSet.__hash__": VALUE,
    "worlds.WorldSet.__repr__": VALUE,
    "filters.WeakFilter.__repr__": VALUE,
}


def defs() -> dict[tuple[str, int], str]:
    """Every ``def`` under ``src/storyworlds``, nested ones too, by the file
    name and first line (its first decorator's) of its code object."""
    out = {}

    def walk(node, prefix, file):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    out[(file, first)] = name
            walk(child, name, file)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, path.name)
    return out


#: Small stories, one per exit path that a story file decides.
BAD_STORIES = {
    "syntax.story": "sort s: a\nrel p(s)\n\nt=0:\n+ p(a) &\n",
    "unknown.story": "sort s: a\nrel p(s)\n\nt=0:\n+ q(a)\n",
    "declaration.story": "sort s:\nrel p(s)\n\nt=0:\n+ p(a)\n",
    "inconsistent.story": "sort s: a\nrel p(s)\n\nt=0:\n+ p(a)\n+ !p(a)\n",
}


def call_set(tmp: Path) -> list[tuple[str, list[str], int]]:
    """The calls as (working directory, ``storyworlds`` argv, exit code)."""
    # imported here: the script side imports nothing from storyworlds before
    # its profiler is on
    from test_golden import CONFIGS

    for name, text in BAD_STORIES.items():
        (tmp / name).write_text(text, encoding="utf-8")
    out = str(tmp / "out")
    calls = [
        (str(DATA), ["analyze", story, *flags, "--seed", str(seed), "--format", fmt, "--out", out], 0)
        for story, _, flags, seed, fmt in CONFIGS
    ]
    for story in ("cards.story", "reveal.story", "twist.story"):
        calls += [(str(DATA), ["validate", story], 0), (str(DATA), ["enumerate", story, "--list"], 0)]
    cards = str(DATA / "cards.story")
    calls += [
        (str(tmp), ["analyze", cards, "--bound", "3"], 1),
        (str(tmp), ["analyze", cards, "--theta", "1/3", "--out", out], 0),
        (str(tmp), ["validate", "syntax.story"], 1),
        (str(tmp), ["validate", "unknown.story"], 1),
        (str(tmp), ["validate", "declaration.story"], 1),
        (str(tmp), ["analyze", "inconsistent.story"], 2),
        (str(tmp), ["analyze", cards, "--channel", "bogus"], 1),
        (str(tmp), ["analyze", cards, "--truth", "wears(jay,blue); !wears(jay,blue)"], 1),
        (str(tmp), ["validate", "missing.story"], 3),
    ]
    return calls


def test_every_def_is_reached_or_allowed(tmp_path):
    calls = call_set(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    run = subprocess.run(
        [sys.executable, __file__],
        input=json.dumps([[cwd, argv] for cwd, argv, _ in calls]),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["codes"] == [code for _, _, code in calls]
    # criterion 06 fails by design, so the acceptance script exits 1
    assert result["acceptance"] == 1

    every = defs()
    reached = {every[tuple(key)] for key in result["called"] if tuple(key) in every}
    unreached = sorted(set(every.values()) - reached - set(ALLOWED))
    assert not unreached, f"defs that no call reaches and ALLOWED does not name: {unreached}"
    stale = sorted(name for name in ALLOWED if name in reached or name not in every.values())
    assert not stale, f"ALLOWED entries that a call reaches or that name no def: {stale}"


def main() -> None:
    import contextlib
    import io
    import runpy

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    calls = json.load(sys.stdin)
    codes = []
    sink = io.StringIO()
    sys.setprofile(profile)
    from storyworlds import cli

    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for cwd, argv in calls:
            os.chdir(cwd)
            codes.append(cli.main(argv))
        os.chdir(ROOT)
        try:
            runpy.run_path(str(TESTS / "test_acceptance.py"), run_name="__main__")
            acceptance = 0
        except SystemExit as e:
            acceptance = e.code
    sys.setprofile(None)
    src = str(SRC)
    keys = sorted(
        {(Path(c.co_filename).name, c.co_firstlineno) for c in called if c.co_filename.startswith(src)}
    )
    print(json.dumps({"codes": codes, "acceptance": acceptance, "called": keys}))


if __name__ == "__main__":
    main()

"""Fuzzed CLI totality: mutated fixture stories through every command.

Each example mutates one of the two fixture stories (inserting, deleting and
duplicating characters and DSL tokens) and runs the result through
``cli.main`` as ``validate``, ``analyze`` once per channel kind and once with
``--sample-k 1``, and ``enumerate -t 1 --list``. Every call must return an
exit code in {0, 1, 2, 3} and print no traceback. All calls pass
``--bound 12`` so a mutation that adds constants is refused quickly (exit 1)
instead of listing millions of worlds; the fixtures have 8 atoms.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from storyworlds.cli import main

DATA = Path(__file__).parent / "data"
STORIES = {name: (DATA / f"{name}.story").read_text(encoding="utf-8") for name in ("cards", "reveal")}
TOKENS = (
    "sort", "rel", "t=0:", "t=1:", "t=2:", "t=9:", "+", "-", "!", "&", "|", "->",
    "(", ")", ",", ":", "true", "false", "#", "\n", " ", "jay", "ali", "blue",
    "red", "person", "color", "wears", "plays", "wears(jay,red)", "plays(jay,jay)",
    "\n+ !wears(jay,blue)\n", "\n- wears(jay,blue)\n", "\n+ plays(ali,jay) | wears(ali,red)\n",
)
CHANNELS = (
    "identity",
    "drop(wears(ali,blue))",
    "corrupt(wears(jay,blue))",
    "rename(wears->wears)",
)
BOUND = ["--bound", "12"]

mutations = st.lists(
    st.tuples(
        st.sampled_from(("insert_char", "insert_token", "delete_char", "delete_token", "duplicate")),
        st.integers(0, 10**6),
        st.integers(1, 40),
        st.characters(min_codepoint=9, max_codepoint=126) | st.sampled_from(TOKENS),
    ),
    min_size=1,
    max_size=4,
)


def mutate(text: str, edits) -> str:
    for op, where, span, payload in edits:
        at = where % (len(text) + 1)
        if op in ("insert_char", "insert_token"):
            text = text[:at] + payload + text[at:]
        elif op == "delete_char":
            text = text[:at] + text[at + span % 4 + 1 :]
        elif op == "delete_token":
            found = text.find(payload, at)
            if found < 0:
                found = text.find(payload)
            if found >= 0:
                text = text[:found] + text[found + len(payload) :]
        else:
            text = text[:at] + text[at : at + span] + text[at:]
    return text


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(STORIES)), mutations)
def test_mutated_stories_exit_cleanly(tmp_path_factory, name, edits):
    path = tmp_path_factory.mktemp("fuzz") / f"{name}.story"
    path.write_text(mutate(STORIES[name], edits), encoding="utf-8")
    story = str(path)
    calls = [["validate", story, *BOUND]]
    calls += [["analyze", story, "--channel", spec, *BOUND] for spec in CHANNELS]
    calls.append(["analyze", story, "--sample-k", "1", *BOUND])
    calls.append(["enumerate", story, "-t", "1", "--list", *BOUND])
    for argv in calls:
        code, err = run_cli(argv)
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert "Traceback" not in err, (argv, err)

"""Fuzzed CLI totality: mutated fixture stories through every command, and
fuzzed flags and config files through ``analyze``.

Each story example mutates one of the two fixture stories (inserting,
deleting and duplicating characters and DSL tokens) and runs the result
through ``cli.main`` as ``validate``, ``analyze`` once per channel kind and
once with ``--sample-k 1``, and ``enumerate -t 1 --list``. Each flag example
runs ``analyze`` on ``cards.story`` with fuzzed ``--channel``, ``--truth``,
``--theta``, ``--epsilon``, ``--sample-k``, ``--seed`` and ``--format``
strings, and with a ``--config`` file of random JSON values for the run
configuration's keys.
Every call must return an exit code in {0, 1, 2, 3} and print no traceback.
All calls pass ``--bound 12`` so a mutation that adds constants is refused
quickly (exit 1) instead of listing millions of worlds; the fixtures have 8
atoms.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from storyworlds.cli import main
from storyworlds.report import RunConfig

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


#: Pieces of flag values: channel and truth syntax, numbers in every form the
#: flags read, and values that are not numbers.
FLAG_TOKENS = TOKENS + (
    "identity", "drop(", "corrupt(", "rename(", "wears->plays", "first-canonical", ";",
    "0", "1", "16", "-1", "0.5", "1/2", "1/0", "/", ".", "e", "e-", "nan", "inf",
    "99999999999999999999", "1e308",
)
flag_text = st.lists(
    st.characters(min_codepoint=9, max_codepoint=126) | st.sampled_from(FLAG_TOKENS),
    max_size=8,
).map("".join)
#: Well-formed values per key, so that fuzzed runs also reach the pipeline.
GOOD = {
    "channel": CHANNELS + ("drop(wears(ali,blue); plays(jay,jay))",),
    "truth": ("first-canonical", "wears(jay,blue); !plays(ali,jay)"),
    "theta": ("0", "1/2", "1", 0.25),
    "epsilon": (0, 0.1, "1"),
    "sample_k": (1, 3, 16, 10**6),
    "seed": (0, 7, -3, 10**20),
    "format": ("json", "csv"),
}

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from((10**100, -(10**100), 2**63))
    | st.floats()
    | flag_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(flag_text, inner, max_size=3),
    max_leaves=6,
)
question_specs = st.lists(
    st.fixed_dictionaries(
        {},
        optional={
            "if": st.sampled_from(("wears(jay,blue)", "plays(ali,jay) | true")) | json_values,
            "then": st.sampled_from(("!wears(ali,red)", "false")) | json_values,
            "answers": st.lists(st.booleans() | json_values, max_size=3) | json_values,
        },
    ),
    max_size=3,
)


def config_value(key: str):
    good = st.sampled_from(GOOD[key]) if key in GOOD else st.nothing()
    fuzzed = question_specs if key == "questions" else json_values
    return good | fuzzed


def keyed(keys: list[str], value) -> st.SearchStrategy[dict]:
    """Dicts over up to five distinct ``keys``, each mapped to ``value(key)``."""
    return st.lists(st.sampled_from(keys), max_size=5, unique=True).flatmap(
        lambda chosen: st.fixed_dictionaries({k: value(k) for k in chosen})
    )


flag_values = keyed(sorted(GOOD), lambda k: st.sampled_from(GOOD[k]).map(str) | flag_text)
config_files = keyed([f.name for f in fields(RunConfig)], config_value)


@settings(max_examples=60, deadline=None)
@given(flag_values, st.none() | config_files)
def test_fuzzed_flags_and_config_exit_cleanly(tmp_path_factory, flags, config):
    tmp = tmp_path_factory.mktemp("flags")
    argv = ["analyze", str(DATA / "cards.story"), *BOUND, "--out", str(tmp / "report")]
    argv += [f"--{key.replace('_', '-')}={value}" for key, value in flags.items()]
    if config is not None:
        path = tmp / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    code, err = run_cli(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)

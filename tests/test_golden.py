"""Golden reports: every configuration below must reproduce its committed
report byte for byte.

The files under ``tests/data/golden/`` were written by the implementation
that enumerated world sets as sorted mask tuples and evaluated every world
one by one; they pin the report through any change of representation. The
eight ``cards-*.json`` files were rewritten once since, when reconciliation
began to run on final world sets of more than ten worlds: only their
``reconciliation`` block and one skip warning changed. The twelve
``twist-*`` files pin satellite links and their ``mean_relevance`` floats:
``twist.story`` is a churn-shaped story (12 atoms, 18 steps, kernels at 6
and 12) whose first kernel poses a 12 x 6 question grid that the 64-question
cap cuts in the middle of a row; they were written before satellite
relevance counted each antecedent once per prior. The four
``*-questions-*`` pairs ask the questions of ``cards.questions.json`` and
``twist.questions.json`` (compound formulas, sides shared between
questions, answers given and absent) through ``--config``, and
``bound24-identity-s0.json`` analyses a 24-atom story at ``--bound 24``
(step 0 holds 2**23 worlds); all nine were written by the implementation
that built one ``Implies`` column and one ``Fraction`` per question, twice
per step. The four ``*-rename-*.json`` files were rewritten once since,
when conveyance began to score only the atoms the narrator sent: a
self-rename now sends its relation, so only their ``conveyance`` block
changed (matched 4 -> 8, undetermined 4 -> 0). To rewrite them after an
intended report change::

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.write_all()"
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path

import pytest

from storyworlds.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

#: (story file, name used in the golden file name, channel spec)
CHANNELS = (
    ("cards.story", "identity", "identity"),
    ("cards.story", "drop", "drop(wears(ali,blue))"),
    ("cards.story", "corrupt", "corrupt(wears(jay,blue))"),
    ("cards.story", "rename", "rename(wears->wears)"),
    ("reveal.story", "identity", "identity"),
    ("reveal.story", "drop", "drop(plays(jay,ali); !wears(jay,red))"),
    ("reveal.story", "corrupt", "corrupt(plays(ali,jay))"),
    ("reveal.story", "rename", "rename(plays->plays)"),
    ("twist.story", "identity", "identity"),
    ("twist.story", "drop", "drop(trusts(gus,ann))"),
    ("twist.story", "corrupt", "corrupt(happy(hal))"),
)
SEEDS = (0, 7)
FORMATS = ("json", "csv")

#: (story file, name used in the golden file name, analyze flags, seed, format)
CONFIGS = [
    (story, name, ("--channel", spec), seed, fmt)
    for (story, name, spec), seed, fmt in itertools.product(CHANNELS, SEEDS, FORMATS)
] + [
    (story, "questions", ("--config", f"{Path(story).stem}.questions.json"), seed, fmt)
    for story, seed, fmt in itertools.product(("cards.story", "twist.story"), SEEDS, FORMATS)
] + [("bound24.story", "identity", ("--bound", "24"), 0, "json")]


def golden_path(story: str, name: str, seed: int, fmt: str) -> Path:
    return GOLDEN / f"{Path(story).stem}-{name}-s{seed}.{fmt}"


def render(story: str, flags: tuple[str, ...], seed: int, fmt: str, out: Path) -> bytes:
    """Run ``storyworlds analyze`` from the data directory, so the story path
    recorded in the report does not depend on the checkout's location."""
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        argv = ["analyze", story, *flags, "--seed", str(seed)]
        code = main(argv + ["--format", fmt, "--out", str(out)])
    finally:
        os.chdir(cwd)
    assert code == 0
    return out.read_bytes()


def write_all() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for story, name, flags, seed, fmt in CONFIGS:
        path = golden_path(story, name, seed, fmt)
        render(story, flags, seed, fmt, path.resolve())


@pytest.mark.parametrize(
    "story, name, flags, seed, fmt",
    CONFIGS,
    ids=[f"{Path(c[0]).stem}-{c[1]}-s{c[3]}-{c[4]}" for c in CONFIGS],
)
def test_report_matches_golden(tmp_path, story, name, flags, seed, fmt):
    got = render(story, flags, seed, fmt, tmp_path / f"report.{fmt}")
    assert got == golden_path(story, name, seed, fmt).read_bytes()


#: (story file, step) for every step of both fixtures; the listings under
#: ``tests/data/listings/`` were written by the implementation that listed
#: each set as a tuple of masks before printing it.
LISTINGS = (
    ("cards.story", 0),
    ("cards.story", 1),
    ("reveal.story", 0),
    ("reveal.story", 1),
    ("reveal.story", 2),
    ("reveal.story", 3),
)


@pytest.mark.parametrize(
    "story, t", LISTINGS, ids=[f"{Path(s).stem}-t{t}" for s, t in LISTINGS]
)
def test_enumerate_listing_matches_golden(capsysbinary, story, t):
    assert main(["enumerate", str(DATA / story), "-t", str(t), "--list"]) == 0
    listing = DATA / "listings" / f"{Path(story).stem}-t{t}.txt"
    assert capsysbinary.readouterr().out == listing.read_bytes()

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storyworlds.errors import (
    InconsistentFabulaError,
    InconsistentStepError,
    ParseError,
    UnknownAtomError,
)
from storyworlds.logic import FALSE, And, Atom, Implies, Not, Or, models_column
from storyworlds.story import (
    MAX_FORMULA_DEPTH,
    Fabula,
    TransitionEdit,
    apply_transition,
    delta,
    formula_to_str,
    parse_formula,
    parse_story,
    serialize_timeline,
)

from oracles import parse_formula_oracle

from helpers import (
    chain_story,
    random_consistent_formulas,
    random_formula,
    random_monotone_timeline,
    random_named_universe,
    random_timeline,
    random_universe,
)

ROOT = Path(__file__).resolve().parent.parent

MINIMAL = """\
sort s: a, b
rel p(s)

t=0:
+ p(a)
"""


class TestFormulaGrammar:
    def test_precedence(self, cards_universe):
        f = parse_formula("!wears(jay,blue) & plays(ali,jay) | wears(ali,red)", cards_universe)
        assert isinstance(f, Or)
        assert isinstance(f.items[0], And)
        assert isinstance(f.items[0].items[0], Not)

    def test_implication_is_right_associative(self, cards_universe):
        f = parse_formula(
            "wears(jay,blue) -> wears(ali,blue) -> wears(ali,red)", cards_universe
        )
        assert isinstance(f, Implies) and isinstance(f.consequent, Implies)

    def test_chains_flatten(self, cards_universe):
        f = parse_formula(
            "wears(jay,blue) & wears(ali,blue) & wears(ali,red)", cards_universe
        )
        assert isinstance(f, And) and len(f.items) == 3

    def test_parenthesized_subchain_is_preserved(self, cards_universe):
        f = parse_formula(
            "(wears(jay,blue) & wears(ali,blue)) & wears(ali,red)", cards_universe
        )
        assert isinstance(f, And) and len(f.items) == 2
        assert isinstance(f.items[0], And)
        # and the serializer keeps the grouping
        assert parse_formula(formula_to_str(f), cards_universe) == f

    def test_constants(self, cards_universe):
        f = parse_formula("true -> wears(ali,blue)", cards_universe)
        assert formula_to_str(f) == "true -> wears(ali,blue)"

    def test_unknown_relation_has_position(self, cards_universe):
        with pytest.raises(ParseError) as exc:
            parse_formula("sings(jay)", cards_universe)
        assert "sings" in str(exc.value)

    def test_wrong_sort_reported(self, cards_universe):
        with pytest.raises(ParseError) as exc:
            parse_formula("wears(blue,jay)", cards_universe)
        assert "sort" in str(exc.value)

    def test_trailing_garbage_rejected(self, cards_universe):
        with pytest.raises(ParseError):
            parse_formula("wears(jay,blue) wears(ali,red)", cards_universe)

    def test_roundtrip_random_formulas(self, cards_universe):
        rng = random.Random(5)
        from helpers import random_formula

        for _ in range(120):
            f = random_formula(rng, cards_universe, 3)
            assert parse_formula(formula_to_str(f), cards_universe) == f

    @pytest.mark.parametrize(
        "wrap",
        [
            lambda f, n: "(" * n + f + ")" * n,
            lambda f, n: "!" * n + f,
            lambda f, n: "wears(ali,red) -> " * n + f,
        ],
        ids=["parentheses", "negations", "implications"],
    )
    def test_nesting_limit(self, cards_universe, wrap):
        atom = "wears(jay,blue)"
        deepest = parse_formula(wrap(atom, MAX_FORMULA_DEPTH), cards_universe)
        assert parse_formula(formula_to_str(deepest), cards_universe) == deepest
        too_deep = wrap(atom, MAX_FORMULA_DEPTH + 1)
        with pytest.raises(ParseError) as exc:
            parse_formula(too_deep, cards_universe, line=7, col_offset=2)
        assert exc.value.line == 7 and exc.value.column > 2
        assert f"deeper than {MAX_FORMULA_DEPTH}" in str(exc.value)

    def test_sibling_groups_do_not_add_up(self, cards_universe):
        f = parse_formula(" & ".join(["(!(wears(jay,blue)))"] * 3 * MAX_FORMULA_DEPTH), cards_universe)
        assert len(f.items) == 3 * MAX_FORMULA_DEPTH


# What a mutation inserts or substitutes: every token, the whitespace the
# tokenizer drops, the characters it must keep (form feed, newline,
# non-ASCII), comments, digits, constants and atoms the universe refuses.
_MUTATION_PIECES = (
    " ", "\t", "!", "&", "|", "->", "-", ">", "(", ")", ",", "#", "# c", "é", "\x0c",
    "\n", "1", "_x", "true", "false", "wears", "jay", "sings(jay)", "wears(blue,jay)",
)


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randrange(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(3)
        piece = rng.choice(_MUTATION_PIECES) if op != 1 else ""
        text = text[:i] + piece + text[i + (op != 0) :]
    return text + "\n" if rng.random() < 0.1 else text


def _outcome(parse, text, universe):
    """The parsed formula, or the ParseError's text, line and column."""
    try:
        return parse(text, universe, 3, 2)
    except ParseError as e:
        return (str(e), e.line, e.column)


class TestParserOracle:
    """``parse_formula`` against the character-level reference parser."""

    def _bases(self, rng, universe):
        atom = "wears(jay,blue)"
        for n in (MAX_FORMULA_DEPTH, MAX_FORMULA_DEPTH + 1):
            yield "(" * n + atom + ")" * n
            yield "!" * n + atom
            yield "wears(ali,red) -> " * n + atom
            yield "!(" * (n // 2) + atom + ")" * (n // 2) + " -> " + "!" * (n - n // 2) + atom
        while True:
            text = formula_to_str(random_formula(rng, universe, 3))
            if rng.random() < 0.3:
                text = text.replace(" ", "\t")
            if rng.random() < 0.2:
                text += "  # a comment (with !"
            yield text

    def test_deep_texts_agree_unmutated(self, cards_universe):
        bases = self._bases(random.Random(0), cards_universe)
        for text in [next(bases) for _ in range(8)]:
            want = _outcome(parse_formula_oracle, text, cards_universe)
            assert _outcome(parse_formula, text, cards_universe) == want

    def test_mutated_texts_agree(self, cards_universe):
        rng = random.Random(19)
        bases = self._bases(rng, cards_universe)
        texts = [next(bases) for _ in range(400)]
        errors = 0
        for _ in range(20000):
            text = _mutate(rng, rng.choice(texts))
            want = _outcome(parse_formula_oracle, text, cards_universe)
            assert _outcome(parse_formula, text, cards_universe) == want, repr(text)
            errors += isinstance(want, tuple)
        # both outcomes are well represented
        assert 1000 < errors < 19000


class TestParseStory:
    def test_fixture(self, cards_timeline):
        assert len(cards_timeline.steps) == 2
        assert len(cards_timeline.steps[0]) == 2
        assert len(cards_timeline.steps[1]) == 3

    def test_empty_timeline_is_an_error(self):
        with pytest.raises(ParseError) as exc:
            parse_story("sort s: a\nrel p(s)\n")
        assert "empty timeline" in str(exc.value)

    @pytest.mark.parametrize(
        "label, error",
        [
            ("t=2:", "4:3: expected block t=0, got t=2"),
            ("t=" + "0" * 5000 + ":", None),
            ("t=" + "7" * 5000 + ":", "4:3: expected block t=0, got t=" + "7" * 5000),
        ],
        ids=["out-of-order", "zeros", "5000-digits"],
    )
    def test_block_labels_compare_their_digits(self, label, error):
        # int() refuses more than 4300 digits; a label of any length is
        # block 0 or a ParseError at its line
        text = f"sort s: a\nrel p(s)\n\n  {label}\n+ p(a)\n"
        if error is None:
            assert len(parse_story(text).steps) == 1
        else:
            with pytest.raises(ParseError) as exc:
                parse_story(text)
            assert str(exc.value) == error

    def test_add_remove_conflict(self):
        with pytest.raises(ParseError) as exc:
            parse_story("sort s: a\nrel p(s)\n\nt=0:\n+ p(a)\n- p(a)\n")
        assert "add/remove conflict" in str(exc.value)

    def test_add_remove_conflict_is_reported_at_its_block(self):
        text = "sort s: a, b\nrel p(s)\n\nt=0:\n+ p(a)\n\nt=1:\n- p(b)\n+ p(b)\n- p(a)\n+ p(a)\n"
        with pytest.raises(ParseError) as exc:
            parse_story(text)
        assert (exc.value.line, exc.value.column) == (7, 1)
        assert str(exc.value) == "7:1: add/remove conflict: p(a), p(b)"

    @pytest.mark.parametrize(
        "declarations, message",
        [
            ("sort s: a\n  sort c: a, 1b", "'1b' is not a name of the story grammar"),
            ("sort s: a\n  rel 1p(s)", "malformed rel declaration"),
            ("sort s: a\n  sort s: b", "duplicate sort 's'"),
            ("sort s: a\n  sort c: b, b", "duplicate constant in sort 'c'"),
            ("sort s: a\nrel p(s)\n  rel p(s, s)", "duplicate relation 'p'"),
            ("sort s: a\n  rel true(s)", "relation 'true' would read as a formula constant"),
            ("sort s: a\n  rel false(s)", "relation 'false' would read as a formula constant"),
            ("sort s: a\n  rel q(s, c)", "relation 'q' uses undeclared sort 'c'"),
            ("sort s: a\n  sort c: ,", "sort 'c' has no constants"),
            ("sort s: a\n  rel q( , )", "relation 'q' must have arity >= 1"),
        ],
        ids=[
            "constant-name", "relation-name", "duplicate-sort", "duplicate-constant",
            "duplicate-relation", "true", "false", "undeclared-sort", "no-constants",
            "no-argument-sorts",
        ],
    )
    def test_declaration_errors_carry_the_declaring_line(self, declarations, message):
        """Each universe rule is checked at the line that declares, not
        where the universe is first needed."""
        text = declarations + "\nrel p0(s)\n\nt=0:\n+ p0(a)\n"
        line = next(i for i, l in enumerate(text.splitlines(), 1) if l.startswith("  "))
        with pytest.raises(ParseError) as exc:
            parse_story(text)
        assert (exc.value.line, exc.value.column) == (line, 3)
        assert str(exc.value) == f"{line}:3: {message}"

    def test_relation_may_use_a_sort_declared_below_it(self):
        tl = parse_story("sort s: a\nrel q(s, c)\nsort c: b\n\nt=0:\n+ q(a, b)\n")
        assert tl.universe.relations == {"q": ("s", "c")}

    def test_inconsistent_step_reports_conflict(self):
        with pytest.raises(InconsistentStepError) as exc:
            parse_story("sort s: a\nrel p(s)\n\nt=0:\n+ p(a)\n+ !p(a)\n")
        err = exc.value
        assert err.step == 0
        assert len(err.conflict) == 2

    def test_unknown_constant_position(self):
        with pytest.raises(ParseError) as exc:
            parse_story("sort s: a\nrel p(s)\n\nt=0:\n+ p(z)\n")
        assert exc.value.line == 5

    def test_declaration_after_block_rejected(self):
        with pytest.raises(ParseError):
            parse_story("sort s: a\nrel p(s)\n\nt=0:\n+ p(a)\nsort t: b\n")

    def test_blocks_must_be_consecutive(self):
        with pytest.raises(ParseError) as exc:
            parse_story("sort s: a\nrel p(s)\n\nt=1:\n+ p(a)\n")
        assert "t=0" in str(exc.value)

    def test_duplicate_sort(self):
        with pytest.raises(ParseError):
            parse_story("sort s: a\nsort s: b\nrel p(s)\n\nt=0:\n+ p(a)\n")

    def test_empty_block_repeats_previous_step(self):
        t = parse_story(MINIMAL + "\nt=1:\n")
        assert t.steps[0] == t.steps[1]

    def test_comments_and_blank_lines_ignored(self):
        t = parse_story("# a story\nsort s: a  # two\nrel p(s)\n\nt=0:  \n+ p(a) # yes\n")
        assert len(t.steps[0]) == 1

    def test_accepts_file_objects(self, cards_story_path):
        with open(cards_story_path, encoding="utf-8") as fh:
            t = parse_story(fh)
        assert len(t.steps) == 2


class TestRoundTrip:
    def test_fixture_roundtrip(self, cards_timeline):
        text = serialize_timeline(cards_timeline)
        again = parse_story(text)
        assert again.steps == cards_timeline.steps
        assert serialize_timeline(again) == text

    def test_random_monotone_timelines_roundtrip(self):
        rng = random.Random(31)
        for _ in range(25):
            u = random_universe(rng, 8)
            t = random_monotone_timeline(rng, u, 4)
            text = serialize_timeline(t)
            again = parse_story(text)
            assert again.steps == t.steps
            assert serialize_timeline(again) == text

    def test_roundtrip_above_the_default_bound(self):
        t = parse_story(chain_story(25), bound=25)
        assert t.universe.bound == 25
        assert parse_story(serialize_timeline(t), bound=25).steps == t.steps

    def test_removal_lines_roundtrip(self):
        text = "sort s: a, b\nrel p(s)\n\nt=0:\n+ p(a)\n+ p(b)\n\nt=1:\n- p(b)\n"
        t = parse_story(text)
        assert len(t.steps[1]) == 1
        assert parse_story(serialize_timeline(t)).steps == t.steps

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_every_universe_name_roundtrips(self, seed):
        """Names that prefix one another, in any declaration order, print
        as text that parses back to the same universe and steps."""
        rng = random.Random(seed)
        u = random_named_universe(rng, 6)
        t = random_timeline(rng, u, 3)
        again = parse_story(serialize_timeline(t))
        assert again.universe == u and again.steps == t.steps

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_timelines_with_retractions_roundtrip(self, seed):
        rng = random.Random(seed)
        u = random_universe(rng, 6)
        t = random_timeline(rng, u, 5)
        assert parse_story(serialize_timeline(t)).steps == t.steps
        for step in t.steps:
            assert step.column == models_column(step.propositions, u)
        for prev, cur in zip(t.steps, t.steps[1:]):
            assert apply_transition(prev, delta(prev, cur)) == cur


class TestFabula:
    def test_canonical_order_and_dedup(self, cards_universe):
        a = cards_universe.atom("wears", "jay", "blue")
        b = cards_universe.atom("plays", "ali", "jay")
        fab = Fabula(cards_universe, [a, b, a])
        assert [formula_to_str(f) for f in fab] == ["plays(ali,jay)", "wears(jay,blue)"]

    def test_one_shot_iterable_keeps_every_proposition(self, cards_universe):
        literals = cards_universe.atoms[:3]
        fab = Fabula(cards_universe, (a for a in literals))
        assert fab == Fabula(cards_universe, literals)
        assert len(fab) == 3
        assert fab.column == Fabula(cards_universe, literals).column

    def test_greedy_minimal_conflict(self, cards_universe):
        a = cards_universe.atom("wears", "jay", "blue")
        b = cards_universe.atom("plays", "ali", "jay")
        with pytest.raises(InconsistentFabulaError) as exc:
            Fabula(cards_universe, [a, b, Not(a)])
        assert set(exc.value.conflict) == {a, Not(a)}

    def test_unknown_atom_wins_over_inconsistency(self, cards_universe):
        a = cards_universe.atom("wears", "jay", "blue")
        nope = Atom("nope", ("x",))
        with pytest.raises(UnknownAtomError):
            Fabula(cards_universe, [FALSE, nope])
        with pytest.raises(UnknownAtomError):
            Fabula(cards_universe, [a, Not(a), nope])
        # "!nope(x)" sorts first, so the conflict search drops it untried;
        # it is refused only because its column is built even after false
        # has emptied the conjunction
        with pytest.raises(UnknownAtomError):
            Fabula(cards_universe, [FALSE, Not(nope)])


#: Run under a given PYTHONHASHSEED from ``tests/data``: print the conflict of
#: an inconsistent step (several propositions, one implication), then write
#: one golden configuration's report to ``argv[1]``.
HASH_SEED_SCRIPT = """
import sys
from storyworlds.cli import main
from storyworlds.errors import InconsistentStepError
from storyworlds.story import formula_to_str, parse_story

story = "sort s: a, b, c\\nrel p(s)\\nrel q(s)\\n\\nt=0:\\n"
for line in ("q(b)", "p(c)", "p(a) -> q(c)", "!q(c)", "p(a)"):
    story += "+ " + line + "\\n"
try:
    parse_story(story)
except InconsistentStepError as e:
    print(" ; ".join(formula_to_str(f) for f in e.conflict))
argv = ["analyze", "twist.story", "--channel", "corrupt(happy(hal))", "--seed", "0"]
sys.exit(main(argv + ["--format", "json", "--out", sys.argv[1]]))
"""


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_results_do_not_depend_on_the_hash_seed(tmp_path, hash_seed):
    out = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
    run = subprocess.run(
        [sys.executable, "-c", HASH_SEED_SCRIPT, str(out)],
        cwd=ROOT / "tests" / "data",
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["!q(c) ; p(a) ; p(a) -> q(c)"]
    golden = ROOT / "tests" / "data" / "golden" / "twist-corrupt-s0.json"
    assert out.read_bytes() == golden.read_bytes()


class TestDeltaAndTransitions:
    def test_fixture_delta(self, cards_timeline, cards_universe):
        edit = delta(cards_timeline.steps[0], cards_timeline.steps[1])
        assert edit.additions == {cards_universe.atom("wears", "ali", "blue")}
        assert edit.removals == frozenset()

    def test_delta_of_identical_fabulas_is_empty(self, fabula_f1):
        edit = delta(fabula_f1, fabula_f1)
        assert edit.additions == frozenset() and edit.removals == frozenset()

    def test_removals_reported_separately(self, cards_universe):
        a = cards_universe.atom("wears", "jay", "blue")
        b = cards_universe.atom("plays", "ali", "jay")
        edit = delta(Fabula(cards_universe, [a, b]), Fabula(cards_universe, [b]))
        assert edit.additions == frozenset() and edit.removals == {a}

    def test_apply_adds(self, cards_universe):
        a = cards_universe.atom("wears", "jay", "blue")
        b = cards_universe.atom("plays", "ali", "jay")
        fab = apply_transition(
            Fabula(cards_universe, [a]), TransitionEdit({b}, frozenset())
        )
        assert set(fab) == {a, b}

    def test_apply_rejects_contradiction(self, cards_universe):
        a = cards_universe.atom("wears", "jay", "blue")
        with pytest.raises(InconsistentFabulaError):
            apply_transition(
                Fabula(cards_universe, [a]), TransitionEdit({Not(a)}, frozenset())
            )

    def test_apply_reconstructs_fixture_step(self, cards_timeline, fabula_f1):
        edit = delta(fabula_f1, cards_timeline.steps[1])
        assert apply_transition(fabula_f1, edit) == cards_timeline.steps[1]

    def test_edit_rejects_overlap(self, cards_universe):
        a = cards_universe.atom("wears", "jay", "blue")
        with pytest.raises(ValueError):
            TransitionEdit({a}, {a})

    def test_delta_then_apply_reconstructs_random_timelines(self):
        rng = random.Random(42)
        for _ in range(20):
            u = random_universe(rng, 8)
            t = random_monotone_timeline(rng, u, 5)
            for prev, cur in zip(t.steps, t.steps[1:]):
                assert apply_transition(prev, delta(prev, cur)) == cur

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(("no removals", "present", "absent", "inconsistent", "unknown atom")),
    )
    def test_incremental_column_matches_rebuild(self, seed, case):
        """An edit that removes nothing present ANDs only its additions'
        columns into the old one; every edit gives the column, or the error,
        that building the result from scratch gives."""
        rng = random.Random(seed)
        u = random_universe(rng, 8)
        fab = Fabula(u, random_consistent_formulas(rng, u, rng.randrange(0, 5)))
        old = sorted(fab.propositions, key=formula_to_str)
        additions = set(random_consistent_formulas(rng, u, rng.randrange(0, 4)))
        if old and rng.random() < 0.5:
            additions.add(rng.choice(old))  # already present
        removals = set()
        if case == "present" and old:
            removals = set(rng.sample(old, rng.randrange(1, len(old) + 1)))
        elif case == "absent":
            removals = {random_formula(rng, u, 2)} - fab.propositions - additions
        elif case == "inconsistent":
            additions.add(Not(old[0]) if old else FALSE)
        elif case == "unknown atom":
            additions.add(Atom("absent", ("x",)))
        additions -= removals
        props = (fab.propositions - removals) | additions
        try:
            expected = Fabula(u, props)
        except (InconsistentFabulaError, UnknownAtomError) as e:
            expected = e
        try:
            got = apply_transition(fab, TransitionEdit(additions, removals))
        except (InconsistentFabulaError, UnknownAtomError) as e:
            got = e
        if isinstance(expected, Fabula):
            assert got == expected and got.column == expected.column
            return
        assert type(got) is type(expected) and str(got) == str(expected)
        if isinstance(expected, InconsistentFabulaError):
            assert got.conflict == expected.conflict
        assert case != "unknown atom" or isinstance(got, UnknownAtomError)
        assert case != "inconsistent" or isinstance(got, InconsistentFabulaError)

    def test_monotone_timelines_grow(self):
        rng = random.Random(43)
        for _ in range(20):
            u = random_universe(rng, 8)
            t = random_monotone_timeline(rng, u, 5)
            for prev, cur in zip(t.steps, t.steps[1:]):
                assert prev.propositions <= cur.propositions

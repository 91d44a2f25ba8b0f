from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storyworlds.errors import BoundExceededError, UniverseError, UnknownAtomError
from storyworlds.logic import (
    ATOM_CEILING,
    Atom,
    Constant,
    Implies,
    Not,
    Or,
    Universe,
    World,
    check_bound,
    consistent,
    evaluate,
    map_atoms,
    truth_column,
)
from storyworlds.story import Fabula, formula_to_str
from storyworlds.worlds import enumerate_models

from helpers import chain_universe, random_formula, random_universe

CARDS_ATOM_ORDER = [
    "plays(ali,ali)",
    "plays(ali,jay)",
    "plays(jay,ali)",
    "plays(jay,jay)",
    "wears(ali,blue)",
    "wears(ali,red)",
    "wears(jay,blue)",
    "wears(jay,red)",
]


class TestGroundAtoms:
    def test_cards_universe_has_eight_atoms(self, cards_universe):
        assert len(cards_universe.atoms) == 8

    def test_canonical_order_is_pinned(self, cards_universe):
        # golden: lexicographic by relation name, then argument tuple
        assert [formula_to_str(a) for a in cards_universe.atoms] == CARDS_ATOM_ORDER

    def test_no_relations_means_no_atoms(self):
        u = Universe({"person": ("jay",)}, [])
        assert u.atoms == ()

    def test_single_atom_universe(self):
        u = Universe(
            {"person": ("jay",), "color": ("blue",)},
            [("wears", ("person", "color"))],
        )
        assert [formula_to_str(a) for a in u.atoms] == ["wears(jay,blue)"]

    def test_atom_count_matches_arity_products(self):
        u = Universe(
            {"a": ("x", "y", "z"), "b": ("p", "q")},
            [("r1", ("a", "b")), ("r2", ("b", "b", "a"))],
        )
        assert u.atom_count == 3 * 2 + 2 * 2 * 3

    def test_universe_rejects_duplicate_constants(self):
        with pytest.raises(UniverseError):
            Universe({"s": ("a", "a")}, [])

    def test_universe_rejects_zero_arity(self):
        with pytest.raises(UniverseError):
            Universe({"s": ("a",)}, [("p", ())])

    def test_universe_rejects_unknown_sort(self):
        with pytest.raises(UniverseError):
            Universe({"s": ("a",)}, [("p", ("t",))])

    @pytest.mark.parametrize(
        "sorts, relations",
        [
            ({"s": ("a b", "c")}, [("p", ("s",))]),
            ({"s": ("1a",)}, [("p", ("s",))]),
            ({"s": ("",)}, [("p", ("s",))]),
            ({"s t": ("a",)}, [("p", ("s t",))]),
            ({"s": ("a",)}, [("p-q", ("s",))]),
            ({"s": ("a",)}, [("true", ("s",))]),
            ({"s": ("a",)}, [("false", ("s",))]),
        ],
        ids=["space", "leading-digit", "empty", "sort", "relation", "true", "false"],
    )
    def test_universe_rejects_names_the_story_grammar_cannot_spell(self, sorts, relations):
        with pytest.raises(UniverseError):
            Universe(sorts, relations)


class TestEvaluate:
    def test_asserted_atom_is_true(self, cards_universe):
        atom = cards_universe.atom("wears", "jay", "blue")
        world = World(cards_universe, 1 << cards_universe.atom_index(atom))
        assert evaluate(world, atom)

    def test_excluded_middle_holds_everywhere(self, cards_universe):
        p = cards_universe.atom("plays", "ali", "jay")
        for mask in (0, 5, 255):
            assert evaluate(World(cards_universe, mask), Or((p, Not(p))))

    def test_implication_with_false_consequent(self, cards_universe, worlds_s0):
        plays = cards_universe.atom("plays", "ali", "jay")
        wears = cards_universe.atom("wears", "ali", "blue")
        world = next(
            w for w in worlds_s0 if w.truth(plays) and not w.truth(wears)
        )
        assert evaluate(world, Implies(plays, wears)) is False

    def test_constants(self, cards_universe):
        w = World(cards_universe, 0)
        assert evaluate(w, Constant(True)) and not evaluate(w, Constant(False))

    def test_unknown_atom_is_a_structured_error(self, cards_universe):
        w = World(cards_universe, 0)
        with pytest.raises(UnknownAtomError):
            evaluate(w, Atom("sings", ("jay",)))
        with pytest.raises(UnknownAtomError):
            evaluate(w, Atom("wears", ("jay",)))  # wrong arity

    def test_deterministic(self, cards_universe):
        rng = random.Random(11)
        for _ in range(50):
            f = random_formula(rng, cards_universe, 3)
            w = World(cards_universe, rng.randrange(256))
            assert evaluate(w, f) == evaluate(w, f)


class TestTruthColumn:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 4))
    def test_unmasked_column_extends_the_truth_table_by_bit_0(self, seed, depth):
        rng = random.Random(seed)
        u = random_universe(rng, 6)
        f = map_atoms(
            random_formula(rng, u, depth),
            lambda a: Constant(rng.random() < 0.5) if rng.random() < 0.25 else a,
        )
        top = 1 << u.atom_count
        table = sum(1 << m for m in range(top) if evaluate(World(u, m), f))
        col = truth_column(f, u)
        assert col & u.full_column() == table
        assert col >> top == -(col & 1)


class TestConsistent:
    def test_contradiction(self, cards_universe):
        p = cards_universe.atom("wears", "jay", "blue")
        assert not consistent([p, Not(p)], cards_universe)

    def test_fixture_fabula(self, cards_universe, fabula_f1):
        assert consistent(fabula_f1.propositions, cards_universe)

    def test_empty_set(self, cards_universe):
        assert consistent([], cards_universe)

    def test_bound_refusal_names_the_bound(self):
        u = chain_universe(25)
        with pytest.raises(BoundExceededError) as exc:
            consistent([], u)
        assert "25" in str(exc.value) and "24" in str(exc.value)

    def test_explicit_bound_overrides_default(self):
        with pytest.raises(BoundExceededError):
            consistent([], chain_universe(10, bound=8))
        assert consistent([], chain_universe(10, bound=10))


class TestAtomCeiling:
    def test_ceiling_holds_whatever_the_bound(self, monkeypatch):
        def never(*_):
            raise AssertionError("a column over 2**40 worlds was requested")

        monkeypatch.setattr(Universe, "full_column", never)
        monkeypatch.setattr(Universe, "atom_column", never)
        u = chain_universe(40, bound=40)
        with pytest.raises(BoundExceededError) as exc:
            check_bound(u)
        assert (exc.value.atom_count, exc.value.bound) == (40, ATOM_CEILING)
        assert "ceiling" in str(exc.value)
        for refused in (
            lambda: consistent([], u),
            lambda: Fabula(u, [u.atoms[0]]),
            lambda: enumerate_models([], u),
        ):
            with pytest.raises(BoundExceededError):
                refused()

    def test_bounds_up_to_the_ceiling_still_apply(self):
        with pytest.raises(BoundExceededError) as exc:
            check_bound(chain_universe(ATOM_CEILING + 1, bound=ATOM_CEILING + 1))
        assert exc.value.bound == ATOM_CEILING
        check_bound(chain_universe(ATOM_CEILING, bound=ATOM_CEILING))
        with pytest.raises(BoundExceededError) as exc:
            check_bound(chain_universe(12, bound=10))
        assert exc.value.bound == 10

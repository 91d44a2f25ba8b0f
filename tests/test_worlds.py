from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storyworlds.errors import EmptyWorldSetError, MetricError, UniverseMismatchError
from storyworlds.filters import plausible_facts, support_mask
from storyworlds.logic import And, Not, World
from storyworlds.metrics import Question, derive_world_questions, pullback_restriction, relevance
from storyworlds.story import Fabula, formula_to_str
from storyworlds.worlds import (
    WorldSet,
    agreement_check,
    enumerate_models,
    intersect,
    sample_worlds,
    truth_proportion,
)

from helpers import chain_universe, random_formula, random_monotone_timeline, random_universe
from oracles import (
    agreement_oracle,
    atom_hits_oracle,
    enumerate_models_bruteforce,
    plausible_facts_oracle,
    pullback_oracle,
    relevance_oracle,
    support_mask_oracle,
    truth_proportion_oracle,
)

# pinned output of sample_worlds(S(0), k=16, seed=0) on the cards fixture
GOLDEN_SAMPLE_MASKS = (
    70, 91, 98, 103, 110, 115, 118, 126, 127, 194, 203, 226, 227, 230, 235, 242,
)


class TestEnumerate:
    def test_fixture_counts(self, cards_timeline):
        assert len(enumerate_models(cards_timeline.steps[0])) == 64
        assert len(enumerate_models(cards_timeline.steps[1])) == 32

    def test_inconsistent_props_enumerate_empty(self, cards_universe):
        p = cards_universe.atom("wears", "jay", "blue")
        assert len(enumerate_models([p, Not(p)], cards_universe)) == 0

    def test_empty_fabula_enumerates_everything(self, cards_universe):
        assert len(enumerate_models(Fabula(cards_universe))) == 256

    @pytest.mark.parametrize("n", [0, 1, 4, 9, 16])
    def test_unconstrained_counts_are_powers_of_two(self, n):
        u = chain_universe(n) if n else chain_universe(1)
        expected = 2 ** u.atom_count
        assert len(enumerate_models([], u)) == expected

    def test_canonical_order_is_mask_ascending(self, worlds_s0):
        assert list(worlds_s0.masks) == sorted(worlds_s0.masks)

    def test_matches_bruteforce_oracle_on_fixture(self, cards_timeline):
        for step in cards_timeline.steps:
            fast = enumerate_models(step).masks
            assert fast == enumerate_models_bruteforce(step.propositions, step.universe)

    def test_matches_bruteforce_oracle_on_random_inputs(self):
        rng = random.Random(77)
        for _ in range(40):
            u = random_universe(rng, 10)
            props = [random_formula(rng, u, 3) for _ in range(rng.randrange(0, 4))]
            assert enumerate_models(props, u).masks == enumerate_models_bruteforce(props, u)


class TestIntersect:
    def test_fixture_intersection_is_the_smaller_set(self, cards_timeline):
        s0 = enumerate_models(cards_timeline.steps[0])
        s1 = enumerate_models(cards_timeline.steps[1])
        assert intersect(s0, s1) == s1

    def test_self_intersection(self, worlds_s0):
        assert intersect(worlds_s0, worlds_s0) == worlds_s0

    def test_disjoint_sets(self, cards_universe):
        a = WorldSet(cards_universe, [1, 2, 3])
        b = WorldSet(cards_universe, [4, 5])
        assert len(intersect(a, b)) == 0

    def test_universe_mismatch(self, cards_universe):
        other = chain_universe(3)
        with pytest.raises(UniverseMismatchError):
            intersect(WorldSet(cards_universe, [0]), WorldSet(other, [0]))


class TestTruthProportion:
    def test_unconstrained_atom_is_half(self, cards_universe, worlds_s0):
        q = cards_universe.atom("wears", "ali", "blue")
        assert truth_proportion(worlds_s0, q) == Fraction(1, 2)

    def test_asserted_atom_is_one(self, cards_universe, worlds_s0):
        q = cards_universe.atom("wears", "jay", "blue")
        assert truth_proportion(worlds_s0, q) == 1

    def test_contradiction_is_zero(self, cards_universe, worlds_s0):
        p = cards_universe.atom("plays", "jay", "jay")
        assert truth_proportion(worlds_s0, And((p, Not(p)))) == 0

    def test_empty_set_is_an_error(self, cards_universe):
        with pytest.raises(EmptyWorldSetError):
            truth_proportion(WorldSet(cards_universe, []), cards_universe.atoms[0])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), depth=st.integers(0, 3))
    def test_complement_sums_to_one(self, cards_universe, worlds_s0, seed, depth):
        f = random_formula(random.Random(seed), cards_universe, depth)
        assert truth_proportion(worlds_s0, f) + truth_proportion(worlds_s0, Not(f)) == 1


class TestAgreement:
    def test_fixture_shared_worlds_agree_on_the_addition(self, cards_timeline, cards_universe):
        s0 = enumerate_models(cards_timeline.steps[0])
        s1 = enumerate_models(cards_timeline.steps[1])
        shared = intersect(s0, s1)
        assert len(shared) == 32
        assert agreement_check(shared, [cards_universe.atom("wears", "ali", "blue")])

    def test_unconstrained_set_disagrees(self, cards_universe):
        everything = enumerate_models([], cards_universe)
        assert not agreement_check(everything, [cards_universe.atom("wears", "jay", "blue")])

    def test_empty_rho_trivially_agrees(self, worlds_s0):
        assert agreement_check(worlds_s0, [])

    def test_expansion_property_on_random_timelines(self):
        rng = random.Random(99)
        from storyworlds.story import delta

        for _ in range(30):
            u = random_universe(rng, 8)
            t = random_monotone_timeline(rng, u, 5)
            sets = [enumerate_models(step) for step in t.steps]
            for i in range(1, len(sets)):
                assert set(sets[i].masks) <= set(sets[i - 1].masks)
                shared = intersect(sets[i - 1], sets[i])
                rho = delta(t.steps[i - 1], t.steps[i]).additions
                assert agreement_check(shared, rho)


class TestSampling:
    def test_oversized_k_returns_the_set_itself(self, worlds_s0):
        assert sample_worlds(worlds_s0, 64, seed=1) is worlds_s0
        assert sample_worlds(worlds_s0, 1000, seed=1) is worlds_s0

    def test_singleton_sample(self, worlds_s0):
        assert len(sample_worlds(worlds_s0, 1, seed=3)) == 1

    def test_golden_sample(self, worlds_s0):
        assert sample_worlds(worlds_s0, 16, seed=0).masks == GOLDEN_SAMPLE_MASKS

    def test_sampling_is_repeatable(self, worlds_s0):
        a = sample_worlds(worlds_s0, 16, seed=12345)
        b = sample_worlds(worlds_s0, 16, seed=12345)
        assert a == b

    def test_result_is_canonical_subset(self, worlds_s0):
        s = sample_worlds(worlds_s0, 10, seed=9)
        assert list(s.masks) == sorted(s.masks)
        assert set(s.masks) <= set(worlds_s0.masks)

    def test_score_hook_takes_top_k(self, worlds_s0):
        top = sample_worlds(worlds_s0, 4, seed=0, score=lambda w: w.mask)
        assert top.masks == tuple(sorted(worlds_s0.masks)[-4:])

    def test_empty_set_is_an_error(self, cards_universe):
        with pytest.raises(EmptyWorldSetError):
            sample_worlds(WorldSet(cards_universe, []), 1, seed=0)

    def test_k_must_be_positive(self, worlds_s0):
        with pytest.raises(ValueError):
            sample_worlds(worlds_s0, 0, seed=0)


@st.composite
def world_sets(draw):
    """A random universe of at most 8 atoms, an arbitrary world set and the
    model set of random formulas over it, and query formulas."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    u = random_universe(rng, 8)
    top = 1 << u.atom_count
    masks = draw(st.sets(st.integers(0, top - 1), max_size=top))
    props = [random_formula(rng, u, 3) for _ in range(rng.randrange(0, 3))]
    queries = [random_formula(rng, u, 3) for _ in range(4)]
    return u, WorldSet(u, masks), enumerate_models(props, u), queries


def _listed(s):
    """The set's worlds built from its masks, bypassing the column."""
    return [World(s.universe, m) for m in s.masks]


class TestColumnAgainstOracles:
    """The truth-column WorldSet against per-world evaluation."""

    @settings(max_examples=60, deadline=None)
    @given(world_sets())
    def test_listing_membership_and_size(self, case):
        u, s, models, _ = case
        for ws in (s, models):
            assert list(ws.masks) == sorted(set(ws.masks))
            assert len(ws) == len(ws.masks)
            assert [w.mask for w in ws] == list(ws.masks)
            members = set(ws.masks)
            for m in range(1 << u.atom_count):
                assert (World(u, m) in ws) == (m in members)
        assert WorldSet(u, s.masks) == s

    @settings(max_examples=60, deadline=None)
    @given(world_sets())
    def test_intersect(self, case):
        _, s, models, _ = case
        assert intersect(s, models).masks == tuple(sorted(set(s.masks) & set(models.masks)))

    @settings(max_examples=60, deadline=None)
    @given(world_sets())
    def test_proportion_agreement_and_facts(self, case):
        u, s, models, queries = case
        for ws in (s, models):
            listed = _listed(ws)
            assert agreement_check(ws, queries[:2]) == agreement_oracle(listed, queries[:2])
            for q in queries:
                assert agreement_check(ws, [q]) == agreement_oracle(listed, [q])
                assert support_mask(ws, q) == support_mask_oracle(listed, q)
            if not listed:
                continue
            for q in queries:
                assert truth_proportion(ws, q) == truth_proportion_oracle(listed, q)
            assert plausible_facts(ws) == plausible_facts_oracle(listed)
            assert plausible_facts(ws, queries) == plausible_facts_oracle(listed, queries)
            truth = listed[-1]
            assert pullback_restriction(truth, ws) == pullback_oracle(truth, listed)
            for a, b in zip(queries, queries[1:]):
                q = Question(a, b)
                expected = relevance_oracle(q, listed, truth)
                if expected is None:
                    with pytest.raises(MetricError):
                        relevance(q, ws, truth)
                else:
                    assert relevance(q, ws, truth) == expected

    @settings(max_examples=60, deadline=None)
    @given(world_sets())
    def test_question_derivation_counts(self, case):
        u, s, models, _ = case
        for ws in (s, models):
            if not len(ws):
                continue
            total = len(ws)
            unanimous, majority = [], []
            for atom, hits in zip(u.atoms, atom_hits_oracle(_listed(ws), u)):
                for lit, count in ((atom, hits), (Not(atom), total - hits)):
                    if count == total:
                        unanimous.append(lit)
                    elif 2 * count > total:
                        majority.append(lit)
            unanimous.sort(key=formula_to_str)
            majority.sort(key=formula_to_str)
            expected = [(a, b) for a in unanimous for b in majority]
            got = derive_world_questions(ws, max_questions=len(expected) + 1)
            assert [(q.antecedent, q.consequent) for q in got] == expected

    @settings(max_examples=60, deadline=None)
    @given(world_sets(), st.integers(1, 20), st.integers(0, 10**6))
    def test_sample_picks(self, case, k, seed):
        _, s, models, _ = case
        for ws in (s, models):
            if not len(ws):
                continue
            ranked = sorted(ws.masks)
            if k >= len(ranked):
                expected = ranked
            else:
                picks = random.Random(seed).sample(range(len(ranked)), k)
                expected = sorted(ranked[i] for i in picks)
            assert list(sample_worlds(ws, k, seed).masks) == expected

            def score(w):
                return w.mask * 2654435761 % 97

            top = sorted(ranked, key=lambda m: (-(m * 2654435761 % 97), m))[:k]
            assert list(sample_worlds(ws, k, seed, score).masks) == sorted(top)

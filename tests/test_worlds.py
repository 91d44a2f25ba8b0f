from __future__ import annotations

import bisect
import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storyworlds import metrics
from storyworlds.conveyance import reconstruct
from storyworlds.errors import EmptyWorldSetError, MetricError, UniverseMismatchError
from storyworlds.filters import WeakFilter, plausible_facts, support_mask
from storyworlds.logic import And, Not, Or, World
from storyworlds.metrics import (
    Question,
    binary_entropy,
    derive_world_questions,
    relevance,
    sample_coherence,
)
from storyworlds import worlds as worlds_module
from storyworlds.story import Fabula, formula_to_str, parse_story
from storyworlds.worlds import (
    WorldSet,
    agreement_check,
    enumerate_models,
    intersect,
    sample_worlds,
    select_masks,
    truth_proportion,
)

from helpers import chain_universe, random_formula, random_monotone_timeline, random_universe
from oracles import (
    agreement_oracle,
    atom_hits_oracle,
    enumerate_models_bruteforce,
    listing_oracle,
    plausible_facts_oracle,
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
        for k in (64, 1000):
            assert sample_worlds(worlds_s0, k, seed=1) is worlds_s0

    def test_whole_set_sample_lists_no_world(self, monkeypatch):
        # 2**18 worlds over 20 atoms: a0 and !a1 hold throughout, a2 and a3
        # each hold in two thirds of the worlds
        u = chain_universe(20)
        a = u.atoms
        s = enumerate_models([a[0], Not(a[1]), Or((a[2], a[3]))], u)

        def refuse(column, ranks):
            raise AssertionError("the set was listed")

        monkeypatch.setattr(worlds_module, "select_masks", refuse)
        whole = sample_worlds(s, 100_000_000, seed=0)
        assert whole is s
        assert len(whole) == 3 << 16
        third = Fraction(2, 3)
        assert sample_coherence(whole) == (4, third, binary_entropy(third))

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
            truth = listed[-1]
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
            with patch.object(metrics, "MAX_QUESTIONS", len(expected) + 1):
                got = derive_world_questions(ws)
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


@st.composite
def selections(draw):
    """A column of up to 2**13 bits (empty, one world, full, dense or
    sparse) and ascending ranks into it, always including the members on
    either side of every select-block boundary."""
    n = draw(st.integers(0, 13))
    width = 1 << n
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("empty", "single", "full", "dense", "sparse")))
    column = {
        "empty": lambda: 0,
        "single": lambda: 1 << rng.randrange(width),
        "full": lambda: (1 << width) - 1,
        "dense": lambda: rng.getrandbits(width),
        "sparse": lambda: rng.getrandbits(width) & rng.getrandbits(width) & rng.getrandbits(width),
    }[kind]()
    listed = listing_oracle(column)
    block_bits = worlds_module._BLOCK * 8
    edges = set()
    for edge in range(0, width + 1, block_bits):
        r = bisect.bisect_left(listed, edge)
        edges.update(x for x in (r - 1, r) if 0 <= x < len(listed))
    drawn = draw(st.sets(st.integers(0, max(len(listed) - 1, 0)), max_size=20))
    ranks = sorted(edges | {r for r in drawn if r < len(listed)})
    return n, column, listed, ranks


class TestRankSelect:
    """The block rank-select against a bit-by-bit listing."""

    @settings(max_examples=120, deadline=None)
    @given(selections())
    def test_select_equals_listing(self, case):
        n, column, listed, ranks = case
        assert list(select_masks(column, ranks)) == [listed[r] for r in ranks]
        ws = WorldSet.from_column(chain_universe(max(n, 1)), column)
        assert ws.masks == tuple(listed)
        assert [w.mask for w in ws] == listed
        assert [ws[r].mask for r in ranks] == [listed[r] for r in ranks]

    def test_edge_cases(self):
        assert list(select_masks(0, [])) == []
        assert list(select_masks(1 << 5000, [0])) == [5000]
        full = (1 << 4096) - 1
        boundaries = [1023, 1024, 2047, 2048, 4095]
        assert list(select_masks(full, boundaries)) == boundaries
        for column, ranks in ((0, [0]), (0b101, [2]), (0b101, [-1]), (0b111, [1, 0]), (0b111, [1, 1])):
            with pytest.raises(IndexError):
                list(select_masks(column, ranks))


class TestRankSpace:
    """A sample held in rank space answers as its universe-space copy and
    the per-world oracles do."""

    @settings(max_examples=60, deadline=None)
    @given(world_sets(), st.integers(1, 20), st.integers(0, 10**6))
    def test_sample_matches_universe_space(self, case, k, seed):
        u, s, models, queries = case
        for ws in (WorldSet.from_column(u, s.column), models):
            if not len(ws):
                continue
            sample = sample_worlds(ws, k, seed)
            flat = WorldSet.from_column(u, sample.column)
            listed = _listed(flat)
            if k < len(ws):
                assert sample.own_column == (1 << len(listed)) - 1
            else:
                assert sample is ws
            assert len(sample) == len(flat) == min(k, len(ws))
            assert sample == flat
            for q in queries:
                expected = truth_proportion_oracle(listed, q)
                assert truth_proportion(sample, q) == truth_proportion(flat, q) == expected
                expected = support_mask_oracle(listed, q)
                assert support_mask(sample, q) == support_mask(flat, q) == expected
            assert agreement_check(sample, queries) == agreement_oracle(listed, queries)
            assert plausible_facts(sample) == plausible_facts(flat)
            assert plausible_facts(sample) == plausible_facts_oracle(listed)
            hits = atom_hits_oracle(listed, u)
            members, table = sample.own_column, sample.table
            assert tuple(
                (members & table.atom_column(i)).bit_count() for i in range(u.atom_count)
            ) == hits
            with patch.object(metrics, "MAX_QUESTIONS", len(u.atoms) ** 2 + 1):
                assert derive_world_questions(sample) == derive_world_questions(flat)


def test_values_compare_hash_and_print(cards_story_path):
    # two parses of one story build equal values from distinct objects
    text = cards_story_path.read_text(encoding="utf-8")
    a, b = parse_story(text), parse_story(text)
    assert a.universe is not b.universe
    sa, sb = reconstruct(a.steps[0]), reconstruct(b.steps[0])
    pairs = [
        (a.universe, b.universe),
        (a.steps[0], b.steps[0]),
        (sa.worlds, sb.worlds),
        (World(a.universe, 5), World(b.universe, 5)),  # hashes its universe
        (sa, sb),  # hashes its fabula and world set
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert len({a.steps[0], a.steps[1], sa.worlds, reconstruct(a.steps[1]).worlds}) == 4
    assert repr(a.universe) == "Universe(sorts=['person', 'color'], relations=['wears', 'plays'], atoms=8)"
    assert repr(a.steps[0]) == "Fabula({plays(ali,jay), wears(jay,blue)})"
    assert repr(sa.worlds) == "WorldSet(64 worlds over 8 atoms)"
    assert repr(sa.filter) == f"WeakFilter(principal 0b{'1' * 64} over 64 worlds)"
    four = WorldSet(chain_universe(2), range(4))
    assert repr(WeakFilter.from_members(four, [0b0011, 0b0111, 0b1011, 0b1111])) == (
        "WeakFilter(4 members over 4 worlds)"
    )
    assert repr(sa.worlds) in repr(sa) and repr(a.steps[0]) in repr(sa)

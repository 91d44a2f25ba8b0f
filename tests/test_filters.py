from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storyworlds.errors import FilterError
from storyworlds.filters import (
    PlausibilityStatus,
    WeakFilter,
    WeakUltrafilter,
    extend_to_ultrafilter,
    is_weak_filter,
    is_weak_ultrafilter,
    plausibility_status,
    plausible_facts,
    support_mask,
    ultraproduct,
)
from storyworlds.logic import And, Not, evaluate
from storyworlds.worlds import WorldSet, agreement_check

from helpers import chain_universe
from oracles import (
    extension_oracle,
    plausible_facts_oracle,
    weak_filter_oracle,
    weak_ultrafilter_oracle,
)


@pytest.fixture(scope="module")
def base4():
    # four distinct worlds w0..w3 over a two-atom universe
    return WorldSet(chain_universe(2), [0, 1, 2, 3])


def supersets_of(generator: int, n: int) -> frozenset:
    return frozenset(m for m in range(1 << n) if m & generator == generator)


def weak_filters(n: int):
    """Every weak filter over ``n`` worlds as a member family, found by
    checking each family of subsets (bit ``x`` of ``fam`` holds subset ``x``)."""
    size = 1 << n
    lacks = [sum(1 << x for x in range(size) if not x >> i & 1) for i in range(n)]
    for fam in range(1, 1 << size):
        # adding world i to a member lacking it shifts its bit by 2**i
        upward = not any(((fam & lack) << (1 << i)) & ~fam for i, lack in enumerate(lacks))
        # reversing the bit string maps subset x to its complement
        complements = int(format(fam, f"0{size}b")[::-1], 2)
        if upward and not fam & complements:
            yield frozenset(x for x in range(size) if fam >> x & 1)


class TestAxiomChecks:
    def test_superset_family_is_a_filter(self, base4):
        fam = supersets_of(0b0011, 4)
        assert len(fam) == 4
        assert is_weak_filter(fam, base4)

    def test_complement_pair_disqualifies(self, base4):
        fam = supersets_of(0b0011, 4) | supersets_of(0b1100, 4)
        assert not is_weak_filter(fam, base4)

    def test_empty_family_is_not_a_filter(self, base4):
        assert not is_weak_filter(frozenset(), base4)

    def test_principal_family_is_ultra(self, base4):
        fam = supersets_of(0b0001, 4)
        assert is_weak_ultrafilter(fam, base4)

    def test_superset_family_is_not_ultra(self, base4):
        # {w0,w2} and its complement {w1,w3} are both absent
        fam = supersets_of(0b0011, 4)
        assert not is_weak_ultrafilter(fam, base4)
        assert 0b0101 not in fam and 0b1010 not in fam

    def test_majority_family_is_ultra(self):
        base3 = WorldSet(chain_universe(2), [0, 1, 2])
        fam = frozenset(m for m in range(8) if bin(m).count("1") >= 2)
        assert is_weak_ultrafilter(fam, base3)

    def test_member_outside_base_is_an_error(self, base4):
        with pytest.raises(FilterError):
            is_weak_filter({0b10000}, base4)

    def test_fuzz_agrees_with_direct_axiom_oracle(self):
        rng = random.Random(314)
        u = chain_universe(3)
        for _ in range(200):
            n = rng.randrange(1, 6)
            base = WorldSet(u, rng.sample(range(8), n))
            fam = frozenset(
                rng.randrange(1 << n) for _ in range(rng.randrange(0, 1 << n))
            )
            assert is_weak_filter(fam, base) == weak_filter_oracle(fam, n)
            assert is_weak_ultrafilter(fam, base) == weak_ultrafilter_oracle(fam, n)


class TestConstruction:
    def test_constructor_rejects_bad_families(self, base4):
        with pytest.raises(FilterError):
            WeakFilter.from_members(base4, frozenset({0b0001}))  # not upward closed

    def test_constructor_validated_types_pass_the_checkers(self, base4):
        f = WeakFilter.from_members(base4, supersets_of(0b0011, 4))
        assert is_weak_filter(f.member_masks(), base4)
        uf = WeakUltrafilter(base4, supersets_of(0b0001, 4))
        assert is_weak_ultrafilter(uf.member_masks(), base4)

    def test_principal_form_matches_extensional(self, base4):
        p = WeakFilter.principal(base4, 0b0110)
        assert p.member_masks() == supersets_of(0b0110, 4)
        assert p.is_member(0b0111) and not p.is_member(0b0010)

    def test_principal_ultra_needs_singleton_generator(self, base4):
        with pytest.raises(FilterError):
            WeakUltrafilter(base4, generator=0b0011)
        uf = WeakUltrafilter(base4, generator=0b0100)
        assert uf.is_member(0b0101)

    def test_empty_generator_rejected(self, base4):
        with pytest.raises(FilterError):
            WeakFilter.principal(base4, 0)


class TestExtension:
    def test_already_ultra_is_identity(self, base4):
        fam = supersets_of(0b0010, 4)
        uf = extend_to_ultrafilter(WeakFilter.from_members(base4, fam))
        assert uf.member_masks() == fam

    def test_superset_filter_extends_to_principal_at_w0(self, base4):
        f = WeakFilter.from_members(base4, supersets_of(0b0011, 4))
        uf = extend_to_ultrafilter(f)
        assert uf.member_masks() == supersets_of(0b0001, 4)

    def test_minimal_filter_extends_to_principal_at_w0(self, base4):
        f = WeakFilter.from_members(base4, frozenset({0b1111}))
        uf = extend_to_ultrafilter(f)
        assert uf.member_masks() == supersets_of(0b0001, 4)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_closed_form_matches_the_scan(self, n):
        # principal filters whose generator holds world 0 take the O(1) form
        base = WorldSet(chain_universe(3), range(n))
        for generator in range(1, 1 << n, 2):
            f = WeakFilter.principal(base, generator)
            closed = extend_to_ultrafilter(f)
            assert closed.is_principal
            assert closed.member_masks() == extension_oracle(f.member_masks(), n)

    def test_rule_matches_the_search_on_every_small_filter(self):
        count = 0
        for n in range(1, 5):
            base = WorldSet(chain_universe(2), range(n))
            for fam in weak_filters(n):
                assert weak_filter_oracle(fam, n)
                uf = extend_to_ultrafilter(WeakFilter.from_members(base, fam))
                assert uf.member_masks() == extension_oracle(fam, n), (n, sorted(fam))
                count += 1
        assert count == 95

    def test_rule_matches_the_search_on_fuzzed_filters(self):
        rng = random.Random(1618)
        u = chain_universe(4)
        done = 0
        while done < 300:
            n = rng.randrange(2, 11)
            base = WorldSet(u, range(n))
            seeds = [rng.randrange(1, 1 << n) for _ in range(rng.randrange(1, 4))]
            fam = frozenset(m for m in range(1 << n) if any(m & s == s for s in seeds))
            if not is_weak_filter(fam, base):
                continue
            done += 1
            uf = extend_to_ultrafilter(WeakFilter.from_members(base, fam))
            assert uf.member_masks() == extension_oracle(fam, n), (n, seeds)

    def test_principal_without_world_0_can_extend_to_a_majority(self):
        # why the closed form is limited to generators holding world 0
        base = WorldSet(chain_universe(2), [0, 1, 2])
        uf = extend_to_ultrafilter(WeakFilter.principal(base, 0b110))
        assert uf.member_masks() == {0b011, 0b101, 0b110, 0b111}

    def test_closed_form_needs_no_extensional_base(self):
        base = WorldSet(chain_universe(5), range(30))
        uf = extend_to_ultrafilter(WeakFilter.principal(base, (1 << 30) - 1))
        assert uf.is_member(0b1) and not uf.is_member(0b10)

    def test_fuzzed_extension_contains_input_and_is_ultra(self):
        rng = random.Random(2718)
        u = chain_universe(3)
        done = 0
        while done < 60:
            n = rng.randrange(1, 6)
            base = WorldSet(u, rng.sample(range(8), n))
            seeds = [rng.randrange(1, 1 << n) for _ in range(rng.randrange(1, 3))]
            fam = frozenset(
                m for m in range(1 << n) if any(m & s == s for s in seeds)
            )
            if not is_weak_filter(fam, base):
                continue
            done += 1
            f = WeakFilter.from_members(base, fam)
            uf1 = extend_to_ultrafilter(f)
            uf2 = extend_to_ultrafilter(f)
            assert fam <= uf1.member_masks()
            assert is_weak_ultrafilter(uf1.member_masks(), base)
            assert uf1.member_masks() == uf2.member_masks()


class TestPlausibleFacts:
    def test_fixture_decides_only_the_asserted_atoms(self, cards_universe, worlds_s0):
        u = cards_universe
        asserted = [u.atom("wears", "jay", "blue"), u.atom("plays", "ali", "jay")]
        assert plausible_facts(worlds_s0) == (sum(1 << u.atom_index(a) for a in asserted), 0)

    def test_singleton_world_decides_every_literal(self, cards_universe):
        w = WorldSet(cards_universe, [37])
        assert plausible_facts(w) == (37, 255 ^ 37)

    def test_opposite_worlds_decide_nothing(self, cards_universe):
        pair = WorldSet(cards_universe, [0, 255])
        assert plausible_facts(pair) == (0, 0)

    def test_explicit_candidates(self, cards_universe, worlds_s0):
        q = cards_universe.atom("wears", "jay", "blue")
        assert [c for c in (q, Not(q)) if agreement_check(worlds_s0, [c])] == [q]

    def test_fold_at_every_bit_position(self):
        # a single world decides every atom, wherever its bit lies in the column
        u = chain_universe(10)
        for m in range(1 << 10):
            facts = plausible_facts(WorldSet.from_column(u, 1 << m))
            assert facts == (m, (1 << 10) - 1 ^ m)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(9, 12), st.integers(0, 2**32 - 1))
    def test_fold_against_oracle_past_eight_atoms(self, n, seed):
        """Universe-space sets inside a random partial assignment, of random
        density, against the world-by-world oracle."""
        rng = random.Random(seed)
        u = chain_universe(n)
        col = u.full_column()
        for i in rng.sample(range(n), rng.randrange(n + 1)):
            col &= u.atom_column(i) if rng.random() < 0.5 else ~u.atom_column(i)
        bits = rng.getrandbits(1 << n)
        for _ in range(rng.randrange(6)):
            bits &= rng.getrandbits(1 << n)
        ws = WorldSet.from_column(u, col & bits | col & -col)
        assert plausible_facts(ws) == plausible_facts_oracle(tuple(ws))


class TestPlausibilityStatus:
    def test_principal_filter_tracks_its_world(self, base4):
        u = base4.universe
        uf = WeakUltrafilter(base4, generator=0b0010)  # world w1 = mask 1
        atom = u.atoms[0]
        expected = (
            PlausibilityStatus.PLAUSIBLE
            if evaluate(base4[1], atom)
            else PlausibilityStatus.IMPLAUSIBLE
        )
        assert plausibility_status(uf, atom) is expected

    def test_undetermined_between_filter_and_complement(self, base4):
        f = WeakFilter.from_members(base4, supersets_of(0b0011, 4))
        a0 = base4.universe.atoms[0]
        formula = Not(a0)  # true where atom0 is false: support exactly {w0, w2}
        assert support_mask(base4, formula) == 0b0101
        assert plausibility_status(f, formula) is PlausibilityStatus.UNDETERMINED

    def test_everywhere_false_is_implausible(self, base4):
        u = base4.universe
        a = u.atoms[0]
        assert (
            plausibility_status(
                WeakFilter.from_members(base4, supersets_of(0b0011, 4)),
                And((a, Not(a))),
            )
            is PlausibilityStatus.IMPLAUSIBLE
        )

    def test_never_plausible_together_with_negation(self, base4):
        rng = random.Random(55)
        from helpers import random_formula

        f = WeakFilter.from_members(base4, supersets_of(0b1001, 4))
        for _ in range(100):
            p = random_formula(rng, base4.universe, 3)
            both = {
                plausibility_status(f, p),
                plausibility_status(f, Not(p)),
            }
            assert both != {PlausibilityStatus.PLAUSIBLE}


class TestUltraproduct:
    def test_principal_reproduces_its_world(self, base4):
        for i in range(4):
            uf = WeakUltrafilter(base4, generator=1 << i)
            assert ultraproduct(uf) == base4[i]

    def test_principal_vote_matches_its_extensional_copy(self):
        rng = random.Random(404)
        u = chain_universe(3)
        for _ in range(30):
            base = WorldSet(u, rng.sample(range(8), rng.randrange(1, 6)))
            for i in range(len(base)):
                uf = WeakUltrafilter(base, generator=1 << i)
                copy = WeakUltrafilter(base, uf.member_masks())
                assert not copy.is_principal
                assert ultraproduct(uf) == ultraproduct(copy)

    def test_majority_vote(self):
        u = chain_universe(2)
        base3 = WorldSet(u, [1, 2, 3])
        maj = frozenset(m for m in range(8) if bin(m).count("1") >= 2)
        uf = WeakUltrafilter(base3, maj)
        up = ultraproduct(uf)
        a0, a1 = u.atoms
        # atom0 true in worlds {mask1, mask3} = 2 of 3; atom1 true in {2,3}
        assert up.truth(a0) and up.truth(a1)

    def test_unanimous_atoms_are_copied(self, cards_universe, worlds_s0):
        base = WorldSet(cards_universe, list(worlds_s0.masks[:4]))
        uf = WeakUltrafilter(base, generator=0b0001)
        up = ultraproduct(uf)
        assert up.truth(cards_universe.atom("wears", "jay", "blue"))

    def test_vote_property_holds_for_principal_ultrafilters(self):
        # for principal ultrafilters the vote commutes with every connective
        rng = random.Random(88)
        from helpers import random_formula

        u = chain_universe(2)
        for masks in itertools.combinations(range(4), 3):
            base = WorldSet(u, masks)
            for i in range(3):
                uf = WeakUltrafilter(base, generator=1 << i)
                up = ultraproduct(uf)
                for _ in range(40):
                    p = random_formula(rng, u, 3)
                    assert evaluate(up, p) == uf.is_member(support_mask(base, p))

    def test_vote_property_fails_for_some_weak_ultrafilter(self):
        # the majority family is a valid weak ultrafilter, yet the vote does
        # not commute with conjunction when supports overlap partially
        u = chain_universe(2)
        base = WorldSet(u, [1, 2, 3])
        maj = frozenset(m for m in range(8) if bin(m).count("1") >= 2)
        uf = WeakUltrafilter(base, maj)
        a0, a1 = u.atoms
        conj = And((a0, a1))
        up = ultraproduct(uf)
        assert evaluate(up, conj)
        assert not uf.is_member(support_mask(base, conj))

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storyworlds.conveyance import (
    Channel,
    _rewrite,
    accuracy_report,
    compress,
    evolve,
    parse_channel_spec,
    reconstruct,
    transmit,
    unsent_relations,
)
from storyworlds.errors import (
    BoundExceededError,
    ChannelError,
    InconsistentFabulaError,
    InconsistentStepError,
    UnknownAtomError,
)
from storyworlds.logic import Not, Universe, World
from storyworlds.story import Fabula, Timeline, TransitionEdit, apply_transition, delta, parse_story
from storyworlds.worlds import enumerate_models

from helpers import random_universe

DATA = Path(__file__).parent / "data"


class TestCompress:
    def test_accept_all_yields_every_literal(self, cards_universe):
        w = World(cards_universe, 0b01010101)
        fab = compress(w)
        assert len(fab) == 8
        assert enumerate_models(fab).masks == (w.mask,)

    def test_relation_filter(self):
        # a rename target that is not also a source is not sent
        u = Universe({"s": ("a", "b")}, [("p", ("s",)), ("q", ("s",))])
        w = World(u, 0b0110)
        fab = compress(w, Channel("rename", rename=[("p", "q")]))
        assert fab.propositions == {l for l, a in zip(w.literals(), u.atoms) if a.relation == "p"}
        assert len(fab) == 2
        assert compress(w, Channel("rename", rename=[("p", "q"), ("q", "p")])) == compress(w)


class TestTransmit:
    def test_identity(self, fabula_f1):
        assert transmit(fabula_f1, Channel.identity()) == fabula_f1

    def test_drop(self, cards_universe, fabula_f1):
        ch = Channel.drop({cards_universe.atom("plays", "ali", "jay")})
        out = transmit(fabula_f1, ch)
        assert set(out) == {cards_universe.atom("wears", "jay", "blue")}

    def test_corrupt(self, cards_universe, fabula_f1):
        ch = Channel.corrupt({cards_universe.atom("wears", "jay", "blue")})
        out = transmit(fabula_f1, ch)
        assert set(out) == {
            Not(cards_universe.atom("wears", "jay", "blue")),
            cards_universe.atom("plays", "ali", "jay"),
        }

    def test_corrupt_peels_negations(self, cards_universe):
        lit = Not(cards_universe.atom("wears", "jay", "red"))
        fab = Fabula(cards_universe, [lit])
        out = transmit(fab, Channel.corrupt({lit}))
        assert set(out) == {cards_universe.atom("wears", "jay", "red")}

    def test_absent_target_warns_instead_of_raising(self, cards_universe, fabula_f1):
        warnings: list[str] = []
        ghost = cards_universe.atom("wears", "ali", "red")
        out = transmit(fabula_f1, Channel.drop({ghost}), warnings)
        assert out == fabula_f1
        assert len(warnings) == 1 and "wears(ali,red)" in warnings[0]

    def test_unchanging_channel_returns_the_fabula_itself(self, cards_universe, fabula_f1):
        assert transmit(fabula_f1, Channel.identity()) is fabula_f1
        assert transmit(fabula_f1, Channel("rename", rename=[("wears", "wears")])) is fabula_f1
        ghost = cards_universe.atom("wears", "ali", "red")
        for channel in (Channel.drop({ghost}), Channel.corrupt({ghost})):
            warnings: list[str] = []
            assert transmit(fabula_f1, channel, warnings) is fabula_f1
            assert len(warnings) == 1 and "wears(ali,red)" in warnings[0]

    def test_inconsistent_output_is_an_error(self, cards_universe):
        a = cards_universe.atom("wears", "jay", "blue")
        b = cards_universe.atom("plays", "ali", "jay")
        from storyworlds.logic import Implies

        fab = Fabula(cards_universe, [Implies(b, a), b, a])
        with pytest.raises(InconsistentFabulaError):
            transmit(fab, Channel.corrupt({a}))

    def test_rename(self):
        u = Universe(
            {"s": ("a", "b")},
            [("heard", ("s",)), ("said", ("s",))],
        )
        fab = Fabula(u, [u.atom("said", "a")])
        out = transmit(fab, Channel("rename", rename=[("said", "heard")]))
        assert set(out) == {u.atom("heard", "a")}

    def test_rename_to_undeclared_relation_fails(self, cards_universe, fabula_f1):
        ch = Channel(kind="rename", rename=(("wears", "dons"),))
        with pytest.raises(UnknownAtomError):
            transmit(fabula_f1, ch)


class TestChannelSpec:
    def test_identity(self, cards_universe):
        assert parse_channel_spec("identity", cards_universe) == Channel.identity()

    def test_drop_with_two_formulas(self, cards_universe):
        ch = parse_channel_spec(
            "drop(wears(jay,blue); plays(ali,jay))", cards_universe
        )
        assert len(ch.formulas) == 2

    def test_rename_requires_matching_signature(self, cards_universe):
        with pytest.raises(ChannelError):
            parse_channel_spec("rename(wears->plays)", cards_universe)

    def test_rename_roundtrip(self):
        u = Universe({"s": ("a",)}, [("p", ("s",)), ("q", ("s",))])
        ch = parse_channel_spec("rename(p->q)", u)
        assert ch.rename_map() == {"p": "q"}

    def test_malformed_spec(self, cards_universe):
        with pytest.raises(ChannelError):
            parse_channel_spec("garble(x)", cards_universe)
        with pytest.raises(ChannelError):
            parse_channel_spec("drop()", cards_universe)

    def test_rename_must_be_injective(self):
        u = Universe({"s": ("a",)}, [("p", ("s",)), ("q", ("s",)), ("r", ("s",))])
        with pytest.raises(ChannelError):
            Channel(kind="rename", rename=(("p", "r"), ("q", "r")))


class TestReconstruct:
    def test_fixture_fabula(self, cards_universe, fabula_f1):
        state = reconstruct(fabula_f1)
        assert len(state.worlds) == 64
        u = cards_universe
        asserted = [u.atom("wears", "jay", "blue"), u.atom("plays", "ali", "jay")]
        assert state.cube == (sum(1 << u.atom_index(a) for a in asserted), 0)

    def test_empty_fabula(self, cards_universe):
        state = reconstruct(Fabula(cards_universe))
        assert len(state.worlds) == 256 and state.cube == (0, 0)

    def test_fully_specified_fabula(self, cards_universe):
        w = World(cards_universe, 0b11001010)
        state = reconstruct(compress(w))
        assert len(state.worlds) == 1 and state.cube == (w.mask, 255 ^ w.mask)


class TestAccuracyReport:
    def test_identity_end_to_end(self, cards_universe):
        w = World(cards_universe, 0b10110001)
        state = reconstruct(transmit(compress(w), Channel.identity()))
        report = accuracy_report(w, state)
        assert report.matched == 8 and report.mismatched == 0
        assert report.undetermined == 0
        assert report.accuracy == 1 and report.commutes

    def test_corrupt_one_atom(self, cards_universe):
        w = World(cards_universe, 0b10110001)
        lit = w.literals()[3]
        state = reconstruct(transmit(compress(w), Channel.corrupt({lit})))
        report = accuracy_report(w, state)
        assert (report.matched, report.mismatched) == (7, 1)
        assert report.accuracy == Fraction(7, 8)
        assert not report.commutes
        assert report.mismatching_atoms == (cards_universe.atoms[3],)

    def test_drop_one_atom_is_lossy_not_wrong(self, cards_universe):
        w = World(cards_universe, 0b10110001)
        lit = w.literals()[5]
        state = reconstruct(transmit(compress(w), Channel.drop({lit})))
        report = accuracy_report(w, state)
        assert (report.matched, report.mismatched, report.undetermined) == (7, 0, 1)
        assert report.commutes and report.accuracy == 1

    def test_vacuous_comparison_counts_as_accurate(self, cards_universe):
        w = World(cards_universe, 0)
        state = reconstruct(Fabula(cards_universe))
        report = accuracy_report(w, state)
        assert report.undetermined == 8 and report.accuracy == 1

    def test_correspondence_outside_reader_universe(self, cards_universe):
        w = World(cards_universe, 0)
        state = reconstruct(Fabula(cards_universe))
        with pytest.raises(UnknownAtomError):
            accuracy_report(w, state, Channel("rename", rename=[("wears", "dons")]))

    def test_roundtrip_on_random_worlds(self):
        rng = random.Random(4242)
        for _ in range(25):
            u = random_universe(rng, 16)
            w = World(u, rng.randrange(1 << u.atom_count))
            state = reconstruct(transmit(compress(w), Channel.identity()))
            report = accuracy_report(w, state)
            assert report.accuracy == 1 and report.undetermined == 0


@st.composite
def two_relation_worlds(draw):
    """A world over a universe whose two relations ``p`` and ``q`` have the
    same argument sorts (1-2 sorts of 1-3 constants, arity 1-2), so each can
    be renamed to itself or to the other."""
    sorts = {
        f"s{i}": tuple(f"s{i}c{j}" for j in range(draw(st.integers(1, 3))))
        for i in range(draw(st.integers(1, 2)))
    }
    args = tuple(draw(st.lists(st.sampled_from(sorted(sorts)), min_size=1, max_size=2)))
    u = Universe(sorts, [("p", args), ("q", args)])
    return World(u, draw(st.integers(0, (1 << u.atom_count) - 1)))


def convey_renamed(w, mapping):
    """The narrator's side of ``report.run_analysis``: compress ``w`` to the
    atoms it sends through the rename channel, send, reconstruct, and score."""
    channel = Channel("rename", rename=mapping.items())
    return accuracy_report(w, reconstruct(transmit(compress(w, channel), channel)), channel)


class TestLosslessRenames:
    """A rename channel is scored on the atoms the narrator sent: a target
    that is not also a source is never sent, so it is never compared."""

    def test_unsent_relations(self):
        def unsent(*pairs):
            return unsent_relations(Channel("rename", rename=pairs))

        assert unsent_relations(Channel()) == frozenset()
        assert unsent(("x", "y")) == {"y"}
        assert unsent(("x", "y"), ("y", "x")) == frozenset()
        assert unsent(("x", "x")) == frozenset()
        assert unsent(("x", "y"), ("y", "z")) == {"z"}

    def test_one_way_rename_through_the_channel_alone(self):
        # p(a) true and q(a) false: sending q(a) beside the renamed p(a)
        # would make the received fabula inconsistent
        u = Universe({"s": ("a",)}, [("p", ("s",)), ("q", ("s",))])
        w = World(u, 1 << u.atom_index(u.atom("p", "a")))
        report = convey_renamed(w, {"p": "q"})
        assert (report.matched, report.mismatched, report.undetermined) == (1, 0, 0)
        assert report.accuracy == 1 and report.commutes

    @settings(max_examples=100, deadline=None)
    @given(
        two_relation_worlds(),
        st.sampled_from(({"p": "p"}, {"q": "q"}, {"p": "p", "q": "q"}, {"p": "q", "q": "p"})),
    )
    def test_self_renames_and_swaps_are_lossless(self, w, mapping):
        report = convey_renamed(w, mapping)
        assert report.accuracy == 1 and report.mismatched == 0
        assert report.matched == w.universe.atom_count and report.undetermined == 0

    @settings(max_examples=50, deadline=None)
    @given(two_relation_worlds())
    def test_one_way_rename_scores_only_the_sent_relation(self, w):
        report = convey_renamed(w, {"p": "q"})
        sent = sum(a.relation == "p" for a in w.universe.atoms)
        assert (report.matched, report.mismatched, report.undetermined) == (sent, 0, 0)
        assert report.accuracy == 1 and report.commutes


class TestEvolve:
    def test_fixture_identity_series(self, cards_timeline):
        states = evolve(cards_timeline, Channel.identity())
        assert [len(s.worlds) for s in states] == [64, 32]

    def test_identity_reproduces_source_enumeration(self, cards_timeline):
        states = evolve(cards_timeline, Channel.identity())
        for state, step in zip(states, cards_timeline.steps):
            assert state.worlds == enumerate_models(step)

    def test_single_step_timeline(self, cards_universe, fabula_f1):
        from storyworlds.story import Timeline

        t = Timeline(cards_universe, (fabula_f1,))
        states = evolve(t, Channel.identity())
        assert len(states) == 1
        assert states[0].worlds == reconstruct(fabula_f1).worlds

    def test_dropping_the_late_addition_prevents_collapse(self, cards_timeline, cards_universe):
        ch = Channel.drop({cards_universe.atom("wears", "ali", "blue")})
        states = evolve(cards_timeline, ch)
        assert [len(s.worlds) for s in states] == [64, 64]

    def test_monotone_collapse_under_identity(self):
        rng = random.Random(17)
        from helpers import random_monotone_timeline

        for _ in range(15):
            u = random_universe(rng, 8)
            t = random_monotone_timeline(rng, u, 5)
            states = evolve(t, Channel.identity())
            sizes = [len(s.worlds) for s in states]
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_inconsistent_channel_output_names_the_step(self):
        text = (
            "sort s: a\nrel p(s)\nrel q(s)\n\n"
            "t=0:\n+ p(a) -> q(a)\n+ p(a)\n\n"
            "t=1:\n+ q(a)\n"
        )
        t = parse_story(text)
        ch = parse_channel_spec("corrupt(q(a))", t.universe)
        with pytest.raises(InconsistentStepError) as exc:
            evolve(t, ch)
        assert exc.value.step == 1

    def test_drop_channels_never_create_mismatches(self):
        rng = random.Random(500)
        for _ in range(15):
            u = random_universe(rng, 10)
            w = World(u, rng.randrange(1 << u.atom_count))
            literals = list(w.literals())
            targets = {literals[i] for i in rng.sample(range(len(literals)), min(3, len(literals)))}
            state = reconstruct(transmit(compress(w), Channel.drop(targets)))
            assert accuracy_report(w, state).mismatched == 0

    def test_corrupt_channels_mismatch_decided_atoms(self):
        rng = random.Random(501)
        for _ in range(15):
            u = random_universe(rng, 10)
            w = World(u, rng.randrange(1 << u.atom_count))
            lit = w.literals()[rng.randrange(u.atom_count)]
            state = reconstruct(transmit(compress(w), Channel.corrupt({lit})))
            assert accuracy_report(w, state).mismatched >= 1


def fold_evolve(timeline, channel):
    """Reference reader series: every step's rewritten edit applied with
    ``apply_transition``, whatever the channel did to it."""
    states = []
    reader = prev = Fabula(timeline.universe, ())
    for t, fab in enumerate(timeline.steps):
        edit = delta(prev, fab)
        rewritten = TransitionEdit(
            _rewrite(edit.additions, channel, None, ""),
            _rewrite(edit.removals, channel, None, ""),
        )
        try:
            reader = apply_transition(reader, rewritten)
        except InconsistentFabulaError as e:
            raise InconsistentStepError(t, e.conflict, e.subset) from e
        states.append(reconstruct(reader))
        prev = fab
    return states


#: (story file, channel spec, first step whose edit the channel changes, or
#: None when it changes none)
EVOLVE_CASES = (
    ("cards.story", "identity", None),
    ("cards.story", "rename(wears->wears)", None),
    ("cards.story", "drop(wears(ali,blue))", 1),
    ("cards.story", "corrupt(plays(ali,jay))", 0),
    ("reveal.story", "identity", None),
    ("reveal.story", "rename(plays->plays)", None),
    ("reveal.story", "drop(plays(jay,ali))", 3),
    ("reveal.story", "corrupt(plays(ali,jay))", 1),
    ("twist.story", "identity", None),
    ("twist.story", "rename(trusts->trusts)", None),
    ("twist.story", "drop(trusts(gus,ann))", 5),
    ("twist.story", "corrupt(happy(hal))", 1),
)


class TestEvolveShortcut:
    """``evolve`` hands the reader the narrator's own fabula while the channel
    has changed nothing; every other step goes through ``apply_transition``."""

    @pytest.mark.parametrize("story", ["cards.story", "reveal.story", "twist.story"])
    def test_identity_reader_holds_the_narrators_fabulas(self, story):
        timeline = parse_story((DATA / story).read_text(encoding="utf-8"))
        states = evolve(timeline, Channel.identity())
        assert all(s.fabula is f for s, f in zip(states, timeline.steps))
        assert all(s.worlds.column is f.column for s, f in zip(states, timeline.steps))

    @pytest.mark.parametrize(
        "story, spec, first_changed",
        EVOLVE_CASES,
        ids=[f"{c[0]}-{c[1]}" for c in EVOLVE_CASES],
    )
    def test_matches_a_fold_through_apply_transition(self, story, spec, first_changed):
        timeline = parse_story((DATA / story).read_text(encoding="utf-8"))
        channel = parse_channel_spec(spec, timeline.universe)
        states = evolve(timeline, channel)
        reference = fold_evolve(timeline, channel)
        assert len(states) == len(reference) == len(timeline.steps)
        for state, ref in zip(states, reference):
            assert state.fabula.propositions == ref.fabula.propositions
            assert state.worlds.column == ref.worlds.column
            assert state.cube == ref.cube
        shared = [s.fabula is f for s, f in zip(states, timeline.steps)]
        cut = len(shared) if first_changed is None else first_changed
        assert shared == [t < cut for t in range(len(shared))]

    def test_inconsistent_step_is_still_named(self, twist_timeline):
        # negating the t=4 disjunction contradicts the literals t=5 asserts
        spec = "corrupt(happy(ann) | trusts(gus,ann))"
        channel = parse_channel_spec(spec, twist_timeline.universe)
        for run in (evolve, fold_evolve):
            with pytest.raises(InconsistentStepError) as exc:
                run(twist_timeline, channel)
            assert exc.value.step == 5

    def test_add_remove_conflict_is_a_channel_error(self, twist_timeline):
        # t=6 retracts trusts(ann,hal) and asserts its negation
        channel = parse_channel_spec("corrupt(trusts(ann,hal))", twist_timeline.universe)
        with pytest.raises(ChannelError, match="t=6"):
            evolve(twist_timeline, channel)

    @pytest.mark.parametrize("spec", ["identity", "drop(trusts(gus,ann))"])
    def test_bound_below_the_atom_count_is_refused(self, twist_timeline, spec):
        u = twist_timeline.universe
        channel = parse_channel_spec(spec, u)
        bounded = Timeline(
            Universe(u.sorts, u.relations.items(), bound=11), twist_timeline.steps
        )
        with pytest.raises(BoundExceededError):
            evolve(bounded, channel)

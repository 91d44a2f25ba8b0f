"""Differential tests for the belief cube: ``plausible_facts`` as two atom
masks, and the kernel, coherence and satellite metrics that read it, against
the world-by-world oracles on random timelines."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from storyworlds.conveyance import Channel, compress, evolve
from storyworlds.filters import plausible_facts
from storyworlds.logic import World
from storyworlds.metrics import (
    KernelReport,
    KernelStep,
    SatelliteLink,
    classify_satellites,
    derive_world_questions,
    detect_kernels,
    kernel_questions,
    sample_coherence,
)
from storyworlds.story import Timeline, parse_story
from storyworlds.worlds import sample_worlds

from helpers import random_timeline, random_universe
from oracles import (
    beliefs_oracle,
    coherence_oracle,
    kernel_grid_oracle,
    plausible_facts_oracle,
    satellites_oracle,
)


@st.composite
def reader_series(draw, max_atoms: int = 10):
    """The identity-channel reader states of a ``helpers.random_timeline``
    over a random universe of at most ``max_atoms`` atoms."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    universe = random_universe(rng, max_atoms)
    return evolve(random_timeline(rng, universe, 6), Channel.identity())


def _report(states, kernels) -> KernelReport:
    """A kernel report that flags exactly the given steps."""
    steps = tuple(KernelStep(t, Fraction(0), t in kernels) for t in range(len(states)))
    return KernelReport(steps=steps)


class TestCube:
    @settings(max_examples=60, deadline=None)
    @given(reader_series(), st.integers(1, 40), st.integers(0, 10**6))
    def test_equals_the_oracle_in_both_spaces(self, states, k, seed):
        for state in states:
            assert state.cube == plausible_facts_oracle(tuple(state.worlds))
            assert plausible_facts(state.worlds) == state.cube
            assert plausible_facts(state.worlds.ranked()) == state.cube
            sample = sample_worlds(state.worlds, k, seed)
            assert plausible_facts(sample) == plausible_facts_oracle(tuple(sample))

    @settings(max_examples=60, deadline=None)
    @given(reader_series())
    def test_changed_fractions_are_the_frozenset_definition(self, states):
        if len(states) < 2:
            return
        beliefs = [beliefs_oracle(tuple(s.worlds)) for s in states]
        expected = [Fraction(0)] + [
            Fraction(len(before ^ after), max(1, len(before | after)))
            for before, after in zip(beliefs, beliefs[1:])
        ]
        assert [s.changed_fraction for s in detect_kernels(states).steps] == expected

    @settings(max_examples=60, deadline=None)
    @given(reader_series(8), st.integers(1, 12), st.integers(0, 10**6))
    def test_sample_coherence_reads_decided_atoms_off_the_cube(self, states, k, seed):
        for state in states:
            sample = sample_worlds(state.worlds, k, seed)
            got = sample_coherence(sample, (), state.cube)
            assert got == sample_coherence(sample)
            questions = derive_world_questions(sample)
            if questions:
                coherence, entropy = coherence_oracle(questions, tuple(sample))
                assert got == (len(questions), coherence, entropy)
            else:
                assert got == (0, None, None)

    def test_sample_coherence_on_a_rank_space_sample_of_a_partly_decided_set(
        self, twist_timeline
    ):
        # step 0 asserts six of the twelve atoms: 64 worlds
        state = evolve(twist_timeline, Channel.identity())[0]
        sample = sample_worlds(state.worlds, 16, seed=0)
        assert sample.table is not sample.universe
        assert (state.cube[0] | state.cube[1]).bit_count() == 6
        questions = derive_world_questions(sample)
        assert questions
        coherence, entropy = coherence_oracle(questions, tuple(sample))
        assert sample_coherence(sample, (), state.cube) == (len(questions), coherence, entropy)


class TestKernelGrid:
    @settings(max_examples=60, deadline=None)
    @given(reader_series())
    def test_kernel_questions_equal_the_listed_grid(self, states):
        for k in range(1, len(states)):
            assert list(kernel_questions(states, k)) == kernel_grid_oracle(states, k)


#: Three atoms. Step 1 decides every atom, and decides p(a) false where
#: step 3 believes it: a prior that decides the consequent p(b) of the
#: kernel at 4 and decides its antecedent p(a) false. Steps 2 and 3 leave
#: p(b) open, so they count it.
_DECIDING_STORY = """\
sort s: a, b, c
rel p(s)

t=0:
+ p(c) | p(b)

t=1:
+ !p(a)
+ p(b)
+ p(c)

t=2:
- !p(a)
- p(b)
+ p(a)

t=3:
- p(c)
+ p(b) -> p(c)

t=4:
+ p(b)
"""


class TestSatellitesOnDecidingPriors:
    @settings(max_examples=80, deadline=None)
    @given(reader_series(6), st.integers(0, 2**32 - 1))
    def test_a_prior_that_decides_every_atom(self, states, seed):
        """Step 1 is one world, so as a prior it decides every consequent
        and every antecedent, some of them false."""
        rng = random.Random(seed)
        u = states[0].worlds.universe
        world = World(u, rng.randrange(1 << u.atom_count))
        steps = [s.fabula for s in states]
        timeline = Timeline(u, (steps[0], compress(world), *steps[1:]))
        series = evolve(timeline, Channel.identity())
        kernels = {k for k in range(2, len(series)) if rng.random() < 0.5}
        report = _report(series, kernels)
        for epsilon in (0.0, -math.inf):
            expected = satellites_oracle(series, report, epsilon)
            assert classify_satellites(series, report, epsilon).satellites == expected

    def test_a_prior_that_decides_an_antecedent_false(self):
        states = evolve(parse_story(_DECIDING_STORY), Channel.identity())
        report = _report(states, {4})
        assert states[1].cube == (0b110, 0b001)
        assert states[3].cube[0] & 0b001  # step 3 believes p(a)
        for epsilon in (0.0, -math.inf):
            expected = satellites_oracle(states, report, epsilon)
            assert classify_satellites(states, report, epsilon).satellites == expected
        links = classify_satellites(states, report, -math.inf).satellites
        # at step 1 the p(a) row has no world and the p(c) row is decided
        assert links == (
            SatelliteLink(4, 1, 0.0, 1),
            SatelliteLink(4, 2, -1.0, 2),
            SatelliteLink(4, 3, -1.0, 2),
        )

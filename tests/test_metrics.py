from __future__ import annotations

import math
import random
from fractions import Fraction
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storyworlds import metrics
from storyworlds.conveyance import Channel, evolve
from storyworlds.errors import EmptyWorldSetError, MetricError
from storyworlds.logic import (
    FALSE,
    TRUE,
    Constant,
    Not,
    Or,
    Universe,
    World,
    consistent,
)
from storyworlds.metrics import (
    Question,
    binary_entropy,
    classify_satellites,
    derive_world_questions,
    detect_kernels,
    kernel_questions,
    mean_question_entropy,
    relevance,
    sample_coherence,
    transitional_coherence,
    world_coherence,
)
from storyworlds.story import Fabula, Timeline, formula_to_str, parse_story
from storyworlds.worlds import WorldSet, enumerate_models, sample_worlds

from helpers import chain_universe, random_formula, random_named_universe, random_universe
from oracles import (
    coherence_oracle,
    relevance_oracle,
    satellites_oracle,
    transitional_grids_oracle,
    transitional_oracle,
)

REVEAL_STORY = """\
sort person: jay, ali
sort color: blue, red
rel wears(person, color)
rel plays(person, person)

t=0:
+ wears(jay,blue)

t=1:
+ plays(ali,jay)

t=2:

t=3:
+ !wears(jay,red)
+ wears(ali,blue)
+ !wears(ali,red)
+ !plays(ali,ali)
+ plays(jay,ali)
+ !plays(jay,jay)
"""

# t=1 ties atom a to atom b (equivalence), t=2 decides a and retracts the tie,
# t=3 is the reveal deciding b and the rest of the universe
EQUIVALENCE_STORY = """\
sort s: x, y, z
rel p(s)

t=0:

t=1:
+ p(x) -> p(y)
+ p(y) -> p(x)

t=2:
+ p(x)
- p(x) -> p(y)
- p(y) -> p(x)

t=3:
+ p(y)
+ !p(z)
"""


class TestBinaryEntropy:
    def test_half_is_exactly_one(self):
        assert binary_entropy(Fraction(1, 2)) == 1.0
        assert binary_entropy(0.5) == 1.0

    def test_degenerate_convention(self):
        assert binary_entropy(0) == 0.0
        assert binary_entropy(1) == 0.0
        assert binary_entropy(Fraction(0)) == 0.0

    def test_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(0.811278124459, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(1.5)
        with pytest.raises(ValueError):
            binary_entropy(-0.1)

    def test_symmetric_on_grid(self):
        for i in range(1, 100):
            p = i / 100
            assert abs(binary_entropy(p) - binary_entropy(1 - p)) < 1e-12

    def test_maximal_at_half(self):
        values = [binary_entropy(i / 100) for i in range(101)]
        assert max(values) == values[50]


class TestRelevance:
    def test_determined_consequent_gives_full_bit(self, cards_universe, worlds_s0):
        wab = cards_universe.atom("wears", "ali", "blue")
        q = Question(wab, wab, (True, True))
        assert relevance(q, worlds_s0) == 1.0

    def test_decided_antecedent_gives_zero(self, cards_universe, worlds_s0):
        q = Question(
            cards_universe.atom("wears", "jay", "blue"),
            cards_universe.atom("plays", "ali", "jay"),
            (True, True),
        )
        assert relevance(q, worlds_s0) == 0.0

    def test_independence_gives_exactly_zero(self, cards_universe, worlds_s0):
        q = Question(
            cards_universe.atom("wears", "ali", "blue"),
            cards_universe.atom("wears", "ali", "red"),
            (True, True),
        )
        assert relevance(q, worlds_s0) == 0.0

    def test_answers_resolved_from_truth_world(self, cards_universe, worlds_s0):
        wab = cards_universe.atom("wears", "ali", "blue")
        truth = next(w for w in worlds_s0 if w.truth(wab))
        q = Question(wab, wab)
        assert relevance(q, worlds_s0, truth) == 1.0

    def test_missing_answers_is_an_error(self, cards_universe, worlds_s0):
        q = Question(cards_universe.atoms[0], cards_universe.atoms[1])
        with pytest.raises(MetricError):
            relevance(q, worlds_s0)

    def test_empty_conditional_subpopulation(self, cards_universe, worlds_s0):
        # no world of S(0) falsifies the asserted atom
        q = Question(
            cards_universe.atom("wears", "jay", "blue"),
            cards_universe.atom("wears", "ali", "blue"),
            (False, True),
        )
        with pytest.raises(MetricError):
            relevance(q, worlds_s0)


class TestWorldCoherence:
    def test_fixture_question_set(self, cards_universe, worlds_s0):
        q = Question(Constant(True), cards_universe.atom("wears", "ali", "blue"))
        assert world_coherence(worlds_s0, [q]) == Fraction(1, 2)

    def test_universally_true_questions(self, cards_universe, worlds_s0):
        q = Question(
            cards_universe.atom("plays", "ali", "jay"),
            cards_universe.atom("wears", "jay", "blue"),
        )
        assert world_coherence(worlds_s0, [q]) == 1

    def test_mean_of_mixed_questions(self, cards_universe, worlds_s0):
        q1 = Question(
            cards_universe.atom("plays", "ali", "jay"),
            cards_universe.atom("wears", "jay", "blue"),
        )
        q2 = Question(Constant(True), cards_universe.atom("wears", "ali", "blue"))
        assert world_coherence(worlds_s0, [q1, q2]) == Fraction(3, 4)

    def test_permutation_invariant(self, cards_universe, worlds_s0):
        qs = [
            Question(Constant(True), atom) for atom in cards_universe.atoms[:4]
        ]
        assert world_coherence(worlds_s0, qs) == world_coherence(worlds_s0, reversed(qs))

    def test_empty_inputs_are_errors(self, cards_universe, worlds_s0):
        with pytest.raises(MetricError):
            world_coherence(worlds_s0, [])
        q = Question(Constant(True), cards_universe.atoms[0])
        with pytest.raises(EmptyWorldSetError):
            world_coherence(WorldSet(cards_universe, []), [q])

    def test_companion_entropy(self, cards_universe, worlds_s0):
        q = Question(Constant(True), cards_universe.atom("wears", "ali", "blue"))
        assert mean_question_entropy(worlds_s0, [q]) == 1.0


class TestDeriveWorldQuestions:
    def test_unanimous_antecedents_and_majority_consequents(self, cards_universe, worlds_s0):
        sample = sample_worlds(worlds_s0, 16, seed=0)
        qs = derive_world_questions(sample)
        assert qs
        for q in qs:
            assert world_coherence(sample, [q]) > Fraction(1, 2)

    def test_no_questions_without_unanimity(self, cards_universe):
        everything = enumerate_models([], cards_universe)
        assert derive_world_questions(everything) == ()

    def test_question_cap(self, worlds_s0):
        sample = sample_worlds(worlds_s0, 16, seed=0)
        qs = derive_world_questions(sample)
        assert len(qs) > 2
        for cap in (2, 0):
            with patch.object(metrics, "MAX_QUESTIONS", cap):
                assert derive_world_questions(sample) == qs[:cap]


class TestLiteralCodes:
    """Literal code ``j`` is ``(negations + atoms)[j]``, and ascending codes
    are the canonical order: the text sort is the reference."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from((random_universe, random_named_universe)))
    def test_ascending_codes_are_text_order(self, seed, draw_universe):
        u = draw_universe(random.Random(seed), 12)
        literals = u.negations + u.atoms
        ascending = [literals[j] for j in metrics._codes((1 << len(literals)) - 1)]
        assert ascending == sorted(literals, key=formula_to_str)
        # a belief cube's mask decodes to its literals in that order
        rng = random.Random(seed)
        true = rng.randrange(1 << u.atom_count)
        cube = (true, rng.randrange(1 << u.atom_count) & ~true)
        state = SimpleNamespace(cube=cube, worlds=SimpleNamespace(universe=u))
        decoded = [literals[j] for j in metrics._codes(metrics._literal_mask(state))]
        held = [lit for i, lit in enumerate(World(u, true).literals()) if (true | cube[1]) >> i & 1]
        assert decoded == sorted(held, key=formula_to_str)

    def test_prefix_names(self):
        u = Universe({"s": ("a_", "a", "aB", "A")}, [("p_", ("s",)), ("p", ("s", "s"))])
        texts = [formula_to_str(f) for f in u.negations + u.atoms]
        assert texts[:3] == ["!p(A,A)", "!p(A,a)", "!p(A,aB)"]
        assert texts == sorted(texts)


@pytest.fixture(scope="module")
def reveal_states():
    return evolve(parse_story(REVEAL_STORY), Channel.identity())


@pytest.fixture(scope="module")
def equivalence_states():
    return evolve(parse_story(EQUIVALENCE_STORY), Channel.identity())


class TestKernels:
    def test_reveal_flags_exactly_step_three(self, reveal_states):
        report = detect_kernels(reveal_states, Fraction(1, 2))
        assert report.kernels == (3,)
        assert report.steps[3].changed_fraction == Fraction(3, 4)

    def test_no_change_step_has_zero_fraction(self, reveal_states):
        report = detect_kernels(reveal_states)
        assert report.steps[2].changed_fraction == 0
        assert not report.steps[2].is_kernel

    def test_small_addition_is_not_a_kernel(self, reveal_states):
        report = detect_kernels(reveal_states)
        assert report.steps[1].changed_fraction == Fraction(1, 2)
        assert not report.steps[1].is_kernel

    def test_step_zero_never_a_kernel(self, reveal_states):
        assert not detect_kernels(reveal_states, theta=0).steps[0].is_kernel

    def test_theta_zero_flags_every_changing_step(self, reveal_states):
        report = detect_kernels(reveal_states, theta=0)
        assert report.kernels == (1, 3)

    def test_needs_two_states(self, reveal_states):
        with pytest.raises(MetricError):
            detect_kernels(reveal_states[:1])

    def test_invariant_under_atom_relabeling(self):
        relabeled = REVEAL_STORY.replace("jay", "zed").replace("blue", "teal")
        a = detect_kernels(evolve(parse_story(REVEAL_STORY), Channel.identity()))
        b = detect_kernels(evolve(parse_story(relabeled), Channel.identity()))
        assert [s.changed_fraction for s in a.steps] == [
            s.changed_fraction for s in b.steps
        ]


class TestSatellites:
    def test_setup_step_is_a_satellite_with_full_relevance(self, equivalence_states):
        states = equivalence_states
        report = detect_kernels(states)
        assert 3 in report.kernels
        qs = kernel_questions(states, 3)
        px_to_py = next(
            q
            for q in qs
            if formula_to_str(q.antecedent) == "p(x)"
            and formula_to_str(q.consequent) == "p(y)"
        )
        assert relevance(px_to_py, states[1].worlds) == 1.0
        enriched = classify_satellites(states, report)
        assert any(
            link.kernel_step == 3 and link.satellite_step == 1
            for link in enriched.satellites
        )

    def test_unrelated_step_is_not_a_satellite(self):
        states = evolve(parse_story(REVEAL_STORY), Channel.identity())
        report = classify_satellites(states, detect_kernels(states))
        assert report.satellites == ()

    def test_kernel_without_preceding_steps_has_no_satellites(self):
        text = (
            "sort s: x, y, z\nrel p(s)\n\n"
            "t=0:\n\n"
            "t=1:\n+ p(x)\n+ p(y)\n+ !p(z)\n"
        )
        states = evolve(parse_story(text), Channel.identity())
        report = detect_kernels(states)
        assert report.kernels == (1,)
        assert classify_satellites(states, report).satellites == ()


class TestTransitionalCoherence:
    # Transitional coherence is the world coherence, over the earlier sample,
    # of the questions it derives; the first three cases pin that value on
    # given questions.
    def test_fixture_explicit_question(self, cards_universe, worlds_s0):
        q = Question(
            cards_universe.atom("plays", "ali", "jay"),
            cards_universe.atom("wears", "ali", "blue"),
        )
        assert world_coherence(worlds_s0, [q]) == Fraction(1, 2)

    def test_degenerate_self_comparison(self, cards_universe):
        truth = World(cards_universe, 82)
        sample = WorldSet(cards_universe, [truth.mask])
        q = Question(cards_universe.atom("plays", "ali", "jay"),
                     cards_universe.atom("wears", "ali", "blue"))
        assert world_coherence(sample, [q]) == 1

    def test_vacuous_implications(self, cards_universe, worlds_s0):
        q = Question(Constant(False), cards_universe.atom("plays", "jay", "jay"))
        assert world_coherence(worlds_s0, [q]) == 1

    def test_derived_questions_across_a_kernel(self):
        states = evolve(parse_story(EQUIVALENCE_STORY), Channel.identity())
        report = detect_kernels(states)
        truth = states[-1].worlds[0]
        sample = states[2].worlds
        value = transitional_coherence(sample, truth, report, states, 2, 3)
        assert value == transitional_oracle(sample, truth, states, [3])
        assert 0 <= value <= 1

    def test_no_kernel_in_range_is_an_error(self):
        states = evolve(parse_story(EQUIVALENCE_STORY), Channel.identity())
        report = detect_kernels(states)
        truth = states[-1].worlds[0]
        with pytest.raises(MetricError):
            transitional_coherence(states[0].worlds, truth, report, states, 0, 1)

    def test_derivation_needs_ordered_times(self):
        states = evolve(parse_story(EQUIVALENCE_STORY), Channel.identity())
        report = detect_kernels(states)
        truth = states[-1].worlds[0]
        with pytest.raises(MetricError):
            transitional_coherence(states[2].worlds, truth, report, states, 3, 3)


def test_kernel_question_answers_default_true():
    states = evolve(parse_story(REVEAL_STORY), Channel.identity())
    for q in kernel_questions(states, 3):
        assert q.answers == (True, True)


def test_kernel_question_cap(reveal_states):
    qs = kernel_questions(reveal_states, 3)
    assert len(qs) > 2
    for cap in (2, 0):
        with patch.object(metrics, "MAX_QUESTIONS", cap):
            assert kernel_questions(reveal_states, 3) == qs[:cap]


#: Beliefs grow from p(a) to p(a..k) without a kernel; at t=5 three of them
#: go and seven q literals arrive, a kernel whose 11 x 7 question grid the
#: cap of 64 cuts to one cell in its tenth row, p(j), which steps 1 to 3
#: leave undecided.
CAPPED_STORY = """\
sort c: a, b, c, d, e, f, g, h, i, j, k
sort d: d0, d1, d2, d3, d4, d5, d6
rel p(c)
rel q(d)

t=0:
+ p(a)
t=1:
+ p(b)
t=2:
+ p(c) & p(d)
t=3:
+ p(e) & p(f) & p(g) & p(h)
t=4:
+ p(i) & p(j) & p(k)
t=5:
- p(e) & p(f) & p(g) & p(h)
+ p(e)
+ q(d0) & q(d1) & q(d2) & q(d3) & q(d4) & q(d5) & q(d6)
"""


class _CountedColumn(int):
    """An atom column that records each AND taken with it."""

    def __new__(cls, value: int, log: list):
        column = super().__new__(cls, value)
        column.log = log
        return column

    def __and__(self, other):
        self.log.append(1)
        return int(self) & other

    __rand__ = __and__


def _literal(atom, value: bool):
    return atom if value else Not(atom)


#: A step's edit to one atom: keep its value (most often), leave it
#: undecided, or assert it true or false.
_EDITS = ("keep", "keep", "keep", None, True, False)


@st.composite
def state_series(draw):
    """Reader states of a random timeline over 2-5 atoms. Each step edits the
    previous step's literals, so literals are retracted and flipped and
    kernels occur between quieter steps; a step may also assert up to two
    disjunctions that keep it satisfiable."""
    n = draw(st.integers(2, 5))
    u = chain_universe(n)
    values = [None] * n
    steps = []
    for _ in range(draw(st.integers(3, 8))):
        edits = draw(st.lists(st.sampled_from(_EDITS), min_size=n, max_size=n))
        values = [v if e == "keep" else e for v, e in zip(values, edits)]
        props = [_literal(a, v) for a, v in zip(u.atoms, values) if v is not None]
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            si, sj = draw(st.booleans()), draw(st.booleans())
            disjunction = Or((_literal(u.atoms[i], si), _literal(u.atoms[j], sj)))
            if consistent(props + [disjunction], u):
                props.append(disjunction)
        steps.append(Fabula(u, props))
    return evolve(Timeline(u, tuple(steps)), Channel.identity())


def _grid_size(states, k) -> tuple[int, int]:
    """Kernel ``k``'s grid rows and columns: the literal beliefs at k-1, and
    those at k that k-1 does not hold."""
    before, after = (metrics._literal_mask(s) for s in states[k - 1 : k + 1])
    return before.bit_count(), (after & ~before).bit_count()


def _grid_caps(states, report) -> set[int]:
    """Question caps of 0 and 1, one cutting each kernel's grid in the middle
    of its second row, and one above each grid."""
    caps = {0, 1}
    for k in report.kernels:
        rows, width = _grid_size(states, k)
        if rows >= 2 and width >= 2:
            caps.add(width + 1)
        caps.add(rows * width + 3)
    return caps


def _check_against_oracle(states, report, caps):
    for cap in sorted(caps):
        with patch.object(metrics, "MAX_QUESTIONS", cap):
            assert classify_satellites(states, report, 0.0).satellites == (
                satellites_oracle(states, report, 0.0)
            )
            # below every mean, each step with an evaluable question is a link
            links = classify_satellites(states, report, -math.inf).satellites
            assert links == satellites_oracle(states, report, -math.inf)
            for link in links:
                # epsilon at a link's exact mean drops that link (strictly above)
                eps = link.mean_relevance
                got = classify_satellites(states, report, eps).satellites
                assert got == satellites_oracle(states, report, eps)
                assert link not in got


class TestSatellitesAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(state_series(), st.sampled_from((Fraction(0), Fraction(1, 3), Fraction(1, 2))))
    def test_random_series(self, states, theta):
        report = detect_kernels(states, theta)
        _check_against_oracle(states, report, _grid_caps(states, report))

    def test_twist_story(self, twist_timeline):
        states = evolve(twist_timeline, Channel.identity())
        report = detect_kernels(states)
        assert report.kernels == (6, 12)
        # kernel 6 poses a 12 x 6 grid: a cap of 64 cuts its eleventh row
        assert _grid_size(states, 6) == (12, 6)
        caps = _grid_caps(states, report) | {64}
        _check_against_oracle(states, report, caps)
        links = classify_satellites(states, report).satellites
        assert links
        # some priors have antecedents that select no world
        assert any(
            l.question_count < len(kernel_questions(states, l.kernel_step)) for l in links
        )

    def test_builds_no_question(self, twist_timeline):
        states = evolve(twist_timeline, Channel.identity())
        report = detect_kernels(states)
        expected = satellites_oracle(states, report, 0.0)
        assert expected
        with patch.object(metrics, "Question", side_effect=AssertionError("built a Question")):
            assert classify_satellites(states, report).satellites == expected

    def test_builds_each_literal_column_once_per_kernel(self, twist_timeline):
        """Each used literal's atom column is looked up at most once per
        kernel, and only an antecedent row or a cell inside the question
        cap that the prior leaves undecided takes an AND (and its popcount)
        with one. In ``CAPPED_STORY`` the cap cuts a row that the first
        three priors leave open."""
        for timeline in (twist_timeline, parse_story(CAPPED_STORY)):
            self._check_column_use(timeline)

    @staticmethod
    def _check_column_use(timeline):
        states = evolve(timeline, Channel.identity())
        report = detect_kernels(states)
        expected = classify_satellites(states, report).satellites
        u = timeline.universe
        n = u.atom_count
        # a literal's code: the negation of atom i is code i, atom i is n + i
        code = {lit: j for j, lit in enumerate(u.negations + u.atoms)}
        used = exact = every_cell = 0
        for k in report.kernels:
            grid = kernel_questions(states, k)
            rows = list(dict.fromkeys(q.antecedent for q in grid))
            columns = list(dict.fromkeys(q.consequent for q in grid))
            used += len(rows) + len(columns)
            for s in range(1, k):
                if s in report.kernels:
                    continue
                true, false = states[s].cube
                held = metrics._literal_mask(states[s])
                decided = {lit for lit, j in code.items() if (true | false) >> j % n & 1}
                whole_row = False
                for a in rows:
                    open_cells = sum(
                        1 for q in grid if q.antecedent == a and q.consequent not in decided
                    )
                    # an open row takes its own AND, then one per open cell
                    # of the capped grid; the rows the prior decides true
                    # share one row of cells, scored where first needed
                    if a not in decided:
                        exact += 1 + open_cells
                    elif held >> code[a] & 1 and not whole_row:
                        exact += open_cells
                        whole_row = True
                every_cell += len(rows) * (1 + len(columns))
        lookups, ands = [], []
        original = Universe.atom_column

        def counted(universe, index):
            lookups.append(index)
            return _CountedColumn(original(universe, index), ands)

        with patch.object(Universe, "atom_column", counted):
            assert classify_satellites(states, report).satellites == expected
        assert 0 < len(lookups) <= used
        assert 0 < len(ands) == exact < every_cell

    @settings(max_examples=60, deadline=None)
    @given(state_series(), st.data())
    def test_single_questions(self, states, data):
        u = states[0].worlds.universe
        literal = st.builds(_literal, st.sampled_from(u.atoms), st.booleans())
        for state in states:
            listed = tuple(state.worlds)
            for _ in range(3):
                answers = (data.draw(st.booleans()), data.draw(st.booleans()))
                q = Question(data.draw(literal), data.draw(literal), answers)
                expected = relevance_oracle(q, listed)
                if expected is None:
                    with pytest.raises(MetricError):
                        relevance(q, state.worlds)
                else:
                    assert relevance(q, state.worlds) == expected
        with pytest.raises(EmptyWorldSetError):
            relevance(q, WorldSet(u, ()))


def _transitional_caps(grids) -> set[int]:
    """Question caps of 0 and 1, one in the middle of each kernel grid's
    second row, one past each grid (cutting into the next kernel's), and the
    default."""
    caps, start = {0, 1, 64}, 0
    for grid in grids:
        width = len({q.consequent for q in grid})
        if len(grid) >= 2 * width >= 4:
            caps.add(start + width + width // 2)
        start += len(grid)
        caps.add(start + 1)
    return caps


def _check_transitional(states, report, sample, truth, t_then, t_now):
    kernels = [k for k in report.kernels if t_then < k <= t_now]
    grids = transitional_grids_oracle(sample, truth, states, kernels)
    for cap in sorted(_transitional_caps(grids)):
        with patch.object(metrics, "MAX_QUESTIONS", cap):
            expected = transitional_oracle(sample, truth, states, kernels)
            if expected is None:
                with pytest.raises(MetricError):
                    transitional_coherence(sample, truth, report, states, t_then, t_now)
            else:
                got = transitional_coherence(sample, truth, report, states, t_then, t_now)
                assert got == expected


class TestTransitionalAgainstOracle:
    """Transitional coherence equals ``transitional_oracle`` under question caps
    of 0, 1, mid-row and past each kernel's grid."""

    def test_reveal_kernel_against_oracle(self, reveal_states):
        states = reveal_states
        report = detect_kernels(states)
        assert report.kernels == (3,)
        truths = list(states[-1].worlds) + [World(states[0].worlds.universe, 0)]
        for k in (1, 4, 16, 1000):
            sample = sample_worlds(states[2].worlds, k, seed=0)
            for truth in truths:
                _check_transitional(states, report, sample, truth, 2, 3)

    def test_twist_kernels_against_oracle(self, twist_timeline):
        states = evolve(twist_timeline, Channel.identity())
        report = detect_kernels(states)
        assert report.kernels == (6, 12)
        truth = states[-1].worlds[0]
        for t_then, t_now in ((5, 6), (11, 12), (5, 12)):
            for k in (16, 1 << 12):
                sample = sample_worlds(states[t_then].worlds, k, seed=0)
                _check_transitional(states, report, sample, truth, t_then, t_now)
        # over (5, 12] the default cap of 64 falls inside kernel 12's grid
        sample = sample_worlds(states[5].worlds, 16, seed=0)
        first, second = transitional_grids_oracle(sample, truth, states, [6, 12])
        assert len(first) < metrics.MAX_QUESTIONS < len(first) + len(second)

    def test_builds_no_question(self, twist_timeline):
        states = evolve(twist_timeline, Channel.identity())
        report = detect_kernels(states)
        truth = states[-1].worlds[0]
        for t_then, t_now in ((5, 6), (11, 12), (5, 12)):
            sample = sample_worlds(states[t_then].worlds, 16, seed=0)
            kernels = [k for k in report.kernels if t_then < k <= t_now]
            expected = transitional_oracle(sample, truth, states, kernels)
            assert expected is not None
            with patch.object(metrics, "Question", side_effect=AssertionError("built a Question")):
                got = transitional_coherence(sample, truth, report, states, t_then, t_now)
            assert got == expected

    @settings(max_examples=100, deadline=None)
    @given(state_series(), st.data())
    def test_random_series(self, states, data):
        theta = data.draw(st.sampled_from((Fraction(0), Fraction(1, 3))))
        report = detect_kernels(states, theta)
        u = states[0].worlds.universe
        truth = World(u, data.draw(st.integers(0, (1 << u.atom_count) - 1)))
        ks = report.kernels
        ranges = {(0, len(states) - 1)} | {(k - 1, k) for k in ks}
        ranges |= {(a - 1, b) for a, b in zip(ks, ks[1:])}
        for t_then, t_now in sorted(ranges):
            k = data.draw(st.integers(1, 40))
            sample = sample_worlds(states[t_then].worlds, k, data.draw(st.integers(0, 10**6)))
            _check_transitional(states, report, sample, truth, t_then, t_now)


@st.composite
def question_cases(draw):
    """A non-empty world set over 1-6 atoms and 1-12 questions whose sides
    are drawn from a small pool of compound formulas and constants, so
    antecedents and consequents repeat; answers are given or absent."""
    n = draw(st.integers(1, 6))
    u = chain_universe(n)
    column = draw(st.integers(1, (1 << (1 << n)) - 1))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pool = [random_formula(rng, u, 3) for _ in range(draw(st.integers(1, 4)))]
    side = st.sampled_from(pool + [TRUE, FALSE])
    answers = st.none() | st.tuples(st.booleans(), st.booleans())
    questions = draw(st.lists(st.builds(Question, side, side, answers), min_size=1, max_size=12))
    return WorldSet.from_column(u, column), questions


class TestCoherenceAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(question_cases(), st.integers(1, 20), st.integers(0, 10**6))
    def test_random_questions(self, case, k, seed):
        full, questions = case
        # universe space, the whole set in rank space, and a rank-space sample
        for ws in (full, full.ranked(), sample_worlds(full, k, seed)):
            coherence, entropy = coherence_oracle(questions, ws)
            assert world_coherence(ws, questions) == coherence
            assert world_coherence(ws, iter(questions)) == coherence
            assert mean_question_entropy(ws, questions) == entropy

    def test_errors_in_order(self, cards_universe):
        q = Question(cards_universe.atoms[0], Not(cards_universe.atoms[1]))
        for empty in (WorldSet(cards_universe, []), WorldSet.from_column(cards_universe, 0)):
            for metric in (world_coherence, mean_question_entropy):
                # an empty question set is reported before an empty sample
                with pytest.raises(MetricError):
                    metric(empty, [])
                with pytest.raises(EmptyWorldSetError):
                    metric(empty, [q])


@st.composite
def partly_decided_sets(draw):
    """A non-empty universe-space set over 1-8 atoms that fixes a random
    subset of the atoms and keeps each other world with a drawn density, so
    samples of it have unanimous and majority literals."""
    n = draw(st.integers(1, 8))
    u = chain_universe(n)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    fixed, values = rng.getrandbits(n), rng.getrandbits(n)
    density = rng.random()
    column = 1 << (values & fixed)
    for m in range(1 << n):
        if m & fixed == values & fixed and rng.random() < density:
            column |= 1 << m
    return WorldSet.from_column(u, column)


def _coherence_triple(sample, questions):
    if not questions:
        return 0, None, None
    return (
        len(questions),
        world_coherence(sample, questions),
        repr(mean_question_entropy(sample, questions)),
    )


class TestSampleCoherence:
    @settings(max_examples=200, deadline=None)
    @given(partly_decided_sets(), st.integers(1, 20), st.integers(0, 10**6))
    def test_derived_questions_in_closed_form(self, full, k, seed):
        for ws in (full, full.ranked(), sample_worlds(full, k, seed)):
            with patch.object(metrics, "MAX_QUESTIONS", 1 << 20):
                grid = derive_world_questions(ws)
            width = len({q.consequent for q in grid})
            caps = {0, 1, 64}
            if width >= 2:
                # caps that end part of the way through a row of the grid
                caps |= {row * width + width // 2 for row in range(len(grid) // width)}
            for cap in caps:
                with patch.object(metrics, "MAX_QUESTIONS", cap):
                    count, coherence, entropy = sample_coherence(ws)
                    got = (count, coherence, None if entropy is None else repr(entropy))
                    assert got == _coherence_triple(ws, derive_world_questions(ws))

    @settings(max_examples=100, deadline=None)
    @given(question_cases(), st.integers(1, 20), st.integers(0, 10**6))
    def test_given_questions(self, case, k, seed):
        full, questions = case
        for ws in (full, full.ranked(), sample_worlds(full, k, seed)):
            count, coherence, entropy = sample_coherence(ws, questions)
            assert (count, coherence, repr(entropy)) == _coherence_triple(ws, questions)

    def test_errors(self, cards_universe):
        for empty in (WorldSet(cards_universe, []), WorldSet.from_column(cards_universe, 0)):
            with pytest.raises(EmptyWorldSetError):
                sample_coherence(empty)

"""Information metrics over world sets and reader-state series.

Proportions are exact fractions throughout; entropies and relevance values
are floats in bits. Coherence measures follow the proportion form: the world
coherence of a question set over a sampled world set is the mean truth
proportion of its implications, and transitional coherence is the same mean
taken at an earlier time against questions pulled back through a kernel.
Those proportions stay exact, but no per-question ``Fraction`` is built:
each question's true count over the sample is an integer, coherence is one
``Fraction`` of their sum, and each entropy divides a count by the sample
size. ``sample_coherence`` scores a step's derived questions in closed form
from the sample's literal counts, building no question, and counts given
questions once for both values.

Derived questions (a sample's, a kernel's) are the cells of an antecedent x
consequent grid of ground literals, taken antecedent-major and capped at
``MAX_QUESTIONS``; the closed form, the satellite relevances and
transitional coherence read the cells off the grid's sides without building
a question. Beliefs are ``plausible_facts`` cubes, two atom masks: a grid
side is a mask of literal codes, numbered so that ascending codes are the
canonical literal order (the negation of atom ``i`` is code ``i``, the atom
``n + i``), and kernel churn is popcounts of the masks' XOR and OR. At
each satellite prior, the prior's cube decides every cell whose antecedent
or consequent atom it decides; only the other cells are counted. Given
questions and transitional coherence count their cells one way: the members
outside the antecedent or inside the consequent, each side built once. One
literal split of a sample, reading the atoms its set's cube decides off the
cube, gives the closed form its counts and transitional coherence its atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .conveyance import ReaderState
from .errors import EmptyWorldSetError, MetricError
from .logic import Formula, Universe, World, evaluate, truth_column
from .worlds import WorldSet

#: The most questions a derived question set holds.
MAX_QUESTIONS = 64


def _mean(values: Sequence[float]) -> float:
    """Mean of floats added left to right. Builtin ``sum`` of floats is
    compensated from Python 3.12 on, which would change report bytes by
    version; this order matches ``sum`` on 3.10 and 3.11."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def binary_entropy(p: Fraction | float | int) -> float:
    """Binary entropy of ``p`` in bits, with the 0*log0 = 0 convention."""
    if not 0 <= p <= 1:
        raise ValueError(f"probability {p} outside [0, 1]")
    if p == 0 or p == 1:
        return 0.0
    pf = float(p)
    return -(pf * math.log2(pf) + (1.0 - pf) * math.log2(1.0 - pf))


@dataclass(frozen=True)
class Question:
    """A conditional question "if A then B" with optional true answers.

    When ``answers`` is absent, the true answers can be resolved against a
    designated ground-truth world; no defaults are invented.
    """

    antecedent: Formula
    consequent: Formula
    answers: tuple[bool, bool] | None = None

    def resolve_answers(self, truth: World | None = None) -> tuple[bool, bool]:
        if self.answers is not None:
            return self.answers
        if truth is None:
            raise MetricError(
                "question has no recorded answers and no ground-truth world was given"
            )
        return (evaluate(truth, self.antecedent), evaluate(truth, self.consequent))


def relevance(q: Question, prior: WorldSet, truth: World | None = None) -> float:
    """Entropy reduction the consequent gains from the antecedent, in bits.

    Computed as H(p) - H(p') where p is the prior proportion of worlds
    agreeing with the antecedent's true answer and p' is the proportion
    agreeing with the consequent's true answer among those worlds. Positive
    values mean the antecedent genuinely informs the consequent; independence
    yields exactly zero because both proportions coincide. The counts are
    those ``classify_satellites`` takes, over a grid of this one question.
    """
    a, b = q.resolve_answers(truth)
    col_a, col_b = (truth_column(f, prior.table) for f in (q.antecedent, q.consequent))
    if not (total := len(prior)):
        raise EmptyWorldSetError("relevance needs a non-empty prior")
    sub = prior.own_column & (col_a if a else ~col_a)
    if not (n_a := sub.bit_count()):
        raise MetricError(
            "empty conditional sub-population: no prior world matches the antecedent's answer"
        )
    # int / int is correctly rounded, so these equal float(Fraction(...)).
    hits = (sub & (col_b if b else ~col_b)).bit_count()
    return binary_entropy(n_a / total) - binary_entropy(hits / n_a)


def _grid_cells(rows: int, columns: int) -> list[tuple[int, int]]:
    """The (row, column) index pairs of a ``rows`` x ``columns`` grid,
    row-major, capped at ``MAX_QUESTIONS``."""
    return [divmod(i, columns) for i in range(min(MAX_QUESTIONS, rows * columns))]


def _literal_mask(state: ReaderState) -> int:
    """The reader's decided beliefs as a mask of literal codes: the negation
    of atom ``i`` is code ``i`` and atom ``i`` is code ``n + i``. Ascending
    codes are the canonical (``formula_to_str``) order, since ``!`` sorts
    below every name character and atoms are indexed in text order."""
    return state.cube[1] | state.cube[0] << state.worlds.universe.atom_count


def _codes(mask: int) -> list[int]:
    """The literal codes set in ``mask``, in canonical order."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def _holding(members: int, column: int, code: int, n: int) -> int:
    """The members where literal ``code`` holds, given its atom's column."""
    hits = members & column
    return hits if code >= n else members ^ hits


def _relevances(
    state: ReaderState,
    antecedents: Sequence[tuple[int, int]],
    consequents: Sequence[tuple[int, int]],
    cells: int,
) -> list[float]:
    """The relevances, in cell order, of the first ``cells`` questions of a
    row-major grid of (literal code, atom column) pairs, with the world set
    at ``state`` as the prior. The prior's cube decides cells uncounted: an
    antecedent it decides false has no cells, those it decides true select
    the whole prior and share one row, and a consequent it decides is
    constant there, so its cell is ``h - 0.0``."""
    prior = state.worlds
    members, total, n = prior.column, len(prior), prior.universe.atom_count
    true, false = state.cube
    held, decided = false | true << n, true | false

    def row(sub: int, n_a: int, width: int) -> list[float]:
        # int / int is correctly rounded, so these equal float(Fraction(...)).
        h = binary_entropy(n_a / total)
        out = []
        for b, col in consequents[:width]:
            if decided >> b % n & 1:
                out.append(h)
            else:
                hits = (sub & col).bit_count()
                out.append(h - binary_entropy((hits if b >= n else n_a - hits) / n_a))
        return out

    whole: list[float] = []  # the row of the whole prior, once an antecedent selects it
    values: list[float] = []
    for r, (a, column) in enumerate(antecedents):
        # only the last row can be cut short by the cap
        width = min(len(consequents), cells - r * len(consequents))
        if held >> a & 1:
            whole = whole or row(members, total, width)
            values.extend(whole[:width])
        elif not decided >> a % n & 1:
            sub = _holding(members, column, a, n)
            values.extend(row(sub, sub.bit_count(), width))
    return values


def _implication_counts(members: int, pairs: Sequence[tuple], holding: Callable) -> list[int]:
    """Each implication ``(a, b)``'s true count, in pair order: the members
    outside a or inside b, where ``holding(side)`` is the members a side
    holds on. Each distinct antecedent's outside and each distinct
    consequent's inside is built once, so an implication costs one
    popcount."""
    outside = {a: members ^ holding(a) for a in dict.fromkeys(a for a, _ in pairs)}
    inside = {b: holding(b) for b in dict.fromkeys(b for _, b in pairs)}
    return [(outside[a] | inside[b]).bit_count() for a, b in pairs]


def _true_counts(sample: WorldSet, questions: Iterable[Question]) -> tuple[int, list[int]]:
    """The sample size and each question's true count over the sample, in
    question order (``_implication_counts``)."""
    qs = tuple(questions)
    if not qs:
        raise MetricError("coherence needs a non-empty question set")
    total = len(sample)
    if total == 0:
        raise EmptyWorldSetError("coherence over an empty world set")
    members, table = sample.own_column, sample.table
    pairs = [(q.antecedent, q.consequent) for q in qs]
    return total, _implication_counts(members, pairs, lambda f: members & truth_column(f, table))


def world_coherence(sample: WorldSet, questions: Iterable[Question]) -> Fraction:
    """Mean truth proportion of the questions' implications over the sample."""
    total, counts = _true_counts(sample, questions)
    return Fraction(sum(counts), total * len(counts))


def mean_question_entropy(sample: WorldSet, questions: Iterable[Question]) -> float:
    """Companion value: mean binary entropy of the per-question proportions."""
    total, counts = _true_counts(sample, questions)
    # int / int is correctly rounded, so each equals float(Fraction(c, total)).
    return _mean([binary_entropy(c / total) for c in counts])


def _question_pairs(
    universe: Universe, antecedents: Sequence[int], consequents: Sequence[int]
) -> tuple[Question, ...]:
    """Questions ``a -> b`` answered (true, true) over the capped grid of
    the given literal codes."""
    literals = universe.negations + universe.atoms
    return tuple(
        Question(literals[antecedents[i]], literals[consequents[j]], (True, True))
        for i, j in _grid_cells(len(antecedents), len(consequents))
    )


def _literal_split(
    sample: WorldSet, cube: tuple[int, int] = (0, 0)
) -> tuple[int, list[int], list[int], list[int]]:
    """The sample size, the literal codes every sampled world holds and
    those a strict majority (but not all) holds, in canonical order, and
    each code's hit count. Atoms the cube of the sample's set decides are
    read off it; each other atom costs one popcount."""
    total = len(sample)
    if total == 0:
        raise EmptyWorldSetError("cannot derive questions from an empty sample")
    members, table, u = sample.own_column, sample.table, sample.universe
    true, false = cube
    hits = [
        total * (true >> i & 1) if (true | false) >> i & 1
        else (members & table.atom_column(i)).bit_count()
        for i in range(u.atom_count)
    ]
    counts = [total - h for h in hits] + hits
    unanimous = [j for j, c in enumerate(counts) if c == total]
    majority = [j for j, c in enumerate(counts) if total < 2 * c < 2 * total]
    return total, unanimous, majority, counts


def derive_world_questions(sample: WorldSet) -> tuple[Question, ...]:
    """Derive coherence questions from a sample of worlds.

    Antecedents are ground literals every sampled world agrees on; consequents
    are literals a strict majority (but not all) of the sample holds. Pairs
    are taken in canonical order and capped at ``MAX_QUESTIONS``.
    """
    _, unanimous, majority, _ = _literal_split(sample)
    return _question_pairs(sample.universe, unanimous, majority)


def sample_coherence(
    sample: WorldSet, questions: Sequence[Question] = (), cube: tuple[int, int] = (0, 0)
) -> tuple[int, Fraction | None, float | None]:
    """The question count, world coherence and mean question entropy of the
    given questions over the sample, or of its derived questions
    (``derive_world_questions(sample)``) when none are given;
    ``(0, None, None)`` when there are no derived questions.

    Given questions are counted once. Derived ones are not built: every
    antecedent holds throughout the sample, so ``a -> b`` is true exactly
    where ``b`` holds, and the question in cell ``(i, j)`` of the grid has
    the hit count of majority literal ``j``. ``cube`` is the cube of the
    set the sample was drawn from; the atoms it decides are not counted.
    """
    if questions:
        total, counts = _true_counts(sample, questions)
        entropies = [binary_entropy(c / total) for c in counts]
    else:
        total, unanimous, majority, hits = _literal_split(sample, cube)
        cells = _grid_cells(len(unanimous), len(majority))
        if not cells:
            return 0, None, None
        row = [(hits[j], binary_entropy(hits[j] / total)) for j in majority]
        counts, entropies = zip(*(row[j] for _, j in cells))
    return len(counts), Fraction(sum(counts), total * len(counts)), _mean(entropies)


@dataclass(frozen=True)
class KernelStep:
    """Belief churn at one step: the fraction of the literal beliefs that
    changed arriving here, and whether that crosses the kernel threshold."""

    step: int
    changed_fraction: Fraction
    is_kernel: bool


@dataclass(frozen=True)
class SatelliteLink:
    kernel_step: int
    satellite_step: int
    mean_relevance: float
    question_count: int


@dataclass(frozen=True)
class KernelReport:
    steps: tuple[KernelStep, ...]
    satellites: tuple[SatelliteLink, ...] = ()

    @property
    def kernels(self) -> tuple[int, ...]:
        return tuple(s.step for s in self.steps if s.is_kernel)


def detect_kernels(
    states: Sequence[ReaderState], theta: Fraction | float = Fraction(1, 2)
) -> KernelReport:
    """Flag steps where the majority of decided beliefs changed.

    The changed fraction arriving at step t is |B(t-1) xor B(t)| over
    |B(t-1) union B(t)| (at least 1), computed over ground literals; a step
    is a kernel when the fraction strictly exceeds ``theta``. Step 0 is never
    a kernel.
    """
    if len(states) < 2:
        raise MetricError("kernel detection needs at least two reader states")
    theta = Fraction(theta)
    steps = [KernelStep(0, Fraction(0), False)]
    masks = [_literal_mask(s) for s in states]
    for t in range(1, len(states)):
        before, after = masks[t - 1], masks[t]
        fraction = Fraction((before ^ after).bit_count(), max(1, (before | after).bit_count()))
        steps.append(KernelStep(t, fraction, fraction > theta))
    return KernelReport(steps=tuple(steps))


def _kernel_sides(
    states: Sequence[ReaderState], kernel_step: int, excluded: int = 0
) -> tuple[list[int], list[int]]:
    """A kernel's question grid sides as literal codes in canonical order:
    the beliefs B(k-1), and the beliefs B(k) minus B(k-1) less the codes in
    the mask ``excluded``."""
    if not 1 <= kernel_step < len(states):
        raise MetricError(f"kernel step {kernel_step} outside the state series")
    before, after = (_literal_mask(s) for s in states[kernel_step - 1 : kernel_step + 1])
    return _codes(before), _codes(after & ~(before | excluded))


def kernel_questions(states: Sequence[ReaderState], kernel_step: int) -> tuple[Question, ...]:
    """Questions a kernel poses: pre-kernel beliefs implying the beliefs the
    kernel newly decided.

    Antecedents range over B(k-1), consequents over B(k) minus B(k-1); both
    in canonical order, capped at ``MAX_QUESTIONS``. Answers are (true,
    true) by construction: both sides are held beliefs on their own side of
    the kernel.
    """
    sides = _kernel_sides(states, kernel_step)
    return _question_pairs(states[0].worlds.universe, *sides)


def classify_satellites(
    states: Sequence[ReaderState],
    report: KernelReport,
    epsilon: float = 0.0,
) -> KernelReport:
    """Label non-kernel steps as satellites of the kernels they support.

    A step s (1 <= s < k, not itself a kernel) is a satellite of kernel k
    when the mean relevance of k's question set, taken with the reader's
    world set at s as the prior, strictly exceeds ``epsilon``. Questions
    whose conditional sub-population is empty at s are skipped; a step with
    no evaluable question is not a satellite. Kernels need no satellites.

    The kernel's questions are the cells of its ``kernel_questions`` grid,
    read off its two literal-code lists without building a question. The
    atom columns of the literals the cells use are looked up once per
    kernel; at each prior, its cube decides every cell whose antecedent or
    consequent atom it decides, and only the rest are counted (the same
    counts ``relevance`` takes for one question).
    """
    links: list[SatelliteLink] = []
    kernel_steps = set(report.kernels)
    for k in report.kernels:
        antecedents, consequents = _kernel_sides(states, k)
        cells = min(MAX_QUESTIONS, len(antecedents) * len(consequents))
        if not cells:
            continue
        # the sides the cells use: their rows, and the first row's columns
        u = states[k].worlds.universe
        n = u.atom_count
        rows = antecedents[: (cells - 1) // len(consequents) + 1]
        a_cols = [(a, u.atom_column(a % n)) for a in rows]
        b_cols = [(b, u.atom_column(b % n)) for b in consequents[:cells]]
        for s in range(1, k):
            if s in kernel_steps:
                continue
            values = _relevances(states[s], a_cols, b_cols, cells)
            if not values:
                continue
            mean = _mean(values)
            if mean > epsilon:
                links.append(SatelliteLink(k, s, mean, len(values)))
    links.sort(key=lambda l: (l.kernel_step, l.satellite_step))
    return replace(report, satellites=tuple(links))


def transitional_coherence(
    sample_then: WorldSet,
    truth_now: World,
    kernels: KernelReport,
    states: Sequence[ReaderState],
    t_then: int,
    t_now: int,
) -> Fraction:
    """Mean truth proportion, over the earlier sample, of questions that span
    a kernel.

    For each kernel k in (t_then, t_now], antecedents are pre-kernel beliefs
    and consequents are newly decided post-kernel beliefs consistent with the
    later ground truth pulled back to the atoms ``sample_then`` decides; the
    kernels' questions are taken in kernel order and capped at
    ``MAX_QUESTIONS``. ``sample_then`` is a sample of ``states[t_then].worlds``,
    as the report's ``samples[k - 1]`` is. Requires t_then < t_now, at least
    one kernel in range, and a non-empty question set.
    """
    if not t_then < t_now:
        raise MetricError("question derivation needs t_then < t_now")
    in_range = [k for k in kernels.kernels if t_then < k <= t_now]
    if not in_range:
        raise MetricError(f"no kernel in ({t_then}, {t_now}]")
    # the atoms the sample decides, from the literal codes all of it holds
    n = sample_then.universe.atom_count
    held = sum(1 << c for c in _literal_split(sample_then, states[t_then].cube)[1])
    decided = (held | held >> n) & ~(-1 << n)
    # the literals on atoms the sample decides that the later truth falsifies
    contradicted = decided & truth_now.mask | (decided & ~truth_now.mask) << n
    pairs = []
    for k in in_range:
        antecedents, consequents = _kernel_sides(states, k, contradicted)
        cells = _grid_cells(len(antecedents), len(consequents))
        pairs += [(antecedents[i], consequents[j]) for i, j in cells]
    if not (pairs := pairs[:MAX_QUESTIONS]):
        raise MetricError("derived question set is empty")
    members, table = sample_then.own_column, sample_then.table
    counts = _implication_counts(
        members, pairs, lambda c: _holding(members, table.atom_column(c % n), c, n)
    )
    return Fraction(sum(counts), len(sample_then) * len(counts))

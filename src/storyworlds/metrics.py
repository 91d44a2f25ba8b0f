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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from typing import Iterable, Mapping, Sequence

from .conveyance import ReaderState
from .errors import EmptyWorldSetError, MetricError
from .filters import plausible_facts
from .logic import (
    Atom,
    ColumnTable,
    Formula,
    Implies,
    Not,
    Universe,
    World,
    check_bound,
    evaluate,
    truth_column,
)
from .story import formula_to_str
from .worlds import WorldSet


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

    def materialize(self) -> Formula:
        """The question as the implication formula A -> B."""
        return Implies(self.antecedent, self.consequent)

    def resolve_answers(self, truth: World | None = None) -> tuple[bool, bool]:
        if self.answers is not None:
            return self.answers
        if truth is None:
            raise MetricError(
                "question has no recorded answers and no ground-truth world was given"
            )
        return (evaluate(truth, self.antecedent), evaluate(truth, self.consequent))

    def __str__(self) -> str:
        return f"{formula_to_str(self.antecedent)} -> {formula_to_str(self.consequent)}"


def relevance(q: Question, prior: WorldSet, truth: World | None = None) -> float:
    """Entropy reduction the consequent gains from the antecedent, in bits.

    Computed as H(p) - H(p') where p is the prior proportion of worlds
    agreeing with the antecedent's true answer and p' is the proportion
    agreeing with the consequent's true answer among those worlds. Positive
    values mean the antecedent genuinely informs the consequent; independence
    yields exactly zero because both proportions coincide. The counts are
    those ``classify_satellites`` takes, over a grid of this one question.
    """
    values = _relevances(prior, *_question_grid((q,), truth))
    if not values:
        raise MetricError(
            "empty conditional sub-population: no prior world matches the antecedent's answer"
        )
    return values[0]


def _question_grid(
    questions: Iterable[Question], truth: World | None = None
) -> tuple[tuple, tuple, tuple[tuple[int, int], ...]]:
    """Index questions by side: each distinct (antecedent, answer) and each
    distinct (consequent, answer) once, in order of first use, plus every
    question's pair of side indices in question order."""
    antecedents: dict[tuple[Formula, bool], int] = {}
    consequents: dict[tuple[Formula, bool], int] = {}
    pairs = []
    for q in questions:
        a, b = q.resolve_answers(truth)
        i = antecedents.setdefault((q.antecedent, a), len(antecedents))
        j = consequents.setdefault((q.consequent, b), len(consequents))
        pairs.append((i, j))
    return tuple(antecedents), tuple(consequents), tuple(pairs)


def _relevances(
    prior: WorldSet,
    antecedents: Sequence[tuple[Formula, bool]],
    consequents: Sequence[tuple[Formula, bool]],
    pairs: Sequence[tuple[int, int]],
) -> list[float]:
    """The relevance of each indexed question over ``prior``, in question
    order, skipping questions whose antecedent answer no prior world holds.

    Each side's column is built once; each antecedent's sub-population, its
    count and its entropy are taken once for all the questions sharing it,
    so a question costs one intersection count and one entropy.
    """
    total = len(prior)
    if total == 0:
        raise EmptyWorldSetError("relevance needs a non-empty prior")
    members, table = prior.own_column, prior.table
    subs = [members & _answer_column(f, a, table) for f, a in antecedents]
    counts = [sub.bit_count() for sub in subs]
    # int / int is correctly rounded, so these equal float(Fraction(...)).
    entropies = [binary_entropy(n_a / total) for n_a in counts]
    cols = [_answer_column(f, b, table) for f, b in consequents]
    return [
        entropies[i] - binary_entropy((subs[i] & cols[j]).bit_count() / counts[i])
        for i, j in pairs
        if counts[i]
    ]


def _answer_column(f: Formula, answer: bool, table: ColumnTable) -> int:
    """The column of the worlds where ``f`` takes ``answer``."""
    col = truth_column(f, table)
    return col if answer else ~col


def _true_counts(sample: WorldSet, questions: Iterable[Question]) -> tuple[int, list[int]]:
    """The sample size and each question's true count over the sample, in
    question order: the members where its antecedent fails or its consequent
    holds. Each distinct antecedent's outside column and each distinct
    consequent's inside column is built once, so a question costs one
    popcount."""
    qs = tuple(questions)
    if not qs:
        raise MetricError("coherence needs a non-empty question set")
    total = len(sample)
    if total == 0:
        raise EmptyWorldSetError("coherence over an empty world set")
    members, table = sample.own_column, sample.table
    outside = {
        a: members & ~truth_column(a, table) for a in dict.fromkeys(q.antecedent for q in qs)
    }
    inside = {
        b: members & truth_column(b, table) for b in dict.fromkeys(q.consequent for q in qs)
    }
    return total, [(outside[q.antecedent] | inside[q.consequent]).bit_count() for q in qs]


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
    antecedents: Sequence[Formula], consequents: Sequence[Formula], max_questions: int
) -> tuple[Question, ...]:
    """Questions ``a -> b`` answered (true, true), antecedent-major in the
    given orders, capped at ``max_questions``."""
    if max_questions < 0:
        raise ValueError(f"question cap {max_questions} is negative")
    pairs = (Question(a, b, (True, True)) for a in antecedents for b in consequents)
    return tuple(islice(pairs, max_questions))


def _literal_split(sample: WorldSet) -> tuple[int, list[Formula], list[tuple[Formula, int]]]:
    """The sample size, the ground literals every sampled world holds, and
    the literals a strict majority (but not all) of it holds with their hit
    counts; one popcount per atom, both lists unsorted."""
    total = len(sample)
    if total == 0:
        raise EmptyWorldSetError("cannot derive questions from an empty sample")
    members, table = sample.own_column, sample.table
    unanimous: list[Formula] = []
    majority: list[tuple[Formula, int]] = []
    for i, atom in enumerate(sample.universe.atoms):
        hits = (members & table.atom_column(i)).bit_count()
        for lit, count in ((atom, hits), (Not(atom), total - hits)):
            if count == total:
                unanimous.append(lit)
            elif 2 * count > total:
                majority.append((lit, count))
    return total, unanimous, majority


def derive_world_questions(
    sample: WorldSet, max_questions: int = 64
) -> tuple[Question, ...]:
    """Derive coherence questions from a sample of worlds.

    Antecedents are ground literals every sampled world agrees on; consequents
    are literals a strict majority (but not all) of the sample holds. Pairs
    are taken in canonical order and capped at ``max_questions``.
    """
    _, unanimous, majority = _literal_split(sample)
    return _question_pairs(
        sorted(unanimous, key=formula_to_str),
        sorted((lit for lit, _ in majority), key=formula_to_str),
        max_questions,
    )


def sample_coherence(
    sample: WorldSet, questions: Sequence[Question] = (), max_questions: int = 64
) -> tuple[int, Fraction | None, float | None]:
    """The question count, world coherence and mean question entropy of the
    given questions over the sample, or of its derived questions
    (``derive_world_questions(sample, max_questions)``) when none are given;
    ``(0, None, None)`` when there are no derived questions.

    Given questions are counted once. Derived ones are not built: every
    antecedent holds throughout the sample, so ``a -> b`` is true exactly
    where ``b`` holds, and question ``i`` of the antecedent-major grid has
    the hit count of majority literal ``i mod |M|``.
    """
    if questions:
        total, counts = _true_counts(sample, questions)
        entropies = [binary_entropy(c / total) for c in counts]
    else:
        if max_questions < 0:
            raise ValueError(f"question cap {max_questions} is negative")
        total, unanimous, majority = _literal_split(sample)
        n = min(max_questions, len(unanimous) * len(majority))
        if n == 0:
            return 0, None, None
        majority.sort(key=lambda pair: formula_to_str(pair[0]))
        row = [(c, binary_entropy(c / total)) for _, c in majority[:n]]
        counts, entropies = zip(*(row[i % len(row)] for i in range(n)))
    return len(counts), Fraction(sum(counts), total * len(counts)), _mean(entropies)


@dataclass(frozen=True)
class BooleanLattice:
    """Entailment DAG over equivalence classes of formulas.

    ``classes`` lists each equivalence class (formulas with identical truth
    tables), canonically ordered; ``edges`` holds every pair (i, j) with
    class i entailing class j, i.e. the full transitive closure of the
    order. ``sources`` are the classes no other class entails.
    """

    classes: tuple[tuple[Formula, ...], ...]
    edges: frozenset
    sources: tuple[int, ...]

    def transitive_reduction(self) -> frozenset:
        """Edges minus those implied by two-step paths (for display)."""
        redundant = {
            (i, j)
            for (i, j) in self.edges
            for (a, k) in self.edges
            if a == i and k != j and (k, j) in self.edges
        }
        return frozenset(self.edges - redundant)


def boolean_lattice(formulas: Iterable[Formula], universe: Universe) -> BooleanLattice:
    """Group formulas by logical equivalence and wire entailment edges.

    Equivalence and entailment are decided by exhaustive truth tables, so the
    universe must fit its enumeration bound. Collapsing equivalent formulas
    into one vertex keeps the graph acyclic.
    """
    check_bound(universe)
    by_column: dict[int, list[Formula]] = {}
    for f in formulas:
        by_column.setdefault(truth_column(f, universe), []).append(f)
    grouped = []
    for col, members in by_column.items():
        members = sorted(set(members), key=formula_to_str)
        grouped.append((formula_to_str(members[0]), col, tuple(members)))
    grouped.sort()
    columns = [col for _, col, _ in grouped]
    classes = tuple(members for _, _, members in grouped)
    edges = frozenset(
        (i, j)
        for i in range(len(columns))
        for j in range(len(columns))
        if i != j and columns[i] & ~columns[j] == 0
    )
    targets = {j for _, j in edges}
    sources = tuple(i for i in range(len(classes)) if i not in targets)
    return BooleanLattice(classes=classes, edges=edges, sources=sources)


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
    theta: Fraction
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
    for t in range(1, len(states)):
        before, after = states[t - 1].beliefs, states[t].beliefs
        changed = before ^ after
        union = before | after
        fraction = Fraction(len(changed), max(1, len(union)))
        steps.append(KernelStep(t, fraction, fraction > theta))
    return KernelReport(steps=tuple(steps), theta=theta)


def kernel_questions(
    states: Sequence[ReaderState],
    kernel_step: int,
    restrict: Mapping[Atom, bool] | None = None,
    max_questions: int = 64,
) -> tuple[Question, ...]:
    """Questions a kernel poses: pre-kernel beliefs implying the beliefs the
    kernel newly decided.

    Antecedents range over B(k-1), consequents over B(k) minus B(k-1); both
    in canonical order, capped. ``restrict`` (a partial atom assignment)
    drops consequents that contradict it. Answers are (true, true) by
    construction: both sides are held beliefs on their own side of the
    kernel.
    """
    if not 1 <= kernel_step < len(states):
        raise MetricError(f"kernel step {kernel_step} outside the state series")
    before = states[kernel_step - 1].beliefs
    after = states[kernel_step].beliefs
    antecedents = sorted(before, key=formula_to_str)
    consequents = sorted(after - before, key=formula_to_str)
    if restrict is not None:
        consequents = [c for c in consequents if _consistent_with(c, restrict)]
    return _question_pairs(antecedents, consequents, max_questions)


def _consistent_with(literal: Formula, restrict: Mapping[Atom, bool]) -> bool:
    if isinstance(literal, Not) and isinstance(literal.operand, Atom):
        atom, value = literal.operand, False
    elif isinstance(literal, Atom):
        atom, value = literal, True
    else:
        return True
    return atom not in restrict or restrict[atom] == value


def classify_satellites(
    states: Sequence[ReaderState],
    report: KernelReport,
    epsilon: float = 0.0,
    max_questions: int = 64,
) -> KernelReport:
    """Label non-kernel steps as satellites of the kernels they support.

    A step s (1 <= s < k, not itself a kernel) is a satellite of kernel k
    when the mean relevance of k's question set, taken with the reader's
    world set at s as the prior, strictly exceeds ``epsilon``. Questions
    whose conditional sub-population is empty at s are skipped; a step with
    no evaluable question is not a satellite. Kernels need no satellites.

    Each kernel's antecedent x consequent grid is indexed once; at each
    prior, every literal's column is built once and every antecedent's
    sub-population counted once, then each question counts its consequent
    within it (the same counts ``relevance`` takes for one question).
    """
    links: list[SatelliteLink] = []
    kernel_steps = set(report.kernels)
    for k in report.kernels:
        questions = kernel_questions(states, k, max_questions=max_questions)
        if not questions:
            continue
        grid = _question_grid(questions)
        for s in range(1, k):
            if s in kernel_steps:
                continue
            values = _relevances(states[s].worlds, *grid)
            if not values:
                continue
            mean = _mean(values)
            if mean > epsilon:
                links.append(SatelliteLink(k, s, mean, len(values)))
    links.sort(key=lambda l: (l.kernel_step, l.satellite_step))
    return replace(report, satellites=tuple(links))


def pullback_restriction(truth_now: World, sample_then: WorldSet) -> dict[Atom, bool]:
    """Restrict a later ground-truth world to the atoms the earlier sample
    already decides (the maximal view of the truth visible at the earlier
    time)."""
    decided = {f.operand if isinstance(f, Not) else f for f in plausible_facts(sample_then)}
    return {a: truth_now.truth(a) for a in truth_now.universe.atoms if a in decided}


def transitional_coherence(
    sample_then: WorldSet,
    truth_now: World,
    kernels: KernelReport | None = None,
    questions: Iterable[Question] | None = None,
    *,
    t_then: int | None = None,
    t_now: int | None = None,
    states: Sequence[ReaderState] | None = None,
    max_questions: int = 64,
) -> Fraction:
    """Mean truth proportion, over the earlier sample, of questions that span
    a kernel.

    With an explicit question set this is a plain coherence evaluation at the
    earlier time. Otherwise questions are derived: for each kernel k in
    (t_then, t_now], antecedents are pre-kernel beliefs and consequents are
    newly decided post-kernel beliefs consistent with the later ground truth
    pulled back to the atoms ``sample_then`` decides. Derivation requires
    t_then < t_now, at least one kernel in range, and a non-empty derived
    set.
    """
    if questions is not None:
        return world_coherence(sample_then, questions)

    if kernels is None or states is None or t_then is None or t_now is None:
        raise MetricError(
            "deriving questions needs kernels=, states=, t_then= and t_now="
        )
    if not t_then < t_now:
        raise MetricError("question derivation needs t_then < t_now")
    in_range = [k for k in kernels.kernels if t_then < k <= t_now]
    if not in_range:
        raise MetricError(f"no kernel in ({t_then}, {t_now}]")
    restrict = pullback_restriction(truth_now, sample_then)
    qs = []
    for k in in_range:
        remaining = max_questions - len(qs)
        if remaining <= 0:
            break
        qs.extend(kernel_questions(states, k, restrict, remaining))
    if not qs:
        raise MetricError("derived question set is empty")
    return world_coherence(sample_then, qs)

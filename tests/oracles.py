"""Independent brute-force oracles for differential testing.

Kept deliberately naive and separate from the library's fast paths: world
enumeration loops over every assignment calling evaluate, the world-set
oracles loop over a set's worlds calling evaluate where the library works on
truth columns, the filter oracles check the axioms literally over all
subset pairs, and the formula parser walks the text character by character
where the library walks a token list.
"""

from __future__ import annotations

import math
from fractions import Fraction

from storyworlds import metrics
from storyworlds.errors import ParseError, UnknownAtomError
from storyworlds.logic import (
    NAME_RE,
    And,
    Atom,
    Constant,
    Formula,
    Implies,
    Not,
    Or,
    Universe,
    World,
    evaluate,
)
from storyworlds.metrics import Question, SatelliteLink
from storyworlds.story import MAX_FORMULA_DEPTH, formula_to_str


def float_mean(values) -> float:
    """Mean of floats added left to right, as the library adds them (builtin
    ``sum`` of floats is compensated from Python 3.12 on)."""
    values = list(values)
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def enumerate_models_bruteforce(props, universe: Universe) -> tuple[int, ...]:
    """All satisfying assignment masks, by looping over every assignment."""
    props = tuple(props)
    out = []
    for mask in range(1 << universe.atom_count):
        world = World(universe, mask)
        if all(evaluate(world, f) for f in props):
            out.append(mask)
    return tuple(out)


def listing_oracle(column: int) -> list[int]:
    """The set bits of a non-negative column, ascending, one bit at a time."""
    return [m for m in range(column.bit_length()) if column >> m & 1]


def entropy_oracle(p: Fraction) -> float:
    """Binary entropy of ``p`` in bits, 0 at 0 and 1: from ``math.log2`` of
    ``p`` as a float, like ``metrics.binary_entropy``, so the values agree
    bit for bit."""
    if p in (0, 1):
        return 0.0
    pf = float(p)
    return -(pf * math.log2(pf) + (1.0 - pf) * math.log2(1.0 - pf))


def truth_proportion_oracle(worlds, q) -> Fraction:
    """Fraction of the worlds in which ``q`` holds, one world at a time."""
    worlds = tuple(worlds)
    return Fraction(sum(1 for w in worlds if evaluate(w, q)), len(worlds))


def coherence_oracle(questions, worlds) -> tuple[Fraction, float]:
    """World coherence and mean question entropy: each question's implication
    evaluated world by world, then the exact mean of the proportions and the
    float mean of their entropies, added left to right in question order."""
    worlds = tuple(worlds)
    props = [truth_proportion_oracle(worlds, Implies(q.antecedent, q.consequent)) for q in questions]
    return sum(props, Fraction(0)) / len(props), float_mean(map(entropy_oracle, props))


def agreement_oracle(worlds, rho) -> bool:
    """True iff every world satisfies every formula of ``rho``."""
    return all(evaluate(w, r) for w in worlds for r in rho)


def beliefs_oracle(worlds) -> frozenset:
    """The ground literals true in every world."""
    worlds = tuple(worlds)
    literals = [lit for a in worlds[0].universe.atoms for lit in (a, Not(a))]
    return frozenset(lit for lit in literals if all(evaluate(w, lit) for w in worlds))


def plausible_facts_oracle(worlds) -> tuple[int, int]:
    """The cube ``(true_mask, false_mask)`` of the atoms every world decides
    alike: bit ``i`` of the first when atom ``i`` holds in every world, of
    the second when it holds in none."""
    worlds = tuple(worlds)
    true = false = 0
    for i, a in enumerate(worlds[0].universe.atoms):
        values = {evaluate(w, a) for w in worlds}
        true |= (values == {True}) << i
        false |= (values == {False}) << i
    return true, false


def atom_hits_oracle(worlds, universe: Universe) -> tuple[int, ...]:
    """For each atom in canonical order, the number of worlds where it holds."""
    worlds = tuple(worlds)
    return tuple(sum(1 for w in worlds if evaluate(w, a)) for a in universe.atoms)


def support_mask_oracle(worlds, p) -> int:
    """Bit ``i`` set iff ``p`` holds in the ``i``-th world."""
    return sum(1 << i for i, w in enumerate(worlds) if evaluate(w, p))


def relevance_oracle(q, worlds, truth=None):
    """Relevance with the sub-population listed world by world; None where
    the library raises for an empty sub-population."""
    worlds = tuple(worlds)
    a, b = q.resolve_answers(truth)
    ind_a = q.antecedent if a else Not(q.antecedent)
    ind_b = q.consequent if b else Not(q.consequent)
    sub = [w for w in worlds if evaluate(w, ind_a)]
    if not sub:
        return None
    p_a = truth_proportion_oracle(worlds, ind_a)
    return entropy_oracle(p_a) - entropy_oracle(truth_proportion_oracle(sub, ind_b))


def kernel_beliefs_oracle(states, k) -> tuple[frozenset, frozenset]:
    """The literals every world at step k-1 decides, and those every world
    at step k decides but not every world at k-1, from listed worlds."""
    before = beliefs_oracle(tuple(states[k - 1].worlds))
    return before, beliefs_oracle(tuple(states[k].worlds)) - before


def kernel_grid_oracle(states, k) -> list:
    """Kernel ``k``'s questions: each pre-kernel belief implying each newly
    decided belief, sides in canonical order (the literal's text), cut at
    ``metrics.MAX_QUESTIONS``."""
    before, after = kernel_beliefs_oracle(states, k)
    grid = [
        Question(a, b, (True, True))
        for a in sorted(before, key=formula_to_str)
        for b in sorted(after, key=formula_to_str)
    ]
    return grid[: metrics.MAX_QUESTIONS]


def satellites_oracle(states, report, epsilon) -> tuple:
    """Satellite links by one ``relevance_oracle`` call per (kernel question,
    earlier non-kernel step), each prior listed world by world; each
    kernel's questions come from ``kernel_grid_oracle``."""
    links = []
    kernels = set(report.kernels)
    for k in report.kernels:
        questions = kernel_grid_oracle(states, k)
        for s in range(1, k):
            if s in kernels or not questions:
                continue
            listed = tuple(states[s].worlds)
            values = [relevance_oracle(q, listed) for q in questions]
            values = [v for v in values if v is not None]
            if values and float_mean(values) > epsilon:
                links.append(SatelliteLink(k, s, float_mean(values), len(values)))
    return tuple(sorted(links, key=lambda l: (l.kernel_step, l.satellite_step)))


def pullback_oracle(truth_now: World, worlds) -> dict:
    """The truth world restricted to the atoms all ``worlds`` agree on."""
    worlds = tuple(worlds)
    return {
        a: truth_now.truth(a)
        for a in truth_now.universe.atoms
        if len({evaluate(w, a) for w in worlds}) == 1
    }


def transitional_grids_oracle(sample_then, truth_now, states, kernels) -> list:
    """For each kernel k, in order, its uncapped transitional questions: each
    literal decided by every world at k-1, implying each literal decided at
    k but not at k-1 that agrees with the truth on every atom all of
    ``sample_then`` decides. Beliefs and the pullback come from listed
    worlds; sides are in canonical order (the literal's text)."""
    listed = tuple(sample_then)
    restrict = pullback_oracle(truth_now, listed)
    grids = []
    for k in kernels:
        before, after = kernel_beliefs_oracle(states, k)
        # a literal contradicts the pulled-back truth iff its atom is decided
        # and the truth world falsifies it
        consequents = [
            c
            for c in after
            if (c.operand if isinstance(c, Not) else c) not in restrict or evaluate(truth_now, c)
        ]
        grids.append(
            [
                Question(a, b, (True, True))
                for a in sorted(before, key=formula_to_str)
                for b in sorted(consequents, key=formula_to_str)
            ]
        )
    return grids


def transitional_oracle(sample_then, truth_now, states, kernels):
    """Transitional coherence over ``sample_then`` of the kernels' questions,
    concatenated in kernel order and cut at ``metrics.MAX_QUESTIONS``, each
    implication evaluated world by world; None when no question is left."""
    grids = transitional_grids_oracle(sample_then, truth_now, states, kernels)
    questions = [q for grid in grids for q in grid][: metrics.MAX_QUESTIONS]
    if not questions:
        return None
    return coherence_oracle(questions, sample_then)[0]


def weak_filter_oracle(members, base_size: int) -> bool:
    """Literal axiom check: non-empty, closed upward over all subset pairs,
    and no subset present together with its complement."""
    fam = frozenset(members)
    if not fam:
        return False
    full = (1 << base_size) - 1
    for x in fam:
        for y in range(1 << base_size):
            if x & y == x and y not in fam:
                return False
    for x in range(1 << base_size):
        if x in fam and (full ^ x) in fam:
            return False
    return True


def weak_ultrafilter_oracle(members, base_size: int) -> bool:
    """Literal axiom check with the biconditional over every subset."""
    fam = frozenset(members)
    if not fam:
        return False
    full = (1 << base_size) - 1
    for x in fam:
        for y in range(1 << base_size):
            if x & y == x and y not in fam:
                return False
    for x in range(1 << base_size):
        if (x in fam) != ((full ^ x) not in fam):
            return False
    return True


class CharFormulaParser:
    """Recursive-descent parser for a single formula string, one character
    at a time: ``skip_ws``, ``peek`` and ``eat`` walk ``pos`` over the text."""

    def __init__(self, text: str, universe: Universe, line: int, col_offset: int):
        self.text = text.split("#", 1)[0]
        self.universe = universe
        self.line = line
        self.col_offset = col_offset
        self.pos = 0
        self.depth = 0

    def fail(self, message: str, pos: int | None = None):
        at = self.pos if pos is None else pos
        raise ParseError(message, self.line, self.col_offset + at + 1)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos : self.pos + 2]

    def eat(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.eat(token):
            self.fail(f"expected '{token}'")

    def name(self) -> tuple[str, int]:
        self.skip_ws()
        m = NAME_RE.match(self.text, self.pos)
        if not m:
            self.fail("expected a name")
        self.pos = m.end()
        return m.group(), m.start()

    def parse(self) -> Formula:
        f = self.implication()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail("unexpected trailing input")
        return f

    def nested(self, parse) -> Formula:
        """``parse()`` one nesting level further in."""
        self.depth += 1
        if self.depth > MAX_FORMULA_DEPTH:
            self.fail(f"formula nested deeper than {MAX_FORMULA_DEPTH} levels")
        f = parse()
        self.depth -= 1
        return f

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.eat("->"):
            return Implies(left, self.nested(self.implication))
        return left

    def disjunction(self) -> Formula:
        items = [self.conjunction()]
        while self.peek()[:1] == "|":
            self.eat("|")
            items.append(self.conjunction())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def conjunction(self) -> Formula:
        items = [self.unary()]
        while self.peek()[:1] == "&":
            self.eat("&")
            items.append(self.unary())
        return items[0] if len(items) == 1 else And(tuple(items))

    def unary(self) -> Formula:
        if self.eat("!"):
            return Not(self.nested(self.unary))
        return self.primary()

    def primary(self) -> Formula:
        if self.eat("("):
            f = self.nested(self.implication)
            self.expect(")")
            return f
        word, start = self.name()
        if word == "true":
            return Constant(True)
        if word == "false":
            return Constant(False)
        self.expect("(")
        args = [self.name()[0]]
        while self.eat(","):
            args.append(self.name()[0])
        self.expect(")")
        atom = Atom(word, tuple(args))
        try:
            self.universe.check_atom(atom)
        except UnknownAtomError as e:
            self.fail(str(e), start)
        return atom


def parse_formula_oracle(
    text: str, universe: Universe, line: int = 1, col_offset: int = 0
) -> Formula:
    """``story.parse_formula`` by the character-level parser."""
    return CharFormulaParser(text, universe, line, col_offset).parse()

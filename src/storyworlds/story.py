"""Story file parsing and the timeline types built on it.

File format (UTF-8 text, ``#`` starts a comment anywhere on a line)::

    sort person: jay, ali
    rel wears(person, color)

    t=0:
    + wears(jay,blue)
    - wears(jay,red)

Declarations (``sort``, ``rel``) must precede the timeline blocks. Each
``t=k:`` block lists additions (``+``) and removals (``-``) relative to the
previous step; block labels must run 0, 1, 2, ... Formulas use ``name(args)``,
``!``, ``&``, ``|``, ``->``, parentheses, and the constants ``true`` and
``false``. Operator precedence, tightest first: ``!``, ``&``, ``|``, ``->``
(right-associative).

The serializer emits the same grammar bit-exactly for canonical timelines, so
``parse_story(serialize_timeline(t))`` reproduces ``t``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

from .errors import (
    InconsistentFabulaError,
    InconsistentStepError,
    ParseError,
    UniverseError,
    UniverseMismatchError,
    UnknownAtomError,
)
from .logic import (
    NAME_RE,
    And,
    Atom,
    Constant,
    Formula,
    Implies,
    Not,
    Or,
    Universe,
    check_atom_count,
    consistent,
    declare_relation,
    declare_sort,
    models_column,
    truth_column,
)

_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_NOT = 4
_PREC_PRIMARY = 5


def _precedence(f: Formula) -> int:
    if isinstance(f, Implies):
        return _PREC_IMPLIES
    if isinstance(f, Or):
        return _PREC_OR
    if isinstance(f, And):
        return _PREC_AND
    if isinstance(f, Not):
        return _PREC_NOT
    return _PREC_PRIMARY


def formula_to_str(f: Formula) -> str:
    """Canonical textual form; the parser maps it back to an equal formula."""
    if isinstance(f, Atom):
        return f"{f.relation}({','.join(f.args)})"
    if isinstance(f, Constant):
        return "true" if f.value else "false"
    if isinstance(f, Not):
        return "!" + _wrap(f.operand, _PREC_NOT)
    if isinstance(f, And):
        return " & ".join(_wrap(i, _PREC_AND + 1) for i in f.items)
    if isinstance(f, Or):
        return " | ".join(_wrap(i, _PREC_OR + 1) for i in f.items)
    if isinstance(f, Implies):
        left = _wrap(f.antecedent, _PREC_IMPLIES + 1)
        right = _wrap(f.consequent, _PREC_IMPLIES)
        return f"{left} -> {right}"
    raise TypeError(f"not a formula: {f!r}")


def _wrap(f: Formula, minimum: int) -> str:
    text = formula_to_str(f)
    return f"({text})" if _precedence(f) < minimum else text


#: Deepest nesting of parentheses, negations and implication chains that a
#: formula may have. Every stage walks formulas recursively, so the parser
#: refuses deeper input rather than let a later stage exhaust the stack.
MAX_FORMULA_DEPTH = 100


#: One token of formula text, after the spaces and tabs before it: ``->``, a
#: name, any other single character, or "" at the end of the text.
_TOKEN_RE = re.compile(rf"[ \t]*(->|{NAME_RE.pattern}|.|\Z)", re.S)
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


class _FormulaParser:
    """Recursive-descent parser for a single formula string.

    The text before any ``#`` becomes a token list from one ``findall`` of
    ``_TOKEN_RE``, walked by index; the last token is always "". Columns are
    recomputed, from a ``finditer`` of the same pattern, only for an error.
    """

    def __init__(
        self, text: str, universe: Universe, line: int, col_offset: int, source: str | None
    ):
        self.text = text.split("#", 1)[0]
        self.tokens = _TOKEN_RE.findall(self.text)
        self.universe = universe
        self.line = line
        self.col_offset = col_offset
        self.source = source
        self.i = 0
        self.depth = 0

    def fail(self, message: str, i: int | None = None, after: bool = False):
        """Raise at the start of token ``i`` (default: the current one), or
        just past its end when ``after``."""
        m = list(_TOKEN_RE.finditer(self.text))[self.i if i is None else i]
        at = m.end(1) if after else m.start(1)
        raise ParseError(message, self.line, self.col_offset + at + 1, self.source)

    def expect(self, token: str) -> None:
        if self.tokens[self.i] != token:
            self.fail(f"expected '{token}'")
        self.i += 1

    def name(self) -> str:
        word = self.tokens[self.i]
        if word[:1] not in _NAME_START:
            self.fail("expected a name")
        self.i += 1
        return word

    def parse(self) -> Formula:
        f = self.implication()
        if self.tokens[self.i]:
            self.fail("unexpected trailing input")
        return f

    def nested(self, parse) -> Formula:
        """Step past the current token and ``parse()`` one nesting level further in."""
        self.depth += 1
        if self.depth > MAX_FORMULA_DEPTH:
            self.fail(f"formula nested deeper than {MAX_FORMULA_DEPTH} levels", after=True)
        self.i += 1
        f = parse()
        self.depth -= 1
        return f

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.tokens[self.i] == "->":
            return Implies(left, self.nested(self.implication))
        return left

    def disjunction(self) -> Formula:
        items = [self.conjunction()]
        while self.tokens[self.i] == "|":
            self.i += 1
            items.append(self.conjunction())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def conjunction(self) -> Formula:
        items = [self.unary()]
        while self.tokens[self.i] == "&":
            self.i += 1
            items.append(self.unary())
        return items[0] if len(items) == 1 else And(tuple(items))

    def unary(self) -> Formula:
        if self.tokens[self.i] == "!":
            return Not(self.nested(self.unary))
        return self.primary()

    def primary(self) -> Formula:
        if self.tokens[self.i] == "(":
            f = self.nested(self.implication)
            self.expect(")")
            return f
        start = self.i
        word = self.name()
        if word in ("true", "false"):
            return Constant(word == "true")
        self.expect("(")
        args = [self.name()]
        while self.tokens[self.i] == ",":
            self.i += 1
            args.append(self.name())
        self.expect(")")
        atom = Atom(word, tuple(args))
        try:
            self.universe.check_atom(atom)
        except UnknownAtomError as e:
            self.fail(str(e), start)
        return atom


def parse_formula(
    text: str, universe: Universe, line: int = 1, col_offset: int = 0, source: str | None = None
) -> Formula:
    """Parse one formula; atoms are validated against ``universe``. A
    ParseError gives ``line`` and the column, or, when ``source`` names the
    text (a flag or config key), that name and the column."""
    return _FormulaParser(text, universe, line, col_offset, source).parse()


def parse_formula_list(
    text: str, universe: Universe, source: str, offset: int = 0
) -> Iterator[Formula]:
    """Parse the ``;``-separated formulas of ``text`` in order, each stripped,
    skipping empty ones. ``text`` starts at column ``offset + 1`` of the text
    named ``source``; a ParseError names ``source`` and its column there."""
    for entry in text.split(";"):
        body = entry.strip()
        if body:
            lead = len(entry) - len(entry.lstrip())
            yield parse_formula(body, universe, col_offset=offset + lead, source=source)
        offset += len(entry) + 1


class Fabula:
    """A consistent set of asserted propositions.

    ``propositions`` is the frozenset of distinct formulas and ``column`` the
    truth column of their conjunction (bit ``m`` set iff assignment mask
    ``m`` is a model). Building the column checks every atom against the
    universe (UnknownAtomError). Iteration and ``repr`` use canonical order:
    lexicographic by serialized form. Construction fails with
    InconsistentFabulaError (carrying a greedily minimized conflicting
    subset, in canonical order) when no world satisfies the set.
    """

    __slots__ = ("universe", "propositions", "column")

    def __init__(self, universe: Universe, propositions: Iterable[Formula] = ()):
        props = frozenset(propositions)
        column = models_column(props, universe)
        if not column:
            conflict = _minimal_conflict(sorted(props, key=formula_to_str), universe)
            raise InconsistentFabulaError(conflict, ", ".join(map(formula_to_str, conflict)))
        self.universe = universe
        self.propositions = props
        self.column = column

    def __iter__(self) -> Iterator[Formula]:
        return iter(sorted(self.propositions, key=formula_to_str))

    def __len__(self) -> int:
        return len(self.propositions)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Fabula)
            and self.universe == other.universe
            and self.propositions == other.propositions
        )

    def __hash__(self) -> int:
        return hash((self.universe, self.propositions))

    def __repr__(self) -> str:
        inner = ", ".join(formula_to_str(f) for f in self)
        return f"Fabula({{{inner}}})"


def _minimal_conflict(props: list, universe: Universe) -> tuple:
    core = list(props)
    for f in list(core):
        trial = [g for g in core if g is not f]
        if not consistent(trial, universe):
            core = trial
    return tuple(core)


@dataclass(frozen=True)
class TransitionEdit:
    """A fabula edit: formulas to add and formulas to retract."""

    additions: frozenset
    removals: frozenset

    def __post_init__(self):
        object.__setattr__(self, "additions", frozenset(self.additions))
        object.__setattr__(self, "removals", frozenset(self.removals))
        overlap = self.additions & self.removals
        if overlap:
            names = ", ".join(sorted(formula_to_str(f) for f in overlap))
            raise ValueError(f"add/remove conflict: {names}")


def delta(prev: Fabula, next_: Fabula) -> TransitionEdit:
    """Exact set difference between adjacent fabulas (additions and removals)."""
    if prev.universe != next_.universe:
        raise UniverseMismatchError("fabulas belong to different universes")
    return TransitionEdit(
        additions=next_.propositions - prev.propositions,
        removals=prev.propositions - next_.propositions,
    )


def apply_transition(fabula: Fabula, edit: TransitionEdit) -> Fabula:
    """Apply ``edit`` to ``fabula``: remove, then add.

    Raises InconsistentFabulaError when the result has no satisfying world.
    Removing an absent formula is a no-op. When the edit removes nothing
    present, the new column is the old one ANDed with the new additions'
    columns; an edit that removes, or an inconsistent one, rebuilds.
    """
    old, u = fabula.propositions, fabula.universe
    props = (old - edit.removals) | edit.additions
    if old.isdisjoint(edit.removals):
        column = fabula.column
        for f in edit.additions - old:
            column &= truth_column(f, u)
        if column:
            result = Fabula.__new__(Fabula)
            result.universe, result.propositions, result.column = u, props, column
            return result
    return Fabula(u, props)


@dataclass(frozen=True)
class Timeline:
    """A universe plus the fabula at each time step, F(0..T)."""

    universe: Universe
    steps: tuple[Fabula, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps:
            raise ValueError("empty timeline")
        for fab in self.steps:
            if fab.universe != self.universe:
                raise UniverseMismatchError("timeline step over a different universe")


_DECLARATION_RES = {
    "sort": re.compile(rf"sort\s+({NAME_RE.pattern})\s*:\s*(.*)$"),
    "rel": re.compile(rf"rel\s+({NAME_RE.pattern})\s*\(\s*([^)]*)\s*\)\s*$"),
}
# the label's digits less leading zeros, compared as text: int() refuses
# more than 4300 digits
_BLOCK_RE = re.compile(r"t\s*=\s*0*([0-9]+)\s*:\s*$")


def parse_story(source: str | TextIO, bound: int | None = None) -> Timeline:
    """Parse a story file into a Timeline.

    Diagnostics carry line and column. Raises ParseError for syntax and
    naming problems, including an empty timeline, add/remove conflicts (at
    the block's line) and a declaration ``logic`` refuses (at its own line),
    and InconsistentStepError when a step's accumulated fabula is
    unsatisfiable. ``bound`` becomes the universe's enumeration bound
    (``DEFAULT_ATOM_BOUND`` when None), which every later exhaustive
    operation on the timeline reads; a universe over it is refused here,
    from its declared sizes, before any atom is grounded.
    """
    text = source.read() if hasattr(source, "read") else source
    sorts: dict[str, tuple[str, ...]] = {}
    relations: dict[str, tuple[str, ...]] = {}
    # each declaration as (is a rel, line, column, name, listed items)
    declarations: list[tuple[bool, int, int, str, list[str]]] = []
    universe: Universe | None = None
    # each block's line and the formulas it adds ("+") and removes ("-")
    blocks: list[tuple[int, dict[str, set[Formula]]]] = []
    parsed: dict[str, Formula] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.lstrip()
        if not stripped:
            continue
        at = len(line) - len(stripped) + 1

        # assertions first: most lines are, and no other line starts with + or -
        if stripped[0] in "+-":
            if not blocks:
                raise ParseError("assertion outside any t= block", line_no, at)
            body = stripped[1:]
            # each distinct assertion text is parsed once
            f = parsed.get(body)
            if f is None:
                f = parsed[body] = parse_formula(body, universe, line_no, at)
            blocks[-1][1][stripped[0]].add(f)
            continue

        keyword = stripped.partition(" ")[0]
        if keyword in _DECLARATION_RES:
            if universe is not None:
                raise ParseError("declarations must precede timeline blocks", line_no, at)
            m = _DECLARATION_RES[keyword].match(stripped)
            if not m:
                raise ParseError(f"malformed {keyword} declaration", line_no, at)
            items = [i.strip() for i in m.group(2).split(",") if i.strip()]
            declarations.append((keyword == "rel", line_no, at, m.group(1), items))
            continue

        m = _BLOCK_RE.match(stripped)
        if m:
            if universe is None:
                # sorts first, so a relation may use a sort declared below it
                for is_rel, decl_line, decl_at, name, items in sorted(declarations):
                    try:
                        if is_rel:
                            declare_relation(relations, sorts, name, items)
                        else:
                            declare_sort(sorts, name, items)
                    except UniverseError as e:
                        raise ParseError(str(e), decl_line, decl_at) from None
                atom_count = sum(math.prod(len(sorts[s]) for s in a) for a in relations.values())
                check_atom_count(atom_count, bound)
                universe = Universe(sorts, relations.items(), bound)
            if m.group(1) != str(len(blocks)):
                raise ParseError(f"expected block t={len(blocks)}, got t={m.group(1)}", line_no, at)
            blocks.append((line_no, {"+": set(), "-": set()}))
            continue

        raise ParseError(f"unrecognized line: '{stripped}'", line_no, at)

    if not blocks:
        raise ParseError("empty timeline: no t= blocks", len(text.splitlines()) + 1, 1)

    steps: list[Fabula] = []
    fab = Fabula(universe, ())
    for k, (block_line, edit) in enumerate(blocks):
        try:
            transition = TransitionEdit(edit["+"], edit["-"])
        except ValueError as e:  # a formula both added and removed
            raise ParseError(str(e), block_line, 1) from None
        try:
            fab = apply_transition(fab, transition)
        except InconsistentFabulaError as e:
            raise InconsistentStepError(k, e.conflict, e.subset, block_line) from e
        steps.append(fab)

    return Timeline(universe, tuple(steps))


def serialize_timeline(timeline: Timeline) -> str:
    """Canonical story-file text; round-trips through parse_story exactly."""
    out: list[str] = []
    for name, constants in timeline.universe.sorts.items():
        out.append(f"sort {name}: {', '.join(constants)}")
    for rel, arg_sorts in timeline.universe.relations.items():
        out.append(f"rel {rel}({', '.join(arg_sorts)})")
    prev = Fabula(timeline.universe, ())
    for k, fab in enumerate(timeline.steps):
        out.append("")
        out.append(f"t={k}:")
        edit = delta(prev, fab)
        for f in sorted(edit.additions, key=formula_to_str):
            out.append(f"+ {formula_to_str(f)}")
        for f in sorted(edit.removals, key=formula_to_str):
            out.append(f"- {formula_to_str(f)}")
        prev = fab
    return "\n".join(out) + "\n"

"""Propositional logic over finite typed universes.

A universe declares constant sorts and relation signatures; grounding every
relation over its argument sorts yields a finite, canonically ordered list of
atoms. A world is a total truth assignment over those atoms, packed into an
integer bitmask (bit ``i`` holds the truth of atom ``i``). Consistency and
entailment are decided by exhaustive enumeration, vectorised as bitwise
operations on truth columns: a formula's column is an integer whose bit ``m``
is the formula's value under assignment mask ``m``. A formula's column is
unmasked (negation is ``~``, so it may be negative); a set of assignments,
such as ``models_column`` returns, is always a non-negative column below
``2**atom_count``, and intersecting with it gives the formula's truth on that
set. ``truth_column`` reads atom columns from a table: the universe is the
table of these ``2**n``-bit columns, and a sample's rank table holds its own
``k``-bit columns (bit ``r`` is its ``r``-th world).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Protocol, Sequence

from .errors import BoundExceededError, UniverseError, UnknownAtomError

#: Default cap on ground-atom count for exhaustive operations, taken by a
#: ``Universe`` built without a bound. Beyond its universe's bound,
#: enumeration refuses (BoundExceededError) rather than sampling silently.
DEFAULT_ATOM_BOUND = 24

#: Hard ceiling that no bound can raise. What bounds it is memory: every
#: analysed step keeps at most two truth columns over all 2**n assignments
#: (the narrator's fabula and the reader's world set), 8 MiB each at 26
#: atoms; a step whose channel changed nothing shares the narrator's column.
#: Nothing lists a set's worlds to sample it. Raising the ceiling waits for
#: measured time and peak memory at 24 atoms and above.
ATOM_CEILING = 26

#: A sort, constant or relation name: what the story grammar can spell.
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Formula:
    """Base class for formula nodes; subclasses are immutable values."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    """A ground atom: a relation name applied to constant names."""

    relation: str
    args: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))

    def key(self) -> tuple:
        """Canonical sort key: lexicographic by relation, then args."""
        return (self.relation, self.args)


@dataclass(frozen=True)
class Constant(Formula):
    """The constant formula ``true`` or ``false``."""

    value: bool


TRUE = Constant(True)
FALSE = Constant(False)


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    items: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        if len(self.items) < 2:
            raise ValueError("And requires at least two conjuncts")


@dataclass(frozen=True)
class Or(Formula):
    items: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        if len(self.items) < 2:
            raise ValueError("Or requires at least two disjuncts")


@dataclass(frozen=True)
class Implies(Formula):
    antecedent: Formula
    consequent: Formula


class Universe:
    """Typed constant sorts plus relation signatures.

    ``sorts`` maps each sort name to its ordered constants; ``relations`` is an
    iterable of ``(name, argument_sorts)`` pairs. Grounding is canonical:
    atoms are sorted lexicographically by relation name then argument tuple,
    which fixes each atom's index for the life of the universe. Declarations
    follow ``declare_sort`` and ``declare_relation``, as story lines do, so
    every atom prints as story text that parses back, and atom order is
    text order.

    ``negations`` holds one ``Not(atom)`` per atom, in atom order, built
    with the universe so that literal-producing code shares those objects.

    ``bound`` is the largest atom count that exhaustive operations over the
    universe accept (``DEFAULT_ATOM_BOUND`` when None; ``check_bound`` caps
    it at ``ATOM_CEILING``). It is decided once, here, and is not part of
    the universe's identity: universes with the same vocabulary are equal
    whatever their bounds.
    """

    __slots__ = (
        "_sorts", "_relations", "_atoms", "_index", "_columns", "_hash", "bound", "negations"
    )

    def __init__(
        self,
        sorts: Mapping[str, Sequence[str]],
        relations: Iterable[tuple[str, Sequence[str]]],
        bound: int | None = None,
    ):
        self.bound = DEFAULT_ATOM_BOUND if bound is None else bound
        self._sorts: dict[str, tuple[str, ...]] = {}
        self._relations: dict[str, tuple[str, ...]] = {}
        for name, constants in sorts.items():
            declare_sort(self._sorts, name, constants)
        for rel, arg_sorts in relations:
            declare_relation(self._relations, self._sorts, rel, arg_sorts)

        atoms = []
        for rel, arg_sorts in self._relations.items():
            atoms.extend(_ground_relation(rel, arg_sorts, self._sorts))
        atoms.sort(key=Atom.key)
        self._atoms: tuple[Atom, ...] = tuple(atoms)
        self.negations: tuple[Not, ...] = tuple(Not(a) for a in atoms)
        self._index: dict[Atom, int] = {a: i for i, a in enumerate(atoms)}
        self._columns: dict[int, int] = {}
        self._hash = hash((tuple(self._sorts.items()), tuple(self._relations.items())))

    @property
    def sorts(self) -> Mapping[str, tuple[str, ...]]:
        return dict(self._sorts)

    @property
    def relations(self) -> Mapping[str, tuple[str, ...]]:
        return dict(self._relations)

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return self._atoms

    @property
    def atom_count(self) -> int:
        return len(self._atoms)

    def atom(self, relation: str, *args: str) -> Atom:
        """Build and validate an atom of this universe."""
        a = Atom(relation, tuple(args))
        self.check_atom(a)
        return a

    def atom_index(self, atom: Atom) -> int:
        try:
            return self._index[atom]
        except KeyError:
            raise UnknownAtomError(self._describe_bad_atom(atom)) from None

    def check_atom(self, atom: Atom) -> None:
        self.atom_index(atom)

    def _describe_bad_atom(self, atom: Atom) -> str:
        rel = self._relations.get(atom.relation)
        if rel is None:
            return f"unknown relation '{atom.relation}'"
        if len(rel) != len(atom.args):
            return (
                f"relation '{atom.relation}' expects {len(rel)} argument(s), "
                f"got {len(atom.args)}"
            )
        for arg, sort in zip(atom.args, rel):
            if arg not in self._sorts[sort]:
                return f"'{arg}' is not a constant of sort '{sort}'"
        return f"unknown atom {atom.relation}({', '.join(atom.args)})"

    # -- truth columns -----------------------------------------------------

    def full_column(self) -> int:
        """All-ones column over the 2**atom_count assignment masks."""
        return (1 << (1 << self.atom_count)) - 1

    def atom_column(self, index: int) -> int:
        """Column of atom ``index``: bit m is set iff mask m sets atom ``index``."""
        col = self._columns.get(index)
        if col is None:
            half = 1 << index
            col = ((1 << half) - 1) << half
            width = half << 1
            total = 1 << self.atom_count
            while width < total:
                col |= col << width
                width <<= 1
            self._columns[index] = col
        return col

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Universe)
            and self._sorts == other._sorts
            and self._relations == other._relations
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"Universe(sorts={list(self._sorts)}, relations={list(self._relations)}, "
            f"atoms={self.atom_count})"
        )


def _check_names(*names: str) -> None:
    for name in names:
        if not NAME_RE.fullmatch(name):
            raise UniverseError(f"{name!r} is not a name of the story grammar")


def declare_sort(sorts: dict, name: str, constants: Iterable[str]) -> None:
    """Add the sort ``name`` to ``sorts``. UniverseError when a name is
    outside ``NAME_RE``, the sort is taken, or there are no constants or
    one repeats."""
    constants = tuple(constants)
    _check_names(name, *constants)
    if name in sorts:
        raise UniverseError(f"duplicate sort '{name}'")
    if not constants:
        raise UniverseError(f"sort '{name}' has no constants")
    if len(set(constants)) != len(constants):
        raise UniverseError(f"duplicate constant in sort '{name}'")
    sorts[name] = constants


def declare_relation(relations: dict, sorts: Mapping, name: str, arg_sorts: Iterable[str]) -> None:
    """Add the relation ``name`` over ``arg_sorts`` to ``relations``.
    UniverseError when the name is outside ``NAME_RE``, is ``true`` or
    ``false`` or is taken, or there are no argument sorts or one is not in
    ``sorts``."""
    arg_sorts = tuple(arg_sorts)
    _check_names(name)
    if name in ("true", "false"):
        raise UniverseError(f"relation '{name}' would read as a formula constant")
    if name in relations:
        raise UniverseError(f"duplicate relation '{name}'")
    if not arg_sorts:
        raise UniverseError(f"relation '{name}' must have arity >= 1")
    for s in arg_sorts:
        if s not in sorts:
            raise UniverseError(f"relation '{name}' uses undeclared sort '{s}'")
    relations[name] = arg_sorts


def _ground_relation(rel: str, arg_sorts: tuple[str, ...], sorts: Mapping) -> Iterator[Atom]:
    for args in itertools.product(*(sorts[s] for s in arg_sorts)):
        yield Atom(rel, args)


@dataclass(frozen=True)
class World:
    """A complete truth assignment: bit ``i`` of ``mask`` is atom ``i``."""

    universe: Universe
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.universe.atom_count):
            raise ValueError(f"mask {self.mask} outside assignment range")

    def truth(self, atom: Atom) -> bool:
        return bool(self.mask >> self.universe.atom_index(atom) & 1)

    def literals(self) -> tuple[Formula, ...]:
        """The world's ground-literal theory, in canonical atom order."""
        u = self.universe
        return tuple(a if self.mask >> i & 1 else u.negations[i] for i, a in enumerate(u.atoms))


def map_atoms(f: Formula, fn: Callable[[Atom], Atom]) -> Formula:
    """Rebuild ``f`` with every atom replaced by ``fn(atom)``."""
    if isinstance(f, Atom):
        return fn(f)
    if isinstance(f, Constant):
        return f
    if isinstance(f, Not):
        return Not(map_atoms(f.operand, fn))
    if isinstance(f, And):
        return And(tuple(map_atoms(i, fn) for i in f.items))
    if isinstance(f, Or):
        return Or(tuple(map_atoms(i, fn) for i in f.items))
    if isinstance(f, Implies):
        return Implies(map_atoms(f.antecedent, fn), map_atoms(f.consequent, fn))
    raise TypeError(f"not a formula: {f!r}")


def negate(f: Formula) -> Formula:
    """Negate ``f``, peeling a leading Not instead of stacking two."""
    return f.operand if isinstance(f, Not) else Not(f)


def evaluate(world: World, f: Formula) -> bool:
    """Truth of ``f`` in ``world`` under standard propositional semantics.

    ``Implies(a, b)`` is material implication. Atoms outside the world's
    universe raise UnknownAtomError.
    """
    if isinstance(f, Atom):
        return world.truth(f)
    if isinstance(f, Constant):
        return f.value
    if isinstance(f, Not):
        return not evaluate(world, f.operand)
    if isinstance(f, And):
        return all(evaluate(world, i) for i in f.items)
    if isinstance(f, Or):
        return any(evaluate(world, i) for i in f.items)
    if isinstance(f, Implies):
        return (not evaluate(world, f.antecedent)) or evaluate(world, f.consequent)
    raise TypeError(f"not a formula: {f!r}")


class ColumnTable(Protocol):
    """Where ``truth_column`` reads atom columns: a ``Universe`` (bit ``m`` is
    assignment mask ``m``) or a sample's ``worlds.RankTable`` (bit ``r`` is
    its ``r``-th world)."""

    def atom_index(self, atom: Atom) -> int: ...

    def atom_column(self, index: int) -> int: ...


def truth_column(f: Formula, table: ColumnTable) -> int:
    """Integer whose bit ``m`` is the truth of ``f`` at the table's world ``m``.

    Over a universe, world ``m`` is assignment mask ``m``; over a rank table,
    it is the ``m``-th world the table was built from. The column is
    unmasked: every bit past the table's worlds is the value of ``f`` with
    all atoms false (over a universe, that is bit 0), so the integer may be
    negative. Intersect it with a world set's ``own_column`` (or
    ``full_column()``) before counting bits.
    """
    if isinstance(f, Atom):
        return table.atom_column(table.atom_index(f))
    if isinstance(f, Constant):
        return -1 if f.value else 0
    if isinstance(f, Not):
        return ~truth_column(f.operand, table)
    if isinstance(f, And):
        col = truth_column(f.items[0], table)
        for item in f.items[1:]:
            col &= truth_column(item, table)
        return col
    if isinstance(f, Or):
        col = 0
        for item in f.items:
            col |= truth_column(item, table)
        return col
    if isinstance(f, Implies):
        return ~truth_column(f.antecedent, table) | truth_column(f.consequent, table)
    raise TypeError(f"not a formula: {f!r}")


def check_bound(universe: Universe) -> None:
    """Refuse exhaustive work over a universe with more atoms than its
    ``bound``, and over universes beyond ``ATOM_CEILING`` whatever the bound."""
    check_atom_count(universe.atom_count, universe.bound)


def check_atom_count(atom_count: int, bound: int | None) -> None:
    """``check_bound`` for a universe of ``atom_count`` atoms and ``bound``
    (``DEFAULT_ATOM_BOUND`` when None) that need not be built yet. A bound
    below 1 is a ValueError whatever the atom count: this is the one check
    of the bound's range."""
    if bound is not None and bound < 1:
        raise ValueError("bound must be positive")
    limit = min(DEFAULT_ATOM_BOUND if bound is None else bound, ATOM_CEILING)
    if atom_count > limit:
        raise BoundExceededError(atom_count, limit)


def models_column(props: Iterable[Formula], universe: Universe) -> int:
    """Truth column of the conjunction of ``props``: bit ``m`` is set iff
    assignment mask ``m`` satisfies every formula.

    Decided by exhaustive enumeration over all assignments (as bitwise
    column intersection), so the universe must fit its bound; the bound is
    checked before any column is built. Every formula's column is built,
    even once the conjunction is empty, so an atom outside the universe
    raises UnknownAtomError whatever order ``props`` iterates in.
    """
    check_bound(universe)
    col = universe.full_column()
    for f in props:
        col &= truth_column(f, universe)
    return col


def consistent(props: Iterable[Formula], universe: Universe) -> bool:
    """True iff at least one world satisfies every formula in ``props``."""
    return models_column(props, universe) != 0


def entails(props: Iterable[Formula], q: Formula, universe: Universe) -> bool:
    """True iff every world satisfying ``props`` also satisfies ``q``."""
    return models_column(props, universe) & ~truth_column(q, universe) == 0

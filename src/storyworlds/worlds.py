"""Enumeration and manipulation of possible-world sets.

A WorldSet is one truth column over the universe's assignments: bit ``m`` is
set iff the world with assignment mask ``m`` belongs to the set. Every
question about the set is a bitwise operation on that column; the worlds'
masks and World objects are listed on demand, canonically ordered by mask
ascending. Proportions are exact fractions; floats appear only at report
boundaries.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .errors import EmptyWorldSetError, UniverseMismatchError
from .logic import (
    Formula,
    Universe,
    World,
    check_bound,
    models_column,
    truth_column,
)
from .story import Fabula

#: For each byte value, the positions of its set bits, ascending.
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


class WorldSet:
    """An ordered, duplicate-free set of worlds over one universe, stored as
    a truth column."""

    __slots__ = ("universe", "column", "_masks", "_worlds")

    def __init__(self, universe: Universe, masks: Iterable[int]):
        top = 1 << universe.atom_count
        bits = bytearray((top + 7) // 8)
        for m in masks:
            if not 0 <= m < top:
                raise ValueError("world mask outside the universe's assignment range")
            bits[m >> 3] |= 1 << (m & 7)
        self.universe, self.column = universe, int.from_bytes(bits, "little")
        self._masks: tuple[int, ...] | None = None
        self._worlds: tuple[World, ...] | None = None

    @classmethod
    def from_column(cls, universe: Universe, column: int) -> "WorldSet":
        """The world set whose truth column is ``column``."""
        s = cls.__new__(cls)
        s.universe, s.column, s._masks, s._worlds = universe, column, None, None
        return s

    @property
    def masks(self) -> tuple[int, ...]:
        """Member masks, ascending, from one scan of the column's bytes."""
        if self._masks is None:
            col = self.column
            data = col.to_bytes((col.bit_length() + 7) // 8, "little")
            self._masks = tuple(
                base + i
                for base, byte in zip(range(0, len(data) << 3, 8), data)
                if byte
                for i in _BYTE_BITS[byte]
            )
        return self._masks

    @property
    def worlds(self) -> tuple[World, ...]:
        if self._worlds is None:
            self._worlds = tuple(World(self.universe, m) for m in self.masks)
        return self._worlds

    def __len__(self) -> int:
        return self.column.bit_count()

    def __iter__(self) -> Iterator[World]:
        return iter(self.worlds)

    def __getitem__(self, i: int) -> World:
        return self.worlds[i]

    def __contains__(self, world: World) -> bool:
        return world.universe == self.universe and bool(self.column >> world.mask & 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WorldSet)
            and self.universe == other.universe
            and self.column == other.column
        )

    def __hash__(self) -> int:
        return hash((self.universe, self.column))

    def __repr__(self) -> str:
        return f"WorldSet({len(self)} worlds over {self.universe.atom_count} atoms)"


def enumerate_models(
    fabula: Fabula | Iterable[Formula],
    universe: Universe | None = None,
    bound: int | None = None,
) -> WorldSet:
    """All worlds satisfying the fabula, in canonical (mask-ascending) order.

    Accepts a Fabula (universe and model column taken from it) or a plain
    formula collection with an explicit universe. Refuses universes beyond
    the enumeration bound.
    """
    if isinstance(fabula, Fabula):
        check_bound(fabula.universe, bound)
        return WorldSet.from_column(fabula.universe, fabula.column)
    if universe is None:
        raise ValueError("universe required when not passing a Fabula")
    return WorldSet.from_column(universe, models_column(fabula, universe, bound))


def intersect(a: WorldSet, b: WorldSet) -> WorldSet:
    """Set intersection of two world sets over the same universe."""
    if a.universe != b.universe:
        raise UniverseMismatchError("cannot intersect world sets over different universes")
    return WorldSet.from_column(a.universe, a.column & b.column)


def truth_proportion(s: WorldSet, q: Formula) -> Fraction:
    """Exact fraction of worlds in ``s`` where ``q`` holds."""
    total = len(s)
    if total == 0:
        raise EmptyWorldSetError("truth proportion over an empty world set")
    return Fraction((s.column & truth_column(q, s.universe)).bit_count(), total)


def agreement_check(shared: WorldSet, rho: Iterable[Formula]) -> bool:
    """True iff every world in ``shared`` satisfies every formula in ``rho``."""
    return all(
        shared.column & ~truth_column(r, shared.universe) == 0 for r in rho
    )


def sample_worlds(
    s: WorldSet,
    k: int,
    seed: int,
    score: Callable[[World], float] | None = None,
) -> WorldSet:
    """Deterministic subset of min(k, |s|) worlds.

    Without ``score``: uniform pseudo-random selection driven by ``seed``.
    With ``score``: the k highest-scoring worlds, ties broken by mask
    ascending (the selection hook for non-uniform notions of likelihood).
    The result keeps canonical order.
    """
    if k < 1:
        raise ValueError("sample size must be >= 1")
    if len(s) == 0:
        raise EmptyWorldSetError("cannot sample from an empty world set")
    if k >= len(s):
        return s
    if score is not None:
        chosen = sorted(s.worlds, key=lambda w: (-score(w), w.mask))[:k]
        return WorldSet(s.universe, (w.mask for w in chosen))
    rng = random.Random(seed)
    picks = rng.sample(range(len(s)), k)
    return WorldSet(s.universe, (s.masks[i] for i in picks))

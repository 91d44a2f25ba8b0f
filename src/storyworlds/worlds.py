"""Enumeration and manipulation of possible-world sets.

A WorldSet is held in one of two spaces, chosen by what it is built from.
Built from a truth column (every enumerated model set), it lives in universe
space: bit ``m`` of its column is set iff the world with assignment mask ``m``
belongs to the set, and its ``table`` is the universe, whose atom columns
have ``2**n`` bits. Built from masks (a sample), it keeps them ascending and
lives in its own rank space: bit ``r`` is its ``r``-th world, and its
``table`` is a ``RankTable`` of ``len(s)``-bit atom columns. Either way
``own_column`` holds the members in the set's space and
``truth_column(f, s.table)`` is ``f``'s column there, so every question about
the set is one bitwise operation on columns of its own width. A
universe-space set keeps no list of its members: a rank-select on the column
finds the world at any rank, and iteration streams that select in canonical
(mask-ascending) order. Proportions are exact fractions; floats appear only
at report boundaries.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import EmptyWorldSetError, UniverseMismatchError
from .logic import (
    Formula,
    Universe,
    World,
    models_column,
    truth_column,
)
from .story import Fabula

#: Bytes per block of the rank-select walk: one popcount per block.
_BLOCK = 128


def select_masks(column: int, ranks: Iterable[int]) -> Iterator[int]:
    """The masks of the members at strictly ascending ``ranks`` of a
    non-negative column.

    A walk over the column's bytes keeps the cumulative popcount of the
    ``_BLOCK``-byte blocks it has passed (Jacobson 1989; Vigna 2008): each
    rank skips whole blocks up to the one holding it, then halves that
    block's word down to its bit. The walk reads each block once and stops
    at the block of the last rank; a listing costs one step per member. A
    rank past the last member is found when the walk runs out of blocks.
    """
    data = column.to_bytes((column.bit_length() + 7) // 8, "little")
    offsets = iter(range(0, len(data), _BLOCK))
    # ``word`` is the current block past the last pick, ``base`` the mask of
    # its bit 0, ``at`` the rank of its lowest member, ``end`` the rank past
    # the block.
    base = word = at = end = 0
    last = -1
    for r in ranks:
        if not last < r:
            raise IndexError(f"rank {r} after rank {last}")
        while r >= end:
            offset = next(offsets, None)
            if offset is None:
                raise IndexError(f"rank {r} past the column's {end} members")
            word = int.from_bytes(data[offset : offset + _BLOCK], "little")
            base, at = offset * 8, end
            end += word.bit_count()
        # Halve the word towards the wanted bit until it is the lowest one.
        n, part, width, step = r - at, word, word.bit_length(), 0
        while n:
            width = (width + 1) >> 1
            low = part & ((1 << width) - 1)
            below = low.bit_count()
            if n < below:
                part = low
            else:
                n -= below
                part >>= width
                step += width
        step += (part & -part).bit_length()
        word >>= step
        base += step
        last, at = r, r + 1
        yield base - 1


class RankTable:
    """Atom columns over a list of worlds in rank space: bit ``r`` of atom
    ``i``'s column is atom ``i``'s truth in world ``masks[r]``."""

    __slots__ = ("atom_index", "columns")

    def __init__(self, universe: Universe, masks: Sequence[int]):
        n = universe.atom_count
        # Transpose through one binary string: mask r is the r-th row from
        # the end, so atom i's column is every n-th character.
        rows = "".join([format(m, f"0{n}b") for m in reversed(masks)])
        self.atom_index = universe.atom_index
        self.columns = tuple(int(rows[n - 1 - i :: n] or "0", 2) for i in range(n))

    def atom_column(self, index: int) -> int:
        return self.columns[index]


class WorldSet:
    """A duplicate-free set of worlds over one universe, held as a truth
    column (universe space) or as its ascending masks (rank space)."""

    __slots__ = ("universe", "_column", "_masks", "_table", "_len")

    def __init__(self, universe: Universe, masks: Iterable[int]):
        masks = sorted(set(masks))
        if masks and not 0 <= masks[0] <= masks[-1] < 1 << universe.atom_count:
            raise ValueError("world mask outside the universe's assignment range")
        self.universe, self._column, self._masks = universe, None, tuple(masks)
        self._table: RankTable | None = None
        self._len = len(masks)

    @classmethod
    def from_column(cls, universe: Universe, column: int) -> "WorldSet":
        """The world set whose truth column is ``column``, in universe space."""
        s = cls.__new__(cls)
        s.universe, s._column, s._masks, s._table, s._len = universe, column, None, None, None
        return s

    @property
    def column(self) -> int:
        """The truth column over the universe: bit ``m`` set iff world ``m``
        is a member (built from the masks, uncached, for a rank-space set)."""
        if self._column is not None:
            return self._column
        bits = bytearray(((1 << self.universe.atom_count) + 7) // 8)
        for m in self._masks:
            bits[m >> 3] |= 1 << (m & 7)
        return int.from_bytes(bits, "little")

    @property
    def own_column(self) -> int:
        """The members as a column of the set's own space: its truth column,
        or the low ``len(self)`` bits in rank space."""
        if self._masks is None:
            return self._column
        return (1 << len(self._masks)) - 1

    @property
    def table(self) -> Universe | RankTable:
        """Where ``truth_column`` reads the set's atom columns: the universe
        in universe space, the set's own ``RankTable`` in rank space."""
        if self._masks is None:
            return self.universe
        if self._table is None:
            self._table = RankTable(self.universe, self._masks)
        return self._table

    def select(self, ranks: Iterable[int]) -> Iterator[int]:
        """The masks of the members at strictly ascending ``ranks``."""
        if self._masks is None:
            return select_masks(self._column, ranks)
        return map(self._masks.__getitem__, ranks)

    def ranked(self) -> "WorldSet":
        """The same set held in rank space."""
        return self if self._masks is not None else WorldSet(self.universe, self.masks)

    @property
    def masks(self) -> tuple[int, ...]:
        """Member masks, ascending (selected anew for a universe-space set)."""
        if self._masks is not None:
            return self._masks
        return tuple(self.select(range(len(self))))

    def __len__(self) -> int:
        # a universe-space set counts its column once
        if self._len is None:
            self._len = self._column.bit_count()
        return self._len

    def __iter__(self) -> Iterator[World]:
        """The member worlds, ascending, streamed from the select."""
        return (World(self.universe, m) for m in self.select(range(len(self))))

    def __getitem__(self, i: int) -> World:
        n = len(self)
        if not -n <= i < n:
            raise IndexError("world set index out of range")
        return World(self.universe, next(self.select((i % n,))))

    def __contains__(self, world: World) -> bool:
        if world.universe != self.universe:
            return False
        if self._masks is None:
            return bool(self._column >> world.mask & 1)
        return world.mask in self._masks

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
) -> WorldSet:
    """All worlds satisfying the fabula, in canonical (mask-ascending) order.

    Accepts a Fabula (universe and model column taken from it; the column
    was built under its universe's bound) or a plain formula collection with
    an explicit universe, which is refused when it exceeds its bound.
    """
    if isinstance(fabula, Fabula):
        return WorldSet.from_column(fabula.universe, fabula.column)
    if universe is None:
        raise ValueError("universe required when not passing a Fabula")
    return WorldSet.from_column(universe, models_column(fabula, universe))


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
    return Fraction((s.own_column & truth_column(q, s.table)).bit_count(), total)


def agreement_check(shared: WorldSet, rho: Iterable[Formula]) -> bool:
    """True iff every world in ``shared`` satisfies every formula in ``rho``."""
    col, table = shared.own_column, shared.table
    return all(col & ~truth_column(r, table) == 0 for r in rho)


def sample_worlds(s: WorldSet, k: int, seed: int) -> WorldSet:
    """Deterministic, uniform pseudo-random subset of min(k, |s|) worlds,
    driven by ``seed``, in canonical order: ``s`` itself when ``k >= |s|``,
    otherwise held in rank space.

    The seed picks ranks; the rank-select turns them into masks, so the set
    is never listed.
    """
    if k < 1:
        raise ValueError("sample size must be >= 1")
    n = len(s)
    if n == 0:
        raise EmptyWorldSetError("cannot sample from an empty world set")
    if k >= n:
        return s
    picks = random.Random(seed).sample(range(n), k)
    return WorldSet(s.universe, s.select(sorted(picks)))

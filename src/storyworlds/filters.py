"""Weak filters and weak ultrafilters over finite world sets.

A weak filter over a base world set M is a non-empty family of subsets of M
that is upward closed and never contains both a subset and its complement.
A weak ultrafilter additionally decides every subset-or-complement pair.
Subsets are bitmasks over the base's canonical world order (bit ``i`` is
``base[i]``, the base's rank space, where ``support_mask`` evaluates
formulas); this is weaker than a classical filter, which would also be
closed under intersection.

Plausibility extraction and the reconciliation vote (ultraproduct) live here
as well. Plausible facts are a cube of two atom masks (the set's backbone),
folded from a universe-space column one atom per halving; beliefs exist only
as that cube, and every belief consumer reads the masks. The vote makes a
ground atom true exactly when the set of base worlds satisfying it belongs
to the ultrafilter. Extension is one membership rule; extending a principal
filter whose generator holds world 0, and voting over a principal
ultrafilter, take O(1) forms.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

from .errors import EmptyWorldSetError, FilterError
from .logic import Formula, World, truth_column
from .worlds import WorldSet

#: Largest base size for which member families are materialized extensionally.
EXTENSIONAL_BASE_LIMIT = 24


def support_mask(base: WorldSet, p: Formula) -> int:
    """Bitmask of the base worlds in which ``p`` is true (bit ``i`` is
    ``base[i]``): the truth column of ``p`` in the base's rank space."""
    ranked = base.ranked()
    return ranked.own_column & truth_column(p, ranked.table)


def _check_members(members: Iterable[int], base_size: int) -> frozenset:
    out = frozenset(members)
    top = 1 << base_size
    for m in out:
        if not 0 <= m < top:
            raise FilterError(f"member {m:#b} is not a subset of the base")
    return out


def _upward_closed(members: frozenset, base_size: int) -> bool:
    # One-step closure implies full closure: any superset is reachable by
    # adding single worlds.
    for x in members:
        for i in range(base_size):
            bit = 1 << i
            if not x & bit and (x | bit) not in members:
                return False
    return True


def is_weak_filter(members: Iterable[int], base: WorldSet) -> bool:
    """Check the weak filter axioms: non-empty, upward closed, and never
    both a set and its complement."""
    n = len(base)
    fam = _check_members(members, n)
    full = (1 << n) - 1
    return bool(fam) and _upward_closed(fam, n) and all(full ^ x not in fam for x in fam)


def is_weak_ultrafilter(members: Iterable[int], base: WorldSet) -> bool:
    """Check the weak ultrafilter axioms: a weak filter that decides every
    subset-or-complement pair.

    Deciding every pair while holding no complementary pair forces exactly
    one member per pair, hence ``2**(n-1)`` members; that count check stands
    in for scanning absent subsets.
    """
    n = len(base)
    fam = _check_members(members, n)
    return n > 0 and len(fam) == 1 << (n - 1) and is_weak_filter(fam, base)


class WeakFilter:
    """A validated weak filter, stored extensionally or as a principal family.

    The principal form holds only a generator mask g and represents all
    supersets of g within the base; membership tests stay O(1) for bases too
    large to materialize.
    """

    __slots__ = ("base", "_members", "_generator")

    def __init__(
        self,
        base: WorldSet,
        members: Iterable[int] | None = None,
        *,
        generator: int | None = None,
        _validated: bool = False,
    ):
        if len(base) == 0:
            raise FilterError("filter base must be non-empty")
        if (members is None) == (generator is None):
            raise FilterError("pass exactly one of members= or generator=")
        self.base = base
        n = len(base)
        if generator is not None:
            if generator == 0:
                raise FilterError(
                    "principal generator must be non-empty (the empty set "
                    "would admit complementary pairs)"
                )
            if not 0 < generator < (1 << n):
                raise FilterError("generator is not a subset of the base")
            self._generator = generator
            self._members = None
        else:
            if n > EXTENSIONAL_BASE_LIMIT:
                raise FilterError(
                    f"extensional members need base size <= {EXTENSIONAL_BASE_LIMIT}"
                )
            fam = _check_members(members, n)
            if not _validated and not is_weak_filter(fam, base):
                raise FilterError("family violates the weak filter axioms")
            self._members = fam
            self._generator = None

    @classmethod
    def principal(cls, base: WorldSet, generator: int) -> "WeakFilter":
        """The filter of all supersets of ``generator`` within the base."""
        return cls(base, generator=generator)

    @classmethod
    def from_members(cls, base: WorldSet, members: Iterable[int]) -> "WeakFilter":
        return cls(base, members)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.base)) - 1

    @property
    def is_principal(self) -> bool:
        return self._generator is not None

    def is_member(self, mask: int) -> bool:
        if not 0 <= mask <= self.full_mask:
            raise FilterError(f"mask {mask:#b} is not a subset of the base")
        if self._generator is not None:
            return mask & self._generator == self._generator
        return mask in self._members

    def member_masks(self) -> frozenset:
        """Materialize the member family (refused for oversized bases)."""
        if self._members is not None:
            return self._members
        n = len(self.base)
        if n > EXTENSIONAL_BASE_LIMIT:
            raise FilterError(
                f"cannot materialize members over a base of {n} worlds"
            )
        g = self._generator
        return frozenset(x for x in range(self.full_mask + 1) if x & g == g)

    def __repr__(self) -> str:
        if self._generator is not None:
            return f"WeakFilter(principal {self._generator:#b} over {len(self.base)} worlds)"
        return f"WeakFilter({len(self._members)} members over {len(self.base)} worlds)"


class WeakUltrafilter(WeakFilter):
    """A weak filter that decides every subset-or-complement pair."""

    def __init__(
        self,
        base: WorldSet,
        members: Iterable[int] | None = None,
        *,
        generator: int | None = None,
        _validated: bool = False,
    ):
        super().__init__(base, members, generator=generator, _validated=_validated)
        if self._generator is not None:
            if self._generator.bit_count() != 1:
                raise FilterError(
                    "a principal weak ultrafilter needs a single-world generator"
                )
        elif not _validated and not is_weak_ultrafilter(self._members, base):
            raise FilterError("family violates the weak ultrafilter axioms")


class PlausibilityStatus(Enum):
    PLAUSIBLE = "plausible"
    IMPLAUSIBLE = "implausible"
    UNDETERMINED = "undetermined"


def plausibility_status(f: WeakFilter, p: Formula) -> PlausibilityStatus:
    """Classify ``p`` against the filter: plausible when its support set is a
    member, implausible when the complement is, undetermined otherwise."""
    support = support_mask(f.base, p)
    if f.is_member(support):
        return PlausibilityStatus.PLAUSIBLE
    if f.is_member(f.full_mask ^ support):
        return PlausibilityStatus.IMPLAUSIBLE
    return PlausibilityStatus.UNDETERMINED


def plausible_facts(worlds: WorldSet) -> tuple[int, int]:
    """The decided part of the shared theory as a cube ``(true_mask,
    false_mask)``: bit ``i`` is set when atom ``i`` holds in every world of
    ``worlds``, or in none."""
    if len(worlds) == 0:
        raise EmptyWorldSetError("plausible facts over an empty world set")
    u, col, table = worlds.universe, worlds.own_column, worlds.table
    true = false = 0
    if table is u:
        # Fold the column from the top atom down: atom i is decided when one
        # half of the column is empty, and ``lo | hi`` quantifies it away
        # (Bryant 1986), so the passes halve in width each time.
        for i in reversed(range(u.atom_count)):
            half = 1 << i
            hi, lo = col >> half, col & ((1 << half) - 1)
            if not hi:
                false |= 1 << i
            elif not lo:
                true |= 1 << i
            col = lo | hi
        return true, false
    # in rank space, one AND of k-bit columns per atom
    for i in range(u.atom_count):
        hits = col & table.atom_column(i)
        if hits == col:
            true |= 1 << i
        elif not hits:
            false |= 1 << i
    return true, false


def extend_to_ultrafilter(f: WeakFilter) -> WeakUltrafilter:
    """Deterministically extend a weak filter to a weak ultrafilter.

    A set is a member iff ``f`` holds it, or it holds world 0 and ``f`` does
    not hold its complement. This is the extension: it decides each
    complementary pair exactly once, because ``f`` holds no complementary
    pair; it is upward closed, because ``f`` is (a superset of an added set
    holds world 0, and its complement lies inside one ``f`` does not hold);
    and it is what resolving undecided pairs in ascending bitmask order,
    the side holding world 0 first, reaches. A principal filter whose
    generator holds world 0 thus extends, over a base of any size, to the
    principal ultrafilter at world 0; other principal filters may not
    (``principal(0b110)`` over three worlds gives the majority family).
    """
    if f.is_principal and f._generator & 1:
        return WeakUltrafilter(f.base, generator=1)
    full = f.full_mask
    members = f.member_masks()  # refuses bases beyond EXTENSIONAL_BASE_LIMIT
    rule = (x for x in range(full + 1) if x in members or x & 1 and full ^ x not in members)
    return WeakUltrafilter(f.base, frozenset(rule), _validated=True)


def ultraproduct(uf: WeakUltrafilter) -> World:
    """Reconcile the base worlds into one world by ultrafilter vote.

    Each ground atom becomes true exactly when the set of base worlds
    satisfying it is a member of the ultrafilter. The result is a complete
    world; it need not itself belong to the base (callers that care should
    check and report). A principal ultrafilter at world ``i`` votes exactly
    like world ``i``, so it returns that world.
    """
    u = uf.base.universe
    if uf.is_principal:
        return uf.base[uf._generator.bit_length() - 1]
    base = uf.base.ranked()
    assignment = 0
    for i, atom in enumerate(u.atoms):
        if uf.is_member(support_mask(base, atom)):
            assignment |= 1 << i
    return World(u, assignment)

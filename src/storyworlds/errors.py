"""Exception types shared across the package."""

from __future__ import annotations


class StoryworldsError(Exception):
    """Base class for all errors raised by this package."""


class UniverseError(StoryworldsError):
    """Invalid universe declaration (bad sorts, relations, or arities)."""


class UnknownAtomError(StoryworldsError):
    """A formula mentions an atom the universe does not declare."""


class UniverseMismatchError(StoryworldsError):
    """Two values built over different universes were combined."""


class BoundExceededError(StoryworldsError):
    """Exhaustive enumeration refused because the universe is too large."""

    def __init__(self, atom_count: int, bound: int):
        self.atom_count = atom_count
        self.bound = bound
        super().__init__(
            f"universe has {atom_count} ground atoms, exceeding the "
            f"enumeration bound of {bound}; an explicit bound raises it, up to "
            f"the fixed atom ceiling"
        )


class InconsistentFabulaError(StoryworldsError):
    """A fabula (or a transition result) has no satisfying world.

    ``conflict`` holds a minimal inconsistent subset of the propositions,
    found by greedy deletion, and ``subset`` the same as text.
    """

    def __init__(self, conflict: tuple, subset: str):
        self.conflict = tuple(conflict)
        self.subset = subset
        super().__init__(f"inconsistent fabula; conflicting subset: {subset}")


class ParseError(StoryworldsError):
    """Syntax or naming error with its position: a line and column of a story
    file, or a column of the text named ``source`` (a flag or config key)."""

    def __init__(self, message: str, line: int = 0, column: int = 0, source: str | None = None):
        self.line = line
        self.column = column
        where = f"{source}, column {column}: " if source else f"{line}:{column}: " if line else ""
        super().__init__(where + message)


class InconsistentStepError(StoryworldsError):
    """A timeline step's accumulated fabula is unsatisfiable; ``conflict``
    and ``subset`` are its InconsistentFabulaError's."""

    def __init__(self, step: int, conflict: tuple, subset: str, line: int = 0):
        self.step = step
        self.conflict = tuple(conflict)
        self.line = line
        where = f"{line}:1: " if line else ""
        super().__init__(f"{where}step t={step} is inconsistent; conflicting subset: {subset}")


class FilterError(StoryworldsError):
    """Invalid weak filter construction or member outside the base."""


class EmptyWorldSetError(StoryworldsError):
    """An operation that needs at least one world received none."""


class ChannelError(StoryworldsError):
    """Malformed channel specification or channel output violating the
    reader's universe."""


class MetricError(StoryworldsError):
    """A metric's precondition failed (empty question set, empty
    conditional sub-population, no kernel in range, missing answers)."""

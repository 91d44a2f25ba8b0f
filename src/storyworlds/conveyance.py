"""Narrator-to-reader conveyance: compression, channels, reconstruction.

The pipeline mirrors how a story travels: the narrator compresses a complete
world into a fabula of literals, the fabula crosses a (possibly lossy or
corrupting) channel, and the reader reconstructs the set of worlds consistent
with what arrived. A reader holds its decided beliefs only as the
``plausible_facts`` cube of its world set, two atom masks. The accuracy
report compares them with the narrator's world, atom by atom, over the atoms
the narrator sent (a rename target that is not also a source is never sent),
each a bit test of the world's mask against the reader's cube: agreement
on a decided atom is a match, disagreement a mismatch, silence undetermined.
The conveyance commutes (the mediated path agrees with direct transfer)
exactly when nothing is mismatched; undetermined atoms measure lossiness,
not error, and are excluded from the accuracy denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .errors import ChannelError, InconsistentFabulaError, InconsistentStepError
from .filters import WeakFilter, plausible_facts
from .logic import Atom, Formula, Universe, World, map_atoms, negate
from .story import (
    Fabula,
    Timeline,
    TransitionEdit,
    apply_transition,
    delta,
    formula_to_str,
    parse_formula_list,
)
from .worlds import WorldSet, enumerate_models


class ChannelKind(str, Enum):
    IDENTITY = "identity"
    DROP = "drop"
    RENAME = "rename"
    CORRUPT = "corrupt"


@dataclass(frozen=True)
class Channel:
    """A conveyance medium between narrator and reader.

    ``formulas`` is the payload for drop/corrupt channels; ``rename`` maps
    relation names (injectively, arity-preserving) for rename channels.
    """

    kind: ChannelKind = ChannelKind.IDENTITY
    formulas: frozenset = frozenset()
    rename: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "kind", ChannelKind(self.kind))
        object.__setattr__(self, "formulas", frozenset(self.formulas))
        object.__setattr__(self, "rename", tuple(sorted(self.rename)))
        targets = [t for _, t in self.rename]
        if len(set(targets)) != len(targets):
            raise ChannelError("rename map must be injective")
        sources = [s for s, _ in self.rename]
        if len(set(sources)) != len(sources):
            raise ChannelError("rename map lists a source relation twice")

    @classmethod
    def identity(cls) -> "Channel":
        return cls(ChannelKind.IDENTITY)

    @classmethod
    def drop(cls, formulas: Iterable[Formula]) -> "Channel":
        return cls(ChannelKind.DROP, formulas=frozenset(formulas))

    @classmethod
    def corrupt(cls, formulas: Iterable[Formula]) -> "Channel":
        return cls(ChannelKind.CORRUPT, formulas=frozenset(formulas))

    def rename_map(self) -> dict[str, str]:
        return dict(self.rename)


def parse_channel_spec(spec: str, universe: Universe) -> Channel:
    """Parse a channel description.

    Grammar: ``identity`` | ``drop(f1; f2; ...)`` | ``corrupt(f1; ...)`` |
    ``rename(old->new, ...)``. Formulas use the story grammar; rename targets
    must be declared in the universe with matching argument sorts.
    """
    lead = len(spec) - len(spec.lstrip())
    spec = spec.strip()
    if spec == "identity":
        return Channel.identity()
    m = _match_payload(spec)
    if m is None:
        raise ChannelError(f"malformed channel spec: '{spec}'")
    kind, payload = m
    if kind in ("drop", "corrupt"):
        # columns count from the spec as given, leading spaces included
        formulas = frozenset(parse_formula_list(payload, universe, "channel", lead + len(kind) + 1))
        if not formulas:
            raise ChannelError(f"{kind} channel needs at least one formula")
        return Channel(kind, formulas=formulas)
    # the third kind _match_payload matches: rename
    pairs = []
    for part in payload.split(","):
        part = part.strip()
        if not part:
            continue
        if "->" not in part:
            raise ChannelError(f"rename entry '{part}' is not 'old->new'")
        old, new = (x.strip() for x in part.split("->", 1))
        _check_rename(old, new, universe)
        pairs.append((old, new))
    if not pairs:
        raise ChannelError("rename channel needs at least one mapping")
    return Channel(ChannelKind.RENAME, rename=tuple(pairs))


def _match_payload(spec: str) -> tuple[str, str] | None:
    for kind in ("drop", "corrupt", "rename"):
        if spec.startswith(kind + "(") and spec.endswith(")"):
            return kind, spec[len(kind) + 1 : -1]
    return None


def _check_rename(old: str, new: str, universe: Universe) -> None:
    rels = universe.relations
    if old not in rels:
        raise ChannelError(f"rename source '{old}' is not a declared relation")
    if new not in rels:
        raise ChannelError(f"rename target '{new}' is not declared in the reader's universe")
    if rels[old] != rels[new]:
        raise ChannelError(
            f"rename '{old}'->'{new}' does not preserve the argument sorts"
        )


def unsent_relations(channel: Channel) -> frozenset[str]:
    """The channel's rename targets that are not also rename sources.

    The narrator does not send atoms of these relations: on the wire they
    would share a name with the renamed source atoms. A target that is also
    a source, as in a swap or a self-rename, is sent under its own new name.
    """
    table = channel.rename_map()
    return frozenset(table.values()) - frozenset(table)


def compress(world: World, channel: Channel = Channel()) -> Fabula:
    """Compress a complete world into the fabula of ground literals the
    narrator sends through ``channel``: all but those of its ``unsent_relations``."""
    u, unsent = world.universe, unsent_relations(channel)
    return Fabula(u, [l for a, l in zip(u.atoms, world.literals()) if a.relation not in unsent])


def _rewrite(
    formulas: Iterable[Formula],
    channel: Channel,
    warnings: list[str] | None,
    stage: str,
) -> frozenset:
    present = frozenset(formulas)
    if warnings is not None:
        for target in sorted(channel.formulas - present, key=formula_to_str):
            warnings.append(
                f"{channel.kind.value} target {formula_to_str(target)} absent from {stage}"
            )
    if channel.kind is ChannelKind.IDENTITY:
        return present
    if channel.kind is ChannelKind.DROP:
        return present - channel.formulas
    if channel.kind is ChannelKind.RENAME:
        table = channel.rename_map()
        fn = lambda a: Atom(table.get(a.relation, a.relation), a.args)
        return frozenset(map_atoms(f, fn) for f in present)
    # the fourth kind, ChannelKind.CORRUPT
    return frozenset(negate(f) if f in channel.formulas else f for f in present)


def transmit(
    fabula: Fabula, channel: Channel, warnings: list[str] | None = None
) -> Fabula:
    """Send a fabula through a channel.

    Drop removes the listed formulas, rename rewrites relation names, corrupt
    replaces listed formulas by their negations. Targets absent from the
    fabula are recorded on ``warnings`` (when given) rather than raised; an
    inconsistent result raises InconsistentFabulaError. A channel that
    changes none of the propositions returns ``fabula`` itself.
    """
    props = _rewrite(fabula.propositions, channel, warnings, "fabula")
    if props == fabula.propositions:
        return fabula
    return Fabula(fabula.universe, props)


@dataclass(frozen=True)
class ReaderState:
    """The reader at one time step: fabula, consistent worlds, and the
    decided beliefs as a ``plausible_facts`` cube (two atom masks)."""

    fabula: Fabula
    worlds: WorldSet
    cube: tuple[int, int]

    @property
    def filter(self) -> WeakFilter:
        """The default plausibility filter: the principal family generated by
        the full world set, so exactly the facts decided by all worlds are
        plausible and everything else is undetermined."""
        return WeakFilter.principal(self.worlds, (1 << len(self.worlds)) - 1)


def reconstruct(fabula: Fabula) -> ReaderState:
    """Rebuild a reader state from a received fabula: every model of the
    fabula, and the literals all of them decide."""
    worlds = enumerate_models(fabula)
    return ReaderState(fabula, worlds, plausible_facts(worlds))


@dataclass(frozen=True)
class ConveyanceReport:
    """Atom-by-atom comparison of narrator world and reader beliefs."""

    matched: int
    mismatched: int
    undetermined: int
    accuracy: Fraction
    mismatching_atoms: tuple[Atom, ...]
    commutes: bool


def accuracy_report(
    narrator_world: World,
    reader: ReaderState,
    channel: Channel = Channel(),
) -> ConveyanceReport:
    """Compare each narrator atom's truth with the reader's decided beliefs.

    ``channel``'s rename map carries narrator relation names into the
    reader's universe. Only atoms the narrator sends through ``channel`` are
    compared, as in ``compress``: atoms of its ``unsent_relations`` are skipped.
    Accuracy is matched/(matched+mismatched); a fully undetermined
    comparison counts as accurate (no evidence of error), so accuracy
    defaults to 1 when nothing is decided.
    """
    table, unsent = channel.rename_map(), unsent_relations(channel)
    reader_universe = reader.fabula.universe
    (true, false), mask = reader.cube, narrator_world.mask
    matched = mismatched = undetermined = 0
    bad: list[Atom] = []
    for i, atom in enumerate(narrator_world.universe.atoms):
        if atom.relation in unsent:
            continue
        # the reader's index of the atom the channel renames it to
        j = reader_universe.atom_index(Atom(table.get(atom.relation, atom.relation), atom.args))
        agree, disagree = (true, false) if mask >> i & 1 else (false, true)
        if agree >> j & 1:
            matched += 1
        elif disagree >> j & 1:
            mismatched += 1
            bad.append(atom)
        else:
            undetermined += 1
    decided = matched + mismatched
    accuracy = Fraction(matched, decided) if decided else Fraction(1)
    return ConveyanceReport(
        matched=matched,
        mismatched=mismatched,
        undetermined=undetermined,
        accuracy=accuracy,
        mismatching_atoms=tuple(bad),
        commutes=mismatched == 0,
    )


def evolve(
    timeline: Timeline,
    channel: Channel,
    warnings: list[str] | None = None,
) -> tuple[ReaderState, ...]:
    """Run the timeline through the channel, one reader state per step.

    Each step transmits the narrator's delta (additions and removals against
    the previous step; step 0 transmits the whole initial fabula), applies it
    to the reader's accumulated fabula, and re-enumerates the reader's
    worlds. The same per-formula channel rewrite applies to additions and
    removals alike. A step whose result is unsatisfiable raises
    InconsistentStepError naming the step.

    While the reader's fabula is the narrator's previous fabula and the
    channel leaves a step's additions and removals as they are, the edit
    yields the narrator's fabula itself, so the reader takes that object and
    its column rather than building an equal one.
    """
    states: list[ReaderState] = []
    prev = reader_fab = Fabula(timeline.universe, ())
    for t, fab in enumerate(timeline.steps):
        edit = delta(prev, fab)
        additions = _rewrite(edit.additions, channel, warnings, f"step t={t} additions")
        removals = _rewrite(edit.removals, channel, warnings, f"step t={t} removals")
        if reader_fab is prev and additions == edit.additions and removals == edit.removals:
            reader_fab = fab
        else:
            try:
                reader_fab = apply_transition(reader_fab, TransitionEdit(additions, removals))
            except InconsistentFabulaError as e:
                raise InconsistentStepError(t, e.conflict) from e
            except ValueError as e:
                raise ChannelError(f"channel output conflicts at step t={t}: {e}") from e
        states.append(reconstruct(reader_fab))
        prev = fab
    return tuple(states)

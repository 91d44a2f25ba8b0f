"""Seeded story generator for the benchmark workloads.

Every story is a pure function of ``(workload, seed, index)``, so the same
seed always yields the same inputs. The program under test only ever sees the
story text (and the CLI flags); the generator keeps its own formula trees and
computes the expected per-step world and belief counts with its own truth
tables, without going through ``storyworlds``.

Formula trees are tuples: ``("atom", "rel(a,b)")``, ``("not", f)``,
``("and", (f, g, ...))``, ``("or", (f, g, ...))`` and ``("imp", f, g)``.

Run ``python3 bench/storygen.py --seed N`` to check each workload's defining
property on its first SHARE_SAMPLE stories and print the measured shares.
"""

from __future__ import annotations

import argparse
import functools
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("wide", "churn", "corpus")
CHANNEL_KINDS = ("identity", "drop", "corrupt", "rename")
FORMATS = ("json", "csv")
REFUSALS = ("inconsistent", "parse", "bound")

PEOPLE = ("ann", "bob", "cy", "dee", "eve", "fay", "gus", "hal")
ITEMS = ("key", "map", "coin", "lamp", "rope", "book")
PLACES = ("inn", "mill", "dock", "fort", "farm")
COLORS = ("red", "blue", "green", "gold")

# A shape is (sorts, relations): sorts map a sort name to (pool, size);
# relations are (name, argument sorts). The atom count is fixed per workload.
WIDE_SHAPES = (
    ({"person": (PEOPLE, 4)}, [("trusts", ("person", "person"))]),
    (
        {"person": (PEOPLE, 4), "place": (PLACES, 3)},
        [("happy", ("person",)), ("visits", ("person", "place"))],
    ),
    (
        {"person": (PEOPLE, 2), "item": (ITEMS, 4)},
        [("owns", ("person", "item")), ("wants", ("person", "item"))],
    ),
    (
        {"person": (PEOPLE, 4)},
        [(r, ("person",)) for r in ("brave", "happy", "rich", "tall")],
    ),
)
CHURN_SHAPES = (
    (
        {"person": (PEOPLE, 3)},
        [("happy", ("person",)), ("trusts", ("person", "person"))],
    ),
    (
        {"person": (PEOPLE, 2), "item": (ITEMS, 3)},
        [("owns", ("person", "item")), ("wants", ("person", "item"))],
    ),
    ({"person": (PEOPLE, 4)}, [(r, ("person",)) for r in ("brave", "happy", "rich")]),
    ({"person": (PEOPLE, 3), "place": (PLACES, 4)}, [("at", ("person", "place"))]),
)
# Corpus shapes list the relation a rename channel renames first and its
# same-signature twin (the rename target) second.
CORPUS_SHAPES = (
    (
        {"person": (PEOPLE, 2), "color": (COLORS, 2)},
        [("wears", ("person", "color")), ("dons", ("person", "color"))],
    ),
    (
        {"person": (PEOPLE, 3), "item": (ITEMS, 2)},
        [("owns", ("person", "item")), ("holds", ("person", "item"))],
    ),
    (
        {"person": (PEOPLE, 2), "place": (PLACES, 2)},
        [("at", ("person", "place")), ("near", ("person", "place")), ("happy", ("person",))],
    ),
    (
        {"person": (PEOPLE, 3)},
        [("brave", ("person",)), ("bold", ("person",)), ("rich", ("person",))],
    ),
    (
        {"person": (PEOPLE, 2), "item": (ITEMS, 2)},
        [
            ("owns", ("person", "item")),
            ("holds", ("person", "item")),
            ("rich", ("person",)),
        ],
    ),
)

# Fixture stories analysed as-is, relative to the checkout root.
ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ("tests/data/cards.story", "tests/data/reveal.story")

# Stories per workload whose property shares the command line prints.
SHARE_SAMPLE = 100

CHURN_STEPS = 18
CHURN_TWIST_EVERY = 6
# Steps of a churn story that retract one literal; the steps that assert a
# disjunction number 1 to 3, by index.
CHURN_RETRACTIONS = 5
# Stories per cycle: each run of this many consecutive indices, from any
# multiple of it, holds the same mix of story sizes whatever the seed.
CYCLES = {"wide": 12, "churn": 12, "corpus": 80}


@dataclass(frozen=True)
class Story:
    """One generated input plus everything the correctness gate expects."""

    workload: str
    index: int
    text: str
    channel: str
    channel_kind: str
    truth: str
    fmt: str
    use_out: bool
    bound: int | None
    expect_exit: int
    refusal: str | None
    # Per step, as the reader sees it; empty for refusals.
    world_counts: tuple[int, ...]
    belief_counts: tuple[int, ...]
    kernels: tuple[bool, ...]
    removals: int
    fixture: str | None = None

    def argv(self, story_path: str, out_path: str) -> list[str]:
        """The ``storyworlds`` command line that analyses this story."""
        argv = ["analyze", story_path, "--channel", self.channel, "--seed", str(self.index)]
        argv += ["--format", self.fmt]
        if self.truth != "first-canonical":
            argv += ["--truth", self.truth]
        if self.bound is not None:
            argv += ["--bound", str(self.bound)]
        if self.use_out:
            argv += ["--out", out_path]
        return argv


# -- formulas and truth tables ----------------------------------------------


def atom(name: str) -> tuple:
    return ("atom", name)


def neg(f: tuple) -> tuple:
    """Negation that peels a leading ``not``, as channel corruption does."""
    return f[1] if f[0] == "not" else ("not", f)


def text(f: tuple) -> str:
    """Story-grammar text that parses back to exactly this tree."""
    op = f[0]
    if op == "atom":
        return f[1]
    if op == "not":
        inner = f[1]
        return "!" + (text(inner) if inner[0] in ("atom", "not") else f"({text(inner)})")
    if op in ("and", "or"):
        sep = " & " if op == "and" else " | "
        return sep.join(_paren(g) for g in f[1])
    if op == "imp":
        return f"{_paren(f[1])} -> {_paren(f[2])}"
    raise ValueError(f"not a formula tree: {f!r}")


def _paren(f: tuple) -> str:
    return f"({text(f)})" if f[0] in ("and", "or", "imp") else text(f)


def rename_atoms(f: tuple, old: str, new: str) -> tuple:
    op = f[0]
    if op == "atom":
        rel, _, rest = f[1].partition("(")
        return ("atom", f"{new}({rest}") if rel == old else f
    if op == "not":
        return ("not", rename_atoms(f[1], old, new))
    if op in ("and", "or"):
        return (op, tuple(rename_atoms(g, old, new) for g in f[1]))
    return ("imp", rename_atoms(f[1], old, new), rename_atoms(f[2], old, new))


@functools.cache
def atom_columns(n: int) -> tuple[int, tuple[int, ...]]:
    """Truth table columns over ``2**n`` assignments: ``(all-ones, per atom)``.

    Column ``i`` repeats a block of ``2**i`` zeros then ``2**i`` ones; the
    repeat is a multiplication by a repunit in base ``2**(2**(i+1))``.
    """
    full = (1 << (1 << n)) - 1
    cols = []
    for i in range(n):
        half = 1 << i
        block = ((1 << half) - 1) << half
        cols.append(block * (full // ((1 << (2 * half)) - 1)))
    return full, tuple(cols)


class Table:
    """Model counting over one universe's atoms (any fixed order)."""

    def __init__(self, atoms: list[str]):
        self.atoms = list(atoms)
        self.index = {a: i for i, a in enumerate(self.atoms)}
        self.full, self.cols = atom_columns(len(self.atoms))

    def column(self, f: tuple) -> int:
        op = f[0]
        if op == "atom":
            return self.cols[self.index[f[1]]]
        if op == "not":
            return self.full & ~self.column(f[1])
        if op == "and":
            col = self.full
            for g in f[1]:
                col &= self.column(g)
            return col
        if op == "or":
            col = 0
            for g in f[1]:
                col |= self.column(g)
            return col
        return (self.full & ~self.column(f[1])) | self.column(f[2])

    def models(self, formulas) -> int:
        col = self.full
        for f in formulas:
            col &= self.column(f)
        return col

    def beliefs(self, models: int) -> frozenset:
        """Ground literals decided by every model, as ``(atom, value)``."""
        out = set()
        for a, i in self.index.items():
            hit = models & self.cols[i]
            if hit == models:
                out.add((a, True))
            elif hit == 0:
                out.add((a, False))
        return frozenset(out)


def kernel_flags(beliefs: list[frozenset]) -> tuple[bool, ...]:
    """Kernel steps at the default threshold 1/2 (step 0 never is one)."""
    flags = [False]
    for before, after in zip(beliefs, beliefs[1:]):
        flags.append(2 * len(before ^ after) > max(1, len(before | after)))
    return tuple(flags)


# -- universes and story text -------------------------------------------------


@dataclass
class Universe:
    sorts: dict[str, tuple[str, ...]]
    relations: list[tuple[str, tuple[str, ...]]]

    def atoms_of(self, rel: str) -> list[str]:
        for name, arg_sorts in self.relations:
            if name == rel:
                combos = [()]
                for s in arg_sorts:
                    combos = [c + (k,) for c in combos for k in self.sorts[s]]
                return [f"{rel}({','.join(c)})" for c in combos]
        raise KeyError(rel)

    def atoms(self) -> list[str]:
        return [a for rel, _ in self.relations for a in self.atoms_of(rel)]

    def header(self) -> list[str]:
        lines = [f"sort {s}: {', '.join(cs)}" for s, cs in self.sorts.items()]
        lines += [f"rel {r}({', '.join(a)})" for r, a in self.relations]
        return lines


def make_universe(shape, rng: random.Random) -> Universe:
    sorts_spec, relations = shape
    sorts = {s: tuple(sorted(rng.sample(pool, k))) for s, (pool, k) in sorts_spec.items()}
    return Universe(sorts, [(r, tuple(a)) for r, a in relations])


def story_text(header: list[str], steps: list[list[tuple[str, tuple]]], title: str) -> str:
    lines = [f"# {title}"] + header
    for t, entries in enumerate(steps):
        lines += ["", f"t={t}:"]
        lines += [f"{sign} {text(f)}" for sign, f in entries]
    return "\n".join(lines) + "\n"


def narrator_sets(steps: list[list[tuple[str, tuple]]]) -> list[frozenset]:
    """The narrator's asserted set at each step (remove, then add)."""
    out, cur = [], frozenset()
    for entries in steps:
        adds = {f for s, f in entries if s == "+"}
        dels = {f for s, f in entries if s == "-"}
        cur = (cur - dels) | adds
        out.append(cur)
    return out


def reader_sets(narrator: list[frozenset], rewrite) -> list[frozenset] | None:
    """What the reader holds per step after the channel rewrites each edit.

    Returns None when a rewritten edit adds and removes the same formula,
    which the program refuses as a channel conflict.
    """
    out, prev, cur = [], frozenset(), frozenset()
    for fab in narrator:
        adds = rewrite(fab - prev)
        dels = rewrite(prev - fab)
        if adds & dels:
            return None
        cur = (cur - dels) | adds
        out.append(cur)
        prev = fab
    return out


def expectations(table: Table, reader: list[frozenset]):
    counts, beliefs = [], []
    for fab in reader:
        models = table.models(fab)
        counts.append(models.bit_count())
        beliefs.append(table.beliefs(models) if models else frozenset())
    return tuple(counts), tuple(len(b) for b in beliefs), kernel_flags(beliefs)


def literal(rng: random.Random, name: str) -> tuple:
    return atom(name) if rng.random() < 0.5 else ("not", atom(name))


# -- workloads ----------------------------------------------------------------


def _rng(workload: str, seed: int, index: int, attempt: int = 0) -> random.Random:
    return random.Random(f"storyworlds-bench/{workload}/{seed}/{index}/{attempt}")


def generate(workload: str, seed: int, index: int) -> Story:
    """Story ``index`` of ``workload`` under ``seed``."""
    if workload == "wide":
        return _wide(seed, index)
    if workload == "churn":
        return _churn(seed, index)
    if workload == "corpus":
        return _corpus(seed, index)
    raise ValueError(f"unknown workload '{workload}'")


def _plain_story(workload, index, universe, table, steps, title) -> Story:
    narrator = narrator_sets(steps)
    counts, beliefs, kernels = expectations(table, narrator)
    return Story(
        workload=workload,
        index=index,
        text=story_text(universe.header(), steps, title),
        channel="identity",
        channel_kind="identity",
        truth="first-canonical",
        fmt="json",
        use_out=False,
        bound=None,
        expect_exit=0,
        refusal=None,
        world_counts=counts,
        belief_counts=beliefs,
        kernels=kernels,
        removals=sum(1 for entries in steps for s, _ in entries if s == "-"),
    )


def _wide(seed: int, index: int) -> Story:
    """16 atoms, 5 steps adding new literals, no removals.

    Step 0 asserts 4 literals (4096 worlds), so an analysis takes about a
    tenth of a second and a run holds enough of them for a 90th percentile;
    steps 1-4 add 1-2 literals each, at most 6 in all, so the final set
    keeps at least 64 worlds. A step adds at most half as many literals as
    are already decided, so no step is a kernel.

    The shape follows ``index % 4`` and the number of two-literal steps
    ``index // 4 % 3``, so every twelve consecutive stories hold the same mix
    of sizes whatever the seed; the seed picks constants, atoms and signs.
    """
    rng = _rng("wide", seed, index)
    universe = make_universe(WIDE_SHAPES[index % len(WIDE_SHAPES)], rng)
    atoms = universe.atoms()
    table = Table(atoms)
    order = rng.sample(atoms, len(atoms))
    doubles = rng.sample(range(1, 5), index // len(WIDE_SHAPES) % 3)
    steps = []
    for t in range(5):
        k = 4 if t == 0 else 1 + (t in doubles)
        steps.append([("+", literal(rng, order.pop())) for _ in range(k)])
    return _plain_story("wide", index, universe, table, steps, f"wide story {seed}/{index}")


def _churn(seed: int, index: int) -> Story:
    """12 atoms, 18 steps with disjunctions and a belief twist every 6th step.

    A twist retracts about half of the asserted literals and asserts their
    negations, which makes it a kernel. Retries (seeded by attempt number)
    until the story has at least two kernels. The shape follows
    ``index % 4`` and the number of disjunction steps ``index // 4 % 3``,
    so every twelve consecutive stories hold the same mix of sizes whatever
    the seed: disjunctions keep world sets large and cost the most.
    """
    shape = CHURN_SHAPES[index % len(CHURN_SHAPES)]
    disjunctions = 1 + index // len(CHURN_SHAPES) % 3
    for attempt in range(50):
        rng = _rng("churn", seed, index, attempt)
        universe = make_universe(shape, rng)
        table = Table(universe.atoms())
        steps = _churn_steps(rng, table, disjunctions)
        story = _plain_story("churn", index, universe, table, steps, f"churn story {seed}/{index}")
        if sum(story.kernels) >= 2:
            return story
    raise PropertyError(f"churn story {seed}/{index}: no attempt reached two kernels")


def _churn_steps(
    rng: random.Random, table: Table, disjunctions: int
) -> list[list[tuple[str, tuple]]]:
    atoms = table.atoms
    held: set[tuple] = set()
    steps = []
    plain = [t for t in range(1, CHURN_STEPS) if t % CHURN_TWIST_EVERY]
    disjunctive = set(rng.sample(plain, disjunctions))
    retracting = set(rng.sample([t for t in plain if t >= 2], CHURN_RETRACTIONS))

    def undecided() -> list[str]:
        decided = {a for a, _ in table.beliefs(table.models(held))}
        return [a for a in atoms if a not in decided]

    def try_add(entries, f):
        if table.models(held | {f}):
            held.add(f)
            entries.append(("+", f))

    for t in range(CHURN_STEPS):
        entries: list[tuple[str, tuple]] = []
        removed: set[str] = set()
        if t and t % CHURN_TWIST_EVERY == 0:
            lits = sorted((f for f in held if f[0] != "or"), key=text)
            flip = set(rng.sample(lits, (len(lits) + 1) // 2))
            after = (set(lits) - flip) | {neg(f) for f in flip}
            # Retract disjunctions the flipped literals would falsify.
            broken = {f for f in held if f[0] == "or" and not table.models(after | {f})}
            for f in sorted(flip | broken, key=text):
                entries.append(("-", f))
            held -= flip | broken
            for f in sorted(flip, key=text):
                try_add(entries, neg(f))
        else:
            if t in retracting:
                lits = sorted((f for f in held if f[0] != "or"), key=text)
                if lits:
                    f = rng.choice(lits)
                    held.discard(f)
                    entries.append(("-", f))
                    removed.add(f[1] if f[0] == "atom" else f[1][1])
            # An atom retracted here is not re-asserted in the same step.
            free = [a for a in undecided() if a not in removed]
            rng.shuffle(free)
            if t == 0:
                for a in free[:6]:
                    try_add(entries, literal(rng, a))
            elif t in disjunctive and len(free) >= 2:
                try_add(entries, ("or", (literal(rng, free[0]), literal(rng, free[1]))))
            else:
                for a in free[: rng.randint(1, 2)]:
                    try_add(entries, literal(rng, a))
        steps.append(entries)
    return steps


def _random_formula(rng: random.Random, pool: list[str]) -> tuple:
    a, b, c = rng.sample(pool, 3)
    kind = rng.randrange(6)
    if kind <= 1:
        return literal(rng, a)
    if kind == 2:
        return ("imp", literal(rng, a), literal(rng, b))
    if kind == 3:
        return ("and", (literal(rng, a), ("not", atom(b))))
    if kind == 4:
        return ("or", (literal(rng, a), literal(rng, b)))
    return ("imp", ("or", (atom(a), atom(b))), literal(rng, c))


def _corpus(seed: int, index: int) -> Story:
    """Small stories through the CLI, cycling channels, formats and flags.

    Channel kind follows ``index % 4`` and format ``index // 4 % 2``, so every
    eight consecutive calls cover each pairing. Every tenth call is a refusal
    (inconsistent step, parse error or universe over ``--bound``, in turn).
    Two of every twenty calls analyse the fixture stories as-is, under the
    identity and corrupt channels. The universe's shape follows
    ``index // 8 % 5`` and the step count ``index // 40 % 2``, so every
    eighty consecutive calls hold the same mix of sizes whatever the seed.
    """
    kind = CHANNEL_KINDS[index % 4]
    fmt = FORMATS[index // 4 % 2]
    use_out = index % 3 == 0
    refusal = REFUSALS[index // 10 % 3] if index % 10 == 9 else None
    if refusal is None and index % 20 in (6, 16):
        return _fixture(seed, index, kind, fmt, use_out)
    for attempt in range(50):
        story = _corpus_attempt(seed, index, attempt, kind, fmt, use_out, refusal)
        if story is not None:
            return story
    raise PropertyError(f"corpus story {seed}/{index}: no valid attempt")


def _corpus_attempt(seed, index, attempt, kind, fmt, use_out, refusal) -> Story | None:
    rng = _rng("corpus", seed, index, attempt)
    universe = make_universe(CORPUS_SHAPES[index // 8 % len(CORPUS_SHAPES)], rng)
    table = Table(universe.atoms())
    old, twin = universe.relations[0][0], universe.relations[1][0]
    # A renamed relation's target must stay unused by the narrator.
    pool = [a for a in table.atoms if kind != "rename" or not a.startswith(twin + "(")]
    steps: list[list[tuple[str, tuple]]] = []
    held: set[tuple] = set()
    for t in range(3 + index // 40 % 2):
        entries = []
        removed = set()
        if t >= 1 and held and rng.random() < 0.3:
            f = rng.choice(sorted(held, key=text))
            held.discard(f)
            removed.add(f)
            entries.append(("-", f))
        want = rng.randint(3, 4) if t == 0 else rng.randint(1, 2)
        if t >= 2 and rng.random() < 0.4:
            want += len(pool) // 2  # a reveal: often leaves at most 10 worlds
        for _ in range(want):
            f = _random_formula(rng, pool)
            if f not in held and f not in removed and table.models(held | {f}):
                held.add(f)
                entries.append(("+", f))
        steps.append(entries)

    narrator = narrator_sets(steps)
    asserted = sorted({f for fab in narrator for f in fab}, key=text)
    if kind == "identity":
        spec, rewrite = "identity", lambda fs: frozenset(fs)
    elif kind == "rename":
        spec = f"rename({old}->{twin})"
        rewrite = lambda fs: frozenset(rename_atoms(f, old, twin) for f in fs)
    else:
        targets = set(rng.sample(asserted, min(2, len(asserted))))
        if rng.random() < 0.3:  # a target the story never asserts
            targets.add(literal(rng, rng.choice(pool)))
        spec = f"{kind}({'; '.join(text(f) for f in sorted(targets, key=text))})"
        if kind == "drop":
            rewrite = lambda fs: frozenset(fs) - targets
        else:
            rewrite = lambda fs: frozenset(neg(f) if f in targets else f for f in fs)
    reader = reader_sets(narrator, rewrite)
    if reader is None:
        return None
    counts, beliefs, kernels = expectations(table, reader)
    if 0 in counts:
        return None

    truth = "first-canonical"
    if index % 5 in (1, 3):
        chosen = rng.sample(table.atoms, 3)
        truth = "; ".join(text(literal(rng, a)) for a in chosen)

    bound, expect_exit = None, 0
    if refusal == "inconsistent":
        # Negate a held literal that the last step does not touch, so the
        # step stays free of add/remove conflicts.
        touched = {f for _, f in steps[-1]}
        lits = [
            f
            for f in narrator[-1]
            if (f[0] == "atom" or (f[0] == "not" and f[1][0] == "atom"))
            and neg(f) not in touched
        ]
        if not lits:
            return None
        steps[-1].append(("+", neg(rng.choice(sorted(lits, key=text)))))
        expect_exit = 2
    elif refusal == "bound":
        bound, expect_exit = len(table.atoms) - 1, 1
    elif refusal == "parse":
        expect_exit = 1
    body = story_text(universe.header(), steps, f"corpus story {seed}/{index}")
    if refusal == "parse":
        # An assertion with an unclosed argument list.
        body += f"+ {table.atoms[0][:-1]}\n"
    if refusal is not None:
        counts = beliefs = kernels = ()
    return Story(
        workload="corpus",
        index=index,
        text=body,
        channel=spec,
        channel_kind=kind,
        truth=truth,
        fmt=fmt,
        use_out=use_out,
        bound=bound,
        expect_exit=expect_exit,
        refusal=refusal,
        world_counts=counts,
        belief_counts=beliefs,
        kernels=kernels,
        removals=sum(1 for entries in steps for s, _ in entries if s == "-"),
    )


def parse_fixture(source: str) -> tuple[Universe, list[list[tuple[str, tuple]]]]:
    """Read a literal-only story file into a universe and step entries."""
    sorts: dict[str, tuple[str, ...]] = {}
    relations = []
    steps: list[list[tuple[str, tuple]]] = []
    for raw in source.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("sort "):
            name, _, rest = line[5:].partition(":")
            sorts[name.strip()] = tuple(c.strip() for c in rest.split(","))
        elif line.startswith("rel "):
            name, _, rest = line[4:].partition("(")
            relations.append((name.strip(), tuple(s.strip() for s in rest.rstrip(")").split(","))))
        elif line.startswith("t="):
            steps.append([])
        else:
            sign, body = line[0], line[1:].strip()
            f = ("not", atom(body[1:])) if body.startswith("!") else atom(body)
            steps[-1].append((sign, f))
    return Universe(sorts, relations), steps


def _fixture(seed: int, index: int, kind: str, fmt: str, use_out: bool) -> Story:
    rng = _rng("corpus", seed, index)
    path = FIXTURES[index // 40 % len(FIXTURES)]
    source = (ROOT / path).read_text(encoding="utf-8")
    universe, steps = parse_fixture(source)
    table = Table(universe.atoms())
    narrator = narrator_sets(steps)
    spec, rewrite = "identity", lambda fs: frozenset(fs)
    if kind in ("drop", "corrupt"):
        # Targets from the first step keep a corrupted reader consistent:
        # the fixtures hold literals only, over distinct atoms.
        targets = {rng.choice(sorted(narrator[0], key=text))}
        spec = f"{kind}({text(next(iter(targets)))})"
        if kind == "drop":
            rewrite = lambda fs: frozenset(fs) - targets
        else:
            rewrite = lambda fs: frozenset(neg(f) if f in targets else f for f in fs)
    counts, beliefs, kernels = expectations(table, reader_sets(narrator, rewrite))
    return Story(
        workload="corpus",
        index=index,
        text=source,
        channel=spec,
        channel_kind=kind,
        truth="first-canonical",
        fmt=fmt,
        use_out=use_out,
        bound=None,
        expect_exit=0,
        refusal=None,
        world_counts=counts,
        belief_counts=beliefs,
        kernels=kernels,
        removals=0,
        fixture=path,
    )


# -- defining properties --------------------------------------------------------


class PropertyError(Exception):
    """A generated story set lacks its workload's defining property."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise PropertyError(message)


def shares(workload: str, stories: list[Story]) -> dict[str, float]:
    """Check the workload's defining property over ``stories`` and return the
    measured share of each property. Raises PropertyError on a breach."""
    n = len(stories)
    _require(n > 0, "no stories")
    if workload == "wide":
        _require(all(s.removals == 0 for s in stories), "wide story with a removal")
        _require(all(s.world_counts[-1] > 10 for s in stories), "wide final set <= 10")
        _require(not any(any(s.kernels) for s in stories), "wide story with a kernel")
        return {
            "no_removals": 1.0,
            "final_over_10_worlds": 1.0,
            "min_final_worlds": min(s.world_counts[-1] for s in stories),
        }
    if workload == "churn":
        _require(all(sum(s.kernels) >= 2 for s in stories), "churn story with < 2 kernels")
        small = sum(s.world_counts[-1] <= 10 for s in stories) / n
        _require(small > 0.5, f"only {small:.0%} of churn final sets hold <= 10 worlds")
        return {
            "two_or_more_kernels": 1.0,
            "mean_kernels": sum(sum(s.kernels) for s in stories) / n,
            "final_at_most_10_worlds": small,
        }
    refusals = [s for s in stories if s.refusal]
    ok = [s for s in stories if not s.refusal]
    if n >= 30:
        kinds = {s.channel_kind for s in ok}
        _require(kinds == set(CHANNEL_KINDS), f"corpus misses channels {set(CHANNEL_KINDS) - kinds}")
        _require({s.fmt for s in ok} == set(FORMATS), "corpus misses a report format")
        _require({s.refusal for s in refusals} == set(REFUSALS), "corpus misses a refusal kind")
    out = {f"channel_{k}": sum(s.channel_kind == k for s in ok) / n for k in CHANNEL_KINDS}
    out.update({f"format_{f}": sum(s.fmt == f for s in ok) / n for f in FORMATS})
    out["refused"] = len(refusals) / n
    out["truth_list"] = sum(s.truth != "first-canonical" for s in stories) / n
    out["out_file"] = sum(s.use_out for s in stories) / n
    out["fixture"] = sum(s.fixture is not None for s in stories) / n
    out["final_at_most_10_worlds"] = sum(s.world_counts[-1] <= 10 for s in ok) / n
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    for workload in WORKLOADS:
        stories = [generate(workload, args.seed, i) for i in range(SHARE_SAMPLE)]
        measured = shares(workload, stories)
        print(workload, " ".join(f"{k}={v:.3g}" for k, v in measured.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

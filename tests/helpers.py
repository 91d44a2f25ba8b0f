"""Random generators shared by the fuzz and acceptance tests."""

from __future__ import annotations

import random

from storyworlds.logic import (
    And,
    Formula,
    Implies,
    Not,
    Or,
    Universe,
    World,
    evaluate,
    negate,
)
from storyworlds.story import Fabula, Timeline, TransitionEdit, apply_transition


def chain_universe(n_atoms: int, bound: int | None = None) -> Universe:
    """A universe with exactly ``n_atoms`` ground atoms (one unary relation)
    and enumeration bound ``bound``."""
    return Universe(
        {"item": tuple(f"c{i}" for i in range(n_atoms))},
        [("marked", ("item",))],
        bound,
    )


def chain_story(n_atoms: int) -> str:
    """Story text over ``chain_universe(n_atoms)``'s vocabulary: two literals
    at t=0 and a third at t=1, so step 0 holds ``2**(n_atoms - 2)`` worlds."""
    constants = ", ".join(f"c{i}" for i in range(n_atoms))
    return (
        f"sort item: {constants}\nrel marked(item)\n\n"
        "t=0:\n+ marked(c0)\n+ !marked(c1)\n\nt=1:\n+ marked(c2)\n"
    )


def random_universe(rng: random.Random, max_atoms: int) -> Universe:
    """A small random universe with mixed arities, at most ``max_atoms`` atoms."""
    while True:
        n_sorts = rng.randrange(1, 3)
        sorts = {
            f"s{i}": tuple(f"s{i}c{j}" for j in range(rng.randrange(1, 4)))
            for i in range(n_sorts)
        }
        names = list(sorts)
        relations = []
        for r in range(rng.randrange(1, 4)):
            arity = rng.randrange(1, 3)
            relations.append((f"r{r}", tuple(rng.choice(names) for _ in range(arity))))
        u = Universe(sorts, relations)
        if 1 <= u.atom_count <= max_atoms:
            return u


def random_named_universe(rng: random.Random, max_atoms: int) -> Universe:
    """A random universe like ``random_universe`` whose sort, constant and
    relation names are drawn from the story grammar over the letters ``a``,
    ``B``, ``_`` and ``0``, so that some names are prefixes of others and
    constants are declared in no particular order."""

    def names(count: int) -> list[str]:
        out: list[str] = []
        while len(out) < count:
            word = rng.choice("aB_") + "".join(rng.choice("aB_0") for _ in range(rng.randrange(3)))
            if word not in out:
                out.append(word)
        return out

    while True:
        sort_names = names(rng.randrange(1, 3))
        sorts = {name: tuple(names(rng.randrange(1, 4))) for name in sort_names}
        relations = [
            (rel, tuple(rng.choice(sort_names) for _ in range(rng.randrange(1, 3))))
            for rel in names(rng.randrange(1, 4))
        ]
        u = Universe(sorts, relations)
        if 1 <= u.atom_count <= max_atoms:
            return u


def random_formula(rng: random.Random, universe: Universe, depth: int) -> Formula:
    atoms = universe.atoms
    if depth == 0 or rng.random() < 0.3:
        atom = atoms[rng.randrange(len(atoms))]
        return atom if rng.random() < 0.5 else Not(atom)
    kind = rng.choice(("not", "and", "or", "implies"))
    if kind == "not":
        return Not(random_formula(rng, universe, depth - 1))
    if kind == "implies":
        return Implies(
            random_formula(rng, universe, depth - 1),
            random_formula(rng, universe, depth - 1),
        )
    items = tuple(
        random_formula(rng, universe, depth - 1) for _ in range(rng.randrange(2, 4))
    )
    return And(items) if kind == "and" else Or(items)


def random_consistent_formulas(
    rng: random.Random, universe: Universe, count: int, depth: int = 3
) -> list[Formula]:
    """Random formulas sharing a witness world, hence jointly consistent."""
    witness = World(universe, rng.randrange(1 << universe.atom_count))
    out = []
    for _ in range(count):
        f = random_formula(rng, universe, depth)
        if not evaluate(witness, f):
            f = Not(f) if not isinstance(f, Not) else f.operand
        out.append(f)
    return out


def random_monotone_timeline(
    rng: random.Random, universe: Universe, max_steps: int
) -> Timeline:
    """An expansion-only timeline: every step only adds propositions."""
    witness_mask = rng.randrange(1 << universe.atom_count)
    witness = World(universe, witness_mask)
    steps = []
    fab = Fabula(universe, ())
    for _ in range(rng.randrange(1, max_steps + 1)):
        additions = []
        for _ in range(rng.randrange(0, 3)):
            f = random_formula(rng, universe, 2)
            if not evaluate(witness, f):
                f = Not(f) if not isinstance(f, Not) else f.operand
            additions.append(f)
        fab = apply_transition(fab, TransitionEdit(frozenset(additions), frozenset()))
        steps.append(fab)
    return Timeline(universe, tuple(steps))


def random_timeline(rng: random.Random, universe: Universe, max_steps: int) -> Timeline:
    """A timeline whose steps also retract propositions, flip literals and
    add compound formulas: each step moves to a new witness world, replaces
    every formula the witness falsifies by its negation, retracts a random
    few that it satisfies, and adds random formulas that it satisfies."""
    steps = []
    fab = Fabula(universe, ())
    for _ in range(rng.randrange(1, max_steps + 1)):
        witness = World(universe, rng.randrange(1 << universe.atom_count))
        removals = {f for f in fab if not evaluate(witness, f) or rng.random() < 0.2}
        additions = {negate(f) for f in removals if not evaluate(witness, f)}
        for _ in range(rng.randrange(0, 4)):
            f = random_formula(rng, universe, rng.randrange(0, 3))
            additions.add(f if evaluate(witness, f) else negate(f))
        fab = apply_transition(fab, TransitionEdit(additions - removals, removals))
        steps.append(fab)
    return Timeline(universe, tuple(steps))

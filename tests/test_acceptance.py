"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Runnable standalone (``python tests/test_acceptance.py``) or under pytest.

Criterion 6 is implemented exactly as stated and FAILS: the reconciliation
vote does not commute with conjunction or disjunction for non-principal weak
ultrafilters (e.g. the majority family over three worlds), so "zero
violations" is mathematically unattainable. The failing test prints a
concrete witness; test_filters.py pins both the principal case (where the
property does hold) and the counterexample.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from storyworlds.conveyance import Channel, accuracy_report, compress, evolve, reconstruct, transmit
from storyworlds.filters import (
    WeakFilter,
    WeakUltrafilter,
    extend_to_ultrafilter,
    is_weak_filter,
    is_weak_ultrafilter,
    support_mask,
    ultraproduct,
)
from storyworlds.logic import And, Constant, Implies, Not, Or, Universe, World, evaluate, truth_column
from storyworlds.metrics import Question, binary_entropy, detect_kernels, relevance, world_coherence
from storyworlds.story import delta, parse_story
from storyworlds.worlds import WorldSet, enumerate_models, intersect, truth_proportion

import helpers
from oracles import (
    enumerate_models_bruteforce,
    weak_filter_oracle,
    weak_ultrafilter_oracle,
)

DATA = Path(__file__).parent / "data"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_enumeration_matches_bruteforce_oracle():
    rng = random.Random(20260809)
    start = time.time()
    mismatches = 0
    for _ in range(200):
        u = helpers.random_universe(rng, 12)
        props = [helpers.random_formula(rng, u, 3) for _ in range(rng.randrange(0, 4))]
        if enumerate_models(props, u).masks != enumerate_models_bruteforce(props, u):
            mismatches += 1
    elapsed = time.time() - start
    ok = mismatches == 0 and elapsed < 10.0
    _report(1, ok, f"200 random fabulas, {mismatches} oracle mismatches, {elapsed:.2f}s")
    assert ok


def test_criterion_02_fixture_exact_values():
    timeline = parse_story((DATA / "cards.story").read_text(encoding="utf-8"))
    u = timeline.universe
    s0 = enumerate_models(timeline.steps[0])
    s1 = enumerate_models(timeline.steps[1])
    proportion = truth_proportion(s0, u.atom("wears", "ali", "blue"))
    ewc = world_coherence(
        s0, [Question(Constant(True), u.atom("wears", "ali", "blue"))]
    )
    ok = (
        len(s0) == 64
        and len(s1) == 32
        and proportion == Fraction(1, 2)
        and ewc == Fraction(1, 2)
    )
    _report(2, ok, f"|S(0)|={len(s0)}, |S(1)|={len(s1)}, P={proportion}, EWC={ewc}")
    assert ok


def test_criterion_03_expansion_agreement_property():
    rng = random.Random(33)
    violations = 0
    for _ in range(100):
        u = helpers.random_universe(rng, 10)
        t = helpers.random_monotone_timeline(rng, u, 5)
        sets = [enumerate_models(step) for step in t.steps]
        for i in range(1, len(sets)):
            shared = intersect(sets[i - 1], sets[i])
            rho = delta(t.steps[i - 1], t.steps[i]).additions
            if not all(evaluate(w, r) for w in shared for r in rho):
                violations += 1
    ok = violations == 0
    _report(3, ok, f"100 expansion-only timelines, {violations} agreement violations")
    assert ok


def test_criterion_04_filter_classification_matches_axiom_oracle():
    rng = random.Random(44)
    u = helpers.chain_universe(3)
    disagreements = 0
    for _ in range(500):
        n = rng.randrange(1, 6)
        base = WorldSet(u, rng.sample(range(8), n))
        fam = frozenset(
            rng.randrange(1 << n) for _ in range(rng.randrange(0, (1 << n) + 1))
        )
        if is_weak_filter(fam, base) != weak_filter_oracle(fam, n):
            disagreements += 1
        if is_weak_ultrafilter(fam, base) != weak_ultrafilter_oracle(fam, n):
            disagreements += 1
    ok = disagreements == 0
    _report(4, ok, f"500 fuzzed families, {disagreements} oracle disagreements")
    assert ok


def _random_weak_filter(rng: random.Random, u: Universe) -> WeakFilter | None:
    n = rng.randrange(1, 6)
    base = WorldSet(u, rng.sample(range(1 << u.atom_count), n))
    seeds = [rng.randrange(1, 1 << n) for _ in range(rng.randrange(1, 3))]
    fam = frozenset(m for m in range(1 << n) if any(m & s == s for s in seeds))
    if not is_weak_filter(fam, base):
        return None
    return WeakFilter.from_members(base, fam)


def test_criterion_05_ultrafilter_extension():
    rng = random.Random(55)
    u = helpers.chain_universe(3)
    failures = 0
    done = 0
    while done < 100:
        f = _random_weak_filter(rng, u)
        if f is None:
            continue
        done += 1
        uf1 = extend_to_ultrafilter(f)
        uf2 = extend_to_ultrafilter(f)
        if not (
            f.member_masks() <= uf1.member_masks()
            and is_weak_ultrafilter(uf1.member_masks(), f.base)
            and uf1.member_masks() == uf2.member_masks()
        ):
            failures += 1
    ok = failures == 0
    _report(5, ok, f"100 fuzzed weak filters extended, {failures} failures")
    assert ok


def _semantic_formula_classes(universe: Universe, max_depth: int):
    """One representative per truth table reachable at the given depth.

    Exhaustive stand-in for 'all formulas of depth <= d': both sides of the
    vote property depend on a formula only through its truth table.
    """
    seen: dict[int, object] = {}
    frontier = []
    for a in universe.atoms:
        col = truth_column(a, universe)
        if col not in seen:
            seen[col] = a
            frontier.append(a)
    for _ in range(max_depth):
        new = []
        pool = list(seen.values())
        for f in frontier:
            for g in pool:
                for h in (Not(f), And((f, g)), Or((f, g)), Implies(f, g), Implies(g, f)):
                    col = truth_column(h, universe)
                    if col not in seen:
                        seen[col] = h
                        new.append(h)
        if not new:
            break
        frontier = new
    return list(seen.values())


def _all_weak_ultrafilters(base: WorldSet):
    n = len(base)
    subsets = range(1 << n)
    for family_bits in range(1 << (1 << n)):
        fam = frozenset(s for s in subsets if family_bits >> s & 1)
        if is_weak_ultrafilter(fam, base):
            yield fam


def test_criterion_06_ultraproduct_vote_property():
    start = time.time()
    violations = 0
    checked = 0
    witness = None
    for n_atoms in (1, 2):
        u = helpers.chain_universe(n_atoms)
        formulas = _semantic_formula_classes(u, 3)
        world_masks = range(1 << u.atom_count)
        for size in range(1, 5):
            for masks in itertools.combinations(world_masks, size):
                base = WorldSet(u, masks)
                for fam in _all_weak_ultrafilters(base):
                    uf = WeakUltrafilter(base, fam, _validated=True)
                    up = ultraproduct(uf)
                    for f in formulas:
                        checked += 1
                        voted = uf.is_member(support_mask(base, f))
                        if evaluate(up, f) != voted:
                            violations += 1
                            if witness is None:
                                witness = (base.masks, sorted(fam), f)
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < 60.0
    detail = f"{checked} checks, {violations} violations, {elapsed:.1f}s"
    if witness is not None:
        from storyworlds.story import formula_to_str

        detail += (
            f"; first witness: base masks {witness[0]}, family {witness[1]}, "
            f"formula {formula_to_str(witness[2])}"
        )
    _report(6, ok, detail)
    assert ok, (
        "the ultraproduct vote only commutes with the connectives for "
        "principal weak ultrafilters; non-principal families (majority votes) "
        "violate it on conjunctions/disjunctions"
    )


def test_criterion_07_conveyance_round_trip():
    rng = random.Random(77)
    failures = 0
    worlds = []
    for _ in range(100):
        u = helpers.random_universe(rng, 16)
        w = World(u, rng.randrange(1 << u.atom_count))
        worlds.append(w)
        state = reconstruct(transmit(compress(w), Channel.identity()))
        rep = accuracy_report(w, state)
        if not (rep.accuracy == 1 and rep.undetermined == 0):
            failures += 1
    corrupt_checks = 0
    for w in worlds[:20]:
        n = w.universe.atom_count
        for lit in w.literals():
            state = reconstruct(transmit(compress(w), Channel.corrupt({lit})))
            rep = accuracy_report(w, state)
            corrupt_checks += 1
            if rep.accuracy != Fraction(n - 1, n) or rep.mismatched != 1:
                failures += 1
    for w in worlds[:40]:
        lits = w.literals()
        targets = {lits[i] for i in rng.sample(range(len(lits)), min(2, len(lits)))}
        state = reconstruct(transmit(compress(w), Channel.drop(targets)))
        if accuracy_report(w, state).mismatched != 0:
            failures += 1
    ok = failures == 0
    _report(
        7,
        ok,
        f"100 identity round trips, {corrupt_checks} corrupt-one-atom checks, "
        f"40 drop checks, {failures} failures",
    )
    assert ok


def test_criterion_08_entropy_checks(cards_universe, worlds_s0):
    exact_half = binary_entropy(Fraction(1, 2)) == 1.0
    grid_ok = all(
        abs(binary_entropy(i / 100) - binary_entropy(1 - i / 100)) <= 1e-12
        for i in range(1, 100)
    )
    q = Question(
        cards_universe.atom("wears", "ali", "blue"),
        cards_universe.atom("wears", "ali", "red"),
        (True, True),
    )
    independent_zero = relevance(q, worlds_s0) == 0.0
    ok = exact_half and grid_ok and independent_zero
    _report(
        8,
        ok,
        f"H(1/2)==1: {exact_half}, symmetry grid: {grid_ok}, "
        f"independent relevance==0: {independent_zero}",
    )
    assert ok


def test_criterion_09_kernel_detection():
    timeline = parse_story((DATA / "reveal.story").read_text(encoding="utf-8"))
    states = evolve(timeline, Channel.identity())
    report = detect_kernels(states, Fraction(1, 2))
    ok = report.kernels == (3,) and report.steps[3].changed_fraction == Fraction(3, 4)
    _report(9, ok, f"kernels={report.kernels}, fraction at t=3: {report.steps[3].changed_fraction}")
    assert ok


def test_criterion_10_cli_determinism(tmp_path):
    import jsonschema
    from importlib import resources

    from storyworlds.cli import main

    story = str(DATA / "cards.story")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["analyze", story, "--seed", "11", "--sample-k", "8"]
    code_a = main(args + ["--out", str(a)])
    code_b = main(args + ["--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    schema = json.loads(
        (resources.files("storyworlds") / "schemas" / "report.schema.json").read_text()
    )
    try:
        jsonschema.validate(json.loads(a.read_text()), schema)
        valid = True
    except jsonschema.ValidationError:
        valid = False
    ok = code_a == 0 and code_b == 0 and identical and valid
    _report(10, ok, f"byte-identical: {identical}, schema valid: {valid}")
    assert ok


if __name__ == "__main__":
    import sys
    import tempfile

    from storyworlds.logic import Universe as _U

    _cards = _U(
        {"person": ("jay", "ali"), "color": ("blue", "red")},
        [("wears", ("person", "color")), ("plays", ("person", "person"))],
    )
    _s0 = enumerate_models(
        [_cards.atom("wears", "jay", "blue"), _cards.atom("plays", "ali", "jay")],
        _cards,
    )

    def _criterion_10():
        with tempfile.TemporaryDirectory() as tmp:
            test_criterion_10_cli_determinism(Path(tmp))

    runners = [
        test_criterion_01_enumeration_matches_bruteforce_oracle,
        test_criterion_02_fixture_exact_values,
        test_criterion_03_expansion_agreement_property,
        test_criterion_04_filter_classification_matches_axiom_oracle,
        test_criterion_05_ultrafilter_extension,
        test_criterion_06_ultraproduct_vote_property,
        test_criterion_07_conveyance_round_trip,
        lambda: test_criterion_08_entropy_checks(_cards, _s0),
        test_criterion_09_kernel_detection,
        _criterion_10,
    ]
    failed = 0
    for run in runners:
        try:
            run()
        except AssertionError:
            failed += 1
    print(f"{len(runners) - failed}/{len(runners)} acceptance criteria passed")
    sys.exit(1 if failed else 0)

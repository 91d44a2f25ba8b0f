"""Self-tests of the benchmark: generator determinism, its independent model
counter, the tail-percentile rule, failure counting and the tracing instrument.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import storygen  # noqa: E402
import storyworlds.cli as cli  # noqa: E402

SCHEMA = BENCH.parent / "src" / "storyworlds" / "schemas" / "report.schema.json"


@pytest.mark.parametrize("workload", storygen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = [storygen.generate(workload, 11, i) for i in range(4)]
    again = [storygen.generate(workload, 11, i) for i in range(4)]
    other = [storygen.generate(workload, 12, i) for i in range(4)]
    assert first == again
    assert [s.text for s in first] != [s.text for s in other]


@pytest.mark.parametrize("workload", storygen.WORKLOADS)
def test_generated_stories_have_their_workload_property(workload):
    stories = [storygen.generate(workload, 3, i) for i in range(40)]
    measured = storygen.shares(workload, stories)
    if workload == "corpus":
        assert measured["refused"] == pytest.approx(0.1)
        assert all(measured[f"channel_{k}"] > 0 for k in storygen.CHANNEL_KINDS)


def _brute_force(formula, atoms, mask):
    op = formula[0]
    if op == "atom":
        return bool(mask >> atoms.index(formula[1]) & 1)
    if op == "not":
        return not _brute_force(formula[1], atoms, mask)
    if op == "and":
        return all(_brute_force(g, atoms, mask) for g in formula[1])
    if op == "or":
        return any(_brute_force(g, atoms, mask) for g in formula[1])
    return not _brute_force(formula[1], atoms, mask) or _brute_force(formula[2], atoms, mask)


def test_model_counter_matches_brute_force():
    rng = random.Random(5)
    atoms = [f"p({c})" for c in "abcde"]
    table = storygen.Table(atoms)
    for _ in range(50):
        formulas = [storygen._random_formula(rng, atoms) for _ in range(rng.randint(1, 3))]
        expected = sum(
            all(_brute_force(f, atoms, m) for f in formulas) for m in range(1 << len(atoms))
        )
        assert table.models(formulas).bit_count() == expected


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile([float(i) for i in range(99)]) is None
    value, beyond = run.tail_percentile([float(i) for i in range(100)])
    assert (value, beyond) == (89.0, 10)
    value, beyond = run.tail_percentile([float(i) for i in range(1000, 0, -1)])
    assert (value, beyond) == (900.0, 100)


def test_failure_counting_on_refusals():
    checker = gate.Gate(SCHEMA)
    story = storygen.generate("corpus", 0, 9)
    assert (story.refusal, story.expect_exit) == ("inconsistent", 2)
    good = gate.Outcome(2, b"", None, "error: step t=2 is inconsistent\n")
    assert checker.check(story, good) == []
    assert checker.check(story, gate.Outcome(1, b"", None, "error: x\n"))
    assert checker.check(story, gate.Outcome(2, b"", None, "Traceback (most recent call last):\n"))
    assert checker.check(story, gate.Outcome(None, b"", None, "", "Traceback ...\nRecursionError"))
    assert checker.check(story, gate.Outcome(2, b"{}", None, "error: x\n"))


def test_failure_counting_on_reports(tmp_path):
    checker = gate.Gate(SCHEMA)
    calls = run.Calls("corpus", 0, tmp_path)
    run.cli = cli
    story, outcome, _ = calls.run(0)
    assert story.fmt == "json" and checker.check(story, outcome) == []
    count = story.world_counts[0]
    tampered = outcome.report.replace(
        f'"world_count": {count}\n'.encode(), f'"world_count": {count + 1}\n'.encode(), 1
    )
    assert tampered != outcome.report
    bad = gate.Outcome(0, tampered, None, "")
    assert checker.check(story, bad)
    assert checker.check(story, gate.Outcome(0, b"not json", None, ""))
    assert gate.compare(outcome.digest(), bad.digest())
    assert gate.compare(outcome.digest(), outcome.digest()) == []


@pytest.mark.parametrize(
    "workload, indices",
    [("wide", range(2)), ("churn", range(2)), ("corpus", range(20))],
)
def test_calls_pass_the_gate_and_the_traced_call_matches(tmp_path, workload, indices):
    """Plain calls pass the gate, and the instrumented call gives the same bytes."""
    checker = gate.Gate(SCHEMA)
    calls = run.Calls(workload, 1, tmp_path)
    run.cli = cli
    tracer = spans.Tracer()
    traced_main = tracer.wrap(spans.MAIN_SPAN, cli.main)
    originals = [getattr(sys.modules["storyworlds." + m], a) for m, a, _ in spans.HOOKS]
    analysed = []
    for index in indices:
        story, plain, _ = calls.run(index)
        assert checker.check(story, plain) == [], (index, story.text)
        tracer.analysis = index
        with spans.instrument(tracer):
            _, traced, _ = calls.run(index, traced_main)
        assert traced.digest() == plain.digest()
        if plain.code == 0:
            analysed.append(index)
    assert [getattr(sys.modules["storyworlds." + m], a) for m, a, _ in spans.HOOKS] == originals
    assert {s[3] for s in tracer.spans} <= set(spans.SPAN_NAMES)
    totals = tracer.layer_totals()
    assert analysed
    for i in analysed:
        assert totals[i]["story.parse_story"] > 0 and totals[i]["worlds.enumerate_models"] > 0
        # Direct children of cli.main: the analysis, its render, and self time.
        parts = totals[i]["report.run_analysis"] + totals[i].get("report.render", 0.0)
        assert totals[i]["cli.main"] == pytest.approx(parts + totals[i]["cli.main.self"])


def test_every_span_is_a_declared_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"] for m in spec["per_layer"]}
    assert {name + "_ms" for name in spans.SPAN_NAMES} <= declared


def test_recursive_calls_get_one_span():
    tracer = spans.Tracer()

    def depth(n):
        return 0 if n == 0 else 1 + traced(n - 1)

    traced = tracer.wrap("depth", depth)
    assert traced(5) == 5
    assert [s[3] for s in tracer.spans] == ["depth"]
    assert tracer.last["depth"] == 5


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.spans = [
        (0, 0, -1, "root", 0, 100),
        (0, 1, 0, "child", 10, 40),
        (0, 2, 0, "child", 50, 70),
        (0, 3, 2, "leaf", 55, 60),
    ]
    assert tracer.self_times() == {0: 50, 1: 30, 2: 15, 3: 5}
    totals = tracer.layer_totals()[0]
    assert totals["child"] == pytest.approx(50 / 1e6)
    assert totals["root.self"] == pytest.approx(50 / 1e6)


def test_refusal_kinds_cycle():
    kinds = [storygen.generate("corpus", 2, i).refusal for i in range(60)]
    refusals = [k for k in kinds if k]
    assert len(refusals) == 6
    assert set(refusals) == set(storygen.REFUSALS)
    assert [k for k, _ in itertools.groupby(refusals)] == refusals


def test_size_mix_of_a_cycle_is_the_same_for_every_seed():
    def mix(workload, seed):
        cycle = storygen.CYCLES[workload]
        stories = [storygen.generate(workload, seed, i) for i in range(cycle, 2 * cycle)]
        return sorted(
            (s.text.count("\nrel "), s.world_counts[-1:] if workload == "wide" else (), s.refusal or "")
            for s in stories
        )

    for workload in storygen.WORKLOADS:
        assert mix(workload, 4) == mix(workload, 5)


def test_story_time_is_the_slowest_pass():
    assert run.slowest([[3.0, 1.0], [2.0, 5.0], [1.0, 4.0]]) == [3.0, 5.0]

"""Benchmark for the storyworlds analysis pipeline.

    python3 bench/run.py --workload {wide,churn,corpus} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. One client in one process, no threads, runs
a closed loop of ``storyworlds analyze`` calls (``storyworlds.cli.main`` in
process): the next call starts only after the previous one returns. The
stories come from the seeded generator in ``storygen.py``.

``--trace 0`` measures the end-to-end metrics with tracing off, timing each
story in PASSES passes and keeping its slowest run. ``--trace 1``
runs each call again with every pipeline stage in a span (``spans.py``) and
reports the per-layer metrics. Every call passes the correctness gate in
``gate.py`` outside the timed region. The last line of stdout is the result
as JSON; the line before it is the run record (machine, Python, nproc,
spin-loop timings, sample count and the generator's measured property
shares). Both are also written under ``bench/out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import storygen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("wide", "churn", "corpus")
# A 90th percentile is reported only with at least ten samples beyond it,
# which takes at least a hundred samples.
TAIL_QUANTILE = 0.9
MIN_BEYOND = 10
MIN_SAMPLES = 100
# Measuring continues past --seconds until the tail is reportable: a traced
# run for at most MAX_MEASURE_S, an end-to-end run's first pass for at most
# MAX_FIRST_PASS_S (so all three passes end well within three minutes).
MAX_MEASURE_S = 60
MAX_FIRST_PASS_S = 45
# End-to-end runs time every story this many times, a pass apart.
PASSES = 3
SETUP_PER_PASS = 4
WARM_UP_INDEX = 10**6
# Traced runs compute counts over this many leading calls, so that counts
# repeat exactly for a seed however fast the machine is.
COUNT_PREFIX = {"wide": 40, "churn": 40, "corpus": 200}

# Self times: what a span spends outside its child spans.
SELF_SPANS = {"cli.overhead_ms": "cli.main", "report.unattributed_ms": "report.run_analysis"}
COUNTS = (
    "worlds.world_count_sum",
    "worlds.column_bits",
    "metrics.kernel_count",
    "metrics.satellite_links",
    "metrics.relevance_pairs",
    "report.warning_count",
)


class BenchError(Exception):
    """The benchmark itself cannot produce a valid result."""


def tail_percentile(samples: list[float], q: float = TAIL_QUANTILE) -> tuple[float, int] | None:
    """Nearest-rank ``q`` quantile and the number of samples ranked above it,
    or None when fewer than MIN_BEYOND samples lie beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < MIN_BEYOND:
        return None
    return ordered[rank - 1], beyond


def spin_ms() -> float:
    """Median time of a fixed pure-Python loop: context for noisy phases,
    never used to rescale a metric."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def import_seconds() -> float:
    """Wall time for a fresh interpreter to import storyworlds.cli, which
    every CLI invocation pays."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import storyworlds.cli"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT,
        check=True,
        capture_output=True,
    )
    return time.perf_counter() - start


class Calls:
    """Builds the CLI call for story ``index`` of the workload."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.out_path = workdir / "report.out"

    def prepare(self, index: int):
        story = storygen.generate(self.workload, self.seed, index)
        if story.fixture is not None:
            path = ROOT / story.fixture
        else:
            path = self.workdir / "input.story"
            path.write_text(story.text, encoding="utf-8")
        return story, story.argv(str(path), str(self.out_path))

    def run(self, index: int, main=None):
        story, argv = self.prepare(index)
        outcome, elapsed = gate.call(main or cli.main, argv, self.out_path)
        return story, outcome, elapsed


def report_problems(problems: list[tuple[int, list[str]]]) -> None:
    for index, found in problems[:5]:
        print(f"call {index} failed: {'; '.join(found)}", file=sys.stderr)


def slowest(passes: list[list[float]]) -> list[float]:
    """Each story's time: the slowest of its timed runs, one per pass."""
    return [max(runs) for runs in zip(*passes)]


def untraced(calls: Calls, seconds: float) -> tuple[dict, dict]:
    """End-to-end run in PASSES timed passes over the same stories.

    The first pass analyses fresh stories until it has used its share of
    --seconds, in whole generator cycles and at least MIN_SAMPLES of them;
    each later pass analyses the same stories again in the same order, and
    each call's output must match the first pass's byte for byte. A story's
    time is the slowest of its runs. The runs of one story lie a pass apart,
    so a story timed only in a fast phase of a shared machine is rare, and a
    memo that only speeds up a repeated call cannot lower the figure. Set-up
    is timed SETUP_PER_PASS times between the calls of each pass. The gate
    checks each call outside the timed region."""
    checker = gate.Gate(SRC / "storyworlds" / "schemas" / "report.schema.json")
    import_seconds()  # writes the bytecode cache, as a package's first use does
    calls.run(WARM_UP_INDEX)  # untimed, on a story outside the measured ones
    # The harness's own share of the peak: interpreter, package, schema validator.
    rss_before_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cycle = storygen.CYCLES[calls.workload]
    pass_ns = seconds * 1e9 / PASSES
    passes: list[list[float]] = []
    digests, problems, setup = [], {}, []
    total_ns = 0

    def more(number: int, index: int) -> bool:
        if number:
            return index < len(digests)
        wanted = total_ns < pass_ns or index < MIN_SAMPLES or index % cycle
        return wanted and total_ns < MAX_FIRST_PASS_S * 1e9

    for number in range(PASSES):
        times: list[float] = []
        index = 0
        setup_at = [total_ns + k * pass_ns / SETUP_PER_PASS for k in range(SETUP_PER_PASS)]
        while more(number, index):
            story, outcome, elapsed = calls.run(index)
            times.append(elapsed / 1e6)
            total_ns += elapsed
            if number == 0:
                digests.append(outcome.digest())
                found = checker.check(story, outcome)
            else:
                found = gate.compare(digests[index], outcome.digest())
            if found:
                problems.setdefault(index, found)
            if setup_at and total_ns >= setup_at[0]:
                setup.append(import_seconds())
                setup_at.pop(0)
            index += 1
        passes.append(times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report_problems(sorted(problems.items()))

    durations = slowest(passes)
    tail = tail_percentile(durations)
    if tail is None:
        raise BenchError(f"only {len(durations)} stories in {MAX_FIRST_PASS_S} s; no 90th percentile")
    attempted, failed = len(durations), len(problems)
    metrics = {
        "analyze_p50_ms": (statistics.median(durations), "ms"),
        "analyze_p90_ms": (tail[0], "ms"),
        "analyses_per_s": ((attempted - failed) / (sum(durations) / 1e3), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    stories = [storygen.generate(calls.workload, calls.seed, i) for i in range(attempted)]
    info = {
        "samples": attempted,
        "passes": PASSES,
        "pass_medians_ms": [statistics.median(times) for times in passes],
        "p90_samples_beyond": tail[1],
        "setup_samples": len(setup),
        "peak_rss_before_timed_mb": rss_before_mb,
        "measured_s": total_ns / 1e9,
        "generator": storygen.shares(calls.workload, stories),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, info


def traced(calls: Calls, seconds: float) -> tuple[dict, dict]:
    """Per-layer run: each call runs plainly, then again with every stage of
    the pipeline in a span (``spans.instrument``); the two outputs must be
    byte-identical."""
    checker = gate.Gate(SRC / "storyworlds" / "schemas" / "report.schema.json")
    tracer = spans.Tracer()
    traced_main = tracer.wrap(spans.MAIN_SPAN, cli.main)
    real_run = cli.run_analysis
    plain_run_ms: dict[int, float] = {}

    def timed_run(config, story_text=None):
        start = time.perf_counter_ns()
        try:
            return real_run(config, story_text)
        finally:
            plain_run_ms[index] = (time.perf_counter_ns() - start) / 1e6

    prefix = COUNT_PREFIX[calls.workload]
    analysed, overhead, counts, stories, problems = [], {}, {}, [], []
    total_ns = 0
    index = 0
    while (total_ns < seconds * 1e9 or index < prefix) and total_ns < MAX_MEASURE_S * 1e9:
        cli.run_analysis = timed_run
        try:
            story, plain, plain_ns = calls.run(index)
        finally:
            cli.run_analysis = real_run
        tracer.analysis = index
        tracer.last.clear()
        with spans.instrument(tracer):
            _, instrumented, traced_ns = calls.run(index, traced_main)
        total_ns += plain_ns + traced_ns
        stories.append(story)

        found = checker.check(story, plain) + gate.compare(plain.digest(), instrumented.digest())
        if found:
            problems.append((index, found))
        elif plain.code == 0:
            analysed.append(index)
            overhead[index] = (traced_ns - plain_ns) / 1e6
            if index < prefix:
                last = tracer.last
                counts[index] = spans.analysis_counts(
                    last["conveyance.evolve"],
                    last.get("metrics.classify_satellites"),
                    last["report.run_analysis"],
                )
        index += 1
    report_problems(problems)
    if not analysed:
        raise BenchError("no call produced a report")

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{calls.workload}-seed{calls.seed}.jsonl")
    totals = tracer.layer_totals()

    # Times are means per analysis, so that the layers' self times add up
    # to the whole, and a stage that runs in few analyses still shows.
    mean = statistics.fmean
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}_ms"] = (mean(totals[a].get(name, 0.0) for a in analysed), "ms")
    for metric, name in SELF_SPANS.items():
        metrics[metric] = (mean(totals[a][name + ".self"] for a in analysed), "ms")
    metrics["report.run_analysis_plain_ms"] = (mean(plain_run_ms[a] for a in analysed), "ms")
    metrics["trace.overhead_ms"] = (mean(overhead.values()), "ms")
    if not counts:
        raise BenchError("no leading call produced a report to count")
    for name in COUNTS:
        metrics[name] = (statistics.median(c[name] for c in counts.values()), "count")
    checked = [c["report.reconciliation_checked"] for c in counts.values()]
    metrics["report.reconciliation_checked_ratio"] = (sum(checked) / len(checked), "ratio")

    info = {
        "samples": len(analysed),
        "counted_calls": len(counts),
        "measured_s": total_ns / 1e9,
        "generator": storygen.shares(calls.workload, stories),
    }
    return {"attempted": index, "failed": len(problems), "metrics": metrics}, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="storyworlds benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    if not (SRC / "storyworlds" / "cli.py").is_file():
        print(f"error: no storyworlds sources under {SRC}", file=sys.stderr)
        return 2
    missing = [f for f in storygen.FIXTURES if not (ROOT / f).is_file()]
    if missing:
        print(f"error: fixture stories missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": platform.machine(),
        "cpu": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "spin_start_ms": spin_ms(),
    }

    # The checkout's sources come first, so an installed storyworlds never
    # stands in for the one under test.
    sys.path.insert(0, str(SRC))
    global cli, spans
    import spans
    import storyworlds.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported storyworlds from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    calls = Calls(args.workload, args.seed, workdir)
    try:
        if args.trace:
            result, info = traced(calls, args.seconds)
        else:
            result, info = untraced(calls, args.seconds)
    except (BenchError, storygen.PropertyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(info)
    record["spin_end_ms"] = spin_ms()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    measured = {k: u for k, (_, u) in result["metrics"].items()}
    if measured != declared:
        print(f"error: metrics {measured} differ from BENCHMARK.json {declared}", file=sys.stderr)
        return 1
    output = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k][0], "unit": u} for k, u in declared.items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"run_record": record, "result": output}, indent=2) + "\n")
    print(json.dumps({"run_record": record}))
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

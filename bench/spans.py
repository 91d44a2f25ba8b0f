"""The benchmark's one tracing instrument.

``Tracer`` keeps spans in memory as ``(analysis, id, parent, name, start_ns,
end_ns)`` and writes them out when the run ends; a span's self time is its
duration minus the durations of its direct children (children never overlap,
since the pipeline is sequential).

``instrument`` puts a span around every call of the pipeline's stages while a
traced call runs. Each ``storyworlds`` module calls the stages it uses
through its own module-level names (``report.run_analysis`` calls
``report.parse_story``, ``report.evolve`` and so on; ``conveyance.evolve``
calls ``conveyance.reconstruct``, which calls ``conveyance.enumerate_models``).
``instrument`` replaces those names, listed in ``HOOKS``, with wrappers that
open a span and call the original, and puts the originals back afterwards.
The traced call therefore runs the program's own ``run_analysis`` and
``evolve``; nothing under ``src/`` is changed and nothing of the pipeline is
copied here. A stage that an analysis skips (reconciliation over more than
ten worlds, transitional coherence without kernels) records no span.

Span names are ``module.function`` after the module that defines the
function (``report.render`` for ``render_report``, ``conveyance.rewrite`` for
``_rewrite``). A wrapped function that calls itself (``logic.truth_column``
recurses over a formula) gets one span for the outermost call.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from storyworlds.metrics import kernel_questions

# (module, name that module's code calls, span name). A stage called from
# several modules is hooked in each of them, under one span name.
HOOKS = (
    ("cli", "run_analysis", "report.run_analysis"),
    ("cli", "render_report", "report.render"),
    ("report", "parse_story", "story.parse_story"),
    ("report", "parse_channel_spec", "conveyance.parse_channel_spec"),
    ("report", "evolve", "conveyance.evolve"),
    ("report", "resolve_truth_world", "report.resolve_truth_world"),
    ("report", "sample_worlds", "worlds.sample_worlds"),
    ("report", "derive_world_questions", "metrics.derive_world_questions"),
    ("report", "world_coherence", "metrics.world_coherence"),
    ("report", "mean_question_entropy", "metrics.mean_question_entropy"),
    ("report", "delta", "story.delta"),
    ("report", "intersect", "worlds.intersect"),
    ("report", "agreement_check", "worlds.agreement_check"),
    ("report", "detect_kernels", "metrics.detect_kernels"),
    ("report", "classify_satellites", "metrics.classify_satellites"),
    ("report", "compress", "conveyance.compress"),
    ("report", "transmit", "conveyance.transmit"),
    ("report", "reconstruct", "conveyance.reconstruct"),
    ("report", "accuracy_report", "conveyance.accuracy_report"),
    ("report", "transitional_coherence", "metrics.transitional_coherence"),
    ("report", "extend_to_ultrafilter", "filters.extend_to_ultrafilter"),
    ("report", "ultraproduct", "filters.ultraproduct"),
    ("conveyance", "delta", "story.delta"),
    ("conveyance", "_rewrite", "conveyance.rewrite"),
    ("conveyance", "apply_transition", "story.apply_transition"),
    ("conveyance", "reconstruct", "conveyance.reconstruct"),
    ("conveyance", "enumerate_models", "worlds.enumerate_models"),
    ("conveyance", "plausible_facts", "filters.plausible_facts"),
    ("logic", "truth_column", "logic.truth_column"),
    ("worlds", "truth_column", "logic.truth_column"),
    ("metrics", "truth_column", "logic.truth_column"),
)
# The span the benchmark opens around each traced ``cli.main`` call.
MAIN_SPAN = "cli.main"
SPAN_NAMES = tuple(dict.fromkeys([MAIN_SPAN] + [name for _, _, name in HOOKS]))


class Tracer:
    """In-memory spans for one run, grouped by analysis number."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.analysis = 0
        # Open spans, innermost last, as (id, name).
        self._stack: list[tuple[int, str]] = []
        # The latest return value of each span name, for counting outside
        # any span.
        self.last: dict[str, Any] = {}

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around each outermost call."""
        spans, stack, last = self.spans, self._stack, self.last
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            sid = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append((sid, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self.analysis, sid, parent, name, start, end)
            last[name] = result
            return result

        return traced

    def self_times(self) -> dict[int, int]:
        """Span id -> duration minus the durations of its direct children."""
        own = {s[1]: s[5] - s[4] for s in self.spans}
        for s in self.spans:
            if s[2] >= 0:
                own[s[2]] -= s[5] - s[4]
        return own

    def layer_totals(self) -> dict[int, dict[str, float]]:
        """Per analysis: each span name's summed duration in ms, plus each
        name's summed self time under ``<name>.self``."""
        own = self.self_times()
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for analysis, sid, _, name, start, end in self.spans:
            out[analysis][name] += (end - start) / 1e6
            out[analysis][name + ".self"] += own[sid] / 1e6
        return out

    def write(self, path: Path) -> None:
        own = self.self_times()
        with path.open("w", encoding="utf-8") as fh:
            for analysis, sid, parent, name, start, end in self.spans:
                record = {
                    "analysis": analysis,
                    "id": sid,
                    "parent": parent if parent >= 0 else None,
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "self_ns": own[sid],
                }
                fh.write(json.dumps(record) + "\n")


@contextmanager
def instrument(tracer: Tracer):
    """Within the block, every stage in ``HOOKS`` runs inside a span."""
    saved = []
    try:
        for module_name, attr, name in HOOKS:
            module = importlib.import_module("storyworlds." + module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def analysis_counts(states, kernels, report) -> dict[str, float]:
    """Work counts of one analysis; these repeat exactly for a given story."""
    pairs = 0
    if kernels is not None:
        kernel_steps = set(kernels.kernels)
        for k in kernels.kernels:
            priors = sum(1 for s in range(1, k) if s not in kernel_steps)
            pairs += len(kernel_questions(states, k)) * priors
    return {
        "worlds.world_count_sum": sum(len(s.worlds) for s in states),
        "worlds.column_bits": 1 << states[0].worlds.universe.atom_count,
        "metrics.kernel_count": len(kernels.kernels) if kernels is not None else 0,
        "metrics.satellite_links": len(report["satellites"]),
        "metrics.relevance_pairs": pairs,
        "report.warning_count": len(report["warnings"]),
        "report.reconciliation_checked": int(report["reconciliation"]["checked"]),
    }

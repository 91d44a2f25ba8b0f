"""Run configuration and the end-to-end analysis report.

A report is a plain JSON-ready dict assembled deterministically: identical
configurations (including the seed) produce byte-identical output. Exact
rationals are carried as num/den pairs alongside a float rendering so nothing
downstream depends on float formatting.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Mapping, Sequence

from .conveyance import (
    accuracy_report,
    compress,
    evolve,
    parse_channel_spec,
    reconstruct,
    transmit,
)
from .errors import MetricError
from .filters import extend_to_ultrafilter, ultraproduct
from .logic import DEFAULT_ATOM_BOUND, Atom, Not, Universe, World, check_atom_count
from .metrics import (
    KernelReport,
    KernelStep,
    Question,
    classify_satellites,
    detect_kernels,
    sample_coherence,
    transitional_coherence,
)
from .story import Timeline, formula_to_str, parse_formula, parse_formula_list, parse_story
from .worlds import sample_worlds

# Unused here, but the benchmark's tracing hooks (bench/spans.py HOOKS) look
# these names up on this module; they go when an in-source stage trace
# replaces the hooks (ROADMAP item 3).
from .metrics import derive_world_questions, mean_question_entropy, world_coherence  # noqa: F401
from .story import delta  # noqa: F401
from .worlds import agreement_check, intersect  # noqa: F401

CSV_COLUMNS = (
    "step",
    "world_count",
    "belief_count",
    "changed_fraction_num",
    "changed_fraction_den",
    "changed_fraction",
    "is_kernel",
    "world_coherence_num",
    "world_coherence_den",
    "world_coherence",
)


@dataclass(frozen=True)
class RunConfig:
    """Everything an analysis run depends on."""

    story: str
    channel: str = "identity"
    truth: str = "first-canonical"
    sample_k: int = 16
    seed: int = 0
    theta: Fraction = Fraction(1, 2)
    epsilon: float = 0.0
    bound: int = DEFAULT_ATOM_BOUND
    format: str = "json"
    out: str | None = None
    questions: tuple[Mapping[str, Any], ...] = ()

    def __post_init__(self):
        if self.sample_k < 1:
            raise ValueError("sample_k must be positive")
        check_atom_count(0, self.bound)  # the one range check of a bound
        if not 0 <= self.theta <= 1:
            raise ValueError("theta must lie in [0, 1]")
        if not 0 <= self.epsilon <= 1:
            raise ValueError("epsilon must lie in [0, 1]")
        if self.format not in ("json", "csv"):
            raise ValueError("format must be 'json' or 'csv'")


def read_config_file(path: str | Path) -> dict[str, Any]:
    """Read a JSON config file: one object with the same keys as the flags."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    # bad JSON, bad UTF-8, an integer past int()'s digit limit, or nesting
    # deeper than the decoder's recursion
    except (ValueError, RecursionError) as e:
        raise ValueError(f"config file {path}: {e}") from None
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    return raw


def merge_config(values: Mapping[str, Any]) -> RunConfig:
    """Build a RunConfig from flag values or config-file keys, leaving keys
    whose value is ``None`` at their defaults. A value of the wrong type is a
    ValueError that names its key."""
    unknown = set(values) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    fields_given: dict[str, Any] = {}
    for key, value in values.items():
        if value is None:
            continue
        try:
            fields_given[key] = _config_value(key, value)
        except (TypeError, ValueError) as e:
            raise ValueError(f"config key '{key}': {e}") from None
    if "story" not in fields_given:
        raise ValueError("no story file given (positional argument or config key)")
    return RunConfig(**fields_given)


def _config_value(key: str, value: Any) -> Any:
    if isinstance(value, bool) and key in ("theta", "epsilon", "sample_k", "seed", "bound"):
        raise TypeError("expected a number, not bool")
    if key == "theta":
        return parse_ratio(value)
    if key == "epsilon":
        return float(value)
    if key in ("sample_k", "seed", "bound"):
        if isinstance(value, float):
            raise TypeError("expected an integer, not float")
        return int(value)
    if key == "questions":
        if isinstance(value, (list, tuple)) and all(isinstance(q, Mapping) for q in value):
            return tuple(value)
        raise TypeError("expected a list of question objects")
    if not isinstance(value, str):
        raise TypeError(f"expected a string, not {type(value).__name__}")
    return value


def parse_ratio(value: Any) -> Fraction:
    """Parse a threshold: a number, a decimal string, or a 'p/q' string."""
    if isinstance(value, str) and re.search(r"[eE][-+]?0*[1-9]\d{3}", value):
        # Fraction("1e99999999") would build 10**99999999 before any range check
        raise ValueError(f"'{value}' has a decimal exponent of 1000 or more")
    if isinstance(value, str) and "/" in value:
        num, den = (int(part) for part in value.split("/", 1))
        if den == 0:
            raise ValueError(f"'{value}' has a zero denominator")
        return Fraction(num, den)
    if isinstance(value, float):
        # read floats decimally (0.3 -> 3/10), not as binary expansions
        return Fraction(str(value))
    return Fraction(value)


def rational(fr: Fraction) -> dict[str, Any]:
    return {"num": fr.numerator, "den": fr.denominator, "value": float(fr)}


def read_story(path: str) -> str:
    """A story file's text; a file that is not UTF-8 is a ValueError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"story file {path}: {e}") from None


def resolve_truth_world(spec: str, timeline: Timeline) -> World:
    """Pick the designated ground-truth world.

    ``first-canonical`` takes the lowest-mask model of the final fabula.
    Otherwise the spec is a semicolon-separated list of ground literals;
    listed atoms get the stated truth value, unlisted atoms default to false,
    and contradictory listings are rejected.
    """
    universe = timeline.universe
    if spec.strip() == "first-canonical":
        col = timeline.steps[-1].column
        return World(universe, (col & -col).bit_length() - 1)
    masks = [0, 0]  # the atoms listed false, and those listed true
    for f in parse_formula_list(spec, universe, "truth"):
        atom = f.operand if isinstance(f, Not) else f
        if not isinstance(atom, Atom):
            raise ValueError(f"truth spec entry '{formula_to_str(f)}' is not a ground literal")
        masks[f is atom] |= 1 << universe.atom_index(atom)
        if masks[0] & masks[1]:
            raise ValueError(f"truth spec contradicts itself on {formula_to_str(atom)}")
    return World(universe, masks[1])


def _config_questions(
    specs: Sequence[Mapping[str, Any]], universe: Universe
) -> tuple[Question, ...]:
    out = []
    for i, spec in enumerate(specs):
        if "if" not in spec or "then" not in spec:
            raise ValueError("each question needs 'if' and 'then' formulas")
        answers = spec.get("answers")
        if answers is not None:
            kinds = [type(a) for a in answers] if isinstance(answers, (list, tuple)) else None
            if kinds != [bool, bool]:
                raise ValueError("a question's 'answers' must be two booleans")
            answers = tuple(answers)
        sides = []
        for side in ("if", "then"):
            key, text = f"questions[{i}].{side}", spec[side]
            if not isinstance(text, str):
                kind = type(text).__name__
                raise ValueError(f"config key '{key}': expected a string, not {kind}")
            sides.append(parse_formula(text, universe, source=key))
        out.append(Question(*sides, answers))
    return tuple(out)


def run_analysis(config: RunConfig, story_text: str | None = None) -> dict[str, Any]:
    """Execute the full pipeline and return the JSON-ready report dict.

    ``story_text`` sidesteps file I/O when the caller already read the story.
    Raises instead of writing partial output; warnings (skipped checks,
    absent channel targets) are report fields, not failures.
    """
    if story_text is None:
        story_text = read_story(config.story)
    timeline = parse_story(story_text, bound=config.bound)
    universe = timeline.universe
    channel = parse_channel_spec(config.channel, universe)
    warnings: list[str] = []

    states = evolve(timeline, channel, warnings=warnings)
    truth = resolve_truth_world(config.truth, timeline)

    config_questions = _config_questions(config.questions, universe)

    if len(states) >= 2:
        kernels = classify_satellites(states, detect_kernels(states, config.theta), config.epsilon)
    else:
        kernels = KernelReport((KernelStep(0, Fraction(0), False),))
        warnings.append("kernel detection skipped: timeline has a single step")

    steps_out = []
    samples = []
    for t, state in enumerate(states):
        sample = sample_worlds(state.worlds, config.sample_k, config.seed)
        samples.append(sample)
        count, coherence, entropy = sample_coherence(sample, config_questions, state.cube)
        steps_out.append(
            {
                "t": t,
                "world_count": len(state.worlds),
                "belief_count": (state.cube[0] | state.cube[1]).bit_count(),
                "sample_size": len(sample),
                "world_coherence": None if coherence is None else rational(coherence),
                "world_coherence_mean_entropy": entropy,
                "world_coherence_questions": count,
                "changed_fraction": rational(kernels.steps[t].changed_fraction),
                "is_kernel": kernels.steps[t].is_kernel,
            }
        )

    reader_rt = reconstruct(transmit(compress(truth, channel), channel, warnings))
    conv = accuracy_report(truth, reader_rt, channel)

    etc_rows = []
    for k in kernels.kernels:
        row: dict[str, Any] = {"kernel_step": k, "t_then": k - 1, "t_now": k}
        try:
            value = transitional_coherence(samples[k - 1], truth, kernels, states, k - 1, k)
            row["value"] = rational(value)
        except MetricError as e:
            row["value"] = None
            warnings.append(f"transitional coherence at kernel t={k} skipped: {e}")
        etc_rows.append(row)

    satellites = [
        {
            "kernel_step": link.kernel_step,
            "satellite_step": link.satellite_step,
            "mean_relevance": link.mean_relevance,
            "question_count": link.question_count,
        }
        for link in kernels.satellites
    ]

    final = states[-1]
    up = ultraproduct(extend_to_ultrafilter(final.filter))
    reconciliation = {
        "checked": True,
        "in_final_worlds": up in final.worlds,
        "world": [formula_to_str(l) for l in up.literals()],
    }

    return {
        "config": {
            "story": str(config.story),
            "channel": config.channel,
            "truth": config.truth,
            "sample_k": config.sample_k,
            "seed": config.seed,
            "theta": rational(config.theta),
            "epsilon": config.epsilon,
            "bound": config.bound,
            "format": config.format,
        },
        "universe": {
            "sorts": {k: list(v) for k, v in universe.sorts.items()},
            "relations": {k: list(v) for k, v in universe.relations.items()},
            "atom_count": universe.atom_count,
        },
        "truth_world": [formula_to_str(l) for l in truth.literals()],
        "steps": steps_out,
        "conveyance": {
            "matched": conv.matched,
            "mismatched": conv.mismatched,
            "undetermined": conv.undetermined,
            "accuracy": rational(conv.accuracy),
            "commutes": conv.commutes,
            "mismatching_atoms": [formula_to_str(a) for a in conv.mismatching_atoms],
        },
        "transitional_coherence": etc_rows,
        "satellites": satellites,
        "reconciliation": reconciliation,
        "warnings": warnings,
    }


def render_json(report: Mapping[str, Any]) -> bytes:
    """The report as UTF-8 JSON: exactly the bytes of ``json.dumps(report,
    sort_keys=True, indent=2, ensure_ascii=False)`` plus a newline, on Python
    3.10 to 3.13. ``json`` encodes an indented dump in pure Python (3.11 uses
    its C encoder only without ``indent``), so ``_json_text`` writes it
    instead, matching values by exact type: dicts with string keys, lists,
    tuples, str, int, float, bool and None; anything else is a TypeError."""
    return (_json_text(report, "\n") + "\n").encode("utf-8")


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


_JSON_SCALARS = {
    str: encode_basestring,
    int: int.__repr__,
    float: _json_float,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _json_text(value: Any, newline: str) -> str:
    """``value`` as indented JSON whose lines start with ``newline``."""
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        items = [f"{encode_basestring(k)}: {_json_text(value[k], inner)}" for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind not in _JSON_SCALARS:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return _JSON_SCALARS[kind](value)


def render_csv(report: Mapping[str, Any]) -> bytes:
    """Per-step table with a fixed, documented column set.

    Global metrics (conveyance, transitional coherence, satellites) are only
    available in the JSON format.
    """
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in report["steps"]:
        cf = row["changed_fraction"]
        wc = row["world_coherence"]
        writer.writerow(
            [
                row["t"],
                row["world_count"],
                row["belief_count"],
                cf["num"],
                cf["den"],
                cf["value"],
                str(row["is_kernel"]).lower(),
                wc["num"] if wc else "",
                wc["den"] if wc else "",
                wc["value"] if wc else "",
            ]
        )
    return buf.getvalue().encode("utf-8")


def render_report(report: Mapping[str, Any], fmt: str) -> bytes:
    if fmt == "json":
        return render_json(report)
    if fmt == "csv":
        return render_csv(report)
    raise ValueError(f"unknown report format '{fmt}'")

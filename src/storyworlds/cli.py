"""Command-line front end.

Commands: ``validate`` (parse + consistency check), ``enumerate`` (world
count at one step), ``analyze`` (full pipeline, JSON or CSV report).

Exit codes: 0 success, 1 parse/usage error (including refused enumeration
bounds), 2 inconsistent story, 3 I/O failure.

``main(argv)`` may be called any number of times in one process, and each
call returns the same exit code it would as a fresh ``storyworlds`` process.
The argument parser is built on the first call and shared by every later
one: parsing leaves it unchanged, and argparse looks up ``sys.stdout`` and
``sys.stderr`` only when it prints.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields
from pathlib import Path

from .errors import InconsistentStepError, StoryworldsError
from .logic import Not
from .report import RunConfig, merge_config, read_config_file, read_story, render_report, run_analysis
from .story import formula_to_str, parse_story
from .worlds import enumerate_models

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INCONSISTENT = 2
EXIT_IO = 3


def cmd_validate(args: argparse.Namespace) -> int:
    text = read_story(args.story)
    timeline = parse_story(text, bound=args.bound)
    print(
        f"OK: {len(timeline.steps)} step(s), "
        f"{timeline.universe.atom_count} ground atom(s), "
        f"{len(timeline.steps[-1])} proposition(s) at the final step"
    )
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    text = read_story(args.story)
    timeline = parse_story(text, bound=args.bound)
    if not 0 <= args.t < len(timeline.steps):
        print(
            f"error: step t={args.t} out of range 0..{len(timeline.steps) - 1}",
            file=sys.stderr,
        )
        return EXIT_PARSE
    models = enumerate_models(timeline.steps[args.t])
    print(len(models))
    if args.list:
        # Each world is printed as the select streams it; nothing is listed.
        literals = [(formula_to_str(Not(a)), formula_to_str(a)) for a in models.universe.atoms]
        for world in models:
            print("  " + " ".join(lit[world.mask >> i & 1] for i, lit in enumerate(literals)))
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    values = read_config_file(args.config) if args.config else {}
    names = {f.name for f in fields(RunConfig)}
    values.update((k, v) for k, v in vars(args).items() if k in names and v is not None)
    config = merge_config(values)
    story_text = read_story(config.story)
    report = run_analysis(config, story_text)
    payload = render_report(report, config.format)
    if config.out:
        Path(config.out).write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.flush()
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one argument parser, built on first use. Every caller
    gets the same object, so none may add to it or change its defaults."""
    parser = argparse.ArgumentParser(
        prog="storyworlds",
        description="Possible-worlds analysis of story timelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse and consistency-check a story file")
    p_validate.add_argument("story")
    p_validate.add_argument("--bound", type=int, default=None)
    p_validate.set_defaults(fn=cmd_validate)

    p_enum = sub.add_parser("enumerate", help="count the worlds consistent with one step")
    p_enum.add_argument("story")
    p_enum.add_argument("-t", type=int, default=0, help="time step (default 0)")
    p_enum.add_argument("--list", action="store_true", help="also print each world")
    p_enum.add_argument("--bound", type=int, default=None)
    p_enum.set_defaults(fn=cmd_enumerate)

    p_an = sub.add_parser("analyze", help="run the full pipeline and write a report")
    p_an.add_argument("story", nargs="?", default=None)
    p_an.add_argument("--config", help="JSON config file with the same keys as the flags")
    p_an.add_argument("--channel", default=None, help="identity | drop(f;...) | corrupt(f;...) | rename(a->b,...)")
    p_an.add_argument("--truth", default=None, help="'first-canonical' or 'lit; !lit; ...'")
    p_an.add_argument("--sample-k", dest="sample_k", type=int, default=None)
    p_an.add_argument("--seed", type=int, default=None)
    p_an.add_argument("--theta", default=None, help="kernel threshold (number or p/q)")
    p_an.add_argument("--epsilon", type=float, default=None, help="satellite relevance threshold")
    p_an.add_argument("--bound", type=int, default=None)
    p_an.add_argument("--format", choices=("json", "csv"), default=None)
    p_an.add_argument("--out", default=None, help="report path (default: stdout)")
    p_an.set_defaults(fn=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse has printed its message; usage errors share EXIT_PARSE
        # (its own code 2 would read as an inconsistent story).
        return EXIT_OK if e.code == 0 else EXIT_PARSE
    try:
        return args.fn(args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except InconsistentStepError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (StoryworldsError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())

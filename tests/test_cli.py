from __future__ import annotations

import argparse
import json
import random
import re
from importlib import resources

import jsonschema
import pytest

from storyworlds import cli, logic
from storyworlds.cli import main
from storyworlds.conveyance import evolve, parse_channel_spec
from storyworlds.errors import ParseError
from storyworlds.logic import Universe
from storyworlds.report import (
    CSV_COLUMNS,
    RunConfig,
    merge_config,
    read_config_file,
    run_analysis,
)
from storyworlds.story import formula_to_str, parse_formula

from helpers import chain_story

BAD_STORY = "sort s: a\nrel p(s)\n\nt=0:\n+ p(a)\n+ !p(a)\n"
SYNTAX_ERROR_STORY = "sort s a\n"
#: three relations of one signature, so a rename source can name two targets
THREE_RELATIONS_STORY = (
    "sort p: jay, ali\nsort c: blue, red\n"
    "rel wears(p, c)\nrel dons(p, c)\nrel likes(p, c)\n\nt=0:\n+ wears(jay,blue)\n"
)


def load_schema():
    ref = resources.files("storyworlds") / "schemas" / "report.schema.json"
    return json.loads(ref.read_text(encoding="utf-8"))


class TestValidate:
    def test_ok(self, cards_story_path, capsys):
        assert main(["validate", str(cards_story_path)]) == 0
        assert "2 step(s)" in capsys.readouterr().out

    def test_inconsistent_story_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.story"
        p.write_text(BAD_STORY)
        assert main(["validate", str(p)]) == 2

    def test_inconsistent_step_names_its_line_and_conflict(self, tmp_path, capsys):
        # a narrator step names its block's line; a reader step, made
        # inconsistent by the channel, has no line to name
        p = tmp_path / "bad.story"
        p.write_text("sort s: a, b\nrel p(s)\n\nt=0:\n+ p(a)\n\nt=1:\n+ !p(a)\n+ p(b)\n")
        assert main(["validate", str(p)]) == 2
        err = capsys.readouterr().err
        assert err == "error: 7:1: step t=1 is inconsistent; conflicting subset: !p(a), p(a)\n"
        p.write_text("sort s: a\nrel p(s)\nrel q(s)\n\nt=0:\n+ p(a) -> q(a)\n+ p(a)\n\nt=1:\n+ q(a)\n")
        assert main(["analyze", str(p), "--channel", "corrupt(q(a))"]) == 2
        err = capsys.readouterr().err
        assert err == "error: step t=1 is inconsistent; conflicting subset: !q(a), p(a), p(a) -> q(a)\n"

    def test_syntax_error_exits_1(self, tmp_path):
        p = tmp_path / "syntax.story"
        p.write_text(SYNTAX_ERROR_STORY)
        assert main(["validate", str(p)]) == 1

    def test_assertion_before_any_block_names_its_line(self, tmp_path, capsys):
        p = tmp_path / "early.story"
        p.write_text("sort s: a\nrel p(s)\n+ p(a)\n\nt=0:\n+ p(a)\n")
        assert main(["validate", str(p)]) == 1
        assert capsys.readouterr().err == "error: 3:1: assertion outside any t= block\n"

    def test_missing_file_exits_3(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.story")]) == 3

    @pytest.mark.parametrize("command", ["validate", "enumerate", "analyze"])
    def test_non_utf8_story_names_the_file(self, tmp_path, capsys, command):
        p = tmp_path / "latin1.story"
        p.write_bytes(b"sort s: caf\xe9\n")
        assert main([command, str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: story file {p}: ") and "Traceback" not in err


class TestEnumerate:
    def test_counts(self, cards_story_path, capsys):
        assert main(["enumerate", str(cards_story_path), "-t", "0"]) == 0
        assert capsys.readouterr().out.strip() == "64"
        assert main(["enumerate", str(cards_story_path), "-t", "1"]) == 0
        assert capsys.readouterr().out.strip() == "32"

    def test_out_of_range_exits_1(self, cards_story_path, capsys):
        assert main(["enumerate", str(cards_story_path), "-t", "9"]) == 1

    def test_listing(self, cards_story_path, capsys):
        assert main(["enumerate", str(cards_story_path), "-t", "1", "--list"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "32"
        assert len(out.splitlines()) == 33

    def test_bound_refusal_exits_1(self, cards_story_path):
        assert main(["enumerate", str(cards_story_path), "--bound", "4"]) == 1


class TestAnalyze:
    def test_identity_report_values(self, cards_story_path, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", str(cards_story_path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["conveyance"]["accuracy"]["value"] == 1.0
        assert report["conveyance"]["commutes"] is True
        assert [s["world_count"] for s in report["steps"]] == [64, 32]

    def test_corrupt_channel_accuracy(self, cards_story_path, tmp_path):
        out = tmp_path / "report.json"
        assert (
            main(
                [
                    "analyze",
                    str(cards_story_path),
                    "--channel",
                    "corrupt(wears(jay,blue))",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        acc = json.loads(out.read_text())["conveyance"]["accuracy"]
        assert (acc["num"], acc["den"]) == (7, 8)

    def test_seeded_run_is_byte_identical(self, cards_story_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["analyze", str(cards_story_path), "--seed", "7", "--sample-k", "8"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_report_validates_against_shipped_schema(self, cards_story_path, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", str(cards_story_path), "--out", str(out)]) == 0
        jsonschema.validate(json.loads(out.read_text()), load_schema())

    def test_theta_zero_flags_every_changing_step(self, cards_story_path, tmp_path):
        out = tmp_path / "report.json"
        assert (
            main(["analyze", str(cards_story_path), "--theta", "0", "--out", str(out)])
            == 0
        )
        report = json.loads(out.read_text())
        flags = [s["is_kernel"] for s in report["steps"]]
        changes = [s["changed_fraction"]["num"] > 0 for s in report["steps"]]
        assert flags == changes

    def test_csv_has_documented_columns(self, cards_story_path, tmp_path):
        out = tmp_path / "report.csv"
        assert (
            main(["analyze", str(cards_story_path), "--format", "csv", "--out", str(out)])
            == 0
        )
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3

    def test_explicit_truth_world(self, cards_story_path, tmp_path):
        out = tmp_path / "report.json"
        truth = "wears(jay,blue); plays(ali,jay); wears(ali,blue); wears(jay,red)"
        assert (
            main(["analyze", str(cards_story_path), "--truth", truth, "--out", str(out)])
            == 0
        )
        report = json.loads(out.read_text())
        assert "wears(jay,red)" in report["truth_world"]
        assert "!plays(ali,ali)" in report["truth_world"]

    def test_rename_channel_round_trip(self, tmp_path):
        story = tmp_path / "rename.story"
        story.write_text(
            "sort s: a, b\nrel said(s)\nrel heard(s)\n\n"
            "t=0:\n+ said(a)\n\nt=1:\n+ said(b)\n"
        )
        out = tmp_path / "report.json"
        assert (
            main(
                [
                    "analyze",
                    str(story),
                    "--channel",
                    "rename(said->heard)",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        report = json.loads(out.read_text())
        conv = report["conveyance"]
        # said-atoms match through the correspondence; heard is a rename
        # target but not a source, so its atoms are never sent nor scored
        assert (conv["matched"], conv["mismatched"], conv["undetermined"]) == (2, 0, 0)
        assert [s["world_count"] for s in report["steps"]] == [8, 4]

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("rename(wears)", "rename entry 'wears' is not 'old->new'"),
            ("rename()", "rename channel needs at least one mapping"),
            ("rename( , )", "rename channel needs at least one mapping"),
            ("rename(hat->dons)", "rename source 'hat' is not a declared relation"),
            ("rename(wears->hat)", "rename target 'hat' is not declared in the reader's universe"),
            ("rename(wears->dons, wears->likes)", "rename map lists a source relation twice"),
            ("rename(wears->wears, )", None),
        ],
    )
    def test_rename_spec_refusals(self, tmp_path, capsys, spec, message):
        story = tmp_path / "three.story"
        story.write_text(THREE_RELATIONS_STORY)
        code = main(["analyze", str(story), "--channel", spec, "--format", "csv"])
        err = capsys.readouterr().err
        if message is None:  # an empty entry is skipped
            assert (code, err) == (0, "")
        else:
            assert (code, err) == (1, f"error: {message}\n")

    def test_truth_spec_entry_that_is_not_a_literal_exits_1(self, cards_story_path, capsys):
        truth = "wears(jay,blue) | wears(ali,red)"
        assert main(["analyze", str(cards_story_path), "--truth", truth]) == 1
        err = capsys.readouterr().err
        assert err == f"error: truth spec entry '{truth}' is not a ground literal\n"

    def test_contradictory_truth_spec_exits_1(self, cards_story_path):
        assert (
            main(
                [
                    "analyze",
                    str(cards_story_path),
                    "--truth",
                    "wears(jay,blue); !wears(jay,blue)",
                ]
            )
            == 1
        )

    def test_config_file_with_flag_overrides(self, cards_story_path, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "story": str(cards_story_path),
                    "seed": 3,
                    "theta": "1/2",
                    "sample_k": 64,  # covers S(0), so coherence is exact
                    "questions": [
                        {"if": "true", "then": "wears(ali,blue)"},
                    ],
                }
            )
        )
        out = tmp_path / "report.json"
        assert main(["analyze", "--config", str(cfg), "--seed", "9", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["seed"] == 9
        wc = report["steps"][0]["world_coherence"]
        assert (wc["num"], wc["den"]) == (1, 2)

    def test_config_file_without_story_takes_the_positional_story(
        self, cards_story_path, tmp_path
    ):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 3, "theta": 0.3}))
        out = tmp_path / "report.json"
        argv = ["analyze", str(cards_story_path), "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        config = json.loads(out.read_text())["config"]
        assert config["seed"] == 3
        # a float theta is read decimally, not as its binary expansion
        assert (config["theta"]["num"], config["theta"]["den"]) == (3, 10)

    @pytest.mark.parametrize(
        "values",
        [
            {"channel": 5},
            {"truth": 5},
            {"story": 5},
            {"out": 5},
            {"theta": [1]},
            {"theta": "1/0"},
            {"theta": "1e99999999"},
            {"theta": True},
            {"epsilon": False},
            {"seed": 3.7},
            {"sample_k": True},
            {"questions": 5},
            {"questions": [5]},
            {"questions": [{"if": "true", "then": "wears(ali,blue)", "answers": 1}]},
            {"epsilon": 2},
            {"epsilon": "nan"},
            {"questions": [{"if": "true"}]},
            {"questions": [{"if": "true", "then": "true"}, {"then": "true"}]},
        ],
        ids=repr,
    )
    def test_bad_config_value_exits_1_with_a_message(
        self, cards_story_path, tmp_path, capsys, values
    ):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        story = [] if "story" in values else [str(cards_story_path)]
        out = [] if "out" in values else ["--out", str(tmp_path / "report.json")]
        assert main(["analyze", *story, "--config", str(cfg), *out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [cfg]
        questions = values.get("questions")
        if isinstance(questions, list) and isinstance(questions[-1], dict):
            # the last question is the refused one, and its index is named
            key = f"questions[{len(questions) - 1}]"
            if "answers" in questions[-1]:
                expected = f"config key '{key}.answers': expected two booleans"
            else:
                expected = f"config key '{key}': needs 'if' and 'then' formulas"
            assert err == f"error: {expected}\n"

    @pytest.mark.parametrize(
        "content",
        [
            b'{"seed": 1, }',
            b'{"story": "caf\xe9"}',
            b'{"seed": ' + b"9" * 5000 + b"}",
            b"[" * 100000 + b"]" * 100000,
            b"[1, 2]",
        ],
        ids=["json", "utf-8", "int-digits", "nesting", "not-an-object"],
    )
    def test_undecodable_config_file_names_the_file(
        self, cards_story_path, tmp_path, capsys, content
    ):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(content)
        assert main(["analyze", str(cards_story_path), "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg}: ") and "Traceback" not in err

    def test_zero_denominator_theta_flag_exits_1(self, cards_story_path, capsys):
        assert main(["analyze", str(cards_story_path), "--theta", "1/0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config key 'theta'") and "Traceback" not in err

    def test_missing_story_everywhere_exits_1(self):
        assert main(["analyze"]) == 1

    def test_stdout_output(self, cards_story_path, capsys):
        assert main(["analyze", str(cards_story_path), "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("step,")


class TestRunConfig:
    def test_rejects_bad_values(self, cards_story_path):
        with pytest.raises(ValueError):
            RunConfig(story=str(cards_story_path), sample_k=0)
        with pytest.raises(ValueError):
            RunConfig(story=str(cards_story_path), theta=2)
        with pytest.raises(ValueError):
            RunConfig(story=str(cards_story_path), format="xml")

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"story": "x", "tehta": 0.5}))
        with pytest.raises(ValueError):
            merge_config(read_config_file(cfg))

    def test_partial_reports_never_written(self, cards_story_path, tmp_path):
        # analysis failure (bad channel) must leave no output file behind
        out = tmp_path / "never.json"
        code = main(
            [
                "analyze",
                str(cards_story_path),
                "--channel",
                "drop(unknown(a))",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "channel", ["identity", "drop(wears(ali,blue))", "corrupt(wears(jay,blue))"]
    )
    def test_reconciliation_is_the_lowest_final_world(
        self, cards_story_path, cards_timeline, channel
    ):
        # the final set holds more than ten worlds, and is reconciled anyway
        report = run_analysis(RunConfig(story=str(cards_story_path), channel=channel))
        final = evolve(cards_timeline, parse_channel_spec(channel, cards_timeline.universe))[-1]
        assert len(final.worlds) > 10
        lowest = final.worlds[0]
        assert report["reconciliation"] == {
            "checked": True,
            "in_final_worlds": True,
            "world": [formula_to_str(l) for l in lowest.literals()],
        }
        assert not any("reconciliation" in w for w in report["warnings"])

    def test_run_analysis_accepts_preloaded_text(self, cards_story_path):
        text = cards_story_path.read_text()
        report = run_analysis(RunConfig(story="inline.story"), story_text=text)
        assert report["universe"]["atom_count"] == 8

    def test_run_analysis_names_a_non_utf8_story(self, tmp_path):
        p = tmp_path / "latin1.story"
        p.write_bytes(b"sort s: caf\xe9\n")
        with pytest.raises(ValueError, match=f"^story file {re.escape(str(p))}: "):
            run_analysis(RunConfig(story=str(p)))


#: Literals over cards.story's universe, no two on one atom.
FLAG_LITERALS = ("wears(jay,blue)", "!wears(jay,red)", "plays(ali,jay)", "!plays(jay,ali)", "wears(ali,red)")


class TestFlagTextPositions:
    """A parse error in a ``--truth`` or ``--channel`` list, or in a config
    question, names the flag or question and the column in its text."""

    @pytest.mark.parametrize(
        "flag, text, expected",
        [
            ("--truth", "wears(jay,blue); wears(ali,", "truth, column 28: expected a name"),
            ("--channel", "drop(wears(jay,blue); wears(ali,)", "channel, column 33: expected a name"),
        ],
    )
    def test_documented_examples(self, cards_story_path, capsys, flag, text, expected):
        assert main(["analyze", str(cards_story_path), flag, text]) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"

    @pytest.mark.parametrize(
        "question, expected",
        [
            ({"if": "true", "then": "wears(ali,"}, "questions[0].then, column 11: expected a name"),
            ({"if": None, "then": "true"}, "config key 'questions[0].if': expected a string, not NoneType"),
            ({"if": "true", "then": 3}, "config key 'questions[0].then': expected a string, not int"),
        ],
        ids=repr,
    )
    def test_config_questions(self, cards_story_path, tmp_path, capsys, question, expected):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"questions": [question]}))
        assert main(["analyze", str(cards_story_path), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"

    @pytest.mark.parametrize("seed", range(16))
    def test_column_is_the_entrys_own_plus_its_offset(
        self, cards_story_path, cards_universe, tmp_path, capsys, seed
    ):
        rng = random.Random(seed)
        where = ("truth", "drop", "corrupt", "question")[seed % 4]
        pad = lambda: " " * rng.randint(0, 3)
        entries = [pad() + lit + pad() for lit in rng.sample(FLAG_LITERALS, rng.randint(1, 4))]
        bad = rng.choice((0, len(entries) // 2, len(entries) - 1))  # first, middle or last
        # a proper prefix of a literal's text is never a formula
        body = entries[bad].strip()
        broken = body[: rng.randint(1, len(body) - 1)]
        lead = pad()
        entries[bad] = lead + broken + pad()
        argv = ["analyze", str(cards_story_path)]
        if where == "question":
            side = rng.choice(("if", "then"))
            questions = [{"if": "true", "then": "true", side: e} for e in entries]
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"questions": questions}))
            argv += ["--config", str(cfg)]
            # the question's text is parsed as it stands
            source, alone, offset = f"questions[{bad}].{side}", entries[bad], 0
        else:
            offset = sum(len(e) + 1 for e in entries[:bad]) + len(lead)
            text = ";".join(entries)
            if where == "truth":
                argv += ["--truth", text]
                source = "truth"
            else:
                head = pad() + where + "("
                argv += ["--channel", head + text + ")" + pad()]
                source, offset = "channel", offset + len(head)
            alone = broken
        with pytest.raises(ParseError) as exc:
            parse_formula(alone, cards_universe)
        message = str(exc.value).split(": ", 1)[1]
        assert main(argv) == 1
        column = exc.value.column + offset
        assert capsys.readouterr().err == f"error: {source}, column {column}: {message}\n"


DEEP_HEADER = "sort s: a\nrel g(s)\nrel h(s)\n\nt=0:\n+ "


class TestDeepNesting:
    @pytest.mark.parametrize(
        "formula",
        ["!" * 5000 + "h(a)", "(" * 3000 + "h(a)" + ")" * 3000],
        ids=["negations", "parentheses"],
    )
    def test_too_deep_exits_1_with_a_message(self, tmp_path, capsys, formula):
        p = tmp_path / "deep.story"
        p.write_text(DEEP_HEADER + formula + "\n")
        assert main(["validate", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 6:") and "nested deeper than" in err
        assert "Traceback" not in err

    def test_deepest_accepted_formulas_run_the_whole_pipeline(self, tmp_path):
        p = tmp_path / "deep.story"
        p.write_text(
            DEEP_HEADER
            + "!" * 100 + "h(a)\n+ "
            + "(" * 100 + "h(a)" + ")" * 100 + "\n+ "
            + "h(a) -> " * 100 + "h(a)\n"
        )
        for channel in ("identity", "drop(h(a))", "rename(h->g)"):
            out = tmp_path / f"{channel}.json"
            assert main(["analyze", str(p), "--channel", channel, "--out", str(out)]) == 0


class TestUsageErrors:
    @pytest.mark.parametrize(
        "flags",
        [["--sample-k", "abc"], ["--format", "xml"], ["--no-such-flag"]],
        ids=["sample-k", "format", "unknown-flag"],
    )
    def test_bad_flag_exits_1(self, cards_story_path, capsys, flags):
        assert main(["analyze", str(cards_story_path), *flags]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_no_command_exits_1(self, capsys):
        assert main([]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out


class TestAtomCeiling:
    def test_bound_cannot_lift_the_ceiling(self, tmp_path, capsys, monkeypatch):
        def never(*_):
            raise AssertionError("a column over 2**40 worlds was requested")

        monkeypatch.setattr(Universe, "full_column", never)
        monkeypatch.setattr(Universe, "atom_column", never)
        p = tmp_path / "wide.story"
        p.write_text(
            "sort c: " + ", ".join(f"c{i}" for i in range(40))
            + "\nrel p(c)\n\nt=0:\n+ p(c0)\n"
        )
        assert main(["validate", str(p), "--bound", "40"]) == 1
        err = capsys.readouterr().err
        assert "bound of 26" in err and "ceiling" in err and "Traceback" not in err

    def test_refused_before_any_atom_is_grounded(self, tmp_path, capsys, monkeypatch):
        """A story is sized from its declarations: a ternary relation over
        100 constants (10**6 atoms) is refused without grounding one."""

        def never(*_):
            raise AssertionError("an atom was grounded")

        monkeypatch.setattr(logic, "_ground_relation", never)
        p = tmp_path / "cube.story"
        p.write_text(
            "sort s: " + ", ".join(f"c{i}" for i in range(100))
            + "\nrel r(s, s, s)\n\nt=0:\n+ r(c0, c0, c0)\n"
        )
        assert main(["validate", str(p)]) == 1
        err = capsys.readouterr().err
        assert "1000000 ground atoms, exceeding the enumeration bound of 24" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bound", ["25", "26"])
    def test_analyze_reaches_bounds_above_the_default(self, tmp_path, bound):
        p = tmp_path / "chain25.story"
        p.write_text(chain_story(25))
        out = tmp_path / "report.json"
        assert main(["analyze", str(p), "--bound", bound, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert [s["world_count"] for s in report["steps"]] == [2**23, 2**22]

    def test_analyze_under_the_atom_count_is_refused(self, tmp_path, capsys):
        p = tmp_path / "chain25.story"
        p.write_text(chain_story(25))
        assert main(["analyze", str(p), "--bound", "24"]) == 1
        err = capsys.readouterr().err
        assert "25 ground atoms, exceeding the enumeration bound of 24" in err

    @pytest.mark.parametrize("bound", ["0", "-5"])
    @pytest.mark.parametrize("command", ["validate", "enumerate", "analyze"])
    def test_bound_below_1_is_refused_alike(self, cards_story_path, capsys, command, bound):
        assert main([command, str(cards_story_path), "--bound", bound]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: bound must be positive\n" and captured.out == ""

    def test_config_bound_0_is_refused(self, cards_story_path, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"story": str(cards_story_path), "bound": 0}))
        assert main(["analyze", "--config", str(config)]) == 1
        assert capsys.readouterr().err == "error: bound must be positive\n"


class TestInProcessCalls:
    """``main`` builds its parser on the first call and shares it with every
    later call in the process; no call sees state another call left."""

    def test_later_calls_build_no_parser(self, cards_story_path, capsys, monkeypatch):
        assert main(["validate", str(cards_story_path)]) == 0
        built = []

        class Counting(argparse.ArgumentParser):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli.argparse, "ArgumentParser", Counting)
        assert main(["validate", str(cards_story_path)]) == 0
        assert main(["analyze", str(cards_story_path), "--format", "csv"]) == 0
        assert built == []

    def test_no_flag_outlives_its_call(self, cards_story_path, tmp_path, capsys):
        story, out = str(cards_story_path), tmp_path / "report"

        def analyze(*flags):
            assert main(["analyze", story, *flags, "--out", str(out)]) == 0
            return out.read_text()

        assert analyze("--format", "csv").startswith("step,")
        assert json.loads(analyze())["config"]["format"] == "json"
        assert json.loads(analyze("--seed", "3"))["config"]["seed"] == 3
        assert json.loads(analyze())["config"]["seed"] == RunConfig.seed
        assert main(["analyze", story, "--format", "xml"]) == 1
        assert "usage:" in capsys.readouterr().err
        assert json.loads(analyze())["config"]["seed"] == RunConfig.seed

    def test_help_twice(self, capsys):
        for _ in range(2):
            assert main(["--help"]) == 0
            assert "usage: storyworlds" in capsys.readouterr().out

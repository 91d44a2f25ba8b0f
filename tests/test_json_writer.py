"""``report.render_json`` against ``json.dumps``.

The report writer must produce exactly the bytes of ``json.dumps(report,
sort_keys=True, indent=2, ensure_ascii=False)`` plus a newline, on every
supported Python, without running the standard library's encoder.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storyworlds import cli
from storyworlds.report import render_json

from test_golden import CONFIGS, golden_path, render


def dumps(value) -> bytes:
    return (json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


# Any text a UTF-8 report can hold: neither writer can encode a lone surrogate.
TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\n\t é\u2028\U0001f600'),
        st.characters(exclude_categories=("Cs",)),
    ),
    max_size=8,
)
SCALARS = st.one_of(
    TEXT,
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, -(10**40)]),
    st.floats(),
    st.sampled_from([-0.0, 1e16, 5e-324, math.nan, math.inf, -math.inf]),
)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_writer_matches_json_dumps(value):
    assert render_json(value) == dumps(value)


@pytest.mark.parametrize("value", [{}, [], {"": {}}, [[], {}], {"a": [{}], "b": ()}])
def test_empty_containers(value):
    assert render_json(value) == dumps(value)


@pytest.mark.parametrize("value", [Fraction(1, 2), {1, 2}, {"k": b"bytes"}])
def test_other_types_raise_type_error(value):
    with pytest.raises(TypeError):
        render_json(value)


JSON_CONFIGS = [c for c in CONFIGS if c[4] == "json"]


@pytest.mark.parametrize(
    "story, name, flags, seed, fmt",
    JSON_CONFIGS,
    ids=[f"{c[0].split('.')[0]}-{c[1]}-s{c[3]}" for c in JSON_CONFIGS],
)
def test_golden_config_reports_match_json_dumps(tmp_path, monkeypatch, story, name, flags, seed, fmt):
    reports = []

    def keep(report, fmt):
        reports.append(report)
        return cli_render(report, fmt)

    cli_render = cli.render_report
    monkeypatch.setattr(cli, "render_report", keep)
    got = render(story, flags, seed, fmt, tmp_path / "report.json")
    (report,) = reports
    assert render_json(report) == dumps(report) == got


def test_render_runs_no_stdlib_encoder(tmp_path, monkeypatch):
    """An indented ``json.dumps`` builds its pure-Python encoder through
    ``json.encoder._make_iterencode``; rendering a report must not."""

    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder was used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    story, name, flags, seed, fmt = JSON_CONFIGS[0]
    got = render(story, flags, seed, fmt, tmp_path / "report.json")
    assert got == golden_path(story, name, seed, fmt).read_bytes()

from __future__ import annotations

from pathlib import Path

import pytest

from storyworlds.logic import Universe
from storyworlds.story import Fabula, parse_story
from storyworlds.worlds import enumerate_models

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def cards_universe() -> Universe:
    return Universe(
        {"person": ("jay", "ali"), "color": ("blue", "red")},
        [("wears", ("person", "color")), ("plays", ("person", "person"))],
    )


@pytest.fixture(scope="session")
def cards_story_path() -> Path:
    return DATA / "cards.story"


@pytest.fixture(scope="session")
def cards_timeline(cards_story_path):
    return parse_story(cards_story_path.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def twist_timeline():
    """A churn-shaped story: 12 atoms, 18 steps, belief twists at 6 and 12."""
    return parse_story((DATA / "twist.story").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def fabula_f1(cards_universe) -> Fabula:
    return Fabula(
        cards_universe,
        [
            cards_universe.atom("wears", "jay", "blue"),
            cards_universe.atom("plays", "ali", "jay"),
        ],
    )


@pytest.fixture(scope="session")
def worlds_s0(fabula_f1):
    return enumerate_models(fabula_f1)

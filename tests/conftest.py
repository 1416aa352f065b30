"""Shared fixtures: the bundled worked example, loaded once per session."""

from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
BUNDLED = REPO_ROOT / "scenarios" / "assembly_cell.yaml"


@pytest.fixture(scope="session")
def scenario_path() -> Path:
    return BUNDLED


@pytest.fixture(scope="session")
def scenario():
    from fadectrl import load_scenario

    return load_scenario(BUNDLED)


@pytest.fixture(scope="session")
def synthesis(scenario):
    from fadectrl import stabilize, synthesize

    return synthesize(scenario, stabilize(scenario))

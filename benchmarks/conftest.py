"""Shared benchmark infrastructure.

One session-scoped :class:`ExperimentRunner` memoizes simulation results
across all figure benchmarks (most figures share configurations); each
figure benchmark renders its committed campaign spec on it, and writes
the rendered output to ``benchmarks/results/`` so a bench run leaves the
reproduced tables on disk.

Scale comes from ``REPRO_SCALE`` (default ``small``); see DESIGN.md §7.
"""

from pathlib import Path

import pytest

from repro.campaign import find_campaign_spec, load_spec, run_campaign
from repro.experiments import ExperimentRunner


@pytest.fixture(scope="session")
def runner():
    return ExperimentRunner()


@pytest.fixture(scope="session")
def render(runner):
    """Render the committed campaign spec ``name`` on the session
    runner."""
    def _render(name):
        return run_campaign(load_spec(find_campaign_spec(name)), runner)
    return _render


@pytest.fixture(scope="session")
def results_dir():
    path = Path(__file__).parent / "results"
    path.mkdir(exist_ok=True)
    return path


@pytest.fixture()
def record(results_dir):
    """Persist and echo one figure's rendered text."""
    def _record(name, text):
        (results_dir / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)
    return _record

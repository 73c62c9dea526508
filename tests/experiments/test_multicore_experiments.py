"""Multi-core experiments at micro scale: the Fig. 15 spec and the SMT
proxy."""

import json
from pathlib import Path

import pytest

from repro.campaign import parse_spec, run_campaign
from repro.experiments import ExperimentRunner, Scale, smt_accuracy_check

FIG15 = Path(__file__).resolve().parents[2] / "campaigns" / "fig15.json"


@pytest.fixture(scope="module")
def micro_runner():
    # 2 mixes of very short traces keep this test in seconds.
    return ExperimentRunner(scale=Scale("micro", 2000, 3, 1, 2))


def fig15(runner):
    """The committed Fig. 15 spec on 2-core mixes, 2 of them."""
    raw = json.loads(FIG15.read_text())
    raw["outputs"][0].update(cores=2, n_mixes=2)
    return run_campaign(parse_spec(raw), runner)


class TestFig15:
    def test_structure(self, micro_runner):
        result = fig15(micro_runner)
        assert set(result.rows) == {
            "no-pref/S", "berti-OA/NS", "berti-OC/S", "berti-OC/S+SUF",
            "tsb", "tsb+suf"}
        for label, (geo, lo, hi) in result.rows.items():
            assert 0 < lo <= geo <= hi, label
        assert len(result.sorted_norms["tsb"]) == 2

    def test_secure_costs_weighted_speedup(self, micro_runner):
        result = fig15(micro_runner)
        assert result.rows["no-pref/S"][0] <= 1.02


class TestSmtProxy:
    def test_accuracy_stats(self, micro_runner):
        stats = smt_accuracy_check(micro_runner, n_mixes=2)
        assert 0.0 <= stats["min_suf_accuracy"] <= \
            stats["mean_suf_accuracy"] <= 1.0

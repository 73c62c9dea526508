"""Self-tests: a broken output must raise the benchmark's error rate.

    python3 -m pytest perfbench -q
"""

import copy
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.clean_environment()
common.require_tree()

import figures  # noqa: E402
import single  # noqa: E402
import tracing  # noqa: E402


def _golden():
    return figures._golden()


def _first_cell(figs):
    name = sorted(figs)[0]
    label = sorted(figs[name]["rows"])[0]
    return name, label


def test_golden_figures_pass_the_cold_check():
    golden = _golden()
    checker = figures.Checker(golden)
    checker.cold(copy.deepcopy(golden), failures=0, jobs=10)
    assert checker.failed == 0
    assert checker.attempted == 10 + figures.count_cells(golden)


def test_perturbed_figure_cell_raises_error_rate():
    golden = _golden()
    current = copy.deepcopy(golden)
    name, label = _first_cell(current)
    current[name]["rows"][label][0] = current[name]["rows"][label][0] * 1.5 \
        + 1.0
    checker = figures.Checker(golden)
    checker.cold(current, failures=0, jobs=10)
    assert checker.failed == 1
    assert name in checker.problems[0]


def test_warm_pass_must_match_cold_pass_bit_for_bit():
    cold = _golden()
    warm = copy.deepcopy(cold)
    name, label = _first_cell(warm)
    warm[name]["rows"][label][0] += 1e-12
    checker = figures.Checker(cold)
    checker.warm(copy.deepcopy(cold), cold, failures=0, simulated=0)
    assert checker.failed == 0
    checker.warm(warm, cold, failures=0, simulated=0)
    assert checker.failed == 1
    checker.warm(copy.deepcopy(cold), cold, failures=0, simulated=3)
    assert checker.failed == 2


def _small_run(secure: bool):
    from repro.experiments.runner import Config
    from repro.workloads import spec_trace
    trace = spec_trace("605.mcf-1554B", 1500, 3)
    config = Config.from_spec("on-commit-secure", "tsb", suf=True) \
        if secure else Config()
    result = single._runner().build_system(config).run(trace)
    return trace, result


def test_single_run_invariants_hold():
    for secure in (False, True):
        trace, result = _small_run(secure)
        assert single.check_result(result, trace) == []


def test_broken_invariant_raises_error_rate():
    from repro.sim.stats import REQ_LOAD
    trace, result = _small_run(False)
    checker = single.Checker()
    checker.check_pass([("k", trace, result, "", (0.0, 1.0))])
    assert checker.failed == 0
    broken = copy.deepcopy(result)
    broken.l2.hits[REQ_LOAD] += 1
    checker.check_pass([("k", trace, broken, "", (0.0, 1.0))])
    assert checker.failed == 1
    assert "l2.load" in checker.problems[0]
    short = copy.deepcopy(result)
    short.committed -= 1
    assert any("committed" in p for p in single.check_result(short, trace))


def test_digest_change_across_repeats_is_a_failure():
    trace, result = _small_run(True)
    moved = copy.deepcopy(result)
    moved.cycles += 1
    checker = single.Checker()
    checker.check_pass([("k", trace, result, "", (0.0, 1.0))])
    checker.check_pass([("k", trace, moved, "", (0.0, 1.0))])
    assert (checker.attempted, checker.failed) == (2, 1)
    assert "digest" in checker.problems[0]


def test_raising_simulation_is_a_failure():
    checker = single.Checker()
    checker.check_pass([("k", None, None, "RuntimeError: boom", (0.0, 0.0))])
    assert (checker.attempted, checker.failed) == (1, 1)


def test_self_times_partition_the_root_span():
    log = tracing.SpanLog()

    def leaf():
        time.sleep(0.002)

    inner = log.wrap("dram.access", leaf)

    def middle():
        time.sleep(0.001)
        inner()
        inner()

    outer = log.wrap("system.run", middle)
    with log.root():
        outer()
        inner()
    spans = log.summary()
    total = sum(entry["self"] for entry in spans.values())
    assert abs(total - spans["bench"]["total"]) < 1e-9
    assert spans["dram.access"]["count"] == 3
    assert spans["system.run"]["self"] < spans["system.run"]["total"]


def test_instrument_restores_every_entry_point():
    from repro.exec import pool
    from repro.sim.dram import DRAMChannel
    from repro.sim.system import System
    before = (System.run, DRAMChannel.access, pool.execute_job)
    with tracing.instrument(tracing.SpanLog(), tracing.Counters()):
        assert System.run is not before[0]
        assert pool.execute_job is not before[2]
    assert (System.run, DRAMChannel.access, pool.execute_job) == before

"""Pinned benchmark suites.

Every case is *pinned*: fixed workload, fixed loads, fixed configuration,
fixed warm-up -- so two ``BENCH_*.json`` files measured on the same
machine are comparable number to number.  Changing a pinned case changes
what the numbers mean; add a new case instead of editing one.

Two groups:

* **micro** -- seconds-scale cases CI can afford on every push: trace
  build throughput, short simulations of the two extreme configurations,
  and a tiny-scale sweep through the execution layer;
* **macro** -- the headline single-core simulation throughput cases that
  PERFORMANCE.md quotes and that optimization PRs must improve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: The pinned workload every simulation case replays.
PINNED_WORKLOAD = "605.mcf-1554B"
MICRO_LOADS = 4000
MACRO_LOADS = 20000
TRACE_BUILD_LOADS = 8000
#: Warm-up fraction for every simulation case (the repo default).
PINNED_WARMUP = 0.2
#: Stream-generator SPEC workloads the bulk trace-build case replays
#: (the synthetic generator family accelerated by columnar assembly).
BULK_STREAM_WORKLOADS = ("603.bwa-2931B", "619.lbm-2676B",
                         "654.roms-1007B", "649.foton-1176B")

#: A case's thunk does the timed work and reports
#: ``(items, phases-or-None)``.
CaseRun = Tuple[int, Optional[Dict[str, float]]]


@dataclass(frozen=True)
class BenchCase:
    """One pinned benchmark case.

    ``prepare()`` does the untimed setup (building traces, constructing
    systems) and returns the zero-argument thunk the harness times.
    """

    name: str
    group: str            # "micro" | "macro"
    unit: str             # "instr/s" | "records/s" | "jobs/s"
    prepare: Callable[[], Callable[[], CaseRun]] = field(compare=False)


def _trace(loads: int):
    from ..workloads.spec import spec_trace
    return spec_trace(PINNED_WORKLOAD, loads)


def _system(config_kwargs: dict):
    from ..prefetchers.base import MODE_ON_ACCESS, MODE_ON_COMMIT
    from ..prefetchers.registry import make_prefetcher
    from ..core.tsb import TSBPrefetcher
    from ..sim.system import System
    kwargs = dict(config_kwargs)
    spec = kwargs.pop("prefetcher", None)
    if spec == "tsb":
        kwargs["prefetcher"] = TSBPrefetcher()
    elif spec is not None:
        kwargs["prefetcher"] = make_prefetcher(spec)
    kwargs.setdefault("train_mode",
                      MODE_ON_COMMIT if kwargs.pop("on_commit", False)
                      else MODE_ON_ACCESS)
    return System(**kwargs)


def _prepare_trace_build():
    def run() -> CaseRun:
        # len() counts records off the columns: the simulator never
        # builds record tuples, so the case does not time them either.
        return len(_trace(TRACE_BUILD_LOADS)), None
    return run


def _prepare_simulate(loads: int, config_kwargs: dict):
    trace = _trace(loads)
    system = _system(config_kwargs)

    def run() -> CaseRun:
        system.run(trace, warmup=PINNED_WARMUP)
        return trace.committed_count, None
    return run


def _prepare_trace_build_bulk():
    from ..workloads.spec import spec_trace

    def run() -> CaseRun:
        total = 0
        for name in BULK_STREAM_WORKLOADS:
            trace = spec_trace(name, TRACE_BUILD_LOADS)
            total += len(trace)
        return total, None
    return run


def _prepare_sim_multicore():
    from ..workloads import gap, prebuilt
    # Cold-sweep semantics: no memoized traces, GAP graphs, or results
    # survive into the timed region (each repeat pays the full cost an
    # interrupted store-less Fig. 15 sweep would pay).
    prebuilt.clear_memo()
    gap._GRAPH_CACHE.clear()

    def run() -> CaseRun:
        from ..experiments.runner import (BASELINE, Config,
                                          ExperimentRunner, SCALES)
        runner = ExperimentRunner(scale=SCALES["tiny"], store=None)
        secure = Config(prefetcher="berti", secure=True, suf=True,
                        mode="on-commit")
        mixes = runner.mixes(cores=4)
        distinct = list({t.name: t
                         for mix in mixes for t in mix}.values())
        committed = 0
        for result in runner.run_pool(BASELINE, distinct):
            committed += result.committed
        for config in (BASELINE, secure):
            for result in runner.run_mixes(config, mixes, cores=4):
                committed += result.committed
        phases = {name: seconds for name, (seconds, _)
                  in runner.profiler.report().items()}
        return committed, phases
    return run


def _prepare_sweep():
    from ..experiments.runner import Config, ExperimentRunner, SCALES
    runner = ExperimentRunner(scale=SCALES["tiny"], store=None)
    config = Config(prefetcher="berti", secure=True, mode="on-commit")
    pool = runner.pool()   # trace building is setup, not sweep time

    def run() -> CaseRun:
        runner._results.clear()
        runner.run_pool(config, pool)
        committed = sum(t.committed_count for t in pool)
        phases = {name: seconds for name, (seconds, _)
                  in runner.profiler.report().items()}
        return committed, phases
    return run


MICRO_CASES: List[BenchCase] = [
    BenchCase("trace_build", "micro", "records/s", _prepare_trace_build),
    BenchCase("sim_micro_baseline", "micro", "instr/s",
              lambda: _prepare_simulate(MICRO_LOADS, {})),
    BenchCase("sim_micro_secure_tsb_suf", "micro", "instr/s",
              lambda: _prepare_simulate(
                  MICRO_LOADS, dict(secure=True, suf=True,
                                    prefetcher="tsb", on_commit=True))),
    BenchCase("sweep_tiny_secure_berti", "micro", "instr/s",
              _prepare_sweep),
    BenchCase("trace_build_bulk", "micro", "records/s",
              _prepare_trace_build_bulk),
]

MACRO_CASES: List[BenchCase] = [
    BenchCase("sim_macro_baseline", "macro", "instr/s",
              lambda: _prepare_simulate(MACRO_LOADS, {})),
    BenchCase("sim_macro_berti_oa", "macro", "instr/s",
              lambda: _prepare_simulate(
                  MACRO_LOADS, dict(prefetcher="berti"))),
    BenchCase("sim_macro_secure_tsb_suf", "macro", "instr/s",
              lambda: _prepare_simulate(
                  MACRO_LOADS, dict(secure=True, suf=True,
                                    prefetcher="tsb", on_commit=True))),
    BenchCase("sim_multicore", "macro", "instr/s",
              _prepare_sim_multicore),
]

SUITES: Dict[str, List[BenchCase]] = {
    "micro": MICRO_CASES,
    "macro": MACRO_CASES,
    "all": MICRO_CASES + MACRO_CASES,
}

"""The ``single-secure`` and ``single-baseline`` workloads.

One in-process caller simulates trace after trace (a closed loop: the
next simulation starts only when the previous one has returned), each
on a freshly built ``System`` whose modelled caches start empty, with
statistics collected after the repo's default 20% warm-up.

* ``single-secure``: GhostMinion with on-commit training, as TSB+SUF
  and as Berti without SUF (the re-fetch-heavy case).
* ``single-baseline``: the same traces on the non-secure system with no
  prefetcher, where the GM, drain and prefetcher layers do no work.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import statistics
import time
from typing import Dict, List, Tuple

from common import OUT, WARMUP, HostSpeed, clear_host_caches, peak_rss_mb

SPEC_NAMES = ("605.mcf-1554B", "619.lbm-2676B", "620.omnet-141B")
GAP_KERNELS = ("bfs", "pr")
N_LOADS = 50_000
SETUP_REPEATS = 3
#: A pass never starts once this much of the run is spent (the run must
#: end well inside its 180-second limit).
PASS_DEADLINE_S = 120.0


def configs(workload: str):
    from repro.experiments.runner import Config
    if workload == "single-secure":
        return [Config.from_spec("on-commit-secure", "tsb", suf=True),
                Config.from_spec("on-commit-secure", "berti")]
    return [Config()]


def _runner():
    from repro.experiments.runner import SCALES, ExperimentRunner
    # build_system reads the scale only for ts-* lateness intervals,
    # which these configurations do not use.
    return ExperimentRunner(scale=SCALES["tiny"])


def build_traces(seed: int) -> List[object]:
    """The workload's input, generated from ``seed``.  Looked up through
    the package at call time so a traced run sees its spans."""
    import repro.workloads as workloads
    traces = [workloads.spec_trace(name, N_LOADS, seed)
              for name in SPEC_NAMES]
    traces += [workloads.gap_trace(kernel, N_LOADS, seed=seed)
               for kernel in GAP_KERNELS]
    return traces


def setup(workload: str, seed: int, runner) -> List[object]:
    """Trace synthesis, prescan and ``System`` construction."""
    from repro.sim import batch
    clear_host_caches()
    traces = build_traces(seed)
    for trace in traces:
        batch.plan_for(trace)
    for config in configs(workload):
        for _ in traces:
            runner.build_system(config)
    return traces


def run_pass(workload: str, traces, runner) -> Tuple[List[tuple], tuple]:
    """Simulate every (configuration, trace) once.  Returns
    ``[(key, trace, result | None, error, (start, end))]`` per job and
    the pass's ``(start, end)`` (System construction included)."""
    jobs = []
    t_pass = time.perf_counter()
    for config in configs(workload):
        for trace in traces:
            key = f"{config.label()}@{trace.name}"
            system = runner.build_system(config)
            t0 = time.perf_counter()
            try:
                result = system.run(trace)
            except Exception as exc:  # a failed operation, not a crash
                jobs.append((key, trace, None, f"{type(exc).__name__}: "
                             f"{exc}", (t0, t0)))
                continue
            jobs.append((key, trace, result, "", (t0, time.perf_counter())))
    return jobs, (t_pass, time.perf_counter())


def stats_digest(result) -> str:
    doc = dataclasses.asdict(result)
    blob = json.dumps(doc, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


def check_result(result, trace) -> List[str]:
    """Invariants every single-core run must satisfy.

    * Committed instructions: the measured ones plus the warm-up ones
      equal ``trace.committed_count``.
    * Conservation: ``hits + misses == accesses`` per level and request
      type.  The model counts two kinds of L1D access that resolve as
      neither (see ``CacheLevel.probe`` and ``commit_write``): the tag
      probe made in parallel with a GM hit, and the GhostMinion
      on-commit write.  So in secure mode the L1D load shortfall is
      bounded by the GM hits and the commit shortfall by the commit
      writes; everywhere else it is zero.
    """
    problems = []
    warm = int(trace.committed_count * WARMUP)
    if result.committed + warm != trace.committed_count:
        problems.append(f"committed {result.committed} + warm-up {warm} "
                        f"!= trace {trace.committed_count}")
    from repro.sim.stats import REQ_COMMIT, REQ_LOAD
    for level in ("l1d", "l2", "llc"):
        stats = getattr(result, level)
        for rtype, accesses in stats.accesses.items():
            slack = accesses - stats.hits[rtype] - stats.misses[rtype]
            allowed = 0
            if level == "l1d" and result.gm is not None:
                if rtype is REQ_LOAD:
                    allowed = result.gm.gm_hits
                elif rtype is REQ_COMMIT:
                    allowed = result.gm.commit_writes
            if not 0 <= slack <= allowed:
                problems.append(f"{level}.{rtype}: accesses {accesses} - "
                                f"hits - misses = {slack}, allowed "
                                f"[0, {allowed}]")
    return problems


class Checker:
    """Counts operations and failures; pins each job's stats digest to
    the first repeat of the seed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digests: Dict[str, str] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 50:
            self.problems.append(message)

    def check_pass(self, jobs) -> None:
        for key, trace, result, error, _ in jobs:
            self.attempted += 1
            if result is None:
                self.fail(f"{key}: {error}")
                continue
            problems = check_result(result, trace)
            digest = stats_digest(result)
            if self.digests.setdefault(key, digest) != digest:
                problems.append("stats digest differs from the first "
                                "repeat of this seed")
            if problems:
                self.fail(f"{key}: {'; '.join(problems)}")


def _instr(jobs) -> int:
    return sum(trace.committed_count for _, trace, result, _, _ in jobs
               if result is not None)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    with HostSpeed() as speed:
        if trace:
            return _run_traced(workload, seed, speed)
        return _run_untraced(workload, seed, seconds, speed)


def _run_untraced(workload: str, seed: int, seconds: float,
                  speed: HostSpeed) -> dict:
    runner = _runner()
    checker = Checker()
    setups = []
    traces = None
    for _ in range(SETUP_REPEATS):
        traces = None
        gc.collect()
        t0 = time.perf_counter()
        traces = setup(workload, seed, runner)
        setups.append(speed.seconds(t0, time.perf_counter()))

    rates, walls, durations = [], [], []
    t_start = time.perf_counter()
    while len(walls) < 2 or (
            time.perf_counter() - t_start < seconds
            and time.perf_counter() - t_start + walls[-1] < PASS_DEADLINE_S):
        gc.collect()
        jobs, span = run_pass(workload, traces, runner)
        checker.check_pass(jobs)
        job_s = [speed.seconds(*job[4]) for job in jobs
                 if job[2] is not None]
        rates.append(_instr(jobs) / sum(job_s) if job_s else 0.0)
        walls.append(speed.seconds(*span))
        durations.extend(job_s)

    metrics = {
        "setup_s": statistics.median(setups),
        "instr_per_s": statistics.median(rates),
        "render_s": statistics.median(walls),
        "resume_s": statistics.median(walls[1:]),
        "job_s_p50": statistics.median(durations),
        "job_s_p95": statistics.quantiles(durations, n=20,
                                          method="inclusive")[-1],
        "peak_rss_mb": peak_rss_mb(),
    }
    return {"metrics": metrics, "attempted": checker.attempted,
            "failed": checker.failed, "problems": checker.problems,
            "samples": {"setup": len(setups), "passes": len(walls),
                        "jobs": len(durations)}}


def _run_traced(workload: str, seed: int, speed: HostSpeed) -> dict:
    from tracing import (Counters, SpanLog, instrument, layer_metrics,
                         replay_layers)
    checker = Checker()
    runner = _runner()
    gc.collect()
    t0 = time.perf_counter()
    traces = setup(workload, seed, runner)
    jobs, _ = run_pass(workload, traces, runner)
    untraced = speed.seconds(t0, time.perf_counter())
    checker.check_pass(jobs)

    log = SpanLog()
    counters = Counters()
    traces = jobs = None
    gc.collect()
    with instrument(log, counters):
        t0 = time.perf_counter()
        with log.root():
            traces = setup(workload, seed, runner)
            jobs, _ = run_pass(workload, traces, runner)
        t1 = time.perf_counter()
    checker.check_pass(jobs)

    replay = replay_layers(traces, speed)
    metrics, problems = layer_metrics(
        log, counters, replay, scale=speed.factor(t0, t1),
        overhead=speed.seconds(t0, t1) / untraced,
        records=sum(len(t) for t in traces), store_stats={})
    for problem in problems:
        checker.fail(problem)
    log.write(OUT / f"spans-{workload}.bin.gz")
    return {"metrics": metrics, "attempted": checker.attempted,
            "failed": checker.failed, "problems": checker.problems,
            "samples": {"spans": len(log),
                        "replay_accesses": replay["replay.accesses"],
                        "replay_dram_requests":
                            replay["replay.dram_requests"]}}

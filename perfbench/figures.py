"""The ``figures-tiny`` workload: every committed campaign spec at
``tiny`` scale, rendered by one in-process caller (``jobs=1``, no worker
processes) through one shared result store that starts empty.

The cold pass simulates and writes; each warm pass re-renders the same
specs from store reads, loading traces from the store's ``.rtrace``
cache as a fresh process would.  The specs pin their own workload
seeds (the committed golden depends on them), so ``--seed`` only sets
the order in which the specs render; every order needs the same set of
simulations.
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import shutil
import statistics
import time
from typing import Dict, List, Tuple

from common import OUT, HostSpeed, clear_host_caches, peak_rss_mb

SCALE = "tiny"
SETUP_REPEATS = 30
MIN_WARM_PASSES = 9
#: A warm pass never starts once this much of the run is spent.
PASS_DEADLINE_S = 120.0

_store_ids = itertools.count()


def load_specs() -> List[Tuple[str, object]]:
    """Spec load and planning: everything before the first job."""
    from repro.campaign import figcheck
    from repro.campaign import plan as campaign_plan
    from repro.campaign import spec as campaign_spec
    from repro.experiments.runner import SCALES
    specs = [(path.stem, campaign_spec.load_spec(path))
             for path in sorted(figcheck.campaigns_root().glob("*.json"))]
    for _, spec in specs:
        campaign_plan.compile_plan(spec, SCALES[SCALE])
    return specs


def render(specs, store) -> Tuple[Dict[str, dict], int]:
    """Render ``specs`` in order; numeric cells as ``figcheck`` records
    them, and the number of permanently failed jobs."""
    from repro.campaign import engine
    from repro.experiments.runner import SCALES, ExperimentRunner
    figures: Dict[str, dict] = {}
    failures = 0
    for name, spec in specs:
        runner = ExperimentRunner(scale=SCALES[SCALE], store=store,
                                  failsoft=True, max_retries=0,
                                  backoff_s=0.0)
        result = engine.run_campaign(spec, runner)
        failures += len(runner.failures)
        figures[name] = {
            "columns": [str(column) for column in result.columns],
            "rows": {label: [None if cell is None else float(cell)
                             for cell in cells]
                     for label, cells in result.rows.items()},
        }
    return figures, failures


def count_cells(figures: Dict[str, dict]) -> int:
    return sum(len(cells) for fig in figures.values()
               for cells in fig["rows"].values())


def cell_diffs(current: Dict[str, dict], reference: Dict[str, dict]
               ) -> List[str]:
    """Cells that are not bit-identical (NaN equals NaN)."""
    diffs = []
    for name in sorted(set(current) | set(reference)):
        cur, ref = current.get(name), reference.get(name)
        if cur is None or ref is None or cur["columns"] != ref["columns"]:
            diffs.append(f"{name}: figure shape differs")
            continue
        for label in sorted(set(cur["rows"]) | set(ref["rows"])):
            a, b = cur["rows"].get(label), ref["rows"].get(label)
            if a is None or b is None or len(a) != len(b):
                diffs.append(f"{name}[{label}]: row shape differs")
                continue
            for i, (x, y) in enumerate(zip(a, b)):
                if repr(x) != repr(y):
                    diffs.append(f"{name}[{label}][{i}]: {y!r} -> {x!r}")
    return diffs


class Checker:
    """Failed operations: jobs that raised, golden cells out of
    tolerance, warm cells that differ from the cold pass, and warm
    passes that had to simulate anything."""

    def __init__(self, golden: Dict[str, dict]) -> None:
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, messages: List[str]) -> None:
        self.failed += len(messages)
        room = max(0, 50 - len(self.problems))
        self.problems.extend(messages[:room])

    def cold(self, figures, failures: int, jobs: int) -> None:
        from repro.campaign.figcheck import EPSILON, compare
        self.attempted += jobs + failures + count_cells(self.golden)
        self.fail([f"job failed ({failures})"] * failures)
        self.fail(compare(figures, self.golden, EPSILON))

    def warm(self, figures, cold, failures: int, simulated: int) -> None:
        self.attempted += count_cells(cold)
        self.fail([f"warm pass job failed ({failures})"] * failures)
        self.fail(cell_diffs(figures, cold))
        if simulated:
            self.fail([f"warm pass simulated {simulated} job(s)"])


class JobClock:
    """Wall stamps of every simulation job the execution layer runs
    in-process (``repro.exec.pool.execute_job``), with the committed
    instructions each job simulated (warm-up included)."""

    def __init__(self) -> None:
        #: ``(start, end, instructions)`` per completed job.
        self.jobs: List[tuple] = []
        self._original = None

    def install(self) -> None:
        from repro.exec import pool
        original = self._original = pool.execute_job

        def execute_job(job):
            t0 = time.perf_counter()
            result = original(job)
            traces = getattr(job, "traces", None) or (job.trace,)
            self.jobs.append((t0, time.perf_counter(),
                              sum(t.committed_count for t in traces)))
            return result

        pool.execute_job = execute_job

    def restore(self) -> None:
        if self._original is not None:
            from repro.exec import pool
            pool.execute_job = self._original
            self._original = None


def _new_store():
    from repro.exec.store import ResultStore
    root = OUT / "tmp" / f"store-{os.getpid()}-{next(_store_ids)}"
    shutil.rmtree(root, ignore_errors=True)
    return root, ResultStore(root)


def _ordered(specs, seed: int):
    order = list(specs)
    random.Random(seed).shuffle(order)
    return order


def _golden() -> Dict[str, dict]:
    from repro.campaign.figcheck import load_snapshot
    return load_snapshot()["figures"]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    del workload
    clock = JobClock()
    clock.install()
    roots = []
    try:
        with HostSpeed() as speed:
            if trace:
                return _run_traced(seed, clock, roots, speed)
            return _run_untraced(seed, seconds, clock, roots, speed)
    finally:
        clock.restore()
        for root in roots:
            shutil.rmtree(root, ignore_errors=True)


def _cold_and_warm(specs, clock, checker, roots, speed, warm_passes,
                   seconds=0.0):
    """One cold pass into a new empty store, then warm passes from it
    (at least ``warm_passes``, more while the run is under ``seconds``).
    Returns the cold pass's seconds, each warm pass's seconds, the cold
    pass's job records and the store."""
    root, store = _new_store()
    roots.append(root)
    clear_host_caches()
    gc.collect()
    first = len(clock.jobs)
    t_start = time.perf_counter()
    cold, failures = render(specs, store)
    cold_s = speed.seconds(t_start, time.perf_counter())
    jobs = clock.jobs[first:]
    checker.cold(cold, failures, len(jobs))
    warm_s: List[float] = []
    while len(warm_s) < warm_passes or (
            time.perf_counter() - t_start < seconds
            and time.perf_counter() - t_start + warm_s[-1]
            < PASS_DEADLINE_S):
        clear_host_caches()
        gc.collect()
        before = len(clock.jobs)
        t0 = time.perf_counter()
        figures, failures = render(specs, store)
        warm_s.append(speed.seconds(t0, time.perf_counter()))
        checker.warm(figures, cold, failures, len(clock.jobs) - before)
    return cold_s, warm_s, jobs, store


def _run_untraced(seed, seconds, clock, roots, speed) -> dict:
    checker = Checker(_golden())
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        load_specs()
        setups.append(speed.seconds(t0, time.perf_counter()))
    specs = _ordered(load_specs(), seed)
    cold_s, warm_s, jobs, store = _cold_and_warm(
        specs, clock, checker, roots, speed, MIN_WARM_PASSES, seconds)
    job_s = [speed.seconds(t0, t1) for t0, t1, _ in jobs]
    metrics = {
        "setup_s": statistics.median(setups),
        "instr_per_s": sum(instr for _, _, instr in jobs) / sum(job_s),
        "render_s": cold_s,
        "resume_s": statistics.median(warm_s),
        "job_s_p50": statistics.median(job_s),
        "job_s_p95": statistics.quantiles(job_s, n=20,
                                          method="inclusive")[-1],
        "peak_rss_mb": peak_rss_mb(),
    }
    return {"metrics": metrics, "attempted": checker.attempted,
            "failed": checker.failed, "problems": checker.problems,
            "samples": {"setup": len(setups), "warm_passes": len(warm_s),
                        "jobs": len(jobs), "store": store.stats()}}


def _run_traced(seed, clock, roots, speed) -> dict:
    from repro.experiments.runner import SCALES, ExperimentRunner
    from tracing import (Counters, SpanLog, instrument, layer_metrics,
                         replay_layers)
    checker = Checker(_golden())
    gc.collect()
    t0 = time.perf_counter()
    specs = _ordered(load_specs(), seed)
    _cold_and_warm(specs, clock, checker, roots, speed, 1)
    untraced = speed.seconds(t0, time.perf_counter())

    log = SpanLog()
    counters = Counters()
    gc.collect()
    with instrument(log, counters):
        t0 = time.perf_counter()
        with log.root():
            specs = _ordered(load_specs(), seed)
            _, _, _, store = _cold_and_warm(specs, clock, checker, roots,
                                            speed, 1)
        t1 = time.perf_counter()

    pool = ExperimentRunner(scale=SCALES[SCALE]).pool()
    replay = replay_layers(pool, speed)
    metrics, problems = layer_metrics(
        log, counters, replay, scale=speed.factor(t0, t1),
        overhead=speed.seconds(t0, t1) / untraced,
        records=sum(len(t) for t in pool), store_stats=store.stats())
    checker.fail(problems)
    log.write(OUT / "spans-figures-tiny.bin.gz")
    return {"metrics": metrics, "attempted": checker.attempted,
            "failed": checker.failed, "problems": checker.problems,
            "samples": {"spans": len(log),
                        "replay_accesses": replay["replay.accesses"],
                        "replay_dram_requests":
                            replay["replay.dram_requests"]}}

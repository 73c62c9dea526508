"""Span tracing from outside the program, the per-layer ledger, and the
isolated replays that time the layers the fused stepper inlines.

Spans are recorded around calls into each module's public entry points
by replacing those attributes for the duration of the traced run
(:func:`instrument`); nothing under ``src/`` knows it is being traced.
A span is ``(name, start, end, parent)``, kept in flat arrays and
written out once the run ends.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import gc
import gzip
import json
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Span name -> the layer its self time is charged to.
LAYER_OF = {
    "workloads.spec_trace": "workloads",
    "workloads.gap_trace": "workloads",
    "workloads.cached_workload_pool": "workloads",
    "batch.plan_for": "batch",
    "system.run": "system",
    "gm.fill": "gm",
    "gm.apply_until": "gm",
    "gm.lookup": "gm",
    "gm.take": "gm",
    "drain": "drain",
    "drain.refetch_batch": "drain",
    "dram.access": "dram",
    "dram.access_batch": "dram",
    "pf.train": "pf",
    "pf.on_fill": "pf",
    "multicore.run": "multicore",
    "runner.run_cells": "runner",
    "runner.execute_job": "runner",
    "store.get": "store.get",
    "store.put": "store.put",
    "campaign.load_spec": "campaign.plan",
    "campaign.compile_plan": "campaign.plan",
    "campaign.run_campaign": "campaign.eval",
    "security.run_attack": "security",
    "bench": "bench",
}


class SpanLog:
    """In-memory span store with a parent stack (single-threaded)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_col = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name``; ``after(args, result)``
        runs once the span has closed."""
        nid = self._id(name)
        name_append = self.name_col.append
        parent_append = self.parent.append
        start = self.start
        start_append = start.append
        end = self.end
        end_append = end.append
        stack = self.stack
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            idx = len(start)
            name_append(nid)
            parent_append(stack[-1] if stack else -1)
            end_append(0.0)
            stack.append(idx)
            start_append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        spanned.__wrapped__ = fn
        return spanned

    @contextmanager
    def root(self, name: str = "bench") -> Iterator[None]:
        """The enclosing span of a traced region."""
        nid = self._id(name)
        idx = len(self.start)
        self.name_col.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, ``total`` duration, ``self`` time,
        and ``outer`` (spans whose parent has a different name)."""
        n = len(self.start)
        start, end, parent, names = self.start, self.end, self.parent, \
            self.name_col
        covered = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        out: Dict[str, Dict[str, float]] = {
            name: {"count": 0, "outer": 0, "total": 0.0, "self": 0.0}
            for name in self.names}
        for i in range(n):
            entry = out[self.names[names[i]]]
            duration = end[i] - start[i]
            entry["count"] += 1
            entry["self"] += duration - covered[i]
            p = parent[i]
            if p < 0 or names[p] != names[i]:
                entry["outer"] += 1
                entry["total"] += duration
        return out

    def write(self, path) -> None:
        """Spans as gzip: one JSON header line, then the raw columns
        (``name`` uint16, ``parent`` int64, ``start``/``end`` float64
        seconds, native byte order)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "spans": len(self),
                  "columns": ["name:H", "parent:l", "start:d", "end:d"],
                  "byteorder": sys.byteorder}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_col, self.parent, self.start,
                           self.end):
                fh.write(column.tobytes())


class Counters:
    """Results and call arguments collected by ``after`` hooks."""

    def __init__(self) -> None:
        self.sim_results: List[object] = []
        self.run_loads = 0
        self.multicore_instr = 0


def _load_records(trace) -> int:
    from repro.sim.batch import C_LOAD, C_WRONG_LOAD, plan_for
    codes = plan_for(trace).codes
    return codes.count(C_LOAD) + codes.count(C_WRONG_LOAD)


def _prefetcher_classes():
    import repro.core.timely  # noqa: F401  (registers the wrappers)
    import repro.core.tsb  # noqa: F401
    import repro.prefetchers  # noqa: F401
    import repro.security.prefender  # noqa: F401
    from repro.prefetchers.base import Prefetcher
    seen, todo = [], [Prefetcher]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


@contextmanager
def instrument(log: SpanLog, counters: Counters) -> Iterator[None]:
    """Wrap the program's public entry points for the enclosed block and
    restore them afterwards.  Systems must be built inside the block:
    the stepper and the flat descents bind these methods at
    construction and stepper start."""
    import repro.exec.pool as pool
    import repro.security.attacks as attacks
    import repro.sim.hierarchy as hierarchy
    import repro.workloads.gap as gap
    import repro.workloads.prebuilt as prebuilt
    import repro.workloads.spec as spec
    from repro.campaign import engine as campaign_engine
    from repro.campaign import plan as campaign_plan
    from repro.campaign import spec as campaign_spec
    from repro.exec.store import ResultStore
    from repro.experiments.runner import ExperimentRunner
    from repro.sim import batch
    from repro.sim.dram import DRAMChannel
    from repro.sim.ghostminion import GhostMinionCache
    from repro.sim.multicore import MulticoreSystem
    from repro.sim.system import SimResult, System

    restore: List[Tuple[object, str, object]] = []

    def patch_function(module, attr: str, span: str, after=None) -> None:
        original = getattr(module, attr)
        wrapped = log.wrap(span, original, after)
        for mod in list(sys.modules.values()):
            if mod is not None and getattr(mod, "__name__", "") \
                    .startswith("repro") \
                    and vars(mod).get(attr) is original:
                restore.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def patch_method(cls, attr: str, span: str, after=None) -> None:
        original = cls.__dict__[attr]
        restore.append((cls, attr, original))
        setattr(cls, attr, log.wrap(span, original, after))

    def patch_factory(owner, attr: str, span: str) -> None:
        original = getattr(owner, attr)
        restore.append((owner, attr, original))

        def factory(*args, **kwargs):
            made = original(*args, **kwargs)
            return None if made is None else log.wrap(span, made)
        setattr(owner, attr, factory)

    def after_run(args, result) -> None:
        counters.run_loads += _load_records(args[1])
        if isinstance(result, SimResult):
            counters.sim_results.append(result)

    def after_multicore(args, result) -> None:
        counters.multicore_instr += result.committed

    patch_function(spec, "spec_trace", "workloads.spec_trace")
    patch_function(gap, "gap_trace", "workloads.gap_trace")
    patch_function(prebuilt, "cached_workload_pool",
                   "workloads.cached_workload_pool")
    patch_function(batch, "plan_for", "batch.plan_for")
    patch_function(campaign_spec, "load_spec", "campaign.load_spec")
    patch_function(campaign_plan, "compile_plan", "campaign.compile_plan")
    patch_function(campaign_engine, "run_campaign",
                   "campaign.run_campaign")
    patch_function(attacks, "run_attack", "security.run_attack")
    patch_function(pool, "execute_job", "runner.execute_job")
    patch_method(System, "run", "system.run", after_run)
    patch_factory(System, "_make_drainer", "drain")
    patch_factory(hierarchy, "make_refetch_batch", "drain.refetch_batch")
    for attr in ("fill", "apply_until", "lookup", "take"):
        patch_method(GhostMinionCache, attr, f"gm.{attr}")
    patch_method(DRAMChannel, "access", "dram.access")
    patch_method(DRAMChannel, "access_batch", "dram.access_batch")
    for cls in _prefetcher_classes():
        for attr in ("train", "on_fill"):
            if attr in cls.__dict__:
                patch_method(cls, attr, f"pf.{attr}")
    patch_method(MulticoreSystem, "run", "multicore.run", after_multicore)
    patch_method(ExperimentRunner, "run_cells", "runner.run_cells")
    patch_method(ResultStore, "get", "store.get")
    patch_method(ResultStore, "put", "store.put")
    try:
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# isolated replays of the inlined layers
# ----------------------------------------------------------------------

class _MissSink:
    """Stands in for DRAM below a replayed LLC: records each miss and
    answers at a fixed latency, so the replay times the caches alone."""

    def __init__(self, latency: int) -> None:
        from repro.sim.cache import LEVEL_DRAM
        self.latency = latency
        self.level = LEVEL_DRAM
        self.misses: List[Tuple[int, int]] = []

    def access(self, block, time, rtype, update=True, fill=True,
               count_useful=True):
        self.misses.append((block, time))
        return time + self.latency, self.level

    def receive_writeback(self, block, time, dirty=False,
                          gm_propagate=False, wbb=False):
        pass


def replay_layers(traces, speed) -> Dict[str, float]:
    """Reference-host ns per ``CacheLevel.access`` and per
    ``DRAMChannel.access`` (``speed`` is the run's ``HostSpeed``).

    Each trace's own load-block stream (committed and wrong-path loads,
    in record order) goes into a fresh L1D -> L2 -> LLC chain of
    ``CacheLevel.access`` calls over a stub memory; the LLC misses it
    produces then go into a fresh ``DRAMChannel.access``.  Each access
    issues one cycle after the previous one completes: an open-loop
    issue rate would pile requests onto saturated ports and MSHRs that
    the core's load queue never lets the real run reach.
    """
    from repro.sim.batch import C_LOAD, C_WRONG_LOAD, plan_for
    from repro.sim.cache import (CacheLevel, LEVEL_L1D, LEVEL_L2,
                                 LEVEL_LLC)
    from repro.sim.dram import DRAMChannel
    from repro.sim.params import baseline
    from repro.sim.stats import REQ_LOAD

    params = baseline()
    cache_s = dram_s = 0.0
    accesses = requests = 0
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for trace in traces:
            plan = plan_for(trace)
            blocks = [block for code, block in zip(plan.codes, plan.blocks)
                      if code == C_LOAD or code == C_WRONG_LOAD]
            sink = _MissSink(params.dram.t_rcd + params.dram.t_cas
                             + params.dram.controller_latency)
            llc = CacheLevel(params.llc, LEVEL_LLC, sink)
            l2 = CacheLevel(params.l2, LEVEL_L2, llc)
            l1d_access = CacheLevel(params.l1d, LEVEL_L1D, l2).access
            t = 0
            t0 = time.perf_counter()
            for block in blocks:
                t = l1d_access(block, t + 1, REQ_LOAD)[0]
            cache_s += speed.seconds(t0, time.perf_counter())
            accesses += len(blocks)

            dram_access = DRAMChannel(params.dram).access
            t0 = time.perf_counter()
            for block, when in sink.misses:
                dram_access(block, when, True)
            dram_s += speed.seconds(t0, time.perf_counter())
            requests += len(sink.misses)
    finally:
        if was_enabled:
            gc.enable()
    return {
        "cache.access_ns": cache_s / accesses * 1e9 if accesses else 0.0,
        "dram.access_ns": dram_s / requests * 1e9 if requests else 0.0,
        "replay.accesses": accesses,
        "replay.dram_requests": requests,
    }


# ----------------------------------------------------------------------
# the per-layer ledger
# ----------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(log: SpanLog, counters: Counters,
                  replay: Dict[str, float], scale: float, overhead: float,
                  records: int, store_stats: Dict[str, int]
                  ) -> Tuple[Dict[str, float], List[str]]:
    """Every per-layer metric, plus ledger problems (empty when the
    layer self times and ``system.glue_s`` add up to the traced wall).

    Span times are multiplied by ``scale`` (the host-speed factor over
    the traced region), which turns them into reference-host seconds
    and keeps the ledger exact.  ``overhead`` is the traced wall over
    the untraced wall of the same work."""
    spans = log.summary()
    for entry in spans.values():
        entry["self"] *= scale
        entry["total"] *= scale
    self_by_layer: Dict[str, float] = {}
    for name, entry in spans.items():
        layer = LAYER_OF[name]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + entry["self"]

    def count(name: str, outer: bool = False) -> int:
        entry = spans.get(name)
        if entry is None:
            return 0
        return int(entry["outer"] if outer else entry["count"])

    def layer_s(layer: str) -> float:
        return self_by_layer.get(layer, 0.0)

    results = counters.sim_results

    def total(getter) -> float:
        return float(sum(getter(r) for r in results))

    levels = ("l1d", "l2", "llc")
    acc = {lvl: total(lambda r, lvl=lvl: getattr(r, lvl).total_accesses())
           for lvl in levels}
    miss = {lvl: total(lambda r, lvl=lvl: sum(getattr(r, lvl)
                                              .misses.values()))
            for lvl in levels}

    def gm_total(attr: str) -> float:
        return total(lambda r: getattr(r.gm, attr) if r.gm else 0)

    def pf_total(attr: str) -> float:
        return total(lambda r: sum(getattr(getattr(r, lvl), attr)
                                   for lvl in levels))

    wall = spans["bench"]["total"]
    cache_est = counters.run_loads * replay["cache.access_ns"] * 1e-9
    system_run = spans.get("system.run", {}).get("total", 0.0)
    glue = layer_s("system") - cache_est
    refetches = gm_total("commit_refetches")
    windows = count("drain")
    suf_resolved = gm_total("suf_correct") + gm_total("suf_mispredict")
    useful = pf_total("prefetches_useful")
    useless = pf_total("prefetches_useless")
    metrics: Dict[str, float] = {
        "workloads.build_s": layer_s("workloads"),
        "workloads.records": float(records),
        "batch.prescan_s": layer_s("batch"),
        "system.run_s": system_run,
        "system.glue_s": glue,
        "core.committed": total(lambda r: r.committed),
        "l1d.accesses": acc["l1d"],
        "l1d.miss_ratio": _ratio(miss["l1d"], acc["l1d"]),
        "l1d.mshr_wait_cycles": total(lambda r: r.l1d.mshr_full_wait_cycles),
        "l2.accesses": acc["l2"],
        "l2.miss_ratio": _ratio(miss["l2"], acc["l2"]),
        "llc.accesses": acc["llc"],
        "llc.miss_ratio": _ratio(miss["llc"], acc["llc"]),
        "cache.access_ns": replay["cache.access_ns"],
        "cache.est_s": cache_est,
        "gm.fills": gm_total("gm_fills"),
        "gm.refetches": refetches,
        "gm.commit_writes": gm_total("commit_writes"),
        "gm.self_s": layer_s("gm"),
        "suf.drops": gm_total("commit_drops_suf"),
        "suf.accuracy": _ratio(gm_total("suf_correct"), suf_resolved),
        "drain.windows": float(windows),
        "drain.refetches_per_window": _ratio(refetches, windows),
        "drain.self_s": layer_s("drain"),
        "dram.requests": total(lambda r: r.dram.requests),
        "dram.row_hit_ratio": _ratio(total(lambda r: r.dram.row_hits),
                                     total(lambda r: r.dram.requests)),
        "dram.self_s": layer_s("dram"),
        "dram.access_ns": replay["dram.access_ns"],
        "pf.train_calls": float(count("pf.train", outer=True)),
        "pf.train_s": layer_s("pf"),
        "pf.issued": pf_total("prefetches_issued"),
        "pf.accuracy": _ratio(useful, useful + useless),
        "pf.late": pf_total("demand_merged_into_prefetch"),
        "multicore.run_s": layer_s("multicore"),
        "multicore.instr": float(counters.multicore_instr),
        "runner.jobs": float(count("runner.execute_job")),
        "runner.self_s": layer_s("runner"),
        "store.get_s": layer_s("store.get"),
        "store.put_s": layer_s("store.put"),
        "store.hits": float(store_stats.get("hits", 0)),
        "store.misses": float(store_stats.get("misses", 0)),
        "campaign.plan_s": layer_s("campaign.plan"),
        "campaign.eval_s": layer_s("campaign.eval"),
        "security.attack_s": layer_s("security"),
        "security.attacks": float(count("security.run_attack", outer=True)),
        "bench.self_s": layer_s("bench"),
        "trace.wall_s": wall,
        "trace.spans": float(len(log)),
        "trace.overhead": overhead,
    }
    problems = []
    ledger = sum(metrics[name] for name in LEDGER)
    if abs(ledger - wall) > 1e-6 * max(wall, 1.0):
        problems.append(f"ledger {ledger:.6f}s != traced wall {wall:.6f}s")
    return metrics, problems


#: Self-time terms that partition the traced wall time.
LEDGER = ("workloads.build_s", "batch.prescan_s", "cache.est_s",
          "system.glue_s", "gm.self_s", "drain.self_s", "dram.self_s",
          "pf.train_s", "multicore.run_s", "runner.self_s", "store.get_s",
          "store.put_s", "campaign.plan_s", "campaign.eval_s",
          "security.attack_s", "bench.self_s")

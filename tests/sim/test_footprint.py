"""Resident-state footprint: what a run keeps alive, and for how long.

* **Refcount-freed systems** -- a finished ``System`` or
  ``MulticoreSystem`` holds no reference cycles, so dropping the last
  reference frees it (caches, GM, prefetcher tables) at once, without
  waiting for a cyclic collection.  The hot-path closures it builds
  (commit drainer, prefetch issuer, flattened descents) capture their
  collaborators, never their owner.
* **Column budgets** -- the long-lived per-record and per-edge columns
  (batch-plan columns, CSR graph arrays) are typed arrays: 8 bytes per
  element, not a Python int object each.  ``tracemalloc`` measures what
  the call leaves allocated, which is deterministic for a given input.
"""

import gc
import tracemalloc
import weakref

import pytest

from repro.experiments.runner import SCALES, Config, ExperimentRunner
from repro.sim.batch import plan_for
from repro.sim.multicore import MulticoreSystem
from repro.sim.system import System
from repro.workloads import gap
from repro.workloads.spec import spec_trace


@pytest.fixture()
def no_cyclic_gc():
    """Disable the cyclic collector, so only refcounting can free."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture(scope="module")
def trace():
    return spec_trace("605.mcf-1554B", 3000)


def _refs(system):
    """Weak references to a system and the state it owns."""
    hierarchy = system.hierarchy
    return [weakref.ref(obj) for obj in
            (system, hierarchy, hierarchy.l1d, hierarchy.l2,
             hierarchy.llc, hierarchy.dram)]


@pytest.mark.parametrize("config", [
    Config.from_spec("on-commit-secure", "tsb", suf=True),
    Config.from_spec("on-commit-secure", "berti"),
    Config(),
], ids=["secure-tsb-suf", "secure-berti", "baseline"])
def test_finished_system_freed_by_refcount(config, trace, no_cyclic_gc):
    system = ExperimentRunner(scale=SCALES["tiny"]).build_system(config)
    result = system.run(trace)
    refs = _refs(system)
    del system
    assert [ref() for ref in refs] == [None] * len(refs)
    assert result.committed > 0  # results outlive the system


def test_finished_multicore_freed_by_refcount(trace, no_cyclic_gc):
    mc = MulticoreSystem(
        cores=2, system_factory=lambda **kw: System(secure=True, **kw))
    result = mc.run([trace, trace])
    refs = [weakref.ref(mc), weakref.ref(mc.llc)]
    for system in mc.systems:
        refs += _refs(system)
    del system
    del mc
    assert [ref() for ref in refs] == [None] * len(refs)
    assert len(result.per_core) == 2


def _retained_bytes(fn):
    """Bytes still allocated after ``fn()`` returns (kept alive by its
    result and by any cache it fills)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = fn()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del kept
    return after - before


def test_plan_columns_budget():
    trace = spec_trace("605.mcf-1554B", 20_000)
    assert len(trace) >= 50_000
    retained = _retained_bytes(lambda: plan_for(trace))
    # codes + same_page (1 B each) and blocks + cum (8 B each); the ip
    # column is the trace's own.
    assert retained <= 24 * len(trace)


def test_graph_columns_budget():
    key = (65536, 16, 7)
    gap._GRAPH_CACHE.pop(key, None)
    try:
        retained = _retained_bytes(lambda: gap.build_graph(*key))
        offsets, neighbors = gap._GRAPH_CACHE[key]
        assert retained <= 10 * (len(offsets) + len(neighbors))
    finally:
        gap._GRAPH_CACHE.pop(key, None)

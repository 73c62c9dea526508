"""GAP-like graph workload generators."""

from array import array

import pytest

from repro.workloads import gap
from repro.workloads.gap import (GAP_KERNELS, NEIGHBORS_BASE, OFFSETS_BASE,
                                 PROP_BASE, bfs_trace, build_graph,
                                 gap_traces, pagerank_trace, tc_trace)
from repro.workloads.trace import FLAG_LOAD, FLAG_WRONG_PATH


def committed_loads(trace):
    return [(ip, vaddr) for ip, vaddr, flags in trace.records
            if flags & FLAG_LOAD and not flags & FLAG_WRONG_PATH]


class TestBuildGraph:
    def test_csr_well_formed(self):
        offsets, neighbors = build_graph(vertices=256, degree=8, seed=1)
        assert len(offsets) == 257
        assert offsets[0] == 0
        assert offsets[-1] == len(neighbors)
        assert all(a <= b for a, b in zip(offsets, offsets[1:]))
        assert all(0 <= v < 256 for v in neighbors)

    def test_rows_sorted(self):
        offsets, neighbors = build_graph(vertices=128, degree=6, seed=2)
        for v in range(128):
            row = list(neighbors[offsets[v]:offsets[v + 1]])
            assert row == sorted(row)

    def test_cached(self):
        g1 = build_graph(vertices=64, degree=4, seed=3)
        g2 = build_graph(vertices=64, degree=4, seed=3)
        assert g1 is g2

    def test_seeded(self):
        g1 = build_graph(vertices=64, degree=4, seed=3)
        g2 = build_graph(vertices=64, degree=4, seed=4)
        assert g1 is not g2

    def test_typed_columns(self):
        for graph in (build_graph(vertices=256, degree=16, seed=1),
                      build_graph(vertices=100, degree=6, seed=1)):
            for column in graph:
                assert isinstance(column, array)
                assert column.typecode == "q"


class TestVectorizedGraph:
    """The NumPy builder must actually run, not silently fall back to the
    scalar loop (same output, several times slower set-up)."""

    @pytest.fixture(autouse=True)
    def _numpy(self):
        if gap._np is None:
            pytest.skip("NumPy unavailable: only the stdlib builder runs")

    def test_default_parameters_take_vectorized_path(self):
        # build_graph's defaults: 65,536 vertices, degree 16.
        graph = gap._np_build_graph(65536, 8, 16, 42)
        assert graph is not None
        assert len(graph[0]) == 65537

    def test_matches_stdlib_builder(self, monkeypatch):
        vectorized = gap._np_build_graph(1024, 8, 16, 5)
        assert vectorized is not None
        monkeypatch.setattr(gap, "_np", None)
        monkeypatch.setattr(gap, "_GRAPH_CACHE", {})
        scalar = gap.build_graph(1024, 16, 5)
        assert vectorized == scalar


class TestKernels:
    def test_all_kernels_build(self):
        for name, builder in GAP_KERNELS.items():
            trace = builder(f"{name}-t", 800, seed=11)
            assert len(committed_loads(trace)) >= 800, name
            assert trace.suite == "gap"

    def test_bfs_touches_all_three_arrays(self):
        trace = bfs_trace("bfs-t", 1500, vertices=4096, seed=12)
        regions = {vaddr >> 30 for _, vaddr in committed_loads(trace)}
        assert OFFSETS_BASE >> 30 in regions
        assert NEIGHBORS_BASE >> 30 in regions
        assert PROP_BASE >> 30 in regions

    def test_pagerank_offsets_sequential(self):
        trace = pagerank_trace("pr-t", 1500, vertices=4096, seed=13)
        offset_addrs = [vaddr for ip, vaddr in committed_loads(trace)
                        if vaddr >> 30 == OFFSETS_BASE >> 30]
        deltas = [b - a for a, b in zip(offset_addrs, offset_addrs[1:])]
        # PageRank sweeps vertices in order: offsets advance by 8 bytes.
        assert deltas.count(8) > len(deltas) * 0.9

    def test_tc_revisits_neighbor_lists(self):
        trace = tc_trace("tc-t", 1500, vertices=512, seed=14)
        neighbor_addrs = [vaddr for _, vaddr in committed_loads(trace)
                          if vaddr >> 30 == NEIGHBORS_BASE >> 30]
        # Triangle counting re-scans rows: addresses repeat.
        assert len(set(neighbor_addrs)) < len(neighbor_addrs)

    def test_gap_traces_pool(self):
        traces = gap_traces(500, vertices=2048, seed=21)
        assert len(traces) == len(GAP_KERNELS)
        names = {t.name.split("-")[0] for t in traces}
        assert names == set(GAP_KERNELS)

    def test_deterministic(self):
        t1 = bfs_trace("b", 600, vertices=1024, seed=5)
        t2 = bfs_trace("b", 600, vertices=1024, seed=5)
        assert t1.records == t2.records

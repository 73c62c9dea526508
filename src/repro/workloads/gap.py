"""GAP-like graph workload traces.

The GAP benchmark suite processes CSR graphs; its memory behaviour is a mix
of *sequential streams* (offset and neighbor arrays) and *random gathers*
(per-vertex property arrays indexed by neighbor id).  We synthesize an
Erdos-Renyi-style graph in CSR form and emit the address stream each kernel
actually performs, using the kernel's real visit order (BFS frontier order,
PageRank's sequential sweeps, ...).

Array layout (8-byte elements, disjoint gigabyte-aligned regions):

* ``offsets[v]``   -- CSR row pointers, sequential in visit order;
* ``neighbors[i]`` -- CSR column indices, streamed per vertex;
* ``prop[v]``      -- visited flags / ranks / components / distances,
  gathered at random vertex ids: the high-MPKI part.

Graph kernels branch heavily and unpredictably (data-dependent frontier
membership), so these builders use a higher mispredict rate than the SPEC
generators.
"""

from __future__ import annotations

import random
from array import array
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

# The package's one NumPy probe (it honours REPRO_NO_NUMPY), shared
# with the batch prescan.
from ..sim.batch import np as _np
from .synthetic import REGION_GAP, TraceBuilder
from .trace import Trace

#: A CSR graph: ``(offsets, neighbors)`` as ``array('q')`` columns (8 B
#: per element, where a list of ints costs ~36 B).
Graph = Tuple[array, array]

_GRAPH_CACHE: Dict[Tuple[int, int, int], Graph] = {}

OFFSETS_BASE = 1 * REGION_GAP
NEIGHBORS_BASE = 2 * REGION_GAP
PROP_BASE = 3 * REGION_GAP
PROP2_BASE = 4 * REGION_GAP

_ELEM = 8  # bytes per array element

#: MT19937 words with this bit clear are the ones ``_randbelow`` accepts
#: when the window is a power of two (see :func:`_np_build_graph`).
_TOP_BIT = 0x80000000


def _np_build_graph(vertices: int, deg_lo: int, deg_span: int,
                    seed: int) -> Optional[Graph]:
    """Vectorized, draw-exact CSR construction (NumPy fast path).

    CPython's ``Random._randbelow(n)`` for ``n == 2**m`` draws one 32-bit
    MT19937 word per attempt, keeps the top ``m + 1`` bits, and accepts
    iff the result is below ``2**m`` -- i.e. iff *bit 31 of the raw word
    is clear*, independent of ``m``.  So when both draw windows
    (``deg_span`` and ``vertices``) are powers of two, the accepted-word
    subsequence does not depend on which window each draw targets: we can
    pull the raw word stream in bulk (same MT19937 state, injected from
    ``random.Random(seed)``), filter on the top bit once, and decode each
    accepted word with the shift of whichever draw consumed it.

    Returns ``None`` (caller falls back to the scalar loop) when NumPy is
    missing, a window is not a power of two, or the trailing spot check
    against a fresh ``random.Random(seed)`` replay disagrees.
    """
    if _np is None:
        return None
    if vertices & (vertices - 1) or deg_span & (deg_span - 1):
        return None
    if deg_span > 256:  # degree column is decoded through a bytes view
        return None
    st = random.Random(seed).getstate()[1]
    try:
        mt = _np.random.MT19937()
        mt.state = {"bit_generator": "MT19937",
                    "state": {"key": _np.asarray(st[:624],
                                                 dtype=_np.uint32),
                              "pos": st[624]}}
    except (KeyError, TypeError, ValueError):  # pragma: no cover
        return None
    # getrandbits(m + 1) keeps the top m + 1 bits of the word.
    shift_deg = 32 - deg_span.bit_length()
    shift_v = 32 - vertices.bit_length()

    # Accepted draws needed: one degree draw plus ``deg`` vertex draws
    # per vertex; each accepted draw costs two raw words on average.
    mean_deg = deg_lo + (deg_span - 1) / 2.0
    need = int(vertices * (1.0 + mean_deg)) + vertices // 8 + 4096
    words = mt.random_raw(max(4096, int(need * 2.1)))
    acc = words[words < _TOP_BIT]
    del words  # the raw stream is twice the accepted one
    # Degree candidates as a bytes view: C-speed indexing in the walk
    # below without materializing a Python int per accepted word.
    deg_bytes = (acc >> shift_deg).astype(_np.uint8).tobytes()

    # Sequential walk over accepted-draw positions: vertex v's degree
    # draw sits right after vertex v-1's last neighbor draw.
    degs: List[int] = []
    append = degs.append
    pos = 0
    n_acc = len(acc)
    for _ in range(vertices):
        while pos >= n_acc:  # estimate ran short: top up the stream
            more = mt.random_raw(1 << 16)
            more_acc = more[more < _TOP_BIT]
            acc = _np.concatenate((acc, more_acc))
            deg_bytes += (more_acc >> shift_deg).astype(
                _np.uint8).tobytes()
            n_acc = len(acc)
        d = deg_lo + deg_bytes[pos]
        append(d)
        pos += 1 + d
    while pos > n_acc:  # the final vertex's neighbor draws ran short
        more = mt.random_raw(1 << 16)
        acc = _np.concatenate((acc, more[more < _TOP_BIT]))
        n_acc = len(acc)

    degs_arr = _np.asarray(degs, dtype=_np.int64)
    deg_positions = _np.empty(vertices, dtype=_np.int64)
    deg_positions[0] = 0
    if vertices > 1:
        _np.cumsum(degs_arr[:-1] + 1, out=deg_positions[1:])
    mask = _np.ones(pos, dtype=bool)
    mask[deg_positions] = False
    nbr = acc[:pos][mask]
    del acc, mask
    # In place from here on: each temporary is another 8 B per edge.
    nbr >>= shift_v  # now below ``vertices``: exact as int64

    # Per-vertex ascending neighbor sort, all rows at once: tag each
    # value with its row id in the high bits and sort the tagged column.
    vbits = (vertices - 1).bit_length()
    combined = _np.repeat(_np.arange(vertices, dtype=_np.int64), degs_arr)
    combined <<= vbits
    combined |= nbr.view(_np.int64)
    del nbr
    combined.sort()
    combined &= (1 << vbits) - 1
    neighbors = array("q", combined.tobytes())
    del combined
    offs = _np.zeros(vertices + 1, dtype=_np.int64)
    _np.cumsum(degs_arr, out=offs[1:])
    offsets = array("q", offs.tobytes())

    # Spot check: replay the first few vertices on the scalar generator
    # and require byte-for-byte agreement, so any emulation drift (NumPy
    # MT19937 changes, PyPy, ...) falls back instead of diverging.
    rng = random.Random(seed)
    randbelow = getattr(rng, "_randbelow", None)
    if randbelow is None:  # pragma: no cover - non-CPython
        return None
    for v in range(min(4, vertices)):
        d = deg_lo + randbelow(deg_span)
        if d != degs[v]:  # pragma: no cover - fallback guard
            return None
        row = sorted(randbelow(vertices) for _ in range(d))
        if row != neighbors[offsets[v]:offsets[v + 1]].tolist():
            return None  # pragma: no cover - fallback guard
    return offsets, neighbors


def build_graph(vertices: int = 65536, degree: int = 16,
                seed: int = 42) -> Graph:
    """Return (offsets, neighbors) of a random CSR graph (cached), both
    as ``array('q')``."""
    key = (vertices, degree, seed)
    cached = _GRAPH_CACHE.get(key)
    if cached is not None:
        return cached
    deg_lo = max(1, degree // 2)
    deg_span = degree + degree // 2 - deg_lo
    if deg_span <= 0 or vertices <= 0:
        raise ValueError(f"empty range for degree={degree} "
                         f"vertices={vertices}")
    graph = _np_build_graph(vertices, deg_lo, deg_span, seed)
    if graph is not None:
        _GRAPH_CACHE[key] = graph
        return graph
    rng = random.Random(seed)
    offsets = array("q", [0]) * (vertices + 1)
    neighbors = array("q")
    extend = neighbors.extend
    # randrange(a, b) reduces to a + _randbelow(b - a); calling the
    # accepted-values core directly skips the argument re-validation on
    # the ~vertices * (degree + 1) draws and keeps the exact draw
    # sequence (same generator, same rejection sampling).
    randbelow = getattr(rng, "_randbelow", None)
    if randbelow is None:  # non-CPython fallback
        randrange = rng.randrange

        def randbelow(n, _randrange=randrange):
            return _randrange(n)
    for v in range(vertices):
        deg = deg_lo + randbelow(deg_span)
        extend(sorted(randbelow(vertices) for _ in range(deg)))
        offsets[v + 1] = len(neighbors)
    graph = (offsets, neighbors)
    _GRAPH_CACHE[key] = graph
    return graph


class _GraphEmitter:
    """Shared helpers for emitting CSR access streams."""

    def __init__(self, name: str, seed: int, vertices: int,
                 degree: int) -> None:
        self.builder = TraceBuilder(
            name, suite="gap", seed=seed, branch_every=6,
            mispredict_rate=0.01, wrong_path_loads=4)
        self.offsets, self.neighbors = build_graph(vertices, degree, seed)
        self.vertices = vertices
        b = self.builder
        self.ip_offsets = b.new_ip()
        self.ip_neighbors = b.new_ip()
        self.ip_prop = b.new_ip()
        self.ip_prop2 = b.new_ip()
        self.loads = 0

    def visit_vertex(self, u: int, *, gather: bool = True,
                     prop_base: int = PROP_BASE,
                     neighbor_cap: int = 64) -> Sequence[int]:
        """Emit the loads of processing vertex ``u``; return its
        neighbors."""
        b = self.builder
        b.add_load(self.ip_offsets, OFFSETS_BASE + u * _ELEM)
        self.loads += 1
        start, end = self.offsets[u], self.offsets[u + 1]
        row = self.neighbors[start:min(end, start + neighbor_cap)]
        for i, v in enumerate(row):
            b.add_load(self.ip_neighbors, NEIGHBORS_BASE + (start + i) *
                       _ELEM)
            self.loads += 1
            if gather:
                addr = prop_base + v * _ELEM
                b.add_load(self.ip_prop, addr)
                b.note_wrong_path_target(addr)
                self.loads += 1
        return row

    def build(self) -> Trace:
        return self.builder.build()


def bfs_trace(name: str = "bfs-14B", n_loads: int = 30000, *,
              vertices: int = 65536, degree: int = 16,
              seed: int = 42) -> Trace:
    """Breadth-first search: frontier-ordered visits, random gathers."""
    emitter = _GraphEmitter(name, seed, vertices, degree)
    visited = bytearray(vertices)
    frontier = deque([seed % vertices])
    visited[seed % vertices] = 1
    while frontier and emitter.loads < n_loads:
        u = frontier.popleft()
        for v in emitter.visit_vertex(u):
            if not visited[v]:
                visited[v] = 1
                # Marking the vertex writes its visited flag.
                emitter.builder.add_store(emitter.ip_prop2,
                                          PROP2_BASE + v * _ELEM)
                frontier.append(v)
    return emitter.build()


def pagerank_trace(name: str = "pr-14B", n_loads: int = 30000, *,
                   vertices: int = 65536, degree: int = 16,
                   seed: int = 43) -> Trace:
    """PageRank: sequential vertex sweeps with random rank gathers."""
    emitter = _GraphEmitter(name, seed, vertices, degree)
    u = 0
    while emitter.loads < n_loads:
        emitter.visit_vertex(u % vertices)
        if u % vertices == vertices - 1:
            pass  # next iteration sweeps again from vertex 0
        u += 1
    return emitter.build()


def cc_trace(name: str = "cc-14B", n_loads: int = 30000, *,
             vertices: int = 65536, degree: int = 16,
             seed: int = 44) -> Trace:
    """Connected components: edge sweeps reading both endpoints'
    components."""
    emitter = _GraphEmitter(name, seed, vertices, degree)
    b = emitter.builder
    u = 0
    while emitter.loads < n_loads:
        row = emitter.visit_vertex(u % vertices, gather=True)
        # comp[u] is re-read and occasionally updated (union step).
        b.add_load(emitter.ip_prop2, PROP2_BASE + (u % vertices) * _ELEM)
        emitter.loads += 1
        if row and (u + len(row)) % 3 == 0:
            b.add_store(emitter.ip_prop2, PROP2_BASE + row[0] * _ELEM)
        u += 1
    return emitter.build()


def sssp_trace(name: str = "sssp-14B", n_loads: int = 30000, *,
               vertices: int = 65536, degree: int = 16,
               seed: int = 45) -> Trace:
    """Delta-stepping-style SSSP: bucket-ordered (semi-random) visits."""
    emitter = _GraphEmitter(name, seed, vertices, degree)
    rng = random.Random(seed * 3 + 1)
    # Bucket order: a permuted visit order models priority buckets.
    order = list(range(vertices))
    rng.shuffle(order)
    i = 0
    while emitter.loads < n_loads:
        emitter.visit_vertex(order[i % vertices], prop_base=PROP_BASE)
        i += 1
    return emitter.build()


def bc_trace(name: str = "bc-0B", n_loads: int = 30000, *,
             vertices: int = 65536, degree: int = 16,
             seed: int = 46) -> Trace:
    """Betweenness centrality: BFS forward pass + reverse accumulation."""
    emitter = _GraphEmitter(name, seed, vertices, degree)
    visited = bytearray(vertices)
    src = seed % vertices
    frontier = deque([src])
    visited[src] = 1
    order: List[int] = []
    budget = n_loads * 2 // 3
    while frontier and emitter.loads < budget:
        u = frontier.popleft()
        order.append(u)
        for v in emitter.visit_vertex(u):
            if not visited[v]:
                visited[v] = 1
                frontier.append(v)
    # Reverse pass accumulates dependencies (second property array).
    for u in reversed(order):
        if emitter.loads >= n_loads:
            break
        emitter.visit_vertex(u, prop_base=PROP2_BASE)
    return emitter.build()


def tc_trace(name: str = "tc-0B", n_loads: int = 30000, *,
             vertices: int = 8192, degree: int = 24,
             seed: int = 47) -> Trace:
    """Triangle counting: nested neighbor-list scans with heavy reuse."""
    emitter = _GraphEmitter(name, seed, vertices, degree)
    u = 0
    while emitter.loads < n_loads:
        row = emitter.visit_vertex(u % vertices, gather=False,
                                   neighbor_cap=12)
        for v in row[:4]:
            emitter.visit_vertex(v, gather=False, neighbor_cap=12)
            if emitter.loads >= n_loads:
                break
        u += 1
    return emitter.build()


#: Kernel-name -> builder, mirroring the GAP suite used in the paper.
GAP_KERNELS = {
    "bfs": bfs_trace,
    "pr": pagerank_trace,
    "cc": cc_trace,
    "sssp": sssp_trace,
    "bc": bc_trace,
    "tc": tc_trace,
}


def gap_trace(kernel: str, n_loads: int = 30000, *, vertices: int = 65536,
              seed: int = 42) -> Trace:
    """Build one kernel of the pool :func:`gap_traces` would build.

    ``seed`` is the *pool* seed: the kernel's index in sorted name order
    is applied as the per-kernel offset, exactly as in the pool builder,
    so ``gap_trace(k, ...)`` equals the pool's ``k`` entry record for
    record.  This is the unit the prebuilt-trace cache keys on.
    """
    kernels = sorted(GAP_KERNELS)
    try:
        index = kernels.index(kernel)
    except ValueError:
        raise ValueError(f"unknown GAP kernel {kernel!r}; "
                         f"known: {kernels}") from None
    kwargs = {"n_loads": n_loads, "seed": seed + index}
    if kernel != "tc":
        kwargs["vertices"] = vertices
    return GAP_KERNELS[kernel](f"{kernel}-{seed}B", **kwargs)


def gap_traces(n_loads: int = 30000, *, vertices: int = 65536,
               seed: int = 42, count: int = 0) -> List[Trace]:
    """The GAP-like trace pool (first ``count`` kernels, 0 = all).

    Kernel ``i`` always uses ``seed + i`` over the sorted kernel names, so
    a truncated pool is a prefix of the full one -- small sweep scales
    skip building (and graph-constructing) the kernels they never use.
    """
    kernels = sorted(GAP_KERNELS)
    if count:
        kernels = kernels[:count]
    return [gap_trace(kernel, n_loads, vertices=vertices, seed=seed)
            for kernel in kernels]

"""Synthetic trace generation primitives.

Real SPEC CPU2017 / GAP SimPoint traces are multi-gigabyte downloads, so the
reproduction generates address streams exhibiting the *memory behaviours*
that drive the paper's effects (DESIGN.md section 3):

* streaming / strided access (bwaves, lbm, roms, fotonik ...);
* pointer chasing over footprints far larger than the LLC (mcf, omnetpp);
* spatially-clustered region access with recurring footprints (gcc,
  xalancbmk) -- the pattern Bingo exploits;
* hot/cold working sets with low MPKI (leela, perlbench, xz);
* graph traversals (GAP) built from real BFS/PageRank/... visit orders over
  synthetic graphs (``repro.workloads.gap``).

Every generator is deterministic given its seed.  Branches are emitted
periodically; a configurable fraction mispredict, and each mispredict is
followed by a burst of *wrong-path* loads that execute speculatively and
never commit -- this is what makes on-access and on-commit prefetcher
training genuinely different, and what gives GhostMinion's GM transient
state to hide.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from typing import Iterable, List, Sequence, Tuple

# The package's one NumPy probe (it honours REPRO_NO_NUMPY), shared
# with the batch prescan.
from ..sim.batch import np as _np
from .trace import (FLAG_BRANCH, FLAG_LOAD, FLAG_MISPREDICT, FLAG_STORE,
                    FLAG_WRONG_PATH, Trace)

#: Byte distance between generated arrays / heaps, keeping address ranges
#: of different data structures disjoint.
REGION_GAP = 1 << 30

#: First instruction pointer handed out by :meth:`TraceBuilder.new_ip`.
_IP_BASE = 0x400000

#: Initial wrong-path pool entry (see :func:`_assemble`).
_WP_SEED_TARGET = REGION_GAP * 7

#: Wrong-path pool capacity (oldest entries are evicted beyond this).
_WP_POOL_MAX = 64


class TraceBuilder:
    """Incrementally assemble a trace with realistic instruction mix.

    ``add_load``/``add_store`` record one memory operation each, and
    ``note_wrong_path_target`` an address later wrong-path bursts may
    touch.  :meth:`build` lays the instruction stream out around them:
    ``filler`` non-memory instructions after every operation, a branch
    after every ``branch_every`` instructions (mispredicting with
    probability ``mispredict_rate``), and ``wrong_path_loads`` transient
    loads in the shadow of each mispredict.

    The builder's state is columns only -- ``op_ips``/``op_addrs``
    (``array('q')``) and ``op_flags`` (``bytearray``) for the operations,
    ``note_at``/``note_addrs`` for the notes, where ``note_at`` counts the
    operations recorded before each note.  Bulk generators may assign
    them directly instead of appending one operation at a time.
    """

    def __init__(self, name: str, *, suite: str = "synthetic",
                 filler: int = 2, branch_every: int = 8,
                 mispredict_rate: float = 0.002,
                 wrong_path_loads: int = 4,
                 seed: int = 1) -> None:
        self.name = name
        self.suite = suite
        self.filler = filler
        self.branch_every = branch_every
        self.mispredict_rate = mispredict_rate
        self.wrong_path_loads = wrong_path_loads
        self.seed = seed
        self.op_ips = array("q")
        self.op_addrs = array("q")
        self.op_flags = bytearray()
        self.note_at = array("q")
        self.note_addrs = array("q")
        self._next_ip = _IP_BASE
        #: ``(first op, next ip)`` pairs: the non-memory instructions laid
        #: out after op ``i`` take their ip from the last pair with
        #: ``first <= i``.
        self._ip_marks: List[Tuple[int, int]] = [(0, _IP_BASE)]

    def new_ip(self) -> int:
        """Allocate a fresh instruction pointer (one per static load site)."""
        ip = self._next_ip
        self._next_ip += 4
        marks = self._ip_marks
        ops = len(self.op_flags)
        if marks[-1][0] == ops:
            marks[-1] = (ops, self._next_ip)
        else:
            marks.append((ops, self._next_ip))
        return ip

    def note_wrong_path_target(self, addr: int) -> None:
        """Register an address wrong-path bursts may touch."""
        self.note_at.append(len(self.op_flags))
        self.note_addrs.append(addr)

    def add_load(self, ip: int, addr: int) -> None:
        self.op_ips.append(ip)
        self.op_addrs.append(addr)
        self.op_flags.append(FLAG_LOAD)

    def add_store(self, ip: int, addr: int) -> None:
        self.op_ips.append(ip)
        self.op_addrs.append(addr)
        self.op_flags.append(FLAG_STORE)

    def build(self) -> Trace:
        return _assemble(self)


def _assemble(builder: TraceBuilder) -> Trace:
    """Lay out a builder's instruction stream around its memory ops.

    The control skeleton is exactly periodic: every op contributes
    ``1 + filler`` instruction slots (the op, then its non-memory
    fillers), and a branch record follows every ``branch_every``-th slot
    whatever the mispredict outcomes (wrong-path bursts never advance the
    branch counter).  So the committed stream is a pure interleave of
    three arithmetic sequences -- ops, fillers, branches -- assembled with
    extended-slice assignments over the columns.

    Only the builder RNG's draws stay sequential, replayed in their
    original order: one ``random()`` per branch, and per mispredict two
    ``randrange`` per wrong-path load.  A branch fires while its op is
    being added, so its wrong-path pool is ``[_WP_SEED_TARGET]`` plus the
    notes made before that op, keeping the newest ``_WP_POOL_MAX``.
    """
    ops = len(builder.op_flags)
    unit = 1 + max(0, builder.filler)
    period = max(1, builder.branch_every)
    slots = unit * ops
    n_branches = slots // period
    marks = builder._ip_marks
    spans = [(first, end, nip) for (first, nip), (end, _)
             in zip(marks, marks[1:] + [(ops, 0)])]

    # Instruction slots: op ``k`` at slot ``k * unit``, fillers after it.
    slot_ip = array("q")
    for first, end, nip in spans:
        slot_ip += array("q", [nip]) * ((end - first) * unit)
    slot_ip[::unit] = builder.op_ips
    slot_addr = array("q", [-1]) * slots
    slot_addr[::unit] = builder.op_addrs
    slot_flags = bytearray(slots)
    slot_flags[::unit] = builder.op_flags

    # Committed stream: groups of ``period`` slots + 1 branch record.
    # Branch ``b`` follows slot ``(b + 1) * period - 1``, inside op
    # ``((b + 1) * period - 1) // unit``'s unit.
    total = slots + n_branches
    group = period + 1
    ips = array("q", bytes(8 * total))
    addrs = array("q", bytes(8 * total))
    flags = bytearray(total)
    for r in range(period):
        ips[r::group] = slot_ip[r::period]
        addrs[r::group] = slot_addr[r::period]
        flags[r::group] = slot_flags[r::period]
    branch_ip = array("q")
    for first, end, nip in spans:
        branch_ip += array("q", [nip + 2]) * (
            end * unit // period - first * unit // period)
    ips[period::group] = branch_ip
    addrs[period::group] = array("q", [-1]) * n_branches
    flags[period::group] = bytes([FLAG_BRANCH]) * n_branches

    # The sequential tail: replay the branch draws in stream order.
    rng = random.Random(builder.seed)
    random_ = rng.random
    randrange = rng.randrange
    rate = builder.mispredict_rate
    burst_len = builder.wrong_path_loads
    note_at = builder.note_at
    notes = builder.note_addrs
    firsts = [first for first, _, _ in spans]
    bursts = []
    for b in range(n_branches):
        if random_() >= rate:
            continue
        at = b * group + period
        flags[at] |= FLAG_MISPREDICT
        op = ((b + 1) * period - 1) // unit
        seen = bisect_right(note_at, op)
        if seen < _WP_POOL_MAX:
            pool: Sequence[int] = [_WP_SEED_TARGET, *notes[:seen]]
        else:
            pool = notes[seen - _WP_POOL_MAX:seen]
        size = len(pool)
        burst = [pool[randrange(size)] + randrange(256) * 64
                 for _ in range(burst_len)]
        if burst:
            nip = spans[bisect_right(firsts, op) - 1][2]
            bursts.append((at + 1, nip + 16, burst))
    if bursts:
        ips, addrs, flags = _splice(ips, addrs, flags, bursts)
    return Trace.from_columns(builder.name, ips, addrs, bytes(flags),
                              suite=builder.suite)


def _splice(ips: array, addrs: array, flags: bytearray,
            bursts: List[Tuple[int, int, List[int]]]
            ) -> Tuple[array, array, bytearray]:
    """Insert each ``(position, ip, addresses)`` wrong-path burst into
    the committed columns, in one pass."""
    out_ips, out_addrs, out_flags = array("q"), array("q"), bytearray()
    wp_flag = bytes([FLAG_LOAD | FLAG_WRONG_PATH])
    prev = 0
    for at, ip, burst in bursts:
        out_ips += ips[prev:at]
        out_addrs += addrs[prev:at]
        out_flags += flags[prev:at]
        out_ips += array("q", [ip]) * len(burst)
        out_addrs += array("q", burst)
        out_flags += wp_flag * len(burst)
        prev = at
    out_ips += ips[prev:]
    out_addrs += addrs[prev:]
    out_flags += flags[prev:]
    return out_ips, out_addrs, out_flags


# ----------------------------------------------------------------------
# pattern generators
# ----------------------------------------------------------------------

def stream_trace(name: str, n_loads: int, *, streams: int = 4,
                 stride_blocks: int = 1, elems_per_block: int = 8,
                 footprint_mb: int = 16, store_every: int = 0, seed: int = 1,
                 suite: str = "synthetic", **builder_kw) -> Trace:
    """Concurrent sequential/strided streams (bwaves/lbm/roms-like).

    Each stream reads ``elems_per_block`` 8-byte elements of a cache block
    (so most accesses hit in the L1D, like real array sweeps), then jumps
    ``stride_blocks`` blocks forward.  ``elems_per_block=1`` gives the
    one-touch-per-block behaviour of large-stride codes (cactus-like).
    Load ``i`` belongs to stream ``i % streams``; stream 0's loads are
    the wrong-path targets, and with ``store_every`` a store to the same
    address follows every ``store_every``-th load.

    The op columns are computed in closed form rather than load by load.
    """
    builder = TraceBuilder(name, suite=suite, seed=seed, **builder_kw)
    footprint = footprint_mb << 20
    epb = elems_per_block
    bases = [i * REGION_GAP for i in range(1, streams + 1)]
    ips = [builder.new_ip() for _ in range(streams)]
    store_ip = builder.new_ip()

    # Load columns.  The j-th load of stream s touches
    #   bases[s] + ((j // epb) * stride * 64 + (j % epb) * 8) % footprint
    # and both terms are block-aligned enough that the modulo distributes,
    # so per-stream offsets come from an epb-wide template swept block by
    # block (or one closed-form NumPy expression).
    step = stride_blocks * 64
    load_ip = array("q", bytes(8 * n_loads))
    load_addr = array("q", bytes(8 * n_loads))
    if _np is not None and n_loads >= 1024:
        i = _np.arange(n_loads, dtype=_np.int64)
        s = i % streams
        j = i // streams
        off = ((j // epb) * step + (j % epb) * 8) % footprint
        load_addr = array("q")
        load_addr.frombytes(
            (_np.array(bases, dtype=_np.int64)[s] + off).tobytes())
        load_ip = array("q")
        load_ip.frombytes(_np.array(ips, dtype=_np.int64)[s].tobytes())
    else:
        template = [e * 8 for e in range(epb)]
        for s in range(streams):
            count = len(range(s, n_loads, streams))
            offs: List[int] = []
            extend = offs.extend
            base = bases[s]
            block_off = 0
            for _ in range((count + epb - 1) // epb):
                start = base + block_off % footprint
                extend([start + t for t in template])
                block_off += step
            del offs[count:]
            load_addr[s::streams] = array("q", offs)
            load_ip[s::streams] = array("q", [ips[s]]) * count

    # Op columns: loads with a store (reusing the load's address) spliced
    # in after every ``store_every``-th load, giving period se + 1.
    se = store_every
    if se:
        n_stores = n_loads // se
        n_ops = n_loads + n_stores
        period = se + 1
        op_ip = array("q", bytes(8 * n_ops))
        op_addr = array("q", bytes(8 * n_ops))
        op_flag = bytearray([FLAG_LOAD]) * n_ops
        for r in range(se):
            op_ip[r::period] = load_ip[r::se]
            op_addr[r::period] = load_addr[r::se]
        op_ip[se::period] = array("q", [store_ip]) * n_stores
        op_addr[se::period] = load_addr[se - 1::se]
        op_flag[se::period] = bytes([FLAG_STORE]) * n_stores
        builder.op_ips, builder.op_addrs, builder.op_flags = \
            op_ip, op_addr, op_flag
    else:
        builder.op_ips, builder.op_addrs = load_ip, load_addr
        builder.op_flags = bytearray([FLAG_LOAD]) * n_loads

    # Stream 0's load ``i`` is noted right after it is added, before the
    # store that may follow it.
    builder.note_at = array("q", [i + 1 + (i // se if se else 0)
                                  for i in range(0, n_loads, streams)])
    builder.note_addrs = load_addr[0::streams]
    return builder.build()


def pointer_chase_trace(name: str, n_loads: int, *, footprint_mb: int = 32,
                        chains: int = 2, locality: float = 0.0,
                        hot_fraction: float = 0.5, hot_kb: int = 32,
                        scan_fraction: float = 0.6, scan_run: int = 32,
                        seed: int = 1, suite: str = "synthetic",
                        **builder_kw) -> Trace:
    """Pointer-heavy walks over a huge footprint (mcf-like, high MPKI).

    Real mcf mixes three behaviours this generator reproduces:

    * ``hot_fraction`` of loads touch a small hot structure (node headers,
      the simplex working set) and mostly hit;
    * a ``scan_fraction`` of the cold walk follows short sequential runs of
      ``scan_run`` blocks (arc-array scans) -- the part prefetchers can
      learn;
    * the rest are random jumps (pointer dereferences), with ``locality``
      probability of re-touching a recently visited block.
    """
    builder = TraceBuilder(name, suite=suite, seed=seed, **builder_kw)
    rng = random.Random(seed * 7919 + 13)
    blocks = (footprint_mb << 20) // 64
    hot_blocks = (hot_kb << 10) // 64
    bases = [i * REGION_GAP for i in range(1, chains + 1)]
    hot_base = (chains + 1) * REGION_GAP
    jump_ips = [builder.new_ip() for _ in range(chains)]
    scan_ips = [builder.new_ip() for _ in range(chains)]
    hot_ip = builder.new_ip()
    scan_pos = [0] * chains
    scan_left = [0] * chains
    segments = [[rng.randrange(blocks) for _ in range(16)]
                for _ in range(chains)]
    recent: List[int] = []
    for i in range(n_loads):
        if rng.random() < hot_fraction:
            builder.add_load(hot_ip,
                             hot_base + rng.randrange(hot_blocks) * 64)
            continue
        c = i % chains
        if scan_left[c] > 0:
            # Continue the sequential arc-array run.
            scan_left[c] -= 1
            scan_pos[c] += 1
            addr = bases[c] + (scan_pos[c] % blocks) * 64
            builder.add_load(scan_ips[c], addr)
            continue
        if rng.random() < scan_fraction:
            # Re-scan one of a bounded set of arc-array segments (mcf
            # revisits its arc lists every simplex iteration), refreshing a
            # segment occasionally so cold misses keep appearing.
            if rng.random() < 0.1:
                segments[c][rng.randrange(len(segments[c]))] = \
                    rng.randrange(blocks)
            scan_left[c] = scan_run
            scan_pos[c] = segments[c][rng.randrange(len(segments[c]))]
            addr = bases[c] + scan_pos[c] * 64
            builder.add_load(scan_ips[c], addr)
            builder.note_wrong_path_target(addr)
            continue
        if recent and rng.random() < locality:
            addr = recent[rng.randrange(len(recent))]
        else:
            addr = bases[c] + rng.randrange(blocks) * 64
            recent.append(addr)
            if len(recent) > 32:
                recent.pop(0)
        builder.add_load(jump_ips[c], addr)
        builder.note_wrong_path_target(addr)
    return builder.build()


def region_trace(name: str, n_loads: int, *, region_blocks: int = 32,
                 footprints: int = 8, pool_regions: int = 256,
                 churn: float = 0.1, concurrency: int = 4, seed: int = 1,
                 suite: str = "synthetic", **builder_kw) -> Trace:
    """Spatially-clustered region access with recurring footprints.

    A working set of ``pool_regions`` regions is visited repeatedly; each
    visit touches the region's *footprint* (a fixed subset of its blocks
    keyed by the visiting IP) -- exactly the structure Bingo's
    PC+Address/PC+Offset history can learn.  With probability ``churn`` a
    visit targets a brand-new region (working-set turnover), producing the
    steady compulsory-miss stream that footprint prefetchers cover.
    ``concurrency`` visits proceed interleaved (real code walks several
    structures at once), giving a prefetcher time to run ahead of the
    demands within each region.  gcc/xalancbmk-like.
    """
    builder = TraceBuilder(name, suite=suite, seed=seed, **builder_kw)
    rng = random.Random(seed * 104729 + 1)
    base = REGION_GAP
    ips = [builder.new_ip() for _ in range(footprints)]
    patterns = []
    for _ in range(footprints):
        size = rng.randrange(6, region_blocks // 2)
        patterns.append(sorted(rng.sample(range(region_blocks), size)))
    pool = list(range(pool_regions))
    next_region = pool_regions

    def new_visit() -> List[tuple]:
        """Pick a region; return its pending (ip, addr) access list."""
        nonlocal next_region
        if rng.random() < churn:
            pool[rng.randrange(len(pool))] = next_region
            region = next_region
            next_region += 1
        else:
            region = pool[rng.randrange(len(pool))]
        f = region % footprints
        region_base = base + region * region_blocks * 64
        builder.note_wrong_path_target(region_base)
        return [(ips[f], region_base + off * 64) for off in patterns[f]]

    active = [new_visit() for _ in range(concurrency)]
    loads = 0
    slot = 0
    while loads < n_loads:
        slot = (slot + 1) % concurrency
        if not active[slot]:
            active[slot] = new_visit()
        ip, addr = active[slot].pop(0)
        builder.add_load(ip, addr)
        loads += 1
    return builder.build()


def hot_cold_trace(name: str, n_loads: int, *, hot_kb: int = 24,
                   cold_mb: int = 8, cold_ratio: float = 0.06,
                   seed: int = 1, suite: str = "synthetic",
                   **builder_kw) -> Trace:
    """Mostly cache-resident hot set with occasional cold misses
    (leela/perlbench/xz-like, low MPKI)."""
    builder = TraceBuilder(name, suite=suite, seed=seed, **builder_kw)
    rng = random.Random(seed * 31337 + 5)
    hot_blocks = (hot_kb << 10) // 64
    cold_blocks = (cold_mb << 20) // 64
    hot_base = REGION_GAP
    cold_base = 2 * REGION_GAP
    hot_ip = builder.new_ip()
    cold_ip = builder.new_ip()
    cold_pos = 0
    for _ in range(n_loads):
        if rng.random() < cold_ratio:
            # Cold accesses stride forward: partially prefetchable.
            addr = cold_base + (cold_pos % cold_blocks) * 64
            cold_pos += rng.randrange(1, 4)
            builder.add_load(cold_ip, addr)
            builder.note_wrong_path_target(addr)
        else:
            addr = hot_base + rng.randrange(hot_blocks) * 64
            builder.add_load(hot_ip, addr)
    return builder.build()


def interleave(traces: Iterable[Trace], name: str,
               chunk: int = 64) -> Trace:
    """Round-robin interleave several traces (used to mix behaviours).

    Round ``r`` takes records ``[r * chunk, (r + 1) * chunk)`` of every
    trace still that long, in the order given.
    """
    columns = [trace.columns() for trace in traces]
    ips, addrs, flags = array("q"), array("q"), bytearray()
    longest = max((len(cols[2]) for cols in columns), default=0)
    for lo in range(0, longest, chunk):
        hi = lo + chunk
        for t_ips, t_addrs, t_flags in columns:
            if len(t_flags) > lo:
                ips.extend(t_ips[lo:hi])
                addrs.extend(t_addrs[lo:hi])
                flags += t_flags[lo:hi]
    return Trace.from_columns(name, ips, addrs, bytes(flags))

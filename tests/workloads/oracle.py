"""Record-by-record reference generators (test oracles).

These are the readable, one-record-at-a-time forms of the columnar
generators in :mod:`repro.workloads.synthetic`: a ``TraceBuilder`` that
appends each memory op, filler, branch and wrong-path load as it goes,
the per-load ``stream_trace`` loop, and the tuple-walking
``interleave``.  The equivalence tests patch them in for the shipped
versions and require identical columns.
"""

import random
from typing import Iterable, List

from repro.workloads.synthetic import (_IP_BASE, _WP_POOL_MAX,
                                       _WP_SEED_TARGET, REGION_GAP)
from repro.workloads.trace import (FLAG_BRANCH, FLAG_LOAD, FLAG_MISPREDICT,
                                   FLAG_STORE, FLAG_WRONG_PATH, Record,
                                   Trace)


class OracleTraceBuilder:
    """Incrementally assemble a trace with realistic instruction mix.

    ``add_load``/``add_store`` emit the memory operation plus ``filler``
    non-memory instructions; every ``branch_every`` instructions a branch is
    emitted, mispredicting with probability ``mispredict_rate`` and then
    running ``wrong_path_fn`` to produce the transient loads executed in the
    shadow of the mispredict.
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
        self.rng = random.Random(seed)
        self.records: List[Record] = []
        self._since_branch = 0
        self._next_ip = _IP_BASE
        #: Pool of wrong-path target addresses, refreshed by the patterns.
        self._wrong_path_pool: List[int] = [_WP_SEED_TARGET]

    def new_ip(self) -> int:
        """Allocate a fresh instruction pointer (one per static load site)."""
        ip = self._next_ip
        self._next_ip += 4
        return ip

    def note_wrong_path_target(self, addr: int) -> None:
        """Register an address wrong-path bursts may touch."""
        pool = self._wrong_path_pool
        pool.append(addr)
        if len(pool) > _WP_POOL_MAX:
            pool.pop(0)

    # ------------------------------------------------------------------

    def add_load(self, ip: int, addr: int) -> None:
        self.records.append((ip, addr, FLAG_LOAD))
        self._advance()

    def add_store(self, ip: int, addr: int) -> None:
        self.records.append((ip, addr, FLAG_STORE))
        self._advance()

    def add_filler(self) -> None:
        for _ in range(self.filler):
            self.records.append((self._next_ip, -1, 0))
            self._since_branch += 1
            self._maybe_branch()

    def _advance(self) -> None:
        self._since_branch += 1
        self._maybe_branch()
        self.add_filler()

    def _maybe_branch(self) -> None:
        if self._since_branch < self.branch_every:
            return
        self._since_branch = 0
        mispredict = self.rng.random() < self.mispredict_rate
        flags = FLAG_BRANCH | (FLAG_MISPREDICT if mispredict else 0)
        self.records.append((self._next_ip + 2, -1, flags))
        if mispredict:
            self._emit_wrong_path()

    def _emit_wrong_path(self) -> None:
        """Transient loads executed in a mispredicted branch's shadow."""
        rng = self.rng
        pool = self._wrong_path_pool
        wp_flags = FLAG_LOAD | FLAG_WRONG_PATH
        ip = self._next_ip + 16
        for _ in range(self.wrong_path_loads):
            base = pool[rng.randrange(len(pool))]
            addr = base + rng.randrange(256) * 64
            self.records.append((ip, addr, wp_flags))

    def build(self) -> Trace:
        return Trace(self.name, self.records, suite=self.suite)


def oracle_stream_trace(name: str, n_loads: int, *, streams: int = 4,
                        stride_blocks: int = 1, elems_per_block: int = 8,
                        footprint_mb: int = 16, store_every: int = 0,
                        seed: int = 1, suite: str = "synthetic",
                        **builder_kw) -> Trace:
    """Per-load reference for :func:`repro.workloads.synthetic.
    stream_trace`."""
    builder = OracleTraceBuilder(name, suite=suite, seed=seed, **builder_kw)
    footprint = footprint_mb << 20
    bases = [i * REGION_GAP for i in range(1, streams + 1)]
    ips = [builder.new_ip() for _ in range(streams)]
    store_ip = builder.new_ip()
    block_pos = [0] * streams
    elem_pos = [0] * streams
    for i in range(n_loads):
        s = i % streams
        addr = bases[s] + (block_pos[s] * 64 + elem_pos[s] * 8) % footprint
        elem_pos[s] += 1
        if elem_pos[s] >= elems_per_block:
            elem_pos[s] = 0
            block_pos[s] += stride_blocks
        builder.add_load(ips[s], addr)
        if s == 0:
            builder.note_wrong_path_target(addr)
        if store_every and i % store_every == store_every - 1:
            builder.add_store(store_ip, addr)
    return builder.build()


def oracle_interleave(traces: Iterable[Trace], name: str,
                      chunk: int = 64) -> Trace:
    """Record-walking reference for :func:`repro.workloads.synthetic.
    interleave`."""
    iters = [iter(t.records) for t in traces]
    records: List[Record] = []
    alive = list(range(len(iters)))
    while alive:
        for idx in list(alive):
            taken = 0
            for record in iters[idx]:
                records.append(record)
                taken += 1
                if taken >= chunk:
                    break
            if taken < chunk:
                alive.remove(idx)
    return Trace(name, records)

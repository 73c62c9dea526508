"""Trace records and trace containers.

The simulator is trace driven, in the spirit of ChampSim.  A trace is an
ordered list of committed-path instructions, optionally interleaved with
*wrong-path* records that model the transient instructions executed in the
shadow of a mispredicted branch.  Wrong-path records execute speculatively
(they access the memory hierarchy and, on a non-secure system, pollute it and
train on-access prefetchers) but they never commit.

A :class:`Trace` stores its records as three parallel *columns*:

* ``ips``    -- instruction pointers (``array('q')``, byte addresses).
* ``vaddrs`` -- virtual byte address of each memory operand, or ``-1`` when
  the instruction does not touch memory (``array('q')``).
* ``flags``  -- one byte per record, the bitwise OR of the ``FLAG_*``
  constants below (``bytes``).

Generators emit these columns directly, ``.rtrace`` files store them, and
the batch prescan (:mod:`repro.sim.batch`) reads them.  One record is
written ``(ip, vaddr, flags)``: the record helpers below (:func:`load`,
:func:`store`, ...) build such tuples for hand-written traces, and
:attr:`Trace.records` materializes them lazily for tests and inspection.
The :class:`Instr` dataclass offers a readable view of one record.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

#: Record flag bits.
FLAG_LOAD = 0x01
FLAG_STORE = 0x02
FLAG_BRANCH = 0x04
FLAG_MISPREDICT = 0x08  # only meaningful when FLAG_BRANCH is set
FLAG_WRONG_PATH = 0x10  # transient record: executes, never commits

#: Every flag-byte value with FLAG_WRONG_PATH set: deleting them from a
#: flags column with ``bytes.translate`` leaves the committed records.
_WRONG_PATH_BYTES = bytes(v for v in range(256) if v & FLAG_WRONG_PATH)

#: Cache block size used throughout the simulator (bytes).
BLOCK_SIZE = 64
BLOCK_SHIFT = 6

Record = Tuple[int, int, int]


def block_of(addr: int) -> int:
    """Return the cache-block number of a byte address."""
    return addr >> BLOCK_SHIFT


@dataclass(frozen=True)
class Instr:
    """Readable view of one trace record."""

    ip: int
    vaddr: int = -1
    flags: int = 0

    @property
    def is_load(self) -> bool:
        return bool(self.flags & FLAG_LOAD)

    @property
    def is_store(self) -> bool:
        return bool(self.flags & FLAG_STORE)

    @property
    def is_branch(self) -> bool:
        return bool(self.flags & FLAG_BRANCH)

    @property
    def is_mispredict(self) -> bool:
        return bool(self.flags & FLAG_MISPREDICT)

    @property
    def is_wrong_path(self) -> bool:
        return bool(self.flags & FLAG_WRONG_PATH)

    @property
    def is_mem(self) -> bool:
        return self.vaddr >= 0

    def record(self) -> Record:
        """Return the compact tuple representation."""
        return (self.ip, self.vaddr, self.flags)


def load(ip: int, vaddr: int, *, wrong_path: bool = False) -> Record:
    """Build a load record."""
    flags = FLAG_LOAD | (FLAG_WRONG_PATH if wrong_path else 0)
    return (ip, vaddr, flags)


def store(ip: int, vaddr: int) -> Record:
    """Build a store record (committed path only)."""
    return (ip, vaddr, FLAG_STORE)


def alu(ip: int) -> Record:
    """Build a non-memory, non-branch record."""
    return (ip, -1, 0)


def branch(ip: int, *, mispredict: bool = False) -> Record:
    """Build a branch record."""
    flags = FLAG_BRANCH | (FLAG_MISPREDICT if mispredict else 0)
    return (ip, -1, flags)


class Trace:
    """An ordered sequence of trace records with a name and provenance.

    Records mix committed-path and wrong-path instructions.  The committed
    instruction count (used for IPC and per-kilo-instruction metrics)
    excludes wrong-path records.

    The columns (see the module docstring) are the only stored
    representation: ``Trace(name, records)`` transposes its records once,
    :meth:`from_columns` adopts prebuilt columns as they are.  Record
    tuples exist only if something reads :attr:`records`.
    """

    def __init__(self, name: str, records: Iterable[Record],
                 suite: str = "synthetic") -> None:
        ips, vaddrs, flags = tuple(zip(*records)) or ((), (), ())
        self._adopt(name, suite, array("q", ips), array("q", vaddrs),
                    bytes(flags))

    @classmethod
    def from_columns(cls, name: str, ips: Sequence[int],
                     vaddrs: Sequence[int], flags: Sequence[int],
                     suite: str = "synthetic") -> "Trace":
        """Build a trace from parallel columns without copying them.

        ``ips``/``vaddrs`` are typically ``array('q')`` and ``flags`` a
        ``bytes``/``bytearray``; elements must index back as plain ints
        (NumPy arrays would leak ``np.int64`` scalars into the hot
        simulator loops -- convert first).
        """
        if not (len(ips) == len(vaddrs) == len(flags)):
            raise ValueError("column lengths differ")
        trace = cls.__new__(cls)
        trace._adopt(name, suite, ips, vaddrs, flags)
        return trace

    def _adopt(self, name: str, suite: str, ips: Sequence[int],
               vaddrs: Sequence[int], flags: Sequence[int]) -> None:
        self.name = name
        self.suite = suite
        self._records: Optional[List[Record]] = None
        self._cols = (ips, vaddrs, flags)
        if isinstance(flags, (bytes, bytearray)):
            committed = len(flags.translate(None, _WRONG_PATH_BYTES))
        else:
            committed = sum(1 for f in flags if not f & FLAG_WRONG_PATH)
        self.committed_count = committed

    @property
    def records(self) -> List[Record]:
        """The records as ``(ip, vaddr, flags)`` tuples, built on first
        access and cached (for tests and inspection; the simulator reads
        :meth:`columns`)."""
        records = self._records
        if records is None:
            records = self._records = list(zip(*self._cols))
        return records

    def columns(self) -> Tuple[Sequence[int], Sequence[int], Sequence[int]]:
        """The parallel ``(ips, vaddrs, flags)`` columns."""
        return self._cols

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_records"] = None  # ship columns, not tuples
        # The batch-prescan cache is derived data; recompute on the far
        # side rather than shipping it in job payloads.
        state.pop("_batch_plan", None)
        return state

    def __len__(self) -> int:
        return len(self._cols[2])

    def __iter__(self) -> Iterator[Record]:
        return zip(*self._cols)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Trace({self.name!r}, {len(self)} records, "
                f"{self.committed_count} committed)")

    def instructions(self) -> Iterator[Instr]:
        """Iterate records as :class:`Instr` objects (slow, for inspection)."""
        for ip, vaddr, flags in self:
            yield Instr(ip, vaddr, flags)

    def loads(self) -> Iterator[Instr]:
        """Iterate only the load records (committed and wrong path)."""
        for instr in self.instructions():
            if instr.is_load:
                yield instr

    def footprint_blocks(self) -> int:
        """Number of distinct cache blocks touched by committed-path memory."""
        _, vaddrs, flags = self._cols
        blocks = {
            vaddr >> BLOCK_SHIFT
            for vaddr, flag in zip(vaddrs, flags)
            if vaddr >= 0 and not flag & FLAG_WRONG_PATH
        }
        return len(blocks)

    @staticmethod
    def from_instrs(name: str, instrs: Iterable[Instr],
                    suite: str = "synthetic") -> "Trace":
        """Build a trace from :class:`Instr` objects."""
        return Trace(name, [i.record() for i in instrs], suite=suite)

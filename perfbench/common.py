"""Shared helpers: the checkout layout, environment hygiene, provenance
and host-speed normalisation."""

from __future__ import annotations

import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import Dict

#: The checkout root (this file lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent
#: Everything the benchmark writes lands here (git-ignored).
OUT = ROOT / ".perfbench"

#: The repo's default warm-up fraction (``System.run`` and every Scale).
WARMUP = 0.2


class TreeMissing(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def clean_environment() -> None:
    """Drop every ``REPRO_*`` variable before ``repro`` is imported:
    ``REPRO_FAULTS``, ``REPRO_BATCH``, ``REPRO_SCALE``, ``REPRO_STORE``
    and friends change what runs."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]


def require_tree() -> None:
    """Make ``repro`` importable from ``<root>/src``, or raise
    :class:`TreeMissing` when the checkout has no program to measure."""
    src = ROOT / "src"
    for needed in (src / "repro" / "__init__.py",
                   ROOT / "campaigns" / "golden" / "figures_golden.json"):
        if not needed.is_file():
            raise TreeMissing(f"{needed.relative_to(ROOT)} not found under "
                              f"{ROOT}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def _git(*args: str) -> str:
    """Run git confined to the checkout (no search above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30,
                              env=env)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return proc.stdout.strip() if proc.returncode == 0 else ""


def calibration_kernel(iterations: int) -> int:
    """A fixed pure-Python loop: integer arithmetic and a dict store."""
    acc = 0
    table = {}
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[acc & 1023] = i
    return acc + len(table)


def calibration_score(repeats: int = 3) -> float:
    """Host speed as million :func:`calibration_kernel` iterations per
    second (median of ``repeats``), so results taken on different boxes
    can be normalised."""
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        calibration_kernel(200_000)
        rates.append(0.2 / (time.perf_counter() - t0))
    return statistics.median(rates)


class HostSpeed:
    """Samples the host's speed while the benchmark runs.

    On a shared box the same Python code runs up to twice as fast at one
    moment as at the next, for seconds at a time, because other tenants
    compete for the core.  Every ``PERIOD`` seconds a SIGALRM handler
    runs :func:`calibration_kernel` for a few thousand iterations and
    records its speed.  :meth:`seconds` turns a wall interval into
    *reference-host seconds*: the interval minus the sampler's own time,
    scaled by the mean sampled speed over the reference speed.  Work
    that ran at half speed took twice the wall time and is scaled back.
    """

    #: Reference speed, in kernel iterations per second.
    REFERENCE = 5.0e6
    #: Seconds between samples, and kernel iterations per sample.
    PERIOD = 0.05
    ITERATIONS = 6000

    def __init__(self) -> None:
        self.at = array("d")
        self.speed = array("d")
        #: Cumulative handler time up to and including each sample.
        self.spent = array("d")
        self._previous = None
        self._busy = False

    def _sample(self, signum, frame) -> None:
        # A long C call delays a handler until the next tick is already
        # pending; that tick must not nest inside this one.
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            calibration_kernel(self.ITERATIONS)
            t1 = time.perf_counter()
            self.at.append(t1)
            self.speed.append(self.ITERATIONS / (t1 - t0))
            self.spent.append((self.spent[-1] if self.spent else 0.0)
                              + (t1 - t0))
        finally:
            self._busy = False

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _spent_before(self, t: float) -> float:
        i = bisect_right(self.at, t)
        return self.spent[i - 1] if i else 0.0

    def factor(self, t0: float, t1: float) -> float:
        """Mean sampled speed over ``[t0, t1]`` relative to the
        reference speed."""
        lo, hi = bisect_left(self.at, t0), bisect_right(self.at, t1)
        if hi - lo < 2:
            # Shorter than two sampling periods: widen to the nearest
            # samples on either side.
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        if hi <= lo:
            return 1.0
        return sum(self.speed[lo:hi]) / (hi - lo) / self.REFERENCE

    def seconds(self, t0: float, t1: float) -> float:
        """Reference-host seconds of the wall interval ``[t0, t1]``."""
        work = (t1 - t0) - (self._spent_before(t1) - self._spent_before(t0))
        return work * self.factor(t0, t1)


def provenance() -> Dict[str, object]:
    """Stamp: tree commit and dirty flag (as the goldens record them),
    interpreter, NumPy presence (it selects the stepper front-end
    through ``batch_default()``), CPU count and the calibration score."""
    from repro.sim.batch import HAVE_NUMPY, batch_default
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else ""
    return {
        "git_commit": commit or "unknown",
        "git_dirty": bool(status) if commit else None,
        "python": platform.python_version(),
        "numpy": bool(HAVE_NUMPY),
        "batch_stepper": bool(batch_default()),
        "nproc": os.cpu_count(),
        "calibration_mops": calibration_score(),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def clear_host_caches() -> None:
    """Forget the in-process trace memo and GAP graph cache, so trace
    synthesis costs what it costs a fresh ``repro`` process."""
    from repro.workloads import gap
    from repro.workloads.prebuilt import clear_memo
    clear_memo()
    gap._GRAPH_CACHE.clear()

"""repro -- reproduction of "Secure Prefetching for Secure Cache Systems".

Nath, Navarro-Torres, Ros, Panda (MICRO 2024).

Public API tour:

* :mod:`repro.sim` -- the simulation substrate: Table II core model, cache
  hierarchy with MSHR/port contention, DRAM, and the GhostMinion secure
  cache system.  :class:`repro.sim.System` runs one configuration over one
  trace; ``repro.sim.multicore`` runs 4-core mixes.
* :mod:`repro.prefetchers` -- IP-stride, IPCP, Bingo, SPP+PPF, and Berti.
* :mod:`repro.core` -- the paper's contributions: the Secure Update Filter
  (SUF), Timely Secure Berti (TSB) with its X-LQ, the timely-secure (TS)
  wrappers for non-self-timing prefetchers, and the Fig. 6 miss taxonomy.
* :mod:`repro.workloads` -- synthetic SPEC CPU2017-like and GAP-like trace
  generators and multi-core mix construction.
* :mod:`repro.security` -- Spectre-style prefetch covert-channel harness.
* :mod:`repro.energy` -- dynamic-energy model of the memory hierarchy.
* :mod:`repro.analysis` -- metrics (speedup, APKI, MPKI, accuracy, ...).
* :mod:`repro.experiments` -- the memoizing experiment runner and the
  paper's tables.
* :mod:`repro.campaign` -- the spec engine that renders every data
  figure from ``campaigns/*.json``.

Quickstart::

    from repro import System, make_prefetcher, spec_trace
    from repro.prefetchers import MODE_ON_COMMIT

    trace = spec_trace("605.mcf-1554B", n_loads=20000)
    system = System(secure=True, suf=True,
                    prefetcher=make_prefetcher("berti"),
                    train_mode=MODE_ON_COMMIT)
    result = system.run(trace)
    print(result.ipc, result.mpki(result.l1d))
"""

from .core import (HitLevelQueue, MissClassifier, SUFDecision,
                   TimelyPrefetcher, TSBPrefetcher, XLQ, make_timely,
                   suf_decide)
from .prefetchers import (MODE_ON_ACCESS, MODE_ON_COMMIT,
                          PAPER_PREFETCHERS, Prefetcher, make_prefetcher)
from .sim import (MemoryHierarchy, SimResult, System, SystemParams,
                  baseline)
from .workloads import (Trace, gap_traces, spec_trace, spec_traces,
                        workload_pool)

__version__ = "1.0.0"

__all__ = [
    "HitLevelQueue", "MissClassifier", "SUFDecision", "TimelyPrefetcher",
    "TSBPrefetcher", "XLQ", "make_timely", "suf_decide",
    "MODE_ON_ACCESS", "MODE_ON_COMMIT", "PAPER_PREFETCHERS", "Prefetcher",
    "make_prefetcher",
    "MemoryHierarchy", "SimResult", "System", "SystemParams", "baseline",
    "Trace", "gap_traces", "spec_trace", "spec_traces", "workload_pool",
    "__version__",
]

"""Observability must not change simulation results.

Event tracing routes prefetch issue through the hierarchy's own walk so
the emission sites stay in one place; untraced runs take the flat issuer.
Interval sampling pauses the inner loop at every interval boundary.
Either way the statistics must equal the uninstrumented run's, or
``repro trace`` would report numbers the same untraced run never
produces.
"""

import pytest

from repro.obs import ObsConfig
from repro.prefetchers import MODE_ON_COMMIT, make_prefetcher
from repro.security.mitigations import SCRAMBLE_SEED
from repro.sim.system import System
from repro.workloads.spec import spec_trace

WORKLOAD = "605.mcf-1554B"
LOADS = 4000

CASES = {
    "secure_suf_berti_on_commit": lambda: dict(
        secure=True, suf=True, prefetcher=make_prefetcher("berti"),
        train_mode=MODE_ON_COMMIT),
    "spp": lambda: dict(prefetcher=make_prefetcher("spp")),
    # SPP is the one prefetcher that issues LLC fills, so this is the
    # case that exercises the issuer's path through the index scramble.
    "spp_llc_scramble": lambda: dict(prefetcher=make_prefetcher("spp"),
                                     llc_scramble=SCRAMBLE_SEED),
    "delay_ip_stride": lambda: dict(delay_mitigation=True,
                                    prefetcher=make_prefetcher("ip-stride")),
}

OBSERVERS = {
    "trace_events": ObsConfig(trace_events=True),
    "sample_interval": ObsConfig(sample_interval=500),
}


def _stats(result):
    return {
        "committed": result.committed,
        "cycles": result.cycles,
        "core": result.core.snapshot(),
        "l1d": result.l1d.snapshot(),
        "l2": result.l2.snapshot(),
        "llc": result.llc.snapshot(),
        "gm": result.gm.snapshot() if result.gm is not None else None,
        "dram": result.dram.snapshot(),
        "tlb": result.tlb.snapshot() if result.tlb is not None else None,
        "classification": result.classification,
        "extras": result.extras,
    }


@pytest.fixture(scope="module")
def trace():
    return spec_trace(WORKLOAD, LOADS)


@pytest.mark.parametrize("observer", sorted(OBSERVERS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_observation_leaves_stats_unchanged(trace, case, observer):
    plain = System(**CASES[case]()).run(trace)
    observed = System(obs=OBSERVERS[observer], **CASES[case]()).run(trace)
    plain_stats, observed_stats = _stats(plain), _stats(observed)
    for section in plain_stats:
        assert observed_stats[section] == plain_stats[section], section

"""Pinned trace fingerprints: every generator, record for record.

Store keys and prebuilt ``.rtrace`` entries are derived from
:func:`repro.exec.store.trace_fingerprint`, so a generator change that
alters even one record silently invalidates every stored result.  This
snapshot pins the fingerprint of every ``SPEC_WORKLOADS`` name and every
GAP kernel at a fixed size and two seeds.

Regenerate only when trace synthesis deliberately changes (and bump the
prebuilt-trace ``CACHE_VERSION`` alongside)::

    PYTHONPATH=src python tests/workloads/test_trace_fingerprints.py
    # or, during a test run:
    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/workloads
"""

import sys
from pathlib import Path

import pytest

_TESTS = Path(__file__).resolve().parents[1]
if str(_TESTS) not in sys.path:  # direct script run
    sys.path.insert(0, str(_TESTS))

from sim.goldenlib import (assert_provenance, load_golden,  # noqa: E402
                           write_golden)

from repro.exec.store import trace_fingerprint  # noqa: E402
from repro.workloads.gap import GAP_KERNELS, gap_trace  # noqa: E402
from repro.workloads.spec import SPEC_WORKLOADS, spec_trace  # noqa: E402

GOLDEN_PATH = Path(__file__).parent / "golden" / "trace_fingerprints.json"

LOADS = 2000
SEEDS = (1, 2)

KEYS = ([f"spec/{name}/{seed}" for name in sorted(SPEC_WORKLOADS)
         for seed in SEEDS]
        + [f"gap/{kernel}/{seed}" for kernel in sorted(GAP_KERNELS)
           for seed in SEEDS])


def _trace(key):
    family, name, seed = key.split("/")
    if family == "spec":
        return spec_trace(name, LOADS, int(seed))
    return gap_trace(name, LOADS, seed=int(seed))


def _entry(key):
    trace = _trace(key)
    return {"fingerprint": trace_fingerprint(trace),
            "records": len(trace),
            "committed": trace.committed_count}


def _load_golden():
    return load_golden(GOLDEN_PATH, _generate)


def test_golden_header_matches_pins():
    golden = _load_golden()
    assert golden["loads"] == LOADS
    assert golden["seeds"] == list(SEEDS)
    assert sorted(golden["traces"]) == sorted(KEYS)


def test_golden_carries_provenance():
    assert_provenance(_load_golden())


@pytest.mark.parametrize("key", KEYS)
def test_fingerprint_matches_golden(key):
    assert _entry(key) == _load_golden()["traces"][key], (
        f"{key} no longer generates the pinned trace: store keys and "
        f"prebuilt .rtrace entries would silently change")


def _generate():
    doc = {
        "loads": LOADS,
        "seeds": list(SEEDS),
        "traces": {key: _entry(key) for key in KEYS},
    }
    write_golden(GOLDEN_PATH, doc,
                 "tests/workloads/test_trace_fingerprints.py")


if __name__ == "__main__":
    _generate()

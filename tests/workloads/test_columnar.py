"""Columnar trace synthesis: equivalence with the record-by-record oracle.

Every generator runs twice -- once with the reference generators from
``oracle.py`` patched in, once as shipped -- and the two traces must have
identical columns (``stream_trace`` is compared with its reference loop
in ``test_synthetic.py``).  Further tests pin the stdlib/NumPy twins
against each other and check that nothing on the set-up or simulate path
builds record tuples.
"""

import json
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.store import trace_fingerprint
from repro.workloads import gap, spec, synthetic
from repro.workloads.gap import GAP_KERNELS, gap_trace
from repro.workloads.spec import SPEC_WORKLOADS, spec_trace
from repro.workloads.synthetic import (TraceBuilder, hot_cold_trace,
                                       pointer_chase_trace, region_trace)

from .oracle import (OracleTraceBuilder, oracle_interleave,
                     oracle_stream_trace)

SRC = Path(__file__).resolve().parents[2] / "src"


@contextmanager
def oracle_generators():
    """Swap the shipped builder, stream loop and interleave for the
    record-by-record references."""
    with mock.patch.object(synthetic, "TraceBuilder", OracleTraceBuilder), \
            mock.patch.object(gap, "TraceBuilder", OracleTraceBuilder), \
            mock.patch.object(spec, "stream_trace", oracle_stream_trace), \
            mock.patch.object(spec, "interleave", oracle_interleave):
        yield


def columns_of(trace):
    ips, vaddrs, flags = trace.columns()
    return list(ips), list(vaddrs), bytes(flags)


def assert_same_trace(new, ref):
    assert (new.name, new.suite) == (ref.name, ref.suite)
    assert columns_of(new) == columns_of(ref)
    assert new.committed_count == ref.committed_count


def assert_matches_oracle(generate, *args, **kwargs):
    with oracle_generators():
        ref = generate(*args, **kwargs)
    assert_same_trace(generate(*args, **kwargs), ref)


builder_params = st.fixed_dictionaries({
    "filler": st.integers(min_value=0, max_value=4),
    "branch_every": st.integers(min_value=1, max_value=12),
    "mispredict_rate": st.sampled_from([0.0, 0.01, 1.0]),
    "wrong_path_loads": st.integers(min_value=0, max_value=5),
    "seed": st.integers(min_value=0, max_value=2**20),
})

#: One builder call: ("load"|"store", ip slot, addr), ("note", addr) or
#: ("new_ip",).
_addr = st.integers(min_value=0, max_value=1 << 36)
builder_ops = st.lists(st.one_of(
    st.tuples(st.sampled_from(["load", "store"]),
              st.integers(min_value=0, max_value=3), _addr),
    st.tuples(st.just("note"), _addr),
    st.tuples(st.just("new_ip"))), max_size=300)


class TestTraceBuilderAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(params=builder_params, ops=builder_ops)
    def test_any_call_sequence(self, params, ops):
        """Interleaved ops, notes and ip allocations -- including more
        than a full wrong-path pool of notes and ips allocated mid
        stream -- lay out exactly as the record-by-record builder."""
        builders = [TraceBuilder("t", suite="s", **params),
                    OracleTraceBuilder("t", suite="s", **params)]
        for builder in builders:
            ips = [builder.new_ip()]
            for op in ops:
                if op[0] == "new_ip":
                    ips.append(builder.new_ip())
                elif op[0] == "note":
                    builder.note_wrong_path_target(op[1])
                else:
                    add = (builder.add_load if op[0] == "load"
                           else builder.add_store)
                    add(ips[op[1] % len(ips)], op[2])
        new, ref = (builder.build() for builder in builders)
        assert_same_trace(new, ref)

    def test_many_notes_wrap_the_pool(self):
        params = dict(filler=1, branch_every=2, mispredict_rate=1.0,
                      wrong_path_loads=3, seed=9)
        builders = [TraceBuilder("t", **params),
                    OracleTraceBuilder("t", **params)]
        for builder in builders:
            ip = builder.new_ip()
            for i in range(400):
                builder.add_load(ip, i * 4096)
                if i % 3:
                    builder.note_wrong_path_target(i * 64)
        new, ref = (builder.build() for builder in builders)
        assert_same_trace(new, ref)


class TestGeneratorsAgainstOracle:
    @settings(max_examples=40, deadline=None)
    @given(params=builder_params,
           n_loads=st.integers(min_value=0, max_value=400),
           chains=st.integers(min_value=1, max_value=3))
    def test_pointer_chase(self, params, n_loads, chains):
        assert_matches_oracle(pointer_chase_trace, "p", n_loads,
                              footprint_mb=2, chains=chains,
                              locality=0.3, **params)

    @settings(max_examples=40, deadline=None)
    @given(params=builder_params,
           n_loads=st.integers(min_value=0, max_value=400))
    def test_region(self, params, n_loads):
        assert_matches_oracle(region_trace, "r", n_loads,
                              pool_regions=32, **params)

    @settings(max_examples=40, deadline=None)
    @given(params=builder_params,
           n_loads=st.integers(min_value=0, max_value=400))
    def test_hot_cold(self, params, n_loads):
        assert_matches_oracle(hot_cold_trace, "h", n_loads,
                              cold_ratio=0.3, **params)

    @pytest.mark.parametrize("kernel", sorted(GAP_KERNELS))
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           n_loads=st.integers(min_value=1, max_value=1500))
    def test_gap_kernel(self, kernel, seed, n_loads):
        assert_matches_oracle(gap_trace, kernel, n_loads, vertices=512,
                              seed=seed)

    @pytest.mark.parametrize("name", sorted(SPEC_WORKLOADS))
    def test_spec_workload(self, name):
        # Covers interleave through 621.wrf-6673B.
        assert_matches_oracle(spec_trace, name, 1500, 3)


class TestStaysColumnar:
    @pytest.mark.parametrize("make", [
        lambda: spec_trace("605.mcf-1554B", 2000, 1),
        lambda: spec_trace("621.wrf-6673B", 2000, 1),
        lambda: gap_trace("bfs", 2000, vertices=1024, seed=1),
    ], ids=["mcf", "wrf", "bfs"])
    def test_pipeline_never_builds_records(self, make, tmp_path):
        """Generating, prescanning, fingerprinting, saving and
        simulating a generated trace never materializes record tuples."""
        from repro.sim.batch import plan_for
        from repro.sim.system import System
        from repro.workloads.io import save_trace

        trace = make()
        assert trace._records is None
        plan_for(trace)
        trace_fingerprint(trace)
        save_trace(trace, tmp_path / "t.rtrace")
        System().run(trace)
        assert trace._records is None


_STDLIB_SCRIPT = """
import json
from repro.exec.store import trace_fingerprint
from repro.sim import batch
from repro.workloads import gap, synthetic
from repro.workloads.gap import gap_trace
from repro.workloads.spec import spec_trace
assert batch.np is None and synthetic._np is None and gap._np is None
print(json.dumps({
    "spec": trace_fingerprint(spec_trace("619.lbm-2676B", 3000, 2)),
    "gap": trace_fingerprint(gap_trace("pr", 1500, vertices=1024, seed=5)),
}))
"""


def test_no_numpy_generators_match_numpy():
    """``REPRO_NO_NUMPY=1`` switches the generators to their stdlib twins
    (stream load columns, GAP graph construction), with output identical
    to the NumPy paths."""
    if synthetic._np is None:
        pytest.skip("NumPy unavailable: nothing to compare against")
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_NO_NUMPY="1")
    proc = subprocess.run([sys.executable, "-c", _STDLIB_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    stdlib = json.loads(proc.stdout)
    gap._GRAPH_CACHE.pop((1024, 16, 5 + sorted(GAP_KERNELS).index("pr")),
                         None)
    assert stdlib == {
        "spec": trace_fingerprint(spec_trace("619.lbm-2676B", 3000, 2)),
        "gap": trace_fingerprint(gap_trace("pr", 1500, vertices=1024,
                                           seed=5)),
    }

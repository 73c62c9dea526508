"""Result store: atomic records, checksums, quarantine, stable keys."""

import pytest

from repro.exec.faults import FaultPlan
from repro.exec.store import (ResultStore, StoreError, job_key,
                              trace_fingerprint)
from repro.experiments.runner import BASELINE, Config, Scale
from repro.sim.params import baseline, params_digest
from repro.workloads.mixes import workload_pool

SCALE = Scale("micro", 300, 2, 1, 2)

KEY = "ab" * 32


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestRoundTrip:
    def test_put_get(self, store):
        store.put(KEY, {"ipc": 1.25, "trace": "x"})
        assert store.get(KEY) == {"ipc": 1.25, "trace": "x"}
        assert store.hits == 1 and store.writes == 1

    def test_miss_counted(self, store):
        assert store.get(KEY) is None
        assert store.misses == 1 and store.hits == 0

    def test_no_temp_files_left(self, store):
        store.put(KEY, [1, 2, 3])
        leftovers = [p for p in store.root.rglob("*.tmp")]
        assert leftovers == []

    def test_overwrite(self, store):
        store.put(KEY, "old")
        store.put(KEY, "new")
        assert store.get(KEY) == "new"


class TestCorruption:
    def _record_path(self, store):
        return next(store.objects.rglob("*.rec"))

    def test_flipped_byte_quarantined(self, store, capsys):
        store.put(KEY, {"v": 7})
        path = self._record_path(store)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert store.get(KEY) is None
        assert store.quarantined == 1 and store.misses == 1
        assert not path.exists()
        assert list(store.quarantine_dir.iterdir())

    def test_truncated_record_quarantined(self, store):
        store.put(KEY, {"v": 7})
        path = self._record_path(store)
        path.write_bytes(path.read_bytes()[:20])
        assert store.get(KEY) is None
        assert store.quarantined == 1

    def test_garbage_record_quarantined(self, store):
        store.put(KEY, {"v": 7})
        self._record_path(store).write_bytes(b"not a record at all")
        assert store.get(KEY) is None
        assert store.quarantined == 1

    def test_key_mismatch_quarantined(self, store):
        other = "cd" * 32
        store.put(KEY, {"v": 7})
        source = self._record_path(store)
        target = store.objects / other[:2] / f"{other}.rec"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(source.read_bytes())
        assert store.get(other) is None
        assert store.quarantined == 1

    def test_recompute_after_quarantine(self, store):
        store.put(KEY, "good")
        path = self._record_path(store)
        path.write_bytes(b"garbage")
        assert store.get(KEY) is None
        store.put(KEY, "recomputed")
        assert store.get(KEY) == "recomputed"

    def test_injected_corruption_once(self, tmp_path):
        plan = FaultPlan(corrupt_every=1)
        store = ResultStore(tmp_path / "s", fault_plan=plan)
        store.put(KEY, "v1")
        assert store.injected_corruptions == 1
        assert store.get(KEY) is None  # quarantined
        store.put(KEY, "v2")
        # The persisted marker prevents endless re-corruption, even from
        # a fresh store instance over the same directory.
        fresh = ResultStore(tmp_path / "s", fault_plan=plan)
        assert fresh.get(KEY) == "v2"


class TestRootHandling:
    def test_unusable_root_raises_store_error(self):
        with pytest.raises(StoreError):
            ResultStore("/dev/null/not-a-directory")

    def test_version_mismatch_rejected(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root)
        (root / "format").write_text("999\n")
        with pytest.raises(StoreError, match="format"):
            ResultStore(root)

    def test_reopen_same_version(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root).put(KEY, 1)
        assert ResultStore(root).get(KEY) == 1


class TestStableKeys:
    def _pool(self):
        return workload_pool(SCALE.n_loads, spec_count=SCALE.spec_count,
                             gap_count=SCALE.gap_count)

    def test_same_inputs_same_key(self):
        params = baseline()
        t1 = self._pool()[0]
        t2 = self._pool()[0]  # regenerated, identical content
        assert trace_fingerprint(t1) == trace_fingerprint(t2)
        assert job_key(BASELINE, t1, SCALE, params) == \
            job_key(BASELINE, t2, SCALE, params)

    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 10001])
    def test_fingerprint_matches_record_walk(self, n):
        """The column-native digest hashes exactly the byte stream of
        the original per-record walk, across chunk boundaries."""
        import hashlib

        from repro.workloads.trace import Trace
        records = [(0x400000 + 4 * (i % 7), -1 if i % 3 else i * 4160,
                    (i * 37) % 32) for i in range(n)]
        trace = Trace("hand-built", records, suite="x")
        walk = hashlib.sha256(b"hand-built\x00x\x00")
        for ip, vaddr, flags in records:
            walk.update(b"%d,%d,%d;" % (ip, vaddr, flags))
        assert trace_fingerprint(trace) == walk.hexdigest()
        assert trace._records is None

    def test_key_depends_on_every_input(self):
        params = baseline()
        traces = self._pool()
        base = job_key(BASELINE, traces[0], SCALE, params)
        assert job_key(Config(prefetcher="berti"), traces[0], SCALE,
                       params) != base
        assert job_key(BASELINE, traces[1], SCALE, params) != base
        other_scale = Scale("micro2", 300, 2, 1, 2, warmup=0.5)
        assert job_key(BASELINE, traces[0], other_scale, params) != base
        assert job_key(BASELINE, traces[0], SCALE,
                       params.scaled(2)) != base

    def test_params_digest_stable(self):
        assert params_digest(baseline()) == params_digest(baseline())
        assert params_digest(baseline()) != \
            params_digest(baseline().scaled(2))


class TestDurability:
    def test_fsync_defaults_off(self, tmp_path):
        assert ResultStore(tmp_path / "s").fsync is False

    def test_fsync_env_gate(self, tmp_path, monkeypatch):
        from repro.exec.store import FSYNC_ENV
        monkeypatch.setenv(FSYNC_ENV, "1")
        assert ResultStore(tmp_path / "s").fsync is True
        monkeypatch.setenv(FSYNC_ENV, "0")
        assert ResultStore(tmp_path / "s2").fsync is False

    def test_fsync_explicit_overrides_env(self, tmp_path, monkeypatch):
        from repro.exec.store import FSYNC_ENV
        monkeypatch.setenv(FSYNC_ENV, "1")
        assert ResultStore(tmp_path / "s", fsync=False).fsync is False
        monkeypatch.delenv(FSYNC_ENV)
        assert ResultStore(tmp_path / "s2", fsync=True).fsync is True

    def test_fsync_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "s", fsync=True)
        store.put(KEY, {"v": 9})
        assert store.get(KEY) == {"v": 9}


class TestTornWrites:
    def test_injected_torn_write_quarantined_then_healed(self, tmp_path):
        plan = FaultPlan.parse("torn:1")
        store = ResultStore(tmp_path / "s", fault_plan=plan)
        store.put(KEY, {"v": 7})
        assert store.injected_torn_writes == 1
        # The torn record fails verification and is quarantined, exactly
        # like real filesystem damage.
        assert store.get(KEY) is None
        assert store.quarantined == 1
        # Recompute heals: the marker stops a second tear, even from a
        # fresh store instance over the same directory.
        store.put(KEY, {"v": 7})
        fresh = ResultStore(tmp_path / "s", fault_plan=plan)
        assert fresh.get(KEY) == {"v": 7}
        assert fresh.injected_torn_writes == 0

    def test_torn_write_counted_in_stats(self, tmp_path):
        plan = FaultPlan.parse("torn:1")
        store = ResultStore(tmp_path / "s", fault_plan=plan)
        store.put(KEY, "x")
        assert store.stats()["injected_torn_writes"] == 1

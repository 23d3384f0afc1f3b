"""Cache lifecycle: fault injection, size accounting, LRU eviction, pins.

The fault-injection property under test: flipping *any* byte of *any*
file in a stored entry must surface as a verification failure — the load
reports a miss and the caller transparently re-simulates; corrupt arrays
are never served.  Offsets are sampled property-style (both ends of every
file plus seeded random interior positions) because hashing the entry
once per byte would take minutes for zero extra coverage.
"""

import os

import numpy as np
import pytest

from repro.exec.cache import PINS_FILE, ScenarioCache
from repro.obs import MetricsRegistry, use_registry
from repro.sim import ScenarioConfig, run_scenario

TINY = ScenarioConfig(seed=13, duration_days=3, volume_scale=1e-5, n_tail=2)


@pytest.fixture(scope="module")
def tiny_result():
    return run_scenario(TINY)


@pytest.fixture()
def warm_cache(tmp_path, tiny_result):
    cache = ScenarioCache(tmp_path)
    cache.store(tiny_result)
    return cache


def _entry_files(entry):
    return sorted(p for p in entry.iterdir() if p.is_file())


class TestFaultInjection:
    def test_any_bitflip_in_any_file_is_a_verify_miss(self, warm_cache):
        entry = warm_cache.entry_dir(TINY)
        rng = np.random.default_rng(99)
        flipped = 0
        for path in _entry_files(entry):
            payload = bytearray(path.read_bytes())
            size = len(payload)
            offsets = {0, size // 2, size - 1}
            offsets.update(int(o) for o in rng.integers(0, size, size=4))
            for offset in sorted(offsets):
                original = payload[offset]
                payload[offset] ^= 0x01  # a single flipped bit suffices
                path.write_bytes(bytes(payload))
                assert not warm_cache.probe(TINY), (path.name, offset)
                assert warm_cache.load(TINY) is None, (path.name, offset)
                payload[offset] = original
                flipped += 1
            path.write_bytes(bytes(payload))
        assert flipped >= 3 * 9  # every file, several offsets each
        # Restored byte-for-byte, the entry verifies again.
        assert warm_cache.probe(TINY)

    def test_corrupt_entry_is_transparently_rerun(self, tmp_path,
                                                  tiny_result):
        cache = ScenarioCache(tmp_path)
        entry = cache.store(tiny_result)
        nta = entry / "nta.npz"
        payload = bytearray(nta.read_bytes())
        payload[len(payload) // 3] ^= 0x80
        nta.write_bytes(bytes(payload))

        registry = MetricsRegistry()
        with use_registry(registry):
            rerun = run_scenario(TINY, cache_dir=tmp_path)
        counters = registry.snapshot()["counters"]
        # Served by re-simulation (miss + store), never the corrupt bytes.
        assert counters["scenario.cache.invalid"] == 1
        assert counters["scenario.cache.misses"] == 1
        assert counters["scenario.cache.stores"] == 1
        assert np.array_equal(rerun.nta.ts, tiny_result.nta.ts)
        assert cache.load(TINY) is not None  # the entry was repaired


class TestSizeAccounting:
    def test_total_bytes_matches_du_of_the_cache_dir(self, warm_cache,
                                                     tmp_path):
        warm_cache.pin(warm_cache.key(TINY))  # pins.json counts too
        expected = 0
        for dirpath, _dirs, files in os.walk(tmp_path):
            for name in files:
                expected += os.lstat(os.path.join(dirpath, name)).st_size
        assert warm_cache.total_bytes() == expected
        assert expected > 0

    def test_entry_rows_carry_sizes_and_pins(self, warm_cache):
        key = warm_cache.pin(TINY)
        rows = warm_cache.entries()
        assert [row.key for row in rows] == [key]
        assert rows[0].pinned
        assert rows[0].bytes == sum(
            p.stat().st_size for p in _entry_files(rows[0].path))

    def test_empty_cache_accounts_zero(self, tmp_path):
        cache = ScenarioCache(tmp_path / "nothing-here")
        assert cache.total_bytes() == 0
        assert cache.entries() == []


def _store_three(tmp_path, tiny_result, monkeypatch):
    """Three entries with distinct keys and controlled LRU order (oldest
    first: v1 < v2 < v3), without paying for three simulations: the key
    embeds the package version, so monkeypatching it makes the one frozen
    result land under three distinct keys."""
    cache = ScenarioCache(tmp_path, max_bytes=None)
    keys = []
    for i, version in enumerate(("v1-test", "v2-test", "v3-test")):
        monkeypatch.setattr("repro.__version__", version)
        entry = cache.store(tiny_result)
        keys.append(entry.name)
        stamp = 1_000_000 + i * 1000
        os.utime(entry, (stamp, stamp))
    monkeypatch.undo()
    return cache, keys


class TestEviction:
    def test_lru_entry_goes_first_and_recency_is_refreshed(
            self, tmp_path, tiny_result, monkeypatch):
        cache, keys = _store_three(tmp_path, tiny_result, monkeypatch)
        per_entry = cache.entries()[0].bytes
        # Budget for two entries: the LRU one must go.  Touch v1 (the
        # oldest) first — recency protection must follow use, not age.
        cache.max_bytes = 2 * per_entry + per_entry // 2
        os.utime(tmp_path / keys[0], None)  # v1 freshly used
        evicted = cache.evict()
        assert evicted == [keys[1]]  # v2 became least recently used
        assert sorted(p.name for p in tmp_path.iterdir()
                      if p.is_dir()) == sorted([keys[0], keys[2]])

    def test_pinned_entry_survives_over_budget_sweep(
            self, tmp_path, tiny_result, monkeypatch):
        cache, keys = _store_three(tmp_path, tiny_result, monkeypatch)
        cache.max_bytes = 0  # sweep everything it is allowed to
        cache.pin(keys[0])
        registry = MetricsRegistry()
        with use_registry(registry):
            evicted = cache.evict()
        assert evicted == [keys[1], keys[2]]  # oldest-first, pins skipped
        assert (tmp_path / keys[0]).is_dir()
        assert (tmp_path / PINS_FILE).is_file()
        snapshot = registry.snapshot()
        assert snapshot["counters"]["scenario.cache.evictions"] == 2
        assert snapshot["gauges"]["scenario.cache.bytes"] == \
            cache.total_bytes()
        # Idempotent: nothing further to remove.
        assert cache.evict() == []

    def test_in_flight_protection_survives_sweep(self, tmp_path,
                                                 tiny_result, monkeypatch):
        cache, keys = _store_three(tmp_path, tiny_result, monkeypatch)
        cache.max_bytes = 0
        evicted = cache.evict(protect={keys[1]})
        assert keys[1] not in evicted
        assert (tmp_path / keys[1]).is_dir()
        assert sorted(evicted) == sorted([keys[0], keys[2]])

    def test_sweep_keeps_non_entry_directories(self, tmp_path, tiny_result,
                                               monkeypatch):
        """The service journals into ``<cache>/journals/`` and a
        concurrent store writes into ``<key>.tmp-*``: neither is an entry,
        so a budget sweep must leave both while still evicting entries."""
        cache, keys = _store_three(tmp_path, tiny_result, monkeypatch)
        journals = tmp_path / "journals"
        journals.mkdir()
        (journals / "run-1.jsonl").write_text('{"type": "run_manifest"}\n')
        in_flight = tmp_path / f"{keys[0]}.tmp-abc123"
        in_flight.mkdir()
        (in_flight / "nta.npz").write_bytes(b"partial")
        for path in (journals, in_flight):
            os.utime(path, (1, 1))  # older than every entry
        assert [row.key for row in cache.entries()] == keys
        cache.max_bytes = 0
        cache.pin(keys[2])
        assert cache.evict() == [keys[0], keys[1]]
        assert (journals / "run-1.jsonl").is_file()
        assert (in_flight / "nta.npz").is_file()
        assert (tmp_path / keys[2]).is_dir()

    def test_no_budget_means_no_eviction(self, tmp_path, tiny_result,
                                         monkeypatch):
        cache, keys = _store_three(tmp_path, tiny_result, monkeypatch)
        assert cache.max_bytes is None
        assert cache.evict() == []
        assert all((tmp_path / key).is_dir() for key in keys)


class TestPins:
    def test_pin_unpin_roundtrip(self, warm_cache):
        key = warm_cache.pin(TINY)
        assert warm_cache.pinned() == {key}
        warm_cache.pin("another-key")
        assert warm_cache.pinned() == {key, "another-key"}
        warm_cache.unpin(TINY)
        assert warm_cache.pinned() == {"another-key"}
        warm_cache.unpin("never-pinned")  # no-op, no error
        assert warm_cache.pinned() == {"another-key"}

    def test_garbage_pin_file_reads_as_no_pins(self, warm_cache, tmp_path):
        (tmp_path / PINS_FILE).write_text("{definitely not json")
        assert warm_cache.pinned() == set()

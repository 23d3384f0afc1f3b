"""Streaming analysis equivalence: chunked trackers vs. the references.

The online :class:`~repro.analysis.scandetect.SessionTracker` and
:class:`~repro.analysis.flows.FlowTracker` must emit event/flow lists
*element-identical* to the per-packet references (and to the one-feed
batch calls) over the concatenation of the fed chunks — on randomized
workloads with random chunk splits, tie-heavy quantized timestamps, empty
feeds, sessions crossing chunk boundaries (the midnight case), and
aggregation lengths on both sides of the 64-bit packing threshold.
"""

import pickle

import numpy as np
import pytest

from repro._util import DAY, HOUR
from repro.analysis.flows import (
    FlowTracker,
    aggregate_flows,
    aggregate_flows_reference,
)
from repro.analysis.records import PacketRecords
from repro.analysis.scandetect import (
    SessionTracker,
    detect_scans,
    detect_scans_reference,
)
from repro.analysis.streaming import StreamAnalyzer
from repro.net.packet import TCP, UDP, Packet, icmp_echo_request

LENGTHS = (128, 64, 48, 0, 96)


def _random_records(rng, n, n_sources=12, n_dests=40, t_max=20_000.0,
                    quantize=None):
    base_src = [(int(rng.integers(1 << 40)) << 88)
                | (int(rng.integers(1 << 30)) << 50)
                for _ in range(n_sources)]
    base_dst = [(int(rng.integers(1 << 60)) << 64)
                | int(rng.integers(1 << 62))
                for _ in range(n_dests)]
    pkts = []
    for _ in range(n):
        ts = float(rng.uniform(0, t_max))
        if quantize:
            ts = round(ts / quantize) * quantize
        src = base_src[int(rng.integers(n_sources))] | int(
            rng.integers(1 << 16))
        dst = base_dst[int(rng.integers(n_dests))]
        proto = (TCP, UDP)[int(rng.integers(2))]
        pkts.append(Packet(
            timestamp=ts, src=src, dst=dst, proto=proto,
            sport=int(rng.integers(1024, 1030)),
            dport=(53, 80, 123, 443)[int(rng.integers(4))],
        ))
    return PacketRecords.from_packets(pkts)


def _chunk_splits(rng, records, n_chunks):
    """Sort by time and cut into ``n_chunks`` contiguous slices (some
    possibly empty), the shape a day-boundary drain produces."""
    records = records.sorted_by_time()
    idx = np.arange(len(records))
    cuts = np.sort(rng.integers(0, len(records) + 1, size=n_chunks - 1))
    bounds = [0, *cuts.tolist(), len(records)]
    return [records.select((idx >= bounds[i]) & (idx < bounds[i + 1]))
            for i in range(n_chunks)]


class TestSessionTrackerEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("source_length", LENGTHS)
    def test_randomized_chunked(self, seed, source_length):
        rng = np.random.default_rng(seed)
        records = _random_records(rng, 500)
        for timeout in (250.0, 3_600.0):
            tracker = SessionTracker(source_length=source_length,
                                     min_targets=5, timeout=timeout)
            for chunk in _chunk_splits(rng, records,
                                       int(rng.integers(1, 8))):
                tracker.feed(chunk)
            got = tracker.finish()
            assert got == detect_scans(records, source_length, 5, timeout)
            assert got == detect_scans_reference(records, source_length, 5,
                                                 timeout)

    @pytest.mark.parametrize("seed", range(3))
    def test_quantized_ties_and_empty_feeds(self, seed):
        """Duplicate timestamps, chunk boundaries exactly on timestamps,
        gaps exactly equal to the timeout, interleaved empty feeds."""
        rng = np.random.default_rng(100 + seed)
        records = _random_records(rng, 400, quantize=100.0)
        tracker = SessionTracker(source_length=64, min_targets=3,
                                 timeout=100.0)
        for chunk in _chunk_splits(rng, records, 6):
            if rng.integers(2):
                tracker.feed(PacketRecords.empty())
            tracker.feed(chunk)
        got = tracker.finish()
        assert got == detect_scans(records, 64, 3, 100.0)
        assert got == detect_scans_reference(records, 64, 3, 100.0)

    def test_midnight_crossing_session_single_event(self):
        """A scan straddling a day boundary, fed as two day chunks with
        day-boundary horizons, is one event — identical to batch and to
        the per-packet reference."""
        src = 0xABCD << 100
        pkts = [icmp_echo_request(DAY - 50 * 60 + i * 60.0, src, (1 << 80) + i)
                for i in range(100)]  # spans DAY-3000s .. DAY+2940s
        records = PacketRecords.from_packets(pkts)
        day0 = records.select(records.ts < DAY)
        day1 = records.select(records.ts >= DAY)
        assert len(day0) and len(day1)

        tracker = SessionTracker(source_length=64, min_targets=100)
        tracker.feed(day0, now=DAY)
        tracker.feed(day1, now=2 * DAY)
        got = tracker.finish()
        assert len(got) == 1
        assert got == detect_scans(records, 64, 100)
        assert got == detect_scans_reference(records, 64, 100, 3600.0)

    def test_midnight_gap_splits_into_two_events(self):
        """Same straddle but with a > timeout silence at the boundary:
        the carried session closes on the next feed, no cross-day merge."""
        src = 0xABCD << 100
        early = [icmp_echo_request(DAY - 2 * HOUR + i, src, (1 << 80) + i)
                 for i in range(120)]
        late = [icmp_echo_request(DAY + 2 * HOUR + i, src, (2 << 80) + i)
                for i in range(120)]
        records = PacketRecords.from_packets(early + late)
        tracker = SessionTracker(source_length=64, min_targets=100)
        tracker.feed(records.select(records.ts < DAY), now=DAY)
        tracker.feed(records.select(records.ts >= DAY), now=2 * DAY)
        got = tracker.finish()
        assert len(got) == 2
        assert got == detect_scans(records, 64, 100)
        assert got == detect_scans_reference(records, 64, 100)

    def test_idle_session_expires_between_feeds(self):
        """An empty feed whose horizon passes last+timeout finalizes the
        carried session without any packet arriving."""
        src = 7 << 100
        pkts = [icmp_echo_request(i * 1.0, src, (1 << 80) + i)
                for i in range(10)]
        tracker = SessionTracker(source_length=64, min_targets=5)
        tracker.feed(PacketRecords.from_packets(pkts), now=DAY)
        assert tracker.open_sessions == 0  # horizon DAY >> last + timeout
        assert tracker.events_closed == 1

    def test_out_of_order_feed_rejected(self):
        tracker = SessionTracker(source_length=64, min_targets=5)
        tracker.feed(PacketRecords.from_packets(
            [icmp_echo_request(100.0, 7, 9)]), now=200.0)
        with pytest.raises(ValueError, match="out-of-order"):
            tracker.feed(PacketRecords.from_packets(
                [icmp_echo_request(50.0, 7, 9)]))

    def test_finish_idempotent(self):
        rng = np.random.default_rng(0)
        records = _random_records(rng, 300)
        tracker = SessionTracker(source_length=64, min_targets=5,
                                 timeout=500.0)
        tracker.feed(records.sorted_by_time())
        assert tracker.finish() == tracker.finish()


class TestFlowTrackerEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_chunked(self, seed):
        rng = np.random.default_rng(200 + seed)
        records = _random_records(rng, 400, t_max=2_000.0)
        tracker = FlowTracker(timeout=60.0)
        for chunk in _chunk_splits(rng, records, int(rng.integers(1, 6))):
            tracker.feed(chunk)
        got = tracker.finish()
        assert got == aggregate_flows(records, timeout=60.0)
        assert got == aggregate_flows_reference(records, timeout=60.0)

    def test_flow_crossing_chunk_boundary(self):
        pkts = [Packet(timestamp=t, src=5, dst=9, proto=TCP,
                       sport=4000, dport=80)
                for t in (990.0, 1000.0, 1010.0, 1030.0)]
        records = PacketRecords.from_packets(pkts)
        tracker = FlowTracker(timeout=60.0)
        tracker.feed(records.select(records.ts <= 1000.0), now=1000.0)
        tracker.feed(records.select(records.ts > 1000.0), now=1100.0)
        got = tracker.finish()
        assert got == aggregate_flows(records, timeout=60.0)
        assert got == aggregate_flows_reference(records, timeout=60.0)
        assert len(got) == 1 and got[0].packets == 4


class TestStreamAnalyzer:
    def test_matches_batch_at_all_levels(self):
        rng = np.random.default_rng(42)
        records = _random_records(rng, 600)
        analyzer = StreamAnalyzer("NT-A", min_targets=5, timeout=500.0,
                                  flows=True, flow_timeout=60.0)
        for chunk in _chunk_splits(rng, records, 4):
            analyzer.feed(chunk)
        summary = analyzer.finish()
        assert summary.records_in == len(records)
        for level in (128, 64, 48):
            assert summary.events[level] == detect_scans(
                records, level, 5, 500.0)
            assert summary.events[level] == detect_scans_reference(
                records, level, 5, 500.0)
        assert summary.flows == aggregate_flows(records, timeout=60.0)
        assert summary.flows == aggregate_flows_reference(records,
                                                          timeout=60.0)

    def test_pickle_roundtrip_mid_run(self):
        """Checkpointing contract: a pickled analyzer resumes to the same
        final event list as an uninterrupted one."""
        rng = np.random.default_rng(7)
        records = _random_records(rng, 500)
        chunks = _chunk_splits(rng, records, 4)

        straight = StreamAnalyzer("NT-A", min_targets=5, timeout=500.0)
        resumed = StreamAnalyzer("NT-A", min_targets=5, timeout=500.0)
        for i, chunk in enumerate(chunks):
            straight.feed(chunk)
            resumed.feed(chunk)
            if i == 1:
                resumed = pickle.loads(pickle.dumps(resumed))
        a, b = straight.finish(), resumed.finish()
        assert a.events == b.events and a.records_in == b.records_in

    def test_finish_idempotent(self):
        analyzer = StreamAnalyzer("NT-B", min_targets=5)
        analyzer.feed(PacketRecords.empty(), now=DAY)
        assert analyzer.finish() is analyzer.finish()

"""Scan-event detection.

The paper's definition (footnote 1): a scan is a source hitting at least
100 distinct IPv6 destinations with a maximum packet inter-arrival time of
3600 seconds.  Sources can be aggregated at /128, /64, or /48 before
detection to catch scanners that rotate source addresses within a covering
prefix to evade per-address thresholds.

One columnar implementation evaluates the definition:
:class:`SessionTracker`, which consumes time-ordered chunks (a streaming
run's day drains), carries open sessions across chunk boundaries, and
emits exactly the events one pass over the concatenated chunks would.
:func:`detect_scans` is a single feed of the whole record set with an
infinite horizon.  Each feed is one lexsort by (source group, timestamp)
plus :func:`sessionize`, which splits sessions where the within-group
inter-arrival gap exceeds the timeout and counts each session's packets
and unique targets.  The original per-packet loop is retained as
:func:`detect_scans_reference` and cross-checked by randomized
equivalence tests.

The trick that keeps each chunk columnar is the **synthetic carry row**:
every open session contributes one sentinel row (timestamp = the
session's last packet, destination = one of its already-counted targets)
that is prepended to the chunk before the per-chunk lexsort.  The ordinary
gap rule then decides continuation for free — if the session's first real
packet in this chunk arrives within the timeout, it lands in the sentinel's
segment and the session extends; if not, the sentinel forms a lone segment
and the carried session closes with its stored stats.  Because the
sentinel's destination is already a member of the open session's target
set, the segment's unique-target union is unpolluted.  Only segments that
touch a carry row or survive the chunk's horizon are handled in Python;
everything else closes through the vectorized path.

Memory is O(open sessions + one chunk), never O(run): at each feed
boundary any session whose last packet is more than a timeout behind the
chunk horizon is finalized (no future packet can extend it), so the carry
state tracks only currently-active sources.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro._util import check_positive
from repro.analysis.records import PacketRecords
from repro.net.addr import mask_u64, pack_key_u64
from repro.obs import get_journal, get_registry, get_tracer

#: Paper's scan definition parameters.
DEFAULT_MIN_TARGETS = 100
DEFAULT_TIMEOUT = 3_600.0


@dataclass(frozen=True, slots=True)
class ScanEvent:
    """One detected scan: an aggregated source's burst of probing."""

    source: int          # source subnet (truncated to the aggregation length)
    source_length: int   # the aggregation prefix length
    start: float
    end: float
    packets: int
    unique_targets: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def _event_order(event: ScanEvent) -> tuple[float, int]:
    # Total order over distinct events: two sessions of the same source
    # cannot share a start time (they are separated by > timeout), so
    # (start, source) disambiguates every tie.
    return (event.start, event.source)


def _validate(min_targets: int, timeout: float) -> None:
    check_positive("timeout", timeout)
    if min_targets < 1:
        raise ValueError(f"min_targets must be >= 1, got {min_targets}")


def detect_scans(
    records: PacketRecords,
    source_length: int = 64,
    min_targets: int = DEFAULT_MIN_TARGETS,
    timeout: float = DEFAULT_TIMEOUT,
) -> list[ScanEvent]:
    """Detect scan events in ``records``.

    A session per aggregated source ends when its packet inter-arrival gap
    exceeds ``timeout``; sessions reaching ``min_targets`` distinct /128
    destinations become :class:`ScanEvent`s.
    """
    registry = get_registry()
    with registry.timer("analysis.detect_scans"), \
            get_tracer().span("analysis.detect_scans",
                              records=len(records),
                              source_length=source_length):
        tracker = SessionTracker(source_length, min_targets, timeout)
        # An infinite horizon: no later packet can extend any session, so
        # every session closes through the vectorized path.
        tracker.feed(records, now=math.inf)
        events = tracker.finish()
    registry.counter("analysis.detect_scans.records_in").inc(len(records))
    registry.counter("analysis.detect_scans.events_out").inc(len(events))
    get_journal().emit(
        "detection",
        source_length=source_length, min_targets=min_targets,
        timeout=timeout, records_in=len(records), events_out=len(events),
    )
    return events


def sessionize(
    group_change: np.ndarray,
    t: np.ndarray,
    dst_hi: np.ndarray,
    dst_lo: np.ndarray,
    timeout: float,
) -> tuple[np.ndarray, ...]:
    """Split group-contiguous, time-sorted rows into gap-bounded sessions.

    The shared kernel behind :class:`SessionTracker` (so
    :func:`detect_scans`) and the ground-truth session builder
    (:func:`repro.analysis.groundtruth.truth_events`): callers sort their
    rows so each source group is one contiguous, time-ordered run and pass
    ``group_change`` (row ``i+1`` starts a new group).  A new session
    starts at a group change or a gap strictly exceeding the timeout (a
    gap exactly equal to the timeout stays in-session).

    Returns ``(starts, packets, start_ts, end_ts, uniq_targets, uniq_hi,
    uniq_lo)``.  The first five hold one entry per session, where
    ``starts`` indexes the session's first row.  ``uniq_hi``/``uniq_lo``
    list every session's distinct destinations, session by session:
    session ``i`` owns the ``uniq_targets[i]`` entries that follow the
    first ``uniq_targets[:i].sum()``.
    """
    n = len(t)
    new_seg = np.empty(n, dtype=bool)
    new_seg[0] = True
    new_seg[1:] = group_change | (t[1:] - t[:-1] > timeout)
    seg_of = np.cumsum(new_seg) - 1
    starts = np.flatnonzero(new_seg)
    n_segs = len(starts)
    packets = np.diff(starts, append=n)
    ends = starts + packets - 1
    start_ts = t[starts]
    end_ts = t[ends]

    # Unique /128 targets per session: sort by (session, dst) and keep
    # first occurrences.
    ord2 = np.lexsort((dst_lo, dst_hi, seg_of))
    s2, h2, l2 = seg_of[ord2], dst_hi[ord2], dst_lo[ord2]
    first = np.empty(n, dtype=bool)
    first[0] = True
    first[1:] = (s2[1:] != s2[:-1]) | (h2[1:] != h2[:-1]) | (l2[1:] != l2[:-1])
    uniq_targets = np.bincount(s2[first], minlength=n_segs)
    return (starts, packets, start_ts, end_ts, uniq_targets,
            h2[first], l2[first])


def _chunk_horizon(records: PacketRecords, watermark: float,
                   now: float | None) -> float:
    """The horizon an online tracker advances to when fed ``records``.

    ``now`` defaults to the chunk's max timestamp; a chunk carrying a
    timestamp before the tracker's previous horizon is refused.
    """
    horizon = watermark if now is None else max(watermark, float(now))
    if len(records):
        t_lo = float(records.ts.min())
        if t_lo < watermark:
            raise ValueError(
                f"out-of-order feed: chunk starts at {t_lo}, before "
                f"the tracker's horizon {watermark}")
        horizon = max(horizon, float(records.ts.max()))
    return horizon


def _carry_segments(
    order: np.ndarray,
    starts: np.ndarray,
    group_change: np.ndarray,
    end_ts: np.ndarray,
    carried: int,
    horizon: float,
    timeout: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify one feed's segments for an online tracker.

    ``order`` sorts the feed's rows, whose first ``carried`` entries (in
    the unsorted order) are carry rows.  Returns ``(first_orig, carry,
    stay_open)``: each segment's first row in the unsorted order, whether
    that row is a carry row, and whether the segment may still be
    extended by a packet at or after ``horizon``.

    A carry row sorts first in its group (its timestamp precedes every
    chunk row of the same key), so it can only be a segment's first row;
    and a non-final segment of a group is followed by a > timeout gap, so
    only group-final segments can reach past the horizon's timeout window.
    """
    group_start = np.empty(len(order), dtype=bool)
    group_start[0] = True
    group_start[1:] = group_change
    seg_last = np.empty(len(starts), dtype=bool)
    seg_last[:-1] = group_start[starts][1:]
    seg_last[-1] = True
    first_orig = order[starts]
    # >= : a segment ending exactly a timeout before the horizon can still
    # merge with a row at ts == horizon (the gap rule is > ).
    stay_open = seg_last & (end_ts >= horizon - timeout)
    return first_orig, first_orig < carried, stay_open


class SessionTracker:
    """Scan detection over time-ordered chunks.

    Feed time-ordered chunks (each chunk may be internally unsorted, but no
    chunk may contain a timestamp earlier than a previous chunk's horizon);
    call :meth:`finish` for the final event list.  The emitted events are
    element-identical — same fields, same order — to
    :func:`detect_scans_reference` over the concatenation of every chunk.
    """

    def __init__(
        self,
        source_length: int = 64,
        min_targets: int = DEFAULT_MIN_TARGETS,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        _validate(min_targets, timeout)
        if not 0 <= source_length <= 128:
            raise ValueError(
                f"prefix length must be in [0, 128], got {source_length}")
        self.source_length = source_length
        self.min_targets = min_targets
        self.timeout = timeout
        self._watermark = -math.inf
        self._events: list[ScanEvent] = []
        # Open-session carry state, parallel lists.  Keys are python ints
        # (packed, length <= 64) or (hi, lo) tuples; targets are sorted
        # unique (hi, lo) uint64 arrays — 16 bytes per distinct target,
        # the tracker's only per-session payload.
        self._keys: list = []
        self._start: list[float] = []
        self._last: list[float] = []
        self._packets: list[int] = []
        self._targets: list[tuple[np.ndarray, np.ndarray]] = []

    # -- introspection ----------------------------------------------------

    @property
    def open_sessions(self) -> int:
        return len(self._keys)

    @property
    def events_closed(self) -> int:
        return len(self._events)

    def carry_bytes(self) -> int:
        """Approximate size of the open-session target payload."""
        return sum(hi.nbytes + lo.nbytes for hi, lo in self._targets)

    # -- internals --------------------------------------------------------

    def _source_of(self, key) -> int:
        if isinstance(key, tuple):
            return (key[0] << 64) | key[1]
        return key << 64

    def _emit(self, key, start: float, end: float,
              packets: int, uniq: int) -> None:
        if uniq >= self.min_targets:
            self._events.append(ScanEvent(
                source=self._source_of(key),
                source_length=self.source_length,
                start=start, end=end,
                packets=packets, unique_targets=uniq,
            ))

    @staticmethod
    def _union(targets: tuple[np.ndarray, np.ndarray],
               add_hi: np.ndarray, add_lo: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        hi = np.concatenate([targets[0], add_hi])
        lo = np.concatenate([targets[1], add_lo])
        order = np.lexsort((lo, hi))
        hi, lo = hi[order], lo[order]
        keep = np.empty(len(hi), dtype=bool)
        keep[0] = True
        keep[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
        return hi[keep], lo[keep]

    # -- the per-chunk kernel ---------------------------------------------

    def feed(self, records: PacketRecords, now: float | None = None) -> int:
        """Consume one chunk; returns the number of events closed.

        ``now`` is the chunk horizon (defaults to the chunk's max
        timestamp): the tracker may finalize any session idle for more
        than a timeout before it, so later chunks must not carry earlier
        timestamps.
        """
        horizon = _chunk_horizon(records, self._watermark, now)
        self._watermark = horizon
        k = len(self._keys)
        if len(records) + k == 0:
            return 0
        before = len(self._events)
        length = self.source_length
        timeout = self.timeout

        # Columns with the k synthetic carry rows prepended (index < k in
        # the original order identifies them after the sort).
        ts = records.ts
        dst_hi, dst_lo = records.dst_hi, records.dst_lo
        if k:
            ts = np.concatenate([
                np.asarray(self._last, dtype=np.float64), ts])
            dst_hi = np.concatenate([
                np.array([t[0][0] for t in self._targets], dtype=np.uint64),
                dst_hi])
            dst_lo = np.concatenate([
                np.array([t[1][0] for t in self._targets], dtype=np.uint64),
                dst_lo])

        # Sort rows by (truncated source, timestamp): each aggregated
        # source becomes one contiguous, time-ordered run.  Sources
        # aggregated at <= /64 (the paper's levels) pack into a single
        # uint64 key column; longer lengths sort on the masked (hi, lo)
        # pair.
        packed = pack_key_u64(records.src_hi, records.src_lo, length)
        if packed is not None:
            if k:
                packed = np.concatenate([
                    np.asarray(self._keys, dtype=np.uint64), packed])
            # Stable lexsort: a carry row ties with a real row only at the
            # watermark, and concatenation order keeps it first.
            order = np.lexsort((ts, packed))
            key_hi, key_lo = packed[order], None
            group_change = key_hi[1:] != key_hi[:-1]
        else:
            mhi, mlo = mask_u64(records.src_hi, records.src_lo, length)
            if k:
                mhi = np.concatenate([
                    np.array([key[0] for key in self._keys],
                             dtype=np.uint64), mhi])
                mlo = np.concatenate([
                    np.array([key[1] for key in self._keys],
                             dtype=np.uint64), mlo])
            order = np.lexsort((ts, mlo, mhi))
            key_hi, key_lo = mhi[order], mlo[order]
            group_change = ((key_hi[1:] != key_hi[:-1])
                            | (key_lo[1:] != key_lo[:-1]))

        (starts, seg_packets, start_ts, end_ts, uniq_counts,
         u_hi, u_lo) = sessionize(group_change, ts[order], dst_hi[order],
                                  dst_lo[order], timeout)
        u_off = np.zeros(len(starts) + 1, dtype=np.int64)
        np.cumsum(uniq_counts, out=u_off[1:])
        first_orig, seg_carry, stay_open = _carry_segments(
            order, starts, group_change, end_ts, k, horizon, timeout)
        special = seg_carry | stay_open

        # Vectorized close of every plain segment (no carry, not staying
        # open) — the hot path.
        qual = np.flatnonzero(~special & (uniq_counts >= self.min_targets))
        if qual.size:
            rows = starts[qual]
            if key_lo is None:
                sources = [v << 64 for v in key_hi[rows].tolist()]
            else:
                sources = [(hv << 64) | lv for hv, lv in
                           zip(key_hi[rows].tolist(), key_lo[rows].tolist())]
            events = self._events
            for source, s, e, p, u in zip(
                    sources, start_ts[qual].tolist(), end_ts[qual].tolist(),
                    seg_packets[qual].tolist(), uniq_counts[qual].tolist()):
                events.append(ScanEvent(
                    source=source, source_length=length,
                    start=s, end=e, packets=p, unique_targets=u))

        # Python handles only carry-merges and the sessions that survive
        # this chunk — O(active sources), not O(segments).
        new_keys: list = []
        new_start: list[float] = []
        new_last: list[float] = []
        new_packets: list[int] = []
        new_targets: list[tuple[np.ndarray, np.ndarray]] = []
        for i in np.flatnonzero(special).tolist():
            stays = bool(stay_open[i])
            if seg_carry[i]:
                o = int(first_orig[i])
                if int(seg_packets[i]) == 1:
                    # Idle carry: no chunk row joined this session.
                    if stays:
                        new_keys.append(self._keys[o])
                        new_start.append(self._start[o])
                        new_last.append(self._last[o])
                        new_packets.append(self._packets[o])
                        new_targets.append(self._targets[o])
                    else:
                        self._emit(self._keys[o], self._start[o],
                                   self._last[o], self._packets[o],
                                   len(self._targets[o][0]))
                    continue
                # Carried session extended by this segment.  The carry
                # row's destination is already in the stored target set,
                # so the union double-counts nothing; its packet is
                # subtracted from the segment count.
                key = self._keys[o]
                start = self._start[o]
                packets = self._packets[o] + int(seg_packets[i]) - 1
                t_hi, t_lo = self._union(
                    self._targets[o],
                    u_hi[u_off[i]:u_off[i + 1]],
                    u_lo[u_off[i]:u_off[i + 1]])
            else:
                row = int(starts[i])
                key = (int(key_hi[row]) if key_lo is None
                       else (int(key_hi[row]), int(key_lo[row])))
                start = float(start_ts[i])
                packets = int(seg_packets[i])
                # Copy: the slices view this chunk's full unique array.
                t_hi = u_hi[u_off[i]:u_off[i + 1]].copy()
                t_lo = u_lo[u_off[i]:u_off[i + 1]].copy()
            if stays:
                new_keys.append(key)
                new_start.append(start)
                new_last.append(float(end_ts[i]))
                new_packets.append(packets)
                new_targets.append((t_hi, t_lo))
            else:
                self._emit(key, start, float(end_ts[i]), packets,
                           len(t_hi))

        self._keys = new_keys
        self._start = new_start
        self._last = new_last
        self._packets = new_packets
        self._targets = new_targets
        return len(self._events) - before

    def finish(self) -> list[ScanEvent]:
        """Close every open session and return the full sorted event list.

        Idempotent: a second call returns the same list.
        """
        for i in range(len(self._keys)):
            self._emit(self._keys[i], self._start[i], self._last[i],
                       self._packets[i], len(self._targets[i][0]))
        self._keys = []
        self._start = []
        self._last = []
        self._packets = []
        self._targets = []
        self._events.sort(key=_event_order)
        return list(self._events)


def detect_scans_reference(
    records: PacketRecords,
    source_length: int = 64,
    min_targets: int = DEFAULT_MIN_TARGETS,
    timeout: float = DEFAULT_TIMEOUT,
) -> list[ScanEvent]:
    """Per-packet reference implementation of :func:`detect_scans`.

    Kept as the ground truth for the randomized equivalence tests and as
    the baseline the microbenchmarks measure the vectorized path against.
    """
    _validate(min_targets, timeout)
    if len(records) == 0:
        return []

    ordered = records.sorted_by_time()
    groups = ordered.source_groups(source_length)
    # Representative truncated source value per group.
    reps: dict[int, int] = {}
    src_iter = ordered.src_addresses()
    dst_iter = ordered.dst_addresses()

    mask_shift = 128 - source_length
    sessions: dict[int, dict] = {}
    events: list[ScanEvent] = []

    def _close(state: dict, source: int) -> None:
        if len(state["targets"]) >= min_targets:
            events.append(ScanEvent(
                source=source,
                source_length=source_length,
                start=state["start"],
                end=state["last"],
                packets=state["packets"],
                unique_targets=len(state["targets"]),
            ))

    for i in range(len(ordered)):
        src = next(src_iter)
        dst = next(dst_iter)
        ts = float(ordered.ts[i])
        group = int(groups[i])
        if group not in reps:
            reps[group] = (src >> mask_shift) << mask_shift if mask_shift else src
        state = sessions.get(group)
        if state is not None and ts - state["last"] > timeout:
            _close(state, reps[group])
            state = None
        if state is None:
            state = sessions[group] = {
                "start": ts, "last": ts, "packets": 0, "targets": set(),
            }
        state["last"] = ts
        state["packets"] += 1
        state["targets"].add(dst)

    for group, state in sessions.items():
        _close(state, reps[group])
    events.sort(key=_event_order)
    return events


def weekly_scan_sources(
    records: PacketRecords,
    start: float,
    end: float,
    source_length: int = 64,
    min_targets: int = DEFAULT_MIN_TARGETS,
    timeout: float = DEFAULT_TIMEOUT,
) -> np.ndarray:
    """Per-week count of distinct scanning sources (Fig. 1's metric).

    A source counts in every week during which one of its scan events was
    active.
    """
    from repro._util import WEEK

    n_weeks = int(np.ceil((end - start) / WEEK))
    if n_weeks <= 0:
        return np.zeros(0)
    events = detect_scans(records, source_length=source_length,
                          min_targets=min_targets, timeout=timeout)
    per_week: list[set[int]] = [set() for _ in range(n_weeks)]
    for event in events:
        w0 = max(0, int((event.start - start) // WEEK))
        w1 = min(n_weeks - 1, int((event.end - start) // WEEK))
        for w in range(w0, w1 + 1):
            per_week[w].add(event.source)
    return np.array([len(s) for s in per_week], dtype=np.float64)


def weekly_scan_packets(
    records: PacketRecords,
    start: float,
    end: float,
    source_length: int = 64,
    min_targets: int = DEFAULT_MIN_TARGETS,
    timeout: float = DEFAULT_TIMEOUT,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-week scan packets: (total, from the single most active source).

    Fig. 2's two series: total weekly scan traffic, and the share of the
    top source — whose dominance faded as scanning dispersed.
    """
    from repro._util import WEEK

    n_weeks = int(np.ceil((end - start) / WEEK))
    totals = np.zeros(n_weeks)
    per_source: list[dict[int, int]] = [dict() for _ in range(n_weeks)]
    events = detect_scans(records, source_length=source_length,
                          min_targets=min_targets, timeout=timeout)
    for event in events:
        # Attribute the event's packets to the week it started in: events
        # are short relative to weeks, and this matches per-event tallies.
        # Events starting outside [start, end) are dropped, not mis-bucketed.
        w = int((event.start - start) // WEEK)
        if 0 <= w < n_weeks:
            totals[w] += event.packets
            bucket = per_source[w]
            bucket[event.source] = bucket.get(event.source, 0) + event.packets
    top = np.array(
        [max(bucket.values()) if bucket else 0 for bucket in per_source],
        dtype=np.float64,
    )
    return totals, top

"""Zeek-like flow aggregation.

Packets sharing a 5-tuple (src, dst, proto, sport, dport) within an
inactivity timeout form one flow.  The paper used Zeek to aggregate captures
into flows before analysis; this module provides the same building block.

:class:`FlowTracker` is the one columnar implementation: it consumes
time-ordered chunks and carries open flows across chunk boundaries with
the synthetic carry rows of
:class:`~repro.analysis.scandetect.SessionTracker`.
:func:`aggregate_flows` is a single feed with an infinite horizon.  The
per-packet loop is retained as :func:`aggregate_flows_reference` and
cross-checked by randomized equivalence tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro._util import check_positive
from repro.analysis.records import PacketRecords
from repro.analysis.scandetect import _carry_segments, _chunk_horizon
from repro.obs import get_registry, get_tracer

#: Zeek's default UDP/ICMP inactivity timeout is 60 s; TCP's is longer.  A
#: single uniform timeout keeps flow semantics simple and matches how the
#: paper's analysis consumed flows (as probe groupings, not byte counters).
DEFAULT_FLOW_TIMEOUT = 60.0


@dataclass(frozen=True, slots=True)
class Flow:
    """One aggregated flow."""

    src: int
    dst: int
    proto: int
    sport: int
    dport: int
    first_seen: float
    last_seen: float
    packets: int

    @property
    def duration(self) -> float:
        return self.last_seen - self.first_seen


def _flow_order(flow: Flow) -> tuple:
    # Total order over distinct flows: two flows of the same 5-tuple are
    # separated by > timeout and cannot share a first_seen, so the full
    # tuple disambiguates every tie.
    return (flow.first_seen, flow.src, flow.dst,
            flow.proto, flow.sport, flow.dport)


def aggregate_flows(
    records: PacketRecords, timeout: float = DEFAULT_FLOW_TIMEOUT
) -> list[Flow]:
    """Aggregate packet records into flows.

    Packets are processed in timestamp order; a packet extends an existing
    flow when it shares the 5-tuple and arrives within ``timeout`` of the
    flow's last packet, otherwise it opens a new flow.  One
    :class:`FlowTracker` feed with an infinite horizon.
    """
    registry = get_registry()
    with registry.timer("analysis.aggregate_flows"), \
            get_tracer().span("analysis.aggregate_flows",
                              records=len(records)):
        tracker = FlowTracker(timeout)
        tracker.feed(records, now=math.inf)
        flows = tracker.finish()
    registry.counter("analysis.aggregate_flows.records_in").inc(len(records))
    registry.counter("analysis.aggregate_flows.flows_out").inc(len(flows))
    return flows


class FlowTracker:
    """Flow aggregation over time-ordered chunks.

    The synthetic-carry construction of
    :class:`~repro.analysis.scandetect.SessionTracker`, keyed by the
    5-tuple.  Flows have no target sets, so the carry state is just
    (first_seen, last_seen, packets) per open flow — with the default 60 s
    inactivity timeout only flows active in a chunk's final minute survive
    a day boundary.  Each feed is one lexsort by (5-tuple, timestamp),
    split where the within-tuple gap exceeds the timeout; Python only
    materializes the resulting :class:`Flow` objects.
    """

    _TUPLE_DTYPES = (np.uint64, np.uint64, np.uint64, np.uint64,
                     np.uint8, np.uint16, np.uint16)

    def __init__(self, timeout: float = DEFAULT_FLOW_TIMEOUT):
        check_positive("timeout", timeout)
        self.timeout = timeout
        self._watermark = -math.inf
        self._flows: list[Flow] = []
        self._keys: list[tuple] = []  # (sh, sl, dh, dl, proto, sport, dport)
        self._first: list[float] = []
        self._last: list[float] = []
        self._packets: list[int] = []

    @property
    def open_flows(self) -> int:
        return len(self._keys)

    def _emit(self, key: tuple, first: float, last: float,
              packets: int) -> None:
        sh, sl, dh, dl, proto, sport, dport = key
        self._flows.append(Flow(
            src=(sh << 64) | sl, dst=(dh << 64) | dl,
            proto=proto, sport=sport, dport=dport,
            first_seen=first, last_seen=last, packets=packets))

    def feed(self, records: PacketRecords, now: float | None = None) -> int:
        """Consume one chunk; returns the number of flows closed."""
        horizon = _chunk_horizon(records, self._watermark, now)
        self._watermark = horizon
        n, k = len(records), len(self._keys)
        if n + k == 0:
            return 0
        before = len(self._flows)
        timeout = self.timeout
        ts = records.ts
        cols = [records.src_hi, records.src_lo,
                records.dst_hi, records.dst_lo,
                records.proto, records.sport, records.dport]
        if k:
            ts = np.concatenate([
                np.asarray(self._last, dtype=np.float64), ts])
            cols = [
                np.concatenate([
                    np.array([key[c] for key in self._keys], dtype=dtype),
                    col])
                for c, (col, dtype) in enumerate(
                    zip(cols, self._TUPLE_DTYPES))
            ]
        # Primary keys: the 5-tuple columns; timestamp varies fastest.
        order = np.lexsort((ts,) + tuple(cols[::-1]))
        t = ts[order]
        sc = [c[order] for c in cols]
        m = n + k

        tuple_change = np.zeros(m - 1, dtype=bool)
        for c in sc:
            tuple_change |= c[1:] != c[:-1]
        new_seg = np.empty(m, dtype=bool)
        new_seg[0] = True
        new_seg[1:] = tuple_change | (t[1:] - t[:-1] > timeout)
        starts = np.flatnonzero(new_seg)
        seg_packets = np.diff(starts, append=m)
        start_ts = t[starts]
        end_ts = t[starts + seg_packets - 1]
        first_orig, seg_carry, stay_open = _carry_segments(
            order, starts, tuple_change, end_ts, k, horizon, timeout)
        special = seg_carry | stay_open

        plain = np.flatnonzero(~special)
        if plain.size:
            rows = starts[plain]
            flows = self._flows
            # tolist() converts whole columns to Python scalars at C
            # speed; the per-flow work is just shifts and construction.
            packed_rows = zip(*(c[rows].tolist() for c in sc),
                              start_ts[plain].tolist(),
                              end_ts[plain].tolist(),
                              seg_packets[plain].tolist())
            for sh, sl, dh, dl, pr, sp, dp, f, last, count in packed_rows:
                flows.append(Flow(
                    src=(sh << 64) | sl, dst=(dh << 64) | dl,
                    proto=pr, sport=sp, dport=dp,
                    first_seen=f, last_seen=last, packets=count))

        new_keys: list[tuple] = []
        new_first: list[float] = []
        new_last: list[float] = []
        new_packets: list[int] = []
        for i in np.flatnonzero(special).tolist():
            stays = bool(stay_open[i])
            if seg_carry[i]:
                o = int(first_orig[i])
                if int(seg_packets[i]) == 1:
                    if stays:
                        new_keys.append(self._keys[o])
                        new_first.append(self._first[o])
                        new_last.append(self._last[o])
                        new_packets.append(self._packets[o])
                    else:
                        self._emit(self._keys[o], self._first[o],
                                   self._last[o], self._packets[o])
                    continue
                key = self._keys[o]
                first = self._first[o]
                packets = self._packets[o] + int(seg_packets[i]) - 1
            else:
                row = int(starts[i])
                key = tuple(int(c[row]) for c in sc)
                first = float(start_ts[i])
                packets = int(seg_packets[i])
            if stays:
                new_keys.append(key)
                new_first.append(first)
                new_last.append(float(end_ts[i]))
                new_packets.append(packets)
            else:
                self._emit(key, first, float(end_ts[i]), packets)

        self._keys = new_keys
        self._first = new_first
        self._last = new_last
        self._packets = new_packets
        return len(self._flows) - before

    def finish(self) -> list[Flow]:
        """Close every open flow and return the full sorted flow list."""
        for i in range(len(self._keys)):
            self._emit(self._keys[i], self._first[i], self._last[i],
                       self._packets[i])
        self._keys = []
        self._first = []
        self._last = []
        self._packets = []
        self._flows.sort(key=_flow_order)
        return list(self._flows)


def aggregate_flows_reference(
    records: PacketRecords, timeout: float = DEFAULT_FLOW_TIMEOUT
) -> list[Flow]:
    """Per-packet reference implementation of :func:`aggregate_flows`.

    Kept as the ground truth for the randomized equivalence tests and as
    the baseline the microbenchmarks measure the vectorized path against.
    """
    check_positive("timeout", timeout)
    if len(records) == 0:
        return []
    ordered = records.sorted_by_time()
    flows: list[Flow] = []
    # 5-tuple -> open state: [first_seen, last_seen, packets]
    open_flows: dict[tuple[int, int, int, int, int], list] = {}

    src_iter = ordered.src_addresses()
    dst_iter = ordered.dst_addresses()
    for i in range(len(ordered)):
        src = next(src_iter)
        dst = next(dst_iter)
        ts = float(ordered.ts[i])
        key = (src, dst, int(ordered.proto[i]),
               int(ordered.sport[i]), int(ordered.dport[i]))
        state = open_flows.get(key)
        if state is not None and ts - state[1] <= timeout:
            state[1] = ts
            state[2] += 1
            continue
        if state is not None:
            flows.append(Flow(*key, first_seen=state[0],
                              last_seen=state[1], packets=state[2]))
        open_flows[key] = [ts, ts, 1]

    for key, state in open_flows.items():
        flows.append(Flow(*key, first_seen=state[0],
                          last_seen=state[1], packets=state[2]))
    flows.sort(key=_flow_order)
    return flows


#: Zeek conn.log-style column header.
CONN_LOG_FIELDS = ("ts", "uid", "id.orig_h", "id.orig_p", "id.resp_h",
                   "id.resp_p", "proto", "duration", "orig_pkts")

_PROTO_NAMES = {1: "icmp", 6: "tcp", 17: "udp", 58: "icmp6"}


def write_conn_log(flows: list[Flow], path) -> int:
    """Write flows as a Zeek-style tab-separated ``conn.log``.

    Emits the ``#fields`` header Zeek consumers expect; returns the number
    of rows written.
    """
    from repro.net.addr import format_address

    with open(path, "w") as stream:
        stream.write("#separator \\x09\n")
        stream.write("#fields\t" + "\t".join(CONN_LOG_FIELDS) + "\n")
        for index, flow in enumerate(flows):
            row = (
                f"{flow.first_seen:.6f}",
                f"C{index:08x}",
                format_address(flow.src),
                str(flow.sport),
                format_address(flow.dst),
                str(flow.dport),
                _PROTO_NAMES.get(flow.proto, str(flow.proto)),
                f"{flow.duration:.6f}",
                str(flow.packets),
            )
            stream.write("\t".join(row) + "\n")
    return len(flows)

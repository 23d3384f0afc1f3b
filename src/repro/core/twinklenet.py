"""Twinklenet: the low-interaction multi-protocol IP-aliasing honeypot.

Python port of the paper's Go implementation (Appendix D).  A single
instance handles packets for any number of non-contiguous subnets and
addresses (IP aliasing) and interacts per Table 7:

=============== =============================== ===============================
protocol        request                         response
=============== =============================== ===============================
ICMPv6          Echo request                    Echo reply
TCP             SYN to an open port             complete the three-way
                                                handshake, capture the first
                                                data, close with FIN
TCP             other segment to an open port   RST
NTP (UDP)       any client packet               kiss-of-death (RefID "DENY")
DNS (UDP)       any query                       SERVFAIL
=============== =============================== ===============================

Anything else — closed ports, unclaimed addresses — is silently captured
but never answered, preserving darknet semantics.

Two entry points share one state machine:

* :meth:`Twinklenet.handle` — the per-packet reference path;
* :meth:`Twinklenet.handle_batch` — the columnar kernel: whole reply
  categories (echo replies, SERVFAIL, kiss-of-death, SYN-ACK floods) are
  produced as vectorized blocks, and the TCP session table is a
  struct-of-arrays (:class:`SessionTable`) looked up by composite key.
  The batch path is reply-, counter- and state-identical to the scalar
  path (``tests/core/test_react_batch.py`` pins this with randomized
  traffic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.core.honeyprefix import Honeyprefix
from repro.net.addr import (
    aggregate,
    group_ids_cols,
    lookup_pos_u64,
    mask_u64,
    member_mask_cols,
    member_mask_u64,
    split_u64,
)
from repro.net.batch import PacketBatch, WireBatch, WireBuilder, as_wire
from repro.obs import get_registry
from repro.net.packet import (
    ICMPV6,
    TCP,
    UDP,
    IcmpType,
    Packet,
    TcpFlags,
    icmp_echo_reply,
    icmp_echo_request_mask,
    tcp_segment,
    tcp_syn_mask,
    udp_datagram,
)

#: NTP kiss-of-death payload: stratum 0 with reference identifier "DENY".
NTP_KOD_PAYLOAD = b"\x24\x00\x00\x00DENY"
#: DNS header flag bytes with QR=1, RCODE=2 (SERVFAIL).
DNS_SERVFAIL_PAYLOAD = b"\x80\x02"
#: Zeroed QDCOUNT/ANCOUNT/NSCOUNT/ARCOUNT words of the SERVFAIL header.
_DNS_ZERO_COUNTS = b"\x00\x00" * 4

#: UDP ports Twinklenet understands as DNS / NTP.
DNS_PORT = 53
NTP_PORT = 123

_U64 = 0xFFFFFFFFFFFFFFFF
#: ins value larger than any live session's — argmin sentinel.
_INS_SENTINEL = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass
class TcpSession:
    """State of one half-open/open TCP conversation."""

    peer: int
    peer_port: int
    local: int
    local_port: int
    state: str = "syn_received"
    first_data: bytes | None = None
    opened_at: float = 0.0
    last_seen: float = 0.0


@dataclass
class TwinklenetConfig:
    """Which honeyprefixes (and their bindings) this instance serves."""

    honeyprefixes: list[Honeyprefix] = field(default_factory=list)
    #: TCP sessions idle longer than this (by packet timestamp) are evicted
    #: — a SYN-only sweep must not grow the session table forever.
    session_timeout: float = 600.0
    #: Hard cap on concurrently tracked TCP sessions; the oldest-inserted
    #: session is dropped to admit a new one once the cap is reached.
    max_sessions: int = 4096


class SessionTable:
    """Struct-of-arrays TCP session table.

    Sessions live in parallel numpy columns over *slots* (``live`` marks
    occupancy, freed slots are recycled).  The composite key — peer
    address, peer port, local address, local port, spread over six u64
    columns — is resolved two ways:

    * scalar ops go through a side dict mapping the key tuple to its slot
      (O(1), keeps the per-packet reference path fast);
    * :meth:`match` resolves a whole column of keys at once by lexsorting
      table + query keys together (the sorted-packed-key/searchsorted
      lookup, via :func:`~repro.net.addr.group_ids_cols`).

    ``ins`` is a monotonically increasing insertion sequence; it survives
    re-SYN overwrites, so oldest-``ins`` eviction reproduces the scalar
    dict's oldest-inserted (FIFO) ``max_sessions`` recycling exactly.
    """

    _KEY_NAMES = ("peer_hi", "peer_lo", "peer_port",
                  "local_hi", "local_lo", "local_port")

    def __init__(self, capacity: int = 64):
        self._cap = capacity
        self.peer_hi = np.zeros(capacity, dtype=np.uint64)
        self.peer_lo = np.zeros(capacity, dtype=np.uint64)
        self.peer_port = np.zeros(capacity, dtype=np.uint64)
        self.local_hi = np.zeros(capacity, dtype=np.uint64)
        self.local_lo = np.zeros(capacity, dtype=np.uint64)
        self.local_port = np.zeros(capacity, dtype=np.uint64)
        self.established = np.zeros(capacity, dtype=bool)
        self.opened_at = np.zeros(capacity, dtype=np.float64)
        self.last_seen = np.zeros(capacity, dtype=np.float64)
        self.ins = np.zeros(capacity, dtype=np.uint64)
        self.live = np.zeros(capacity, dtype=bool)
        self._keys: list[tuple | None] = [None] * capacity
        self._index: dict[tuple, int] = {}
        self._free: list[int] = []
        self._high = 0
        self._size = 0
        self._ins_next = 0

    def __len__(self) -> int:
        return self._size

    # -- slot management -------------------------------------------------

    def _grow(self) -> None:
        new_cap = self._cap * 2
        for name in self._KEY_NAMES + ("established", "opened_at",
                                       "last_seen", "ins", "live"):
            old = getattr(self, name)
            grown = np.zeros(new_cap, dtype=old.dtype)
            grown[:self._cap] = old
            setattr(self, name, grown)
        self._keys.extend([None] * (new_cap - self._cap))
        self._cap = new_cap

    def _alloc(self) -> int:
        if self._free:
            return self._free.pop()
        if self._high == self._cap:
            self._grow()
        slot = self._high
        self._high += 1
        return slot

    # -- scalar ops ------------------------------------------------------

    def slot_of(self, key: tuple) -> int | None:
        return self._index.get(key)

    def insert(self, key: tuple, ts: float) -> int:
        slot = self._alloc()
        (self.peer_hi[slot], self.peer_lo[slot], self.peer_port[slot],
         self.local_hi[slot], self.local_lo[slot],
         self.local_port[slot]) = key
        self.established[slot] = False
        self.opened_at[slot] = ts
        self.last_seen[slot] = ts
        self.ins[slot] = self._ins_next
        self._ins_next += 1
        self.live[slot] = True
        self._keys[slot] = key
        self._index[key] = slot
        self._size += 1
        return slot

    def reopen(self, slot: int, ts: float) -> None:
        """Re-SYN on a tracked key: fresh state, same table position."""
        self.established[slot] = False
        self.opened_at[slot] = ts
        self.last_seen[slot] = ts

    def touch(self, slot: int, ts: float) -> None:
        self.last_seen[slot] = ts

    def establish(self, slot: int) -> None:
        self.established[slot] = True

    def remove(self, slot: int) -> None:
        key = self._keys[slot]
        del self._index[key]
        self._keys[slot] = None
        self.live[slot] = False
        self._free.append(slot)
        self._size -= 1

    def bulk_remove(self, slots: np.ndarray) -> None:
        """Remove many live slots at once (columns vectorized, dict
        upkeep at C speed)."""
        slot_list = slots.tolist()
        index = self._index
        keys = self._keys
        for slot in slot_list:
            del index[keys[slot]]
            keys[slot] = None
        self.live[slots] = False
        self._free.extend(slot_list)
        self._size -= len(slot_list)

    def oldest_slot(self) -> int:
        """The live slot with the smallest insertion sequence."""
        high = self._high
        ins = np.where(self.live[:high], self.ins[:high], _INS_SENTINEL)
        return int(np.argmin(ins))

    def oldest_slots(self, k: int) -> np.ndarray:
        """The ``k`` oldest live slots, oldest first."""
        high = self._high
        if k >= self._size:
            slots = np.nonzero(self.live[:high])[0]
            return slots[np.argsort(self.ins[slots], kind="stable")]
        ins = np.where(self.live[:high], self.ins[:high], _INS_SENTINEL)
        part = np.argpartition(ins, k - 1)[:k]
        return part[np.argsort(ins[part], kind="stable")]

    def sweep(self, now: float, timeout: float) -> int:
        """Evict every live session idle strictly longer than ``timeout``;
        returns the eviction count."""
        high = self._high
        stale = self.live[:high] & ((now - self.last_seen[:high]) > timeout)
        slots = np.nonzero(stale)[0]
        if len(slots):
            self.bulk_remove(slots)
        return len(slots)

    def session_at(self, slot: int) -> TcpSession:
        return TcpSession(
            peer=(int(self.peer_hi[slot]) << 64) | int(self.peer_lo[slot]),
            peer_port=int(self.peer_port[slot]),
            local=(int(self.local_hi[slot]) << 64) | int(self.local_lo[slot]),
            local_port=int(self.local_port[slot]),
            state="established" if self.established[slot] else "syn_received",
            opened_at=float(self.opened_at[slot]),
            last_seen=float(self.last_seen[slot]),
        )

    def items(self) -> Iterator[tuple[tuple, TcpSession]]:
        """(key, session) pairs in insertion order (the dict-view order)."""
        high = self._high
        slots = np.nonzero(self.live[:high])[0]
        for slot in slots[np.argsort(self.ins[slots], kind="stable")].tolist():
            yield self._keys[slot], self.session_at(slot)

    # -- batch ops -------------------------------------------------------

    def _key_cols(self, slots: np.ndarray) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name)[slots] for name in self._KEY_NAMES)

    def match(self, cols: tuple[np.ndarray, ...]) -> np.ndarray:
        """Slot of each query key (columns in ``_KEY_NAMES`` order), -1 on
        miss."""
        n_query = len(cols[0])
        out = np.full(n_query, -1, dtype=np.int64)
        if self._size == 0 or n_query == 0:
            return out
        live_slots = np.nonzero(self.live[:self._high])[0]
        # Single-column pre-filter: a key can only match if its probed
        # address (the most discriminating component) is in the table at
        # all — scanner floods probe fresh addresses, so this usually
        # empties the query before the six-column sort.
        cand = np.isin(np.asarray(cols[4], dtype=np.uint64),
                       self.local_lo[live_slots])
        if not cand.any():
            return out
        sub = np.nonzero(cand)[0]
        table_cols = self._key_cols(live_slots)
        all_cols = [np.concatenate([t, np.asarray(q, dtype=np.uint64)[sub]])
                    for t, q in zip(table_cols, cols)]
        ids, n_groups = group_ids_cols(all_cols)
        slot_of_group = np.full(n_groups, -1, dtype=np.int64)
        slot_of_group[ids[:len(live_slots)]] = live_slots
        out[sub] = slot_of_group[ids[len(live_slots):]]
        return out

    def local_lo_overlap(self, lo: np.ndarray) -> bool:
        """Whether any of the given local-address low halves is tracked —
        a cheap single-column necessary condition for any key match."""
        if self._size == 0:
            return False
        live = np.nonzero(self.live[:self._high])[0]
        return bool(np.isin(lo, self.local_lo[live]).any())

    def advance_ins(self, n: int) -> None:
        """Consume ``n`` insertion-sequence values without inserting —
        stand-in for sessions that were inserted and evicted again within
        a single bulk update."""
        self._ins_next += n

    def bulk_reopen(self, slots: np.ndarray, ts: np.ndarray) -> None:
        self.established[slots] = False
        self.opened_at[slots] = ts
        self.last_seen[slots] = ts

    def bulk_insert(self, cols: tuple[np.ndarray, ...],
                    ts: np.ndarray) -> None:
        """Insert new keys (caller guarantees absent and under the cap) in
        the given order — the order defines their insertion sequence."""
        n = len(ts)
        slots = np.asarray([self._alloc() for _ in range(n)], dtype=np.int64)
        for name, col in zip(self._KEY_NAMES, cols):
            getattr(self, name)[slots] = col
        self.established[slots] = False
        self.opened_at[slots] = ts
        self.last_seen[slots] = ts
        self.ins[slots] = np.arange(self._ins_next, self._ins_next + n,
                                    dtype=np.uint64)
        self._ins_next += n
        self.live[slots] = True
        keys = zip(cols[0].tolist(), cols[1].tolist(), cols[2].tolist(),
                   cols[3].tolist(), cols[4].tolist(), cols[5].tolist())
        for key, slot in zip(keys, slots.tolist()):
            self._keys[slot] = key
            self._index[key] = slot
        self._size += n


class Twinklenet:
    """The responder.  Feed packets in via :meth:`handle` (or whole columns
    via :meth:`handle_batch`); responses are emitted through the
    ``transmit`` callback (typically an
    :class:`~repro.net.iface.Interface`'s transmit)."""

    #: The reaction state a scenario checkpoint carries: everything the
    #: responder accumulates from traffic (its honeyprefix index is
    #: rebuilt from the deployments a resume replays).
    CHECKPOINT_FIELDS = ("_table", "sessions_completed", "sessions_evicted",
                         "rx_count", "tx_count", "_last_sweep")

    def __init__(
        self,
        config: TwinklenetConfig,
        transmit: Callable[[Packet], None] | None = None,
    ):
        self.config = config
        self._transmit = transmit or (lambda pkt: None)
        self._transmit_batch: Callable[[WireBatch], None] | None = None
        self._table = SessionTable()
        self.sessions_completed: list[TcpSession] = []
        self.sessions_evicted = 0
        self.rx_count = 0
        self.tx_count = 0
        self._last_sweep = float("-inf")
        # Truncation-keyed honeyprefix index; rebuilt lazily when the
        # config's honeyprefix list grows (deploys append to it).
        self._owner_index: dict[tuple[int, int], tuple[int, Honeyprefix]] = {}
        self._owner_lengths: list[int] = []
        self._owner_cols: dict[int, tuple] = {}
        self._indexed_count = -1
        registry = get_registry()
        self._m_rx = registry.counter("twinklenet.rx")
        self._m_opened = registry.counter("twinklenet.sessions.opened")
        self._m_evicted = registry.counter("twinklenet.sessions.evicted")
        self._m_completed = registry.counter("twinklenet.sessions.completed")
        self._m_torn_down = registry.counter("twinklenet.sessions.torn_down")
        self._m_reply_icmp = registry.counter("twinklenet.replies.icmp")
        self._m_reply_tcp = registry.counter("twinklenet.replies.tcp")
        self._m_reply_dns = registry.counter("twinklenet.replies.dns")
        self._m_reply_ntp = registry.counter("twinklenet.replies.ntp")

    @property
    def _sessions(self) -> dict[tuple[int, int, int, int], TcpSession]:
        """Dict view of the session table (reference/test surface).

        Keyed ``(peer, peer_port, local, local_port)`` in insertion order,
        exactly the dict the scalar implementation used to keep directly.
        """
        return {
            ((key[0] << 64) | key[1], key[2], (key[3] << 64) | key[4], key[5]):
                session
            for key, session in self._table.items()
        }

    def set_transmit(self, transmit: Callable[[Packet], None]) -> None:
        self._transmit = transmit

    def set_transmit_batch(
            self, transmit: Callable[[WireBatch], None]) -> None:
        """Columnar transmit: :meth:`handle_batch` hands its whole reply
        batch to this callback instead of materializing per-packet."""
        self._transmit_batch = transmit

    def _send(self, pkt: Packet) -> None:
        self.tx_count += 1
        self._transmit(pkt)

    def _rebuild_owner_index(self) -> None:
        self._owner_index = {}
        lengths: set[int] = set()
        for pos, hp in enumerate(self.config.honeyprefixes):
            key = (hp.prefix.length, hp.prefix.network)
            self._owner_index.setdefault(key, (pos, hp))
            lengths.add(hp.prefix.length)
        self._owner_lengths = sorted(lengths)
        self._indexed_count = len(self.config.honeyprefixes)
        # Columnar twin of the index, for the batch owner lookup: per
        # length, the truncated networks as (hi, lo) columns + positions.
        self._owner_cols = {}
        for length in self._owner_lengths:
            entries = [(net, pos)
                       for (ln, net), (pos, _hp) in self._owner_index.items()
                       if ln == length]
            hi, lo = split_u64(net for net, _ in entries)
            pos_arr = np.asarray([p for _, p in entries], dtype=np.int64)
            self._owner_cols[length] = (hi, lo, pos_arr)

    def _owner(self, dst: int) -> Honeyprefix | None:
        """Honeyprefix serving ``dst``, by truncation-keyed dict lookup.

        One dict probe per distinct deployed prefix length (a handful:
        honeyprefixes are /48s and longer) replaces the linear scan over
        every honeyprefix.  When several nested prefixes cover ``dst``, the
        one listed first in the config wins, matching the original scan.
        """
        if len(self.config.honeyprefixes) != self._indexed_count:
            self._rebuild_owner_index()
        best: tuple[int, Honeyprefix] | None = None
        for length in self._owner_lengths:
            entry = self._owner_index.get((length, aggregate(dst, length)))
            if entry is not None and (best is None or entry[0] < best[0]):
                best = entry
        return best[1] if best else None

    def _owner_pos_batch(self, dst_hi: np.ndarray,
                         dst_lo: np.ndarray) -> np.ndarray:
        """Config position of the owning honeyprefix per row, -1 when
        unowned — the columnar :meth:`_owner` (first-listed wins)."""
        if len(self.config.honeyprefixes) != self._indexed_count:
            self._rebuild_owner_index()
        sentinel = np.iinfo(np.int64).max
        best = np.full(len(dst_hi), sentinel, dtype=np.int64)
        for length in self._owner_lengths:
            set_hi, set_lo, set_pos = self._owner_cols[length]
            hi, lo = mask_u64(dst_hi, dst_lo, length)
            pos = lookup_pos_u64(hi, lo, set_hi, set_lo, set_pos)
            hit = pos >= 0
            best[hit] = np.minimum(best[hit], pos[hit])
        best[best == sentinel] = -1
        return best

    def responds(self, address: int, proto: int, port: int | None) -> bool:
        """Responsiveness oracle over all served honeyprefixes."""
        hp = self._owner(address)
        return hp is not None and hp.responds(address, proto, port)

    def note_dark(self, n: int) -> None:
        """Account ``n`` packets that were received but provably could not
        elicit a reply (the columnar fast path skips materializing them)."""
        self.rx_count += n
        self._m_rx.inc(n)

    def handle(self, pkt: Packet) -> None:
        """Process one incoming packet, possibly emitting responses."""
        self.rx_count += 1
        self._m_rx.inc()
        hp = self._owner(pkt.dst)
        if hp is None:
            return
        if pkt.proto == ICMPV6:
            self._handle_icmp(pkt, hp)
        elif pkt.proto == TCP:
            self._handle_tcp(pkt, hp)
        elif pkt.proto == UDP:
            self._handle_udp(pkt, hp)

    # -- ICMP ------------------------------------------------------------

    def _handle_icmp(self, pkt: Packet, hp: Honeyprefix) -> None:
        if pkt.is_icmp_echo_request and hp.responds(pkt.dst, ICMPV6, None):
            self._m_reply_icmp.inc()
            self._send(icmp_echo_reply(pkt))

    # -- TCP -------------------------------------------------------------

    def _evict_stale_sessions(self, now: float) -> None:
        """Drop sessions idle longer than the configured timeout.

        Driven by packet timestamps and amortized: a full sweep runs at
        most once per timeout interval, so per-packet cost stays O(1).
        """
        timeout = self.config.session_timeout
        if now - self._last_sweep < timeout:
            return
        self._last_sweep = now
        evicted = self._table.sweep(now, timeout)
        self.sessions_evicted += evicted
        self._m_evicted.inc(evicted)

    @staticmethod
    def _session_key(src: int, sport: int, dst: int, dport: int) -> tuple:
        return ((src >> 64) & _U64, src & _U64, sport,
                (dst >> 64) & _U64, dst & _U64, dport)

    def _tcp_step(self, ts: float, key: tuple, flags: int, payload: bytes,
                  seq: int, ack: int) -> tuple | None:
        """One TCP state-machine step; returns the reply's (flags, seq,
        ack) or None.  Shared verbatim by the scalar path and the batch
        kernel's mixed-segment fallback — there is exactly one state
        machine."""
        table = self._table
        slot = table.slot_of(key)
        if flags & TcpFlags.SYN and not flags & TcpFlags.ACK:
            if slot is None:
                if len(table) >= self.config.max_sessions:
                    # Table full: recycle the oldest-inserted session (a
                    # SYN-only scanner never touches a session twice, so
                    # insertion order is idle order).
                    table.remove(table.oldest_slot())
                    self.sessions_evicted += 1
                    self._m_evicted.inc()
                table.insert(key, ts)
            else:
                table.reopen(slot, ts)
            self._m_opened.inc()
            self._m_reply_tcp.inc()
            return (TcpFlags.SYN | TcpFlags.ACK, 0, seq + 1)
        if slot is None:
            # Mid-stream segment with no session: RST per Table 7.
            self._m_reply_tcp.inc()
            return (TcpFlags.RST, ack, 0)
        table.touch(slot, ts)
        if not table.established[slot] and flags & TcpFlags.ACK:
            table.establish(slot)
        if table.established[slot] and payload:
            # Capture the first data, then close gracefully with FIN.
            session = table.session_at(slot)
            session.state = "closing"
            session.first_data = payload
            self._m_completed.inc()
            self._m_reply_tcp.inc()
            self.sessions_completed.append(session)
            table.remove(slot)
            return (TcpFlags.FIN | TcpFlags.ACK, 1, seq + len(payload))
        if flags & (TcpFlags.FIN | TcpFlags.RST):
            # Peer teardown: forget the session.  A FIN gets its ACK; an
            # RST is dropped silently.
            table.remove(slot)
            self._m_torn_down.inc()
            if flags & TcpFlags.FIN and not flags & TcpFlags.RST:
                self._m_reply_tcp.inc()
                return (TcpFlags.ACK, 1, seq + 1)
        return None

    def _handle_tcp(self, pkt: Packet, hp: Honeyprefix) -> None:
        self._evict_stale_sessions(pkt.timestamp)
        if not hp.responds(pkt.dst, TCP, pkt.dport):
            return  # closed port: darknet silence
        key = self._session_key(pkt.src, pkt.sport, pkt.dst, pkt.dport)
        reply = self._tcp_step(pkt.timestamp, key, pkt.flags, pkt.payload,
                               pkt.seq, pkt.ack)
        if reply is not None:
            rflags, rseq, rack = reply
            self._send(tcp_segment(
                pkt.timestamp, pkt.dst, pkt.src, pkt.dport, pkt.sport,
                rflags, seq=rseq, ack=rack,
            ))

    # -- UDP -------------------------------------------------------------

    def _handle_udp(self, pkt: Packet, hp: Honeyprefix) -> None:
        if not hp.responds(pkt.dst, UDP, pkt.dport):
            return
        if pkt.dport == DNS_PORT:
            # SERVFAIL instead of implementing a resolver an attacker could
            # abuse for reflection.  The reply is a well-formed 12-byte DNS
            # header: TXID (zero-padded when the query is shorter than two
            # bytes), SERVFAIL flags, and zeroed section counts.
            txid = pkt.payload[:2].ljust(2, b"\x00")
            payload = txid + DNS_SERVFAIL_PAYLOAD + _DNS_ZERO_COUNTS
            self._m_reply_dns.inc()
            self._send(udp_datagram(
                pkt.timestamp, pkt.dst, pkt.src, pkt.dport, pkt.sport, payload
            ))
        elif pkt.dport == NTP_PORT:
            self._m_reply_ntp.inc()
            self._send(udp_datagram(
                pkt.timestamp, pkt.dst, pkt.src, pkt.dport, pkt.sport,
                NTP_KOD_PAYLOAD,
            ))
        # Other UDP ports bound in future configs: responsive but mute.

    # -- columnar kernels ------------------------------------------------

    def handle_batch(self, batch: PacketBatch | WireBatch,
                     owner: np.ndarray | None = None) -> WireBatch:
        """Process a whole batch; returns the reply batch (row order =
        input row order, matching the per-packet reference exactly).

        Accepts a probe :class:`PacketBatch` (the telescope fast path) or a
        full :class:`WireBatch` (handshake/payload traffic, e.g. from
        tests).  Dark rows cost only their share of the vectorized masks —
        nothing is materialized per packet on the all-SYN hot path.

        ``owner``: the per-row position in ``config.honeyprefixes`` of the
        honeyprefix that owns the row (-1: unowned), when the caller
        already routed the traffic (the telescope does, by deployed /48);
        skips the per-row owner lookup.  Processing is row-sequential, so
        one call on a concatenation of batches equals one call per batch.
        """
        wire = as_wire(batch)
        n = len(wire)
        self.rx_count += n
        self._m_rx.inc(n)
        out = WireBuilder()
        if n:
            if owner is None:
                owner = self._owner_pos_batch(wire.dst_hi, wire.dst_lo)
            if (owner >= 0).any():
                self._react_icmp_batch(wire, owner, out)
                self._react_udp_batch(wire, owner, out)
                self._react_tcp_batch(wire, owner, out)
        replies = out.build()
        if len(replies):
            self.tx_count += len(replies)
            if self._transmit_batch is not None:
                self._transmit_batch(replies)
            else:
                for pkt in replies.to_packets():
                    self._transmit(pkt)
        return replies

    def _react_icmp_batch(self, wire: WireBatch, owner: np.ndarray,
                          out: WireBuilder) -> None:
        req = icmp_echo_request_mask(wire.proto, wire.sport) & (owner >= 0)
        if not req.any():
            return
        ok = np.zeros(len(wire), dtype=bool)
        for pos in np.unique(owner[req]).tolist():
            hp = self.config.honeyprefixes[pos]
            rows = np.nonzero(req & (owner == pos))[0]
            if hp.config.aliased:
                # Aliased prefixes answer ICMP everywhere they own.
                ok[rows] = True
            else:
                set_hi, set_lo = hp.icmp_address_columns()
                hit = member_mask_u64(wire.dst_hi[rows], wire.dst_lo[rows],
                                      set_hi, set_lo)
                ok[rows[hit]] = True
        idx = np.nonzero(ok)[0]
        if len(idx) == 0:
            return
        self._m_reply_icmp.inc(len(idx))
        out.append_block(
            idx, wire.ts[idx],
            wire.dst_hi[idx], wire.dst_lo[idx],
            wire.src_hi[idx], wire.src_lo[idx],
            ICMPV6, int(IcmpType.ECHO_REPLY), wire.dport[idx],
            payload_id=out.translate_ids(wire.payloads, wire.payload_id[idx]),
        )

    def _react_udp_batch(self, wire: WireBatch, owner: np.ndarray,
                         out: WireBuilder) -> None:
        udp = (wire.proto == np.uint8(UDP)) & (owner >= 0)
        if not udp.any():
            return
        bound = np.zeros(len(wire), dtype=bool)
        for pos in np.unique(owner[udp]).tolist():
            hp = self.config.honeyprefixes[pos]
            set_hi, set_lo, set_ports = hp.binding_columns(UDP)
            if len(set_hi) == 0:
                continue
            rows = np.nonzero(udp & (owner == pos))[0]
            hit = member_mask_cols(
                (wire.dst_hi[rows], wire.dst_lo[rows], wire.dport[rows]),
                (set_hi, set_lo, set_ports))
            bound[rows[hit]] = True
        dns = np.nonzero(bound & (wire.dport == np.uint16(DNS_PORT)))[0]
        if len(dns):
            # Vectorized payload selection: one SERVFAIL per distinct query
            # payload (probe batches carry a single constant, so this loop
            # runs once).
            self._m_reply_dns.inc(len(dns))
            pids = wire.payload_id[dns]
            pid_out = np.empty(len(dns), dtype=np.int32)
            for pid in np.unique(pids).tolist():
                query = b"" if pid < 0 else wire.payloads[pid]
                txid = query[:2].ljust(2, b"\x00")
                reply = txid + DNS_SERVFAIL_PAYLOAD + _DNS_ZERO_COUNTS
                pid_out[pids == pid] = out.intern(reply)
            out.append_block(
                dns, wire.ts[dns],
                wire.dst_hi[dns], wire.dst_lo[dns],
                wire.src_hi[dns], wire.src_lo[dns],
                UDP, wire.dport[dns], wire.sport[dns],
                payload_id=pid_out,
            )
        ntp = np.nonzero(bound & (wire.dport == np.uint16(NTP_PORT)))[0]
        if len(ntp):
            self._m_reply_ntp.inc(len(ntp))
            out.append_block(
                ntp, wire.ts[ntp],
                wire.dst_hi[ntp], wire.dst_lo[ntp],
                wire.src_hi[ntp], wire.src_lo[ntp],
                UDP, wire.dport[ntp], wire.sport[ntp],
                payload_id=out.intern(NTP_KOD_PAYLOAD),
            )

    def _react_tcp_batch(self, wire: WireBatch, owner: np.ndarray,
                         out: WireBuilder) -> None:
        """The TCP kernel: eviction-sweep segmentation around the
        struct-of-arrays session table.

        Every owned TCP row advances the sweep clock (exactly as every
        scalar ``_handle_tcp`` call does), so the row sequence is cut at
        sweep fire points and processed segment by segment; within a
        segment the table state is stable and the all-SYN case — probe
        traffic — vectorizes fully.
        """
        tcp_rows = np.nonzero((wire.proto == np.uint8(TCP)) & (owner >= 0))[0]
        if len(tcp_rows) == 0:
            return
        ts = wire.ts[tcp_rows]
        # Eligibility: an exact (address, port) binding on the owner.
        elig = np.zeros(len(tcp_rows), dtype=bool)
        sub_owner = owner[tcp_rows]
        for pos in np.unique(sub_owner).tolist():
            hp = self.config.honeyprefixes[pos]
            set_hi, set_lo, set_ports = hp.binding_columns(TCP)
            if len(set_hi) == 0:
                continue
            rows = np.nonzero(sub_owner == pos)[0]
            sel = tcp_rows[rows]
            hit = member_mask_cols(
                (wire.dst_hi[sel], wire.dst_lo[sel], wire.dport[sel]),
                (set_hi, set_lo, set_ports))
            elig[rows[hit]] = True
        timeout = self.config.session_timeout
        pos = 0
        scan = 0
        n = len(tcp_rows)
        while True:
            # Next sweep fire point: first unchecked row whose timestamp is
            # a full timeout past the last sweep — the exact per-packet
            # gate, evaluated as one vector comparison.  Each row consumes
            # its gate check, so scanning resumes after the fire row.
            due = (ts[scan:] - self._last_sweep) >= timeout
            k = int(np.argmax(due)) if len(due) else 0
            if len(due) == 0 or not due[k]:
                self._process_tcp_segment(wire, tcp_rows, elig, pos, n, out)
                return
            fire = scan + k
            self._process_tcp_segment(wire, tcp_rows, elig, pos, fire, out)
            now = float(ts[fire])
            self._last_sweep = now
            evicted = self._table.sweep(now, timeout)
            self.sessions_evicted += evicted
            self._m_evicted.inc(evicted)
            pos = fire
            scan = fire + 1

    def _process_tcp_segment(self, wire: WireBatch, tcp_rows: np.ndarray,
                             elig: np.ndarray, a: int, b: int,
                             out: WireBuilder) -> None:
        if a >= b:
            return
        idx = tcp_rows[a:b][elig[a:b]]
        if len(idx) == 0:
            return
        if tcp_syn_mask(wire.flags[idx]).all():
            self._syn_segment(wire, idx, out)
        else:
            self._fallback_rows(wire, idx, out)

    def _syn_segment(self, wire: WireBatch, idx: np.ndarray,
                     out: WireBuilder) -> None:
        """All-SYN segment (the probe hot path), fully vectorized.

        Replies are one SYN-ACK per row regardless of table state; the
        table update groups rows by session key — a re-SYN within the
        segment lands on its first occurrence's table position with its
        last occurrence's timestamps, exactly the scalar overwrite
        semantics.  At the ``max_sessions`` cap, each new key recycles the
        globally-oldest live session and reopens never change insertion
        order, so the evicted set is exactly the ``m + n_new - cap``
        oldest — evicted in bulk here.  Only when one of those victims is
        itself a key this segment references does the scalar row/eviction
        interleaving matter, and the segment recursively halves until the
        entanglement is isolated in a chunk small enough for the per-row
        fallback.
        """
        cols = (wire.src_hi[idx], wire.src_lo[idx],
                wire.sport[idx].astype(np.uint64),
                wire.dst_hi[idx], wire.dst_lo[idx],
                wire.dport[idx].astype(np.uint64))
        ts_seg = wire.ts[idx]
        cap = self.config.max_sessions
        # Flood fast path: when the probed addresses are pairwise distinct
        # and none is currently tracked, every key is distinct and absent
        # (two single-column sorts prove it) — skip the six-column
        # grouping and match sorts and go straight to the bulk insert.
        if (len(np.unique(cols[4])) == len(idx)
                and not self._table.local_lo_overlap(cols[4])):
            self._insert_only_segment(wire, idx, cols, ts_seg, cap, out)
            return
        ids, n_groups = group_ids_cols(cols)
        arange = np.arange(len(idx), dtype=np.int64)
        first = np.full(n_groups, len(idx), dtype=np.int64)
        np.minimum.at(first, ids, arange)
        last = np.zeros(n_groups, dtype=np.int64)
        np.maximum.at(last, ids, arange)
        rep_cols = tuple(c[first] for c in cols)
        slots = self._table.match(rep_cols)
        new = slots < 0
        n_new = int(new.sum())
        n_evict = len(self._table) + n_new - cap
        flood = False
        if n_evict > 0:
            if n_new > cap:
                if not (n_new == n_groups == len(idx)):
                    # A matched or repeated key among segment-scale
                    # evictions: row order decides reopen vs re-insert.
                    self._syn_split_or_fallback(wire, idx, out)
                    return
                # Flood overflow: every key distinct and absent.  The
                # FIFO wipes every existing session, then the first
                # n_new - cap inserts of the segment itself; only the
                # last cap keys are still resident at the end, carrying
                # the insertion sequence the scalar loop would have left.
                self._table.bulk_remove(
                    self._table.oldest_slots(len(self._table)))
                self._table.advance_ins(n_new - cap)
                self._table.bulk_insert(tuple(c[-cap:] for c in cols),
                                        ts_seg[-cap:])
                flood = True
            else:
                victims = self._table.oldest_slots(n_evict)
                if bool(np.isin(victims, slots[~new]).any()):
                    # A session due for eviction is also re-SYNed by this
                    # segment; whether its row lands before (reopen) or
                    # after (re-insert) its eviction depends on row
                    # order.
                    self._syn_split_or_fallback(wire, idx, out)
                    return
                self._table.bulk_remove(victims)
            self.sessions_evicted += n_evict
            self._m_evicted.inc(n_evict)
        if not flood:
            ts_last = ts_seg[last]
            if n_new < n_groups:
                self._table.bulk_reopen(slots[~new], ts_last[~new])
            if n_new:
                order = np.argsort(first[new], kind="stable")
                sel = np.nonzero(new)[0][order]
                self._table.bulk_insert(tuple(c[sel] for c in rep_cols),
                                        ts_last[sel])
        self._m_opened.inc(len(idx))
        self._m_reply_tcp.inc(len(idx))
        out.append_block(
            idx, ts_seg,
            wire.dst_hi[idx], wire.dst_lo[idx],
            wire.src_hi[idx], wire.src_lo[idx],
            TCP, wire.dport[idx], wire.sport[idx],
            flags=int(TcpFlags.SYN | TcpFlags.ACK),
            seq=0, ack=wire.seq[idx] + 1,
        )

    def _insert_only_segment(self, wire: WireBatch, idx: np.ndarray,
                             cols: tuple[np.ndarray, ...], ts_seg: np.ndarray,
                             cap: int, out: WireBuilder) -> None:
        """All-SYN segment of pairwise-distinct, untracked keys: a pure
        insert stream.  Eviction victims (the FIFO head) can never be
        segment keys, so the bulk update is order-exact by construction."""
        table = self._table
        n = len(idx)
        n_evict = len(table) + n - cap
        if n_evict > 0:
            if n > cap:
                # Segment-scale flood: everything resident is wiped, and
                # the first n - cap inserts of the segment evict each
                # other; only the last cap keys remain, carrying the
                # insertion sequence the scalar loop would have left.
                table.bulk_remove(table.oldest_slots(len(table)))
                table.advance_ins(n - cap)
                table.bulk_insert(tuple(c[-cap:] for c in cols),
                                  ts_seg[-cap:])
            else:
                table.bulk_remove(table.oldest_slots(n_evict))
                table.bulk_insert(cols, ts_seg)
            self.sessions_evicted += n_evict
            self._m_evicted.inc(n_evict)
        else:
            table.bulk_insert(cols, ts_seg)
        self._m_opened.inc(n)
        self._m_reply_tcp.inc(n)
        out.append_block(
            idx, ts_seg,
            wire.dst_hi[idx], wire.dst_lo[idx],
            wire.src_hi[idx], wire.src_lo[idx],
            TCP, wire.dport[idx], wire.sport[idx],
            flags=int(TcpFlags.SYN | TcpFlags.ACK),
            seq=0, ack=wire.seq[idx] + 1,
        )

    def _syn_split_or_fallback(self, wire: WireBatch, idx: np.ndarray,
                               out: WireBuilder) -> None:
        """Order-entangled all-SYN segment: processing the two halves in
        sequence is row-order exact, and each half re-runs the vectorized
        kernel with its own guards — halving repeats until the
        entanglement is isolated in a chunk small enough for the per-row
        fallback."""
        if len(idx) < 64:
            self._fallback_rows(wire, idx, out)
            return
        mid = len(idx) // 2
        self._syn_segment(wire, idx[:mid], out)
        self._syn_segment(wire, idx[mid:], out)

    def _fallback_rows(self, wire: WireBatch, idx: np.ndarray,
                       out: WireBuilder) -> None:
        """Row-exact fallback: mixed-flag or cap-bound segments run the
        shared scalar state machine row by row (rare — probe traffic is
        all-SYN and far below the cap)."""
        for i in idx.tolist():
            ts = float(wire.ts[i])
            src_hi, src_lo = int(wire.src_hi[i]), int(wire.src_lo[i])
            dst_hi, dst_lo = int(wire.dst_hi[i]), int(wire.dst_lo[i])
            sport, dport = int(wire.sport[i]), int(wire.dport[i])
            key = (src_hi, src_lo, sport, dst_hi, dst_lo, dport)
            reply = self._tcp_step(ts, key, int(wire.flags[i]),
                                   wire.payload_at(i), int(wire.seq[i]),
                                   int(wire.ack[i]))
            if reply is not None:
                rflags, rseq, rack = reply
                out.append_row(
                    int(i), ts,
                    src=(dst_hi << 64) | dst_lo, dst=(src_hi << 64) | src_lo,
                    proto=TCP, sport=dport, dport=sport,
                    flags=int(rflags), seq=rseq, ack=rack,
                )

"""T-Pot high-interaction honeypots behind a DNAT + 6-to-4 gateway.

The paper's Appendix B setup, reproduced stage by stage:

1. an access router forwards honeyprefix traffic to a **DNAT gateway**,
   which rewrites every destination to the prefix's first address (``::1``)
   plus a fresh source port, logging ``(timestamp, original dst, source
   port)`` so original destinations can be recovered from T-Pot logs;
2. a **reverse proxy** performs static 6-to-4 translation to the T-Pot
   instance's IPv4 address and routes by protocol/port to the right
   container;
3. the **T-Pot instance** runs the containers of Table 5 (cowrie, snare,
   dionaea, ...), each answering on its ports with a service banner and
   logging the interaction.

Each T-Pot instance can only bind a single IPv4 address — the constraint
that forced the two-stage design in the first place.

The gateway has two entry points sharing one NAT state: per-packet
:meth:`DnatGateway.handle` (the reference path) and columnar
:meth:`DnatGateway.handle_batch`, which rewrites destinations, allocates
source ports per distinct flow, appends the NAT log as columns
(:class:`DnatLog`) and emits all container replies as one batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.net.addr import IPv6Prefix, group_ids_cols, mask_u64
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

_U64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True, slots=True)
class Container:
    """One honeypot container: name plus its TCP/UDP port surface."""

    name: str
    tcp_ports: tuple[int, ...] = ()
    udp_ports: tuple[int, ...] = ()
    banner: bytes = b""

    def listens(self, proto: int, port: int) -> bool:
        if proto == TCP:
            return port in self.tcp_ports
        if proto == UDP:
            return port in self.udp_ports
        return False


#: Table 5, H_TPot1 column.
TPOT1_CONTAINERS: tuple[Container, ...] = (
    Container("cowrie", tcp_ports=(22, 23), banner=b"SSH-2.0-OpenSSH_8.2\r\n"),
    Container("mailoney", tcp_ports=(25,), banner=b"220 mail ESMTP\r\n"),
    Container("snare", tcp_ports=(80,), banner=b"HTTP/1.1 200 OK\r\n"),
    Container("citrixhoneypot", tcp_ports=(443,), banner=b"HTTP/1.1 200 OK\r\n"),
    Container("ciscoasa", tcp_ports=(8443,), udp_ports=(5000,)),
    Container("redishoneypot", tcp_ports=(6379,), banner=b"-ERR unknown\r\n"),
    Container("adbhoney", tcp_ports=(5555,)),
    Container(
        "dionaea",
        tcp_ports=(20, 21, 42, 81, 135, 443, 445, 1433, 1723, 1883, 3306, 27017),
        udp_ports=(69,),
    ),
    Container("ddospot", udp_ports=(19, 53, 123, 161, 1900)),
)

#: Table 5, H_TPot2 column.
TPOT2_CONTAINERS: tuple[Container, ...] = (
    Container("mailoney", tcp_ports=(25,), banner=b"220 mail ESMTP\r\n"),
    Container("snare", tcp_ports=(80,), banner=b"HTTP/1.1 200 OK\r\n"),
    Container("citrixhoneypot", tcp_ports=(443,), banner=b"HTTP/1.1 200 OK\r\n"),
    Container("ciscoasa", tcp_ports=(8443,), udp_ports=(5000,)),
    Container("adbhoney", tcp_ports=(5555,)),
    Container("sentrypeer", udp_ports=(5060,)),
    Container(
        "dionaea",
        tcp_ports=(20, 21, 42, 81, 135, 443, 445, 1433, 1723, 1883, 3306, 27017),
        udp_ports=(69,),
    ),
    Container("ddospot", udp_ports=(19, 53, 123, 161, 1900)),
    Container("conpot", tcp_ports=(1025, 50100), udp_ports=(161,)),
    Container("elasticpot", tcp_ports=(9200,), banner=b'{"name":"es"}'),
    Container("dicompot", tcp_ports=(11112,)),
)


@dataclass(frozen=True, slots=True)
class DnatLogEntry:
    """One NAT-table record: enough to recover original destinations."""

    timestamp: float
    original_dst: int
    source_port: int


class DnatLog:
    """The gateway's NAT log, stored columnar, read like a list.

    Scalar appends accumulate in plain-list segments; the batch path
    appends whole column segments (timestamps float64, destination halves
    uint64, ports int64) without materializing an entry object per flow.
    Reads — indexing, iteration, ``reversed``, equality against lists —
    materialize :class:`DnatLogEntry` values on demand, so every existing
    consumer (tests, examples, T-Pot log joins) sees the familiar list.
    """

    __slots__ = ("_segments", "_len")

    def __init__(self) -> None:
        # Each segment is ("rows", [DnatLogEntry, ...]) or
        # ("cols", (ts, dst_hi, dst_lo, ports)).
        self._segments: list[tuple[str, object]] = []
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def append(self, entry: DnatLogEntry) -> None:
        if not self._segments or self._segments[-1][0] != "rows":
            self._segments.append(("rows", []))
        self._segments[-1][1].append(entry)
        self._len += 1

    def extend_columns(self, ts: np.ndarray, dst_hi: np.ndarray,
                       dst_lo: np.ndarray, ports: np.ndarray) -> None:
        """Append one flow-column segment (the batch path's bulk append)."""
        if len(ts) == 0:
            return
        self._segments.append(("cols", (
            np.asarray(ts, dtype=np.float64),
            np.asarray(dst_hi, dtype=np.uint64),
            np.asarray(dst_lo, dtype=np.uint64),
            np.asarray(ports, dtype=np.int64),
        )))
        self._len += len(ts)

    @staticmethod
    def _seg_len(seg: tuple[str, object]) -> int:
        kind, data = seg
        return len(data) if kind == "rows" else len(data[0])

    @staticmethod
    def _seg_entry(seg: tuple[str, object], i: int) -> DnatLogEntry:
        kind, data = seg
        if kind == "rows":
            return data[i]
        ts, hi, lo, ports = data
        return DnatLogEntry(float(ts[i]),
                            (int(hi[i]) << 64) | int(lo[i]), int(ports[i]))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("DnatLog index out of range")
        for seg in self._segments:
            n = self._seg_len(seg)
            if i < n:
                return self._seg_entry(seg, i)
            i -= n
        raise IndexError("DnatLog index out of range")

    def __iter__(self) -> Iterator[DnatLogEntry]:
        for seg in self._segments:
            for i in range(self._seg_len(seg)):
                yield self._seg_entry(seg, i)

    def __reversed__(self) -> Iterator[DnatLogEntry]:
        for seg in reversed(self._segments):
            for i in range(self._seg_len(seg) - 1, -1, -1):
                yield self._seg_entry(seg, i)

    def __eq__(self, other) -> bool:
        if isinstance(other, DnatLog):
            return list(self) == list(other)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"DnatLog({len(self)} entries)"

    def last_match(self, timestamp: float, source_port: int) -> int | None:
        """Latest-appended original destination with this source port at or
        before ``timestamp`` — vectorized per column segment."""
        for seg in reversed(self._segments):
            kind, data = seg
            if kind == "rows":
                for entry in reversed(data):
                    if (entry.source_port == source_port
                            and entry.timestamp <= timestamp):
                        return entry.original_dst
            else:
                ts, hi, lo, ports = data
                hit = np.nonzero((ports == source_port) & (ts <= timestamp))[0]
                if len(hit):
                    i = int(hit[-1])
                    return (int(hi[i]) << 64) | int(lo[i])
        return None


@dataclass(frozen=True, slots=True)
class InteractionLog:
    """One T-Pot container interaction (what T-Pot's own logs record)."""

    timestamp: float
    container: str
    src: int
    proto: int
    port: int
    #: T-Pot sees the *translated* destination; analysis joins the NAT log.
    translated_dst: int
    data: bytes = b""


class TPotInstance:
    """One T-Pot: a single-address honeypot running Table 5 containers."""

    def __init__(self, name: str, containers: tuple[Container, ...],
                 ipv4_address: int = 0x0A00_0001):
        self.name = name
        self.containers = containers
        self.ipv4_address = ipv4_address
        self.interactions: list[InteractionLog] = []
        self._m_interactions = get_registry().counter("tpot.interactions")
        surface: dict[tuple[int, int], Container] = {}
        for container in containers:
            for port in container.tcp_ports:
                surface.setdefault((TCP, port), container)
            for port in container.udp_ports:
                surface.setdefault((UDP, port), container)
        self._surface = surface
        self._port_luts: dict[int, np.ndarray] = {}
        self.container_names = tuple(c.name for c in self.containers)

    def listens(self, proto: int, port: int) -> bool:
        return (proto, port) in self._surface

    def open_ports(self, proto: int) -> tuple[int, ...]:
        return tuple(sorted(p for pr, p in self._surface if pr == proto))

    def port_lut(self, proto: int) -> np.ndarray:
        """Full 64K port lookup table: container index, -1 when closed.

        Turns the batch path's open-port test and container routing into
        one fancy-index — ``lut[dport]`` — per column.
        """
        lut = self._port_luts.get(proto)
        if lut is None:
            lut = np.full(65536, -1, dtype=np.int32)
            for i, container in enumerate(self.containers):
                ports = (container.tcp_ports if proto == TCP
                         else container.udp_ports)
                for port in ports:
                    if lut[port] < 0:  # first container wins, as _surface
                        lut[port] = i
            self._port_luts[proto] = lut
        return lut

    def log_interactions(self, entries: list[InteractionLog]) -> None:
        """Record a batch of interactions (the gateway's columnar path)."""
        self.interactions.extend(entries)
        self._m_interactions.inc(len(entries))

    def handle(self, pkt: Packet) -> list[Packet]:
        """Process a (translated) packet; return the response packets."""
        container = self._surface.get((pkt.proto, pkt.dport))
        if container is None:
            return []
        if pkt.proto == TCP:
            if pkt.is_tcp_syn:
                return [tcp_segment(
                    pkt.timestamp, pkt.dst, pkt.src, pkt.dport, pkt.sport,
                    TcpFlags.SYN | TcpFlags.ACK, seq=0, ack=pkt.seq + 1,
                )]
            if pkt.flags & TcpFlags.ACK and not pkt.payload:
                # Handshake completion: high-interaction pots speak first.
                self._m_interactions.inc()
                self.interactions.append(InteractionLog(
                    pkt.timestamp, container.name, pkt.src, TCP, pkt.dport,
                    pkt.dst,
                ))
                if container.banner:
                    return [tcp_segment(
                        pkt.timestamp, pkt.dst, pkt.src, pkt.dport, pkt.sport,
                        TcpFlags.PSH | TcpFlags.ACK, seq=1, ack=pkt.seq,
                        payload=container.banner,
                    )]
                return []
            if pkt.payload:
                self._m_interactions.inc()
                self.interactions.append(InteractionLog(
                    pkt.timestamp, container.name, pkt.src, TCP, pkt.dport,
                    pkt.dst, data=pkt.payload,
                ))
                return [tcp_segment(
                    pkt.timestamp, pkt.dst, pkt.src, pkt.dport, pkt.sport,
                    TcpFlags.ACK, seq=1, ack=pkt.seq + len(pkt.payload),
                )]
            return []
        # UDP: answer with a generic service response.
        self._m_interactions.inc()
        self.interactions.append(InteractionLog(
            pkt.timestamp, container.name, pkt.src, UDP, pkt.dport,
            pkt.dst, data=pkt.payload,
        ))
        return [udp_datagram(
            pkt.timestamp, pkt.dst, pkt.src, pkt.dport, pkt.sport,
            payload=b"\x00",
        )]


class DnatGateway:
    """The access-router DNAT stage fronting one T-Pot honeyprefix.

    Rewrites every in-prefix destination to ``prefix::1`` with a fresh
    source port, keeps the NAT log, answers ICMP for the whole (aliased)
    prefix itself, and reverse-translates T-Pot responses on the way out.
    """

    #: The traffic-derived state a scenario checkpoint carries (the T-Pot
    #: behind it contributes its interaction log).
    CHECKPOINT_FIELDS = ("nat_log", "_next_port", "_flows_d",
                         "_flow_ports_d", "_flow_seen", "_pending_flows",
                         "rx_count", "tx_count")

    def __init__(
        self,
        prefix: IPv6Prefix,
        tpot: TPotInstance,
        transmit: Callable[[Packet], None] | None = None,
        max_nat_entries: int = 1_000_000,
    ):
        self.prefix = prefix
        self.tpot = tpot
        self._transmit = transmit or (lambda pkt: None)
        self._transmit_batch: Callable[[WireBatch], None] | None = None
        self.nat_log = DnatLog()
        self.max_nat_entries = max_nat_entries
        self._next_port = 32_768
        #: (scanner addr, assigned source port) -> original destination.
        self._flows_d: dict[tuple[int, int], int] = {}
        #: (scanner addr, scanner port, original dst, proto) -> NAT port,
        #: so every packet of one flow reuses the same translation.
        self._flow_ports_d: dict[tuple[int, int, int, int], int] = {}
        #: Full (src, dst, sport, proto) key of every flow ever allocated,
        #: packed into one int — exact membership mirror of _flow_ports,
        #: testable without building Python key tuples or syncing dicts.
        self._flow_seen: set[int] = set()
        #: Column blocks of flows the batch path allocated whose dict
        #: entries have not been materialized yet (see _sync_flows).
        self._pending_flows: list[tuple] = []
        self.rx_count = 0
        self.tx_count = 0
        registry = get_registry()
        self._m_rx = registry.counter("tpot.gateway.rx")
        self._m_tx = registry.counter("tpot.gateway.tx")
        self._m_nat = registry.counter("tpot.gateway.nat_entries")

    def set_transmit(self, transmit: Callable[[Packet], None]) -> None:
        self._transmit = transmit

    def set_transmit_batch(
            self, transmit: Callable[[WireBatch], None]) -> None:
        """Columnar transmit: :meth:`handle_batch` hands its whole reply
        batch to this callback instead of materializing per-packet."""
        self._transmit_batch = transmit

    def _send(self, pkt: Packet) -> None:
        self.tx_count += 1
        self._m_tx.inc()
        self._transmit(pkt)

    @property
    def target_address(self) -> int:
        """The ``::1`` address all flows are translated to."""
        return self.prefix.network | 1

    def _assign_port(self) -> int:
        port = self._next_port
        self._next_port += 1
        if self._next_port > 60_999:
            self._next_port = 32_768
        return port

    def responds(self, address: int, proto: int, port: int | None) -> bool:
        """Responsiveness oracle: aliased ICMP + T-Pot's port surface."""
        if address not in self.prefix:
            return False
        if proto == ICMPV6:
            return True
        return port is not None and self.tpot.listens(proto, port)

    def note_dark(self, n: int) -> None:
        """Account ``n`` packets that were received but provably could not
        elicit a reply (the columnar fast path skips materializing them)."""
        self.rx_count += n
        self._m_rx.inc(n)

    def handle(self, pkt: Packet) -> None:
        """Process one packet arriving for the honeyprefix."""
        self.rx_count += 1
        self._m_rx.inc()
        if pkt.dst not in self.prefix:
            return
        if pkt.proto == ICMPV6:
            if pkt.is_icmp_echo_request:
                self._send(icmp_echo_reply(pkt))
            return
        if not self.tpot.listens(pkt.proto, pkt.dport):
            return  # closed port: captured upstream, never answered
        self._relay(pkt, self._send)

    @property
    def _flows(self) -> dict:
        if self._pending_flows:
            self._sync_flows()
        return self._flows_d

    @property
    def _flow_ports(self) -> dict:
        if self._pending_flows:
            self._sync_flows()
        return self._flow_ports_d

    def _sync_flows(self) -> None:
        """Materialize dict entries for flows the batch path allocated —
        deferred until something actually consults the dicts (the scalar
        relay, or state inspection), so pure-probe traffic never pays for
        Python key tuples."""
        pending, self._pending_flows = self._pending_flows, []
        for shi, slo, sp, dhi, dlo, pr, ports in pending:
            src128 = [(h << 64) | l
                      for h, l in zip(shi.tolist(), slo.tolist())]
            dst128 = [(h << 64) | l
                      for h, l in zip(dhi.tolist(), dlo.tolist())]
            port_list = ports.tolist()
            self._flow_ports_d.update(zip(
                zip(src128, sp.tolist(), dst128, pr.tolist()), port_list))
            self._flows_d.update(zip(zip(src128, port_list), dst128))

    def _relay(self, pkt: Packet, emit: Callable[[Packet], None]) -> None:
        """DNAT-forward one open-port packet to T-Pot, emitting each reply.

        One implementation serves the scalar path and the batch path's
        per-row fallback — there is exactly one NAT state machine.
        """
        flow_key = (pkt.src, pkt.sport, pkt.dst, pkt.proto)
        nat_port = self._flow_ports.get(flow_key)
        if nat_port is None:
            nat_port = self._assign_port()
            self._flow_ports[flow_key] = nat_port
            self._flow_seen.add(
                (pkt.src << 145) | (pkt.dst << 17) | (pkt.sport << 1)
                | (1 if pkt.proto == TCP else 0))
            self._m_nat.inc()
            if len(self.nat_log) < self.max_nat_entries:
                self.nat_log.append(
                    DnatLogEntry(pkt.timestamp, pkt.dst, nat_port)
                )
            self._flows[(pkt.src, nat_port)] = pkt.dst
        translated = Packet(
            timestamp=pkt.timestamp, src=pkt.src, dst=self.target_address,
            proto=pkt.proto, sport=nat_port, dport=pkt.dport,
            flags=pkt.flags, payload=pkt.payload, seq=pkt.seq, ack=pkt.ack,
        )
        for response in self.tpot.handle(translated):
            # response.dst is the scanner, response.dport the NAT port we
            # assigned; the flow table gives back the address the scanner
            # actually probed so the reply appears to come from it.
            original_dst = self._flows.get((response.dst, response.dport))
            emit(Packet(
                timestamp=response.timestamp,
                src=original_dst if original_dst is not None else response.src,
                dst=response.dst,
                proto=response.proto,
                sport=response.sport,
                # Restore the scanner's real source port.
                dport=pkt.sport,
                flags=response.flags,
                payload=response.payload,
                seq=response.seq,
                ack=response.ack,
            ))

    # -- columnar path ---------------------------------------------------

    def handle_batch(self, batch: PacketBatch | WireBatch) -> WireBatch:
        """Process a whole batch; returns the reply batch (row order =
        input row order, matching the per-packet reference exactly)."""
        wire = as_wire(batch)
        n = len(wire)
        self.rx_count += n
        self._m_rx.inc(n)
        out = WireBuilder()
        if n:
            self._react_batch(wire, out)
        replies = out.build()
        if len(replies):
            self.tx_count += len(replies)
            self._m_tx.inc(len(replies))
            if self._transmit_batch is not None:
                self._transmit_batch(replies)
            else:
                for pkt in replies.to_packets():
                    self._transmit(pkt)
        return replies

    def _react_batch(self, wire: WireBatch, out: WireBuilder) -> None:
        hi, lo = mask_u64(wire.dst_hi, wire.dst_lo, self.prefix.length)
        in_pref = ((hi == np.uint64((self.prefix.network >> 64) & _U64))
                   & (lo == np.uint64(self.prefix.network & _U64)))
        # ICMP: the gateway answers echo everywhere in the aliased prefix.
        echo = np.nonzero(
            in_pref & icmp_echo_request_mask(wire.proto, wire.sport))[0]
        if len(echo):
            out.append_block(
                echo, wire.ts[echo],
                wire.dst_hi[echo], wire.dst_lo[echo],
                wire.src_hi[echo], wire.src_lo[echo],
                ICMPV6, int(IcmpType.ECHO_REPLY), wire.dport[echo],
                payload_id=out.translate_ids(wire.payloads,
                                             wire.payload_id[echo]),
            )
        tcp_lut = self.tpot.port_lut(TCP)
        udp_lut = self.tpot.port_lut(UDP)
        is_tcp = wire.proto == np.uint8(TCP)
        is_udp = wire.proto == np.uint8(UDP)
        open_mask = in_pref & ((is_tcp & (tcp_lut[wire.dport] >= 0))
                               | (is_udp & (udp_lut[wire.dport] >= 0)))
        rows = np.nonzero(open_mask)[0]
        if len(rows) == 0:
            return
        tcp_sel = is_tcp[rows]
        if bool((tcp_sel & ~tcp_syn_mask(wire.flags[rows])).any()):
            # Handshake completions / data segments in the batch (test
            # traffic, not probes): run the shared NAT relay row by row.
            for i in rows.tolist():
                self._relay(wire.packet_at(i),
                            lambda p, _i=i: out.append_packet(_i, p))
            return
        # Flow allocation over distinct (src, sport, dst, proto) keys, in
        # first-appearance order — the order the scalar path would assign
        # ports and append NAT log entries in.
        cols = (wire.src_hi[rows], wire.src_lo[rows],
                wire.sport[rows].astype(np.uint64),
                wire.dst_hi[rows], wire.dst_lo[rows],
                wire.proto[rows].astype(np.uint64))
        ids, n_groups = group_ids_cols(cols)
        first = np.full(n_groups, len(rows), dtype=np.int64)
        np.minimum.at(first, ids, np.arange(len(rows), dtype=np.int64))
        # Representative row of each distinct flow, in first-appearance
        # order — the order the scalar path would assign ports in.
        rep = rows[first[np.argsort(first, kind="stable")]]
        # The whole (src, dst, sport, proto) key packs into one int, so
        # set membership against _flow_seen is exact — no tuple keys, no
        # dict materialization on the hot path.
        lowbits = ((wire.sport[rep].astype(np.int64) << 1)
                   | (wire.proto[rep] == np.uint8(TCP)).astype(np.int64))
        packed = [(sh << 209) | (sl << 145) | (dh << 81) | (dl << 17) | l
                  for sh, sl, dh, dl, l in zip(
                      wire.src_hi[rep].tolist(), wire.src_lo[rep].tolist(),
                      wire.dst_hi[rep].tolist(), wire.dst_lo[rep].tolist(),
                      lowbits.tolist())]
        seen = self._flow_seen
        new_pos = np.fromiter(
            (i for i, p in enumerate(packed) if p not in seen),
            dtype=np.int64)
        n_new = len(new_pos)
        if n_new:
            # _assign_port hands out sequential ports wrapping from 60999
            # back to 32768 — arange-modulo reproduces the series exactly.
            start = self._next_port - 32_768
            span = 61_000 - 32_768
            ports = (start + np.arange(n_new)) % span + 32_768
            self._next_port = (start + n_new) % span + 32_768
            new_rep = rep[new_pos]
            self._pending_flows.append((
                wire.src_hi[new_rep], wire.src_lo[new_rep],
                wire.sport[new_rep], wire.dst_hi[new_rep],
                wire.dst_lo[new_rep], wire.proto[new_rep], ports))
            seen.update(packed[i] for i in new_pos.tolist())
            self._m_nat.inc(n_new)
            log_room = self.max_nat_entries - len(self.nat_log)
            if log_room > 0:
                logged = new_rep[:log_room]
                self.nat_log.extend_columns(
                    wire.ts[logged],
                    wire.dst_hi[logged], wire.dst_lo[logged],
                    ports[:log_room],
                )
        # Replies are NAT-invisible: sourced from the address the scanner
        # probed, back to its real port — the reverse translation the
        # scalar path performs via the flow table, precomputed.
        tcp_idx = rows[tcp_sel]
        if len(tcp_idx):
            out.append_block(
                tcp_idx, wire.ts[tcp_idx],
                wire.dst_hi[tcp_idx], wire.dst_lo[tcp_idx],
                wire.src_hi[tcp_idx], wire.src_lo[tcp_idx],
                TCP, wire.dport[tcp_idx], wire.sport[tcp_idx],
                flags=int(TcpFlags.SYN | TcpFlags.ACK),
                seq=0, ack=wire.seq[tcp_idx] + 1,
            )
        udp_idx = rows[~tcp_sel]
        if len(udp_idx):
            names = self.tpot.container_names
            target = self.target_address
            entries = [
                InteractionLog(
                    t, names[c], (s_hi << 64) | s_lo, UDP, p, target,
                    data=b"" if pid < 0 else wire.payloads[pid],
                )
                for t, c, s_hi, s_lo, p, pid in zip(
                    wire.ts[udp_idx].tolist(),
                    udp_lut[wire.dport[udp_idx]].tolist(),
                    wire.src_hi[udp_idx].tolist(),
                    wire.src_lo[udp_idx].tolist(),
                    wire.dport[udp_idx].tolist(),
                    wire.payload_id[udp_idx].tolist(),
                )
            ]
            self.tpot.log_interactions(entries)
            out.append_block(
                udp_idx, wire.ts[udp_idx],
                wire.dst_hi[udp_idx], wire.dst_lo[udp_idx],
                wire.src_hi[udp_idx], wire.src_lo[udp_idx],
                UDP, wire.dport[udp_idx], wire.sport[udp_idx],
                payload_id=out.intern(b"\x00"),
            )

    def recover_destination(self, timestamp: float, source_port: int) -> int | None:
        """Join a T-Pot log line back to its original IPv6 destination."""
        return self.nat_log.last_match(timestamp, source_port)

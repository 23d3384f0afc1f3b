"""Scalar-vs-batch equivalence of the columnar honeypot reply path.

The contract under test: ``Twinklenet.handle_batch`` and
``DnatGateway.handle_batch`` produce byte-identical replies, state and
counters to feeding the same packets one by one through ``handle``.
Traffic is randomized per test (addresses, ports, flags, interleavings)
and every comparison is exact — replies as full ``Packet`` values in
order, session tables, NAT/interaction logs, metric snapshots.
"""

from unittest import mock

import numpy as np
import pytest

from repro.core.honeyprefix import HoneyprefixConfig, IcmpMode, deploy_addresses
from repro.core.tpot import (
    DnatGateway,
    DnatLog,
    DnatLogEntry,
    TPOT1_CONTAINERS,
    TPotInstance,
)
from repro.core.twinklenet import (
    DNS_SERVFAIL_PAYLOAD,
    NTP_KOD_PAYLOAD,
    Twinklenet,
    TwinklenetConfig,
)
from repro.net.addr import IPv6Prefix, split_u64
from repro.net.batch import PacketBatch, WireBatch, probe_batch
from repro.net.packet import (
    ICMPV6,
    TCP,
    UDP,
    IcmpType,
    Packet,
    TcpFlags,
    icmp_echo_request,
    tcp_segment,
    udp_datagram,
)
from repro.obs import MetricsRegistry, use_registry

PREFIX = IPv6Prefix.parse("2001:db8:200::/48")
ALIASED_PREFIX = IPv6Prefix.parse("2001:db8:201::/48")
TPOT_PREFIX = IPv6Prefix.parse("2001:db8:300::/48")
SRC_NET = IPv6Prefix.parse("2001:db8:f00::/48").network


def _make_pot(rng, **config_kwargs):
    """A Twinklenet over one bound and one aliased honeyprefix, plus its
    private metrics registry and transmit log."""
    defaults = dict(
        name="hp", icmp_mode=IcmpMode.ADDRESSES,
        tcp_services=(("web", (80, 443)),), udp_ports=(53, 123, 9999),
    )
    defaults.update(config_kwargs)
    bound = deploy_addresses(
        HoneyprefixConfig(**defaults), PREFIX, np.random.default_rng(99))
    aliased = deploy_addresses(
        HoneyprefixConfig(name="hp_alias", aliased=True,
                          icmp_mode=IcmpMode.FULL),
        ALIASED_PREFIX, np.random.default_rng(99))
    registry = MetricsRegistry()
    out = []
    with use_registry(registry):
        pot = Twinklenet(
            TwinklenetConfig([bound, aliased],
                             session_timeout=50.0, max_sessions=64),
            transmit=out.append)
    return pot, bound, registry, out


def _random_traffic(rng, hp, n):
    """A randomized packet mix: echo requests, TCP lifecycle segments, DNS /
    NTP / mute-port / closed-port UDP, dark addresses, both prefixes."""
    tcp_addrs = [a for a, b in hp.responsive.items() if (TCP, 80) in b]
    udp_addrs = [a for a, b in hp.responsive.items() if (UDP, 53) in b]
    icmp_addrs = hp.icmp_addresses()
    pkts = []
    ts = 0.0
    for _ in range(n):
        ts += float(rng.exponential(0.5))
        src = SRC_NET | int(rng.integers(1, 40))
        kind = int(rng.integers(0, 10))
        if kind == 0:
            dst = int(rng.choice(icmp_addrs)) if icmp_addrs else PREFIX.network | 7
            pkts.append(icmp_echo_request(ts, src, dst, payload=b"ping"))
        elif kind == 1:
            pkts.append(icmp_echo_request(
                ts, src, ALIASED_PREFIX.network | int(rng.integers(0, 1 << 20))))
        elif kind == 2:
            pkts.append(icmp_echo_request(ts, src, PREFIX.network | 0xDEAD))
        elif kind in (3, 4, 5):
            dst = int(rng.choice(tcp_addrs))
            sport = 5000 + int(rng.integers(0, 6))
            step = int(rng.integers(0, 5))
            if step == 0:
                pkts.append(tcp_segment(ts, src, dst, sport, 80,
                                        TcpFlags.SYN, seq=int(rng.integers(1, 9999))))
            elif step == 1:
                pkts.append(tcp_segment(ts, src, dst, sport, 80,
                                        TcpFlags.ACK, seq=101, ack=1))
            elif step == 2:
                pkts.append(tcp_segment(ts, src, dst, sport, 80,
                                        TcpFlags.PSH | TcpFlags.ACK,
                                        seq=101, payload=b"GET / HTTP/1.0\r\n"))
            elif step == 3:
                pkts.append(tcp_segment(ts, src, dst, sport, 80,
                                        TcpFlags.FIN | TcpFlags.ACK, seq=120))
            else:
                pkts.append(tcp_segment(ts, src, dst, sport, 80,
                                        TcpFlags.RST, seq=0))
        elif kind == 6:
            dst = int(rng.choice(udp_addrs))
            port = int(rng.choice([53, 123, 9999, 4444]))
            pkts.append(udp_datagram(ts, src, dst, 3333, port,
                                     payload=bytes(rng.integers(0, 256, 4,
                                                                dtype=np.uint8))))
        elif kind == 7:
            pkts.append(udp_datagram(ts, src, PREFIX.network | 0xBEEF, 3333, 53,
                                     payload=b"\xaa\xbb"))
        else:
            pkts.append(tcp_segment(ts, src, PREFIX.network | 0xC0DE,
                                    6000, 81, TcpFlags.SYN, seq=1))
    return pkts


def _run_scalar(pot, pkts):
    for pkt in pkts:
        pot.handle(pkt)


def _state(pot):
    return (pot._sessions, pot.sessions_completed, pot.sessions_evicted,
            pot.rx_count, pot.tx_count, pot._last_sweep)


class TestTwinklenetEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_mixed_traffic(self, seed):
        rng = np.random.default_rng(seed)
        pot_s, hp, reg_s, out_s = _make_pot(rng)
        pot_b, _, reg_b, out_b = _make_pot(rng)
        pkts = _random_traffic(rng, hp, 400)
        _run_scalar(pot_s, pkts)
        replies = pot_b.handle_batch(WireBatch.from_packets(pkts))
        assert out_b == out_s  # batch transmit falls back to per-packet
        assert replies.to_packets() == out_s
        assert _state(pot_b) == _state(pot_s)
        assert reg_b.snapshot()["counters"] == reg_s.snapshot()["counters"]

    @pytest.mark.parametrize("seed", [10, 11])
    def test_split_into_many_batches(self, seed):
        """Cutting the same stream into arbitrary batch boundaries changes
        nothing — state carries across handle_batch calls."""
        rng = np.random.default_rng(seed)
        pot_s, hp, reg_s, out_s = _make_pot(rng)
        pot_b, _, reg_b, out_b = _make_pot(rng)
        pkts = _random_traffic(rng, hp, 300)
        _run_scalar(pot_s, pkts)
        i = 0
        while i < len(pkts):
            step = int(rng.integers(1, 40))
            pot_b.handle_batch(WireBatch.from_packets(pkts[i:i + step]))
            i += step
        assert out_b == out_s
        assert _state(pot_b) == _state(pot_s)
        assert reg_b.snapshot()["counters"] == reg_s.snapshot()["counters"]

    def test_syn_flood_pure_vector_path(self):
        """All-SYN batches (probe traffic) take the vectorized segment and
        still match, including re-SYNs of the same key within a batch."""
        rng = np.random.default_rng(42)
        pot_s, hp, reg_s, out_s = _make_pot(rng)
        pot_b, _, reg_b, out_b = _make_pot(rng)
        addr = next(a for a, b in hp.responsive.items() if (TCP, 80) in b)
        pkts = [
            tcp_segment(float(i) * 0.01, SRC_NET | int(rng.integers(1, 8)),
                        addr, 5000 + int(rng.integers(0, 3)), 80,
                        TcpFlags.SYN, seq=i)
            for i in range(200)
        ]
        _run_scalar(pot_s, pkts)
        pot_b.handle_batch(WireBatch.from_packets(pkts))
        assert out_b == out_s
        assert _state(pot_b) == _state(pot_s)
        assert reg_b.snapshot()["counters"] == reg_s.snapshot()["counters"]

    def test_idle_eviction_straddles_batch_gap(self):
        """Sessions opened in one batch are sweep-evicted by a later batch
        exactly when the scalar path would evict them."""
        rng = np.random.default_rng(7)
        pot_s, hp, _, out_s = _make_pot(rng)
        pot_b, _, _, out_b = _make_pot(rng)
        addr = next(a for a, b in hp.responsive.items() if (TCP, 80) in b)
        early = [tcp_segment(1.0 + i, SRC_NET | (i + 1), addr, 5000, 80,
                             TcpFlags.SYN, seq=1) for i in range(5)]
        # timeout is 50.0: the late packets trip a sweep that evicts the
        # early sessions (idle > timeout) mid-stream.
        late = [tcp_segment(200.0 + i, SRC_NET | 99, addr, 6000 + i, 80,
                            TcpFlags.SYN, seq=1) for i in range(3)]
        _run_scalar(pot_s, early + late)
        pot_b.handle_batch(WireBatch.from_packets(early))
        pot_b.handle_batch(WireBatch.from_packets(late))
        assert pot_b.sessions_evicted == pot_s.sessions_evicted == 5
        assert _state(pot_b) == _state(pot_s)
        assert out_b == out_s

    def test_max_sessions_cap_preserves_eviction_order(self):
        """Overflowing the cap recycles oldest-inserted sessions in the
        same order on both paths."""
        rng = np.random.default_rng(13)
        pot_s, hp, _, out_s = _make_pot(rng)
        pot_b, _, _, out_b = _make_pot(rng)
        pot_s.config.max_sessions = 8
        pot_b.config.max_sessions = 8
        addr = next(a for a, b in hp.responsive.items() if (TCP, 80) in b)
        pkts = [tcp_segment(1.0 + 0.01 * i, SRC_NET | (i % 20 + 1), addr,
                            7000 + i % 3, 80, TcpFlags.SYN, seq=i)
                for i in range(40)]
        _run_scalar(pot_s, pkts)
        pot_b.handle_batch(WireBatch.from_packets(pkts))
        assert list(pot_b._sessions) == list(pot_s._sessions)  # key order
        assert _state(pot_b) == _state(pot_s)
        assert out_b == out_s

    def test_cap_bulk_eviction_and_entangled_fallback(self):
        """At-cap segments whose victims are untouched by the segment take
        the bulk eviction branch; a segment that re-SYNs a session due for
        eviction must fall back to row order — both match scalar."""
        rng = np.random.default_rng(17)
        pot_s, hp, _, out_s = _make_pot(rng)
        pot_b, _, _, out_b = _make_pot(rng)
        pot_s.config.max_sessions = 16
        pot_b.config.max_sessions = 16
        addr = next(a for a, b in hp.responsive.items() if (TCP, 80) in b)

        def syn(ts, host, sport):
            return tcp_segment(ts, SRC_NET | host, addr, sport, 80,
                               TcpFlags.SYN, seq=1)

        fill = [syn(1.0 + 0.01 * i, i + 1, 5000) for i in range(16)]
        # 8 fresh keys against a full table: bulk-evicts hosts 1..8.
        overflow = [syn(2.0 + 0.01 * i, 100 + i, 5000) for i in range(8)]
        # Re-SYN of host 9 — now the oldest live session — mixed with
        # enough fresh keys that it is both reopen target and eviction
        # victim: only row order decides, so the kernel must fall back.
        entangled = [syn(3.0, 9, 5000)] + [
            syn(3.01 + 0.01 * i, 200 + i, 5000) for i in range(10)]
        for chunk in (fill, overflow, entangled):
            _run_scalar(pot_s, chunk)
            pot_b.handle_batch(WireBatch.from_packets(chunk))
            assert list(pot_b._sessions) == list(pot_s._sessions)
            assert _state(pot_b) == _state(pot_s)
        assert out_b == out_s

    def test_cap_flood_overflow_segment(self):
        """A single all-SYN segment with more distinct new keys than the
        whole table holds (scanner flood) wipes and repopulates the table
        exactly like the scalar FIFO, including the insertion-sequence
        numbers consumed by inserts that were evicted again mid-segment."""
        rng = np.random.default_rng(29)
        pot_s, hp, reg_s, out_s = _make_pot(rng)
        pot_b, _, reg_b, out_b = _make_pot(rng)
        pot_s.config.max_sessions = 16
        pot_b.config.max_sessions = 16
        addr = next(a for a, b in hp.responsive.items() if (TCP, 80) in b)

        def syn(ts, host, sport):
            return tcp_segment(ts, SRC_NET | host, addr, sport, 80,
                               TcpFlags.SYN, seq=1)

        prefill = [syn(1.0 + 0.01 * i, i + 1, 5000) for i in range(10)]
        flood = [syn(2.0 + 0.001 * i, 500 + i, 5000) for i in range(50)]
        # The follow-up batch evicts by insertion sequence, so it can only
        # match if the flood left the exact scalar bookkeeping behind.
        after = [syn(3.0 + 0.01 * i, 900 + i, 5000) for i in range(4)]
        for chunk in (prefill, flood, after):
            _run_scalar(pot_s, chunk)
            pot_b.handle_batch(WireBatch.from_packets(chunk))
            assert list(pot_b._sessions) == list(pot_s._sessions)
            assert _state(pot_b) == _state(pot_s)
        assert out_b == out_s
        assert reg_b.snapshot()["counters"] == reg_s.snapshot()["counters"]

    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_cap_churn_randomized(self, seed):
        """Sustained all-SYN churn at a small cap with recycled keys,
        split at random batch boundaries, stays state- and reply-exact."""
        rng = np.random.default_rng(seed)
        pot_s, hp, reg_s, out_s = _make_pot(rng)
        pot_b, _, reg_b, out_b = _make_pot(rng)
        pot_s.config.max_sessions = 12
        pot_b.config.max_sessions = 12
        addr = next(a for a, b in hp.responsive.items() if (TCP, 80) in b)
        pkts = [
            tcp_segment(1.0 + 0.01 * i, SRC_NET | int(rng.integers(1, 30)),
                        addr, 5000 + int(rng.integers(0, 2)), 80,
                        TcpFlags.SYN, seq=i)
            for i in range(400)
        ]
        _run_scalar(pot_s, pkts)
        i = 0
        while i < len(pkts):
            step = int(rng.integers(1, 60))
            pot_b.handle_batch(WireBatch.from_packets(pkts[i:i + step]))
            i += step
        assert list(pot_b._sessions) == list(pot_s._sessions)
        assert _state(pot_b) == _state(pot_s)
        assert reg_b.snapshot()["counters"] == reg_s.snapshot()["counters"]
        assert out_b == out_s

    def test_dns_servfail_exact_bytes(self):
        rng = np.random.default_rng(3)
        pot_b, hp, _, _ = _make_pot(rng)
        addr = next(a for a, b in hp.responsive.items() if (UDP, 53) in b)
        query = udp_datagram(1.0, SRC_NET | 1, addr, 3333, 53,
                             payload=b"\xab\xcd\x01\x00rest")
        replies = pot_b.handle_batch(WireBatch.from_packets([query]))
        pkts = replies.to_packets()
        assert len(pkts) == 1
        assert pkts[0].payload == (
            b"\xab\xcd" + DNS_SERVFAIL_PAYLOAD + b"\x00\x00" * 4)
        # Short query: the TXID is zero-padded to two bytes.
        short = udp_datagram(2.0, SRC_NET | 1, addr, 3333, 53, payload=b"\x7f")
        pkts = pot_b.handle_batch(WireBatch.from_packets([short])).to_packets()
        assert pkts[0].payload == (
            b"\x7f\x00" + DNS_SERVFAIL_PAYLOAD + b"\x00\x00" * 4)

    def test_ntp_kod_exact_bytes(self):
        rng = np.random.default_rng(3)
        pot_b, hp, _, _ = _make_pot(rng)
        addr = next(a for a, b in hp.responsive.items() if (UDP, 123) in b)
        probe = udp_datagram(1.0, SRC_NET | 1, addr, 123, 123, payload=b"\x23")
        pkts = pot_b.handle_batch(WireBatch.from_packets([probe])).to_packets()
        assert len(pkts) == 1
        assert pkts[0].payload == NTP_KOD_PAYLOAD == b"\x24\x00\x00\x00DENY"

    def test_aliased_icmp_everywhere_bound_elsewhere(self):
        rng = np.random.default_rng(5)
        pot_b, hp, _, _ = _make_pot(rng)
        deep = ALIASED_PREFIX.network | 0xABCDEF
        pkts = pot_b.handle_batch(WireBatch.from_packets([
            icmp_echo_request(1.0, SRC_NET | 1, deep, payload=b"x"),
            icmp_echo_request(1.1, SRC_NET | 1, PREFIX.network | 0xDEAD),
        ])).to_packets()
        assert len(pkts) == 1
        assert pkts[0].src == deep
        assert pkts[0].sport == int(IcmpType.ECHO_REPLY)
        assert pkts[0].payload == b"x"


def _make_gateway():
    registry = MetricsRegistry()
    out = []
    with use_registry(registry):
        tpot = TPotInstance("tpot1", TPOT1_CONTAINERS)
        gateway = DnatGateway(TPOT_PREFIX, tpot, transmit=out.append)
    return gateway, tpot, registry, out


def _random_tpot_traffic(rng, n):
    pkts = []
    ts = 0.0
    for _ in range(n):
        ts += float(rng.exponential(0.3))
        src = SRC_NET | int(rng.integers(1, 30))
        dst = TPOT_PREFIX.network | int(rng.integers(0, 1 << 16))
        kind = int(rng.integers(0, 8))
        if kind == 0:
            pkts.append(icmp_echo_request(ts, src, dst, payload=b"pp"))
        elif kind in (1, 2, 3):
            port = int(rng.choice([22, 80, 443, 25, 9, 9200]))
            pkts.append(tcp_segment(ts, src, dst, 5000 + int(rng.integers(0, 4)),
                                    port, TcpFlags.SYN, seq=int(rng.integers(0, 999))))
        elif kind in (4, 5):
            port = int(rng.choice([53, 69, 161, 9, 5000]))
            pkts.append(udp_datagram(ts, src, dst, 4000, port,
                                     payload=bytes(rng.integers(0, 256, 3,
                                                                dtype=np.uint8))))
        else:
            pkts.append(tcp_segment(ts, src, SRC_NET | 0xFF, 5000, 80,
                                    TcpFlags.SYN, seq=1))  # out of prefix
    return pkts


def _gateway_state(gw):
    return (list(gw.nat_log), gw._flow_ports, gw._flows, gw._next_port,
            gw.rx_count, gw.tx_count, gw.tpot.interactions)


class TestTPotEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_probe_traffic(self, seed):
        rng = np.random.default_rng(seed)
        gw_s, _, reg_s, out_s = _make_gateway()
        gw_b, _, reg_b, out_b = _make_gateway()
        pkts = _random_tpot_traffic(rng, 300)
        for pkt in pkts:
            gw_s.handle(pkt)
        replies = gw_b.handle_batch(WireBatch.from_packets(pkts))
        assert out_b == out_s
        assert replies.to_packets() == out_s
        assert _gateway_state(gw_b) == _gateway_state(gw_s)
        assert reg_b.snapshot()["counters"] == reg_s.snapshot()["counters"]

    def test_nat_log_order_and_port_allocation(self):
        """The columnar NAT log records flows in first-packet order with
        the same sequential port assignment as the scalar path."""
        rng = np.random.default_rng(9)
        gw_s, _, _, _ = _make_gateway()
        gw_b, _, _, _ = _make_gateway()
        pkts = []
        for i in range(30):
            src = SRC_NET | (i % 5 + 1)
            dst = TPOT_PREFIX.network | (i % 3 + 1)
            pkts.append(tcp_segment(1.0 + i * 0.1, src, dst, 5000 + i % 2,
                                    22, TcpFlags.SYN, seq=i))
        for pkt in pkts:
            gw_s.handle(pkt)
        gw_b.handle_batch(WireBatch.from_packets(pkts))
        assert list(gw_b.nat_log) == list(gw_s.nat_log)
        assert gw_b._next_port == gw_s._next_port
        assert [e.source_port for e in gw_b.nat_log] == list(
            range(32_768, 32_768 + len(gw_b.nat_log)))

    def test_handshake_traffic_uses_exact_fallback(self):
        """Batches containing non-SYN TCP (handshake completion, data) drop
        to the shared per-row relay and still match, banners included."""
        rng = np.random.default_rng(21)
        gw_s, _, reg_s, out_s = _make_gateway()
        gw_b, _, reg_b, out_b = _make_gateway()
        src = SRC_NET | 2
        dst = TPOT_PREFIX.network | 77
        pkts = [
            tcp_segment(1.0, src, dst, 5000, 22, TcpFlags.SYN, seq=10),
            tcp_segment(1.1, src, dst, 5000, 22, TcpFlags.ACK, seq=11, ack=1),
            tcp_segment(1.2, src, dst, 5000, 22, TcpFlags.PSH | TcpFlags.ACK,
                        seq=11, payload=b"SSH-2.0-client\r\n"),
            udp_datagram(1.3, src, dst, 4000, 53, payload=b"q"),
        ]
        for pkt in pkts:
            gw_s.handle(pkt)
        gw_b.handle_batch(WireBatch.from_packets(pkts))
        assert out_b == out_s
        assert any(p.payload.startswith(b"SSH-2.0-OpenSSH") for p in out_b)
        assert _gateway_state(gw_b) == _gateway_state(gw_s)
        assert reg_b.snapshot()["counters"] == reg_s.snapshot()["counters"]

    def test_recover_destination_spans_segment_kinds(self):
        """last_match searches columnar and scalar NAT log segments alike."""
        gw, _, _, _ = _make_gateway()
        scalar_dst = TPOT_PREFIX.network | 5
        gw.handle(tcp_segment(1.0, SRC_NET | 1, scalar_dst, 5000, 22,
                              TcpFlags.SYN, seq=1))
        batch_dst = TPOT_PREFIX.network | 9
        gw.handle_batch(WireBatch.from_packets([
            tcp_segment(2.0, SRC_NET | 2, batch_dst, 6000, 80,
                        TcpFlags.SYN, seq=1)]))
        ports = [e.source_port for e in gw.nat_log]
        assert gw.recover_destination(5.0, ports[0]) == scalar_dst
        assert gw.recover_destination(5.0, ports[1]) == batch_dst
        assert gw.recover_destination(0.5, ports[0]) is None


SECOND_PREFIX = IPv6Prefix.parse("2001:db8:202::/48")


def _make_multi_owner_pot(max_sessions):
    """A Twinklenet over two bound honeyprefixes and one aliased one, with
    a short idle timeout and the given session cap."""
    rng = np.random.default_rng(99)
    bound = [
        deploy_addresses(HoneyprefixConfig(
            name=f"hp{i}", icmp_mode=IcmpMode.ADDRESSES,
            tcp_services=(("web", (80, 443)),), udp_ports=(53, 123)),
            prefix, rng)
        for i, prefix in enumerate((PREFIX, SECOND_PREFIX))
    ]
    aliased = deploy_addresses(
        HoneyprefixConfig(name="hp_alias", aliased=True,
                          icmp_mode=IcmpMode.FULL),
        ALIASED_PREFIX, rng)
    registry = MetricsRegistry()
    out = []
    with use_registry(registry):
        pot = Twinklenet(
            TwinklenetConfig(bound + [aliased], session_timeout=50.0,
                             max_sessions=max_sessions),
            transmit=out.append)
    return pot, bound, registry, out


def _lifecycle_traffic(rng, bound, n):
    """SYN, ACK, FIN, RST and payload rows (plus echo and DNS/NTP) over
    several owners, from a small key pool so follow-ups find live
    sessions; the clock occasionally jumps past the idle timeout."""
    web = [(a, port) for hp in bound for a, b in hp.responsive.items()
           for port in (80, 443) if (TCP, port) in b]
    udp = [a for hp in bound for a, b in hp.responsive.items()
           if (UDP, 53) in b]
    pkts = []
    ts = 0.0
    for _ in range(n):
        ts += float(rng.exponential(0.4))
        if rng.random() < 0.01:
            ts += 60.0
        src = SRC_NET | int(rng.integers(1, 9))
        kind = int(rng.integers(0, 12))
        if kind < 8:
            dst, dport = web[int(rng.integers(0, len(web)))]
            sport = 5000 + int(rng.integers(0, 2))
            flags, payload = [
                (TcpFlags.SYN, b""), (TcpFlags.SYN, b""), (TcpFlags.SYN, b""),
                (TcpFlags.ACK, b""),
                (TcpFlags.PSH | TcpFlags.ACK, b"GET / HTTP/1.0\r\n"),
                (TcpFlags.FIN | TcpFlags.ACK, b""), (TcpFlags.RST, b""),
                (TcpFlags.SYN, b""),
            ][kind]
            pkts.append(tcp_segment(ts, src, dst, sport, dport, flags,
                                    seq=int(rng.integers(1, 9999)),
                                    ack=1, payload=payload))
        elif kind == 8:
            pkts.append(icmp_echo_request(
                ts, src, ALIASED_PREFIX.network | int(rng.integers(0, 99))))
        elif kind == 9:
            hp = bound[int(rng.integers(0, 2))]
            pkts.append(icmp_echo_request(
                ts, src, int(rng.choice(hp.icmp_addresses()))))
        elif kind == 10:
            pkts.append(udp_datagram(
                ts, src, int(rng.choice(udp)), 3333,
                int(rng.choice([53, 123])), payload=b"\x12\x34"))
        else:
            pkts.append(tcp_segment(ts, src, SECOND_PREFIX.network | 0xC0DE,
                                    6000, 81, TcpFlags.SYN, seq=1))
    return pkts


def _split(rng, pkts, k):
    cuts = np.sort(rng.choice(np.arange(1, len(pkts)), size=k - 1,
                              replace=False))
    bounds = [0, *cuts.tolist(), len(pkts)]
    return [pkts[a:b] for a, b in zip(bounds, bounds[1:])]


def _table(pot):
    """Session table contents: keys in insertion order with timestamps."""
    return [(key, s.opened_at, s.last_seen, s.state)
            for key, s in pot._sessions.items()]


class TestKernelComposability:
    """One ``handle_batch`` call on a concatenation of batches equals one
    call per batch — the property that lets a simulated day's agents be
    merged into a single dispatch.  Agent batches carry only bare SYNs,
    so the handshake follow-ups (ACK, payload, FIN, RST) are covered here
    at kernel level."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("routed", [False, True])
    def test_twinklenet_concat_equals_sequential(self, seed, routed):
        rng = np.random.default_rng(seed)
        pot_seq, bound, reg_seq, out_seq = _make_multi_owner_pot(6)
        pot_cat, _, reg_cat, out_cat = _make_multi_owner_pot(6)
        pkts = _lifecycle_traffic(rng, bound, 500)
        parts = [WireBatch.from_packets(chunk)
                 for chunk in _split(rng, pkts, 7)]
        merged = WireBatch.from_packets(pkts)

        def owner(pot, wire):
            # The telescope passes its routing as an owner column.
            if not routed:
                return None
            return pot._owner_pos_batch(wire.dst_hi, wire.dst_lo)

        seq_replies = []
        for part in parts:
            seq_replies += pot_seq.handle_batch(
                part, owner=owner(pot_seq, part)).to_packets()
        cat_replies = pot_cat.handle_batch(
            merged, owner=owner(pot_cat, merged)).to_packets()
        assert cat_replies == seq_replies
        assert out_cat == out_seq
        assert _table(pot_cat) == _table(pot_seq)
        assert pot_cat.sessions_evicted == pot_seq.sessions_evicted
        assert _state(pot_cat) == _state(pot_seq)
        assert reg_cat.snapshot()["counters"] \
            == reg_seq.snapshot()["counters"]
        # Preconditions: the traffic completes handshakes, the cap binds
        # (an uncapped table evicts less) and sweeps fire mid-stream.
        counters = reg_seq.snapshot()["counters"]
        assert counters["twinklenet.sessions.completed"] > 0
        assert counters["twinklenet.sessions.torn_down"] > 0
        uncapped, _, _, _ = _make_multi_owner_pot(4096)
        uncapped.handle_batch(merged)
        assert pot_seq.sessions_evicted > uncapped.sessions_evicted
        assert pot_seq._last_sweep >= pkts[0].timestamp + 50.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_telescope_multi_agent_batch_equals_per_agent(self, seed):
        """A merged multi-agent batch equals one telescope call per agent
        (replies, captures, truth, honeypot state) and, for the honeypot
        state, one call per agent and per honeyprefix."""
        rng = np.random.default_rng(seed)
        merged_tel, hps = _deployed_telescope()
        per_agent_tel, _ = _deployed_telescope()
        per_slice_tel, _ = _deployed_telescope()
        logs = [_reply_log(tel)
                for tel in (merged_tel, per_agent_tel, per_slice_tel)]
        batches = [_agent_probe_batch(rng, hps, agent, 300)
                   for agent in range(6)]
        for batch in batches:
            per_agent_tel.handle_batch(batch)
            # One call per agent and per honeyprefix /48, in key order:
            # the sequence the merged call must reproduce.
            hi48 = (batch.dst_hi >> np.uint64(16)) << np.uint64(16)
            for key in np.unique(hi48):
                per_slice_tel.handle_batch(batch.select(hi48 == key))
        merged_tel.handle_batch(PacketBatch.concat(batches))

        assert logs[0] == logs[1] == logs[2]
        ra = merged_tel.capturer.to_records()
        rb = per_agent_tel.capturer.to_records()
        for column in ("ts", "src_hi", "src_lo", "dst_hi", "dst_lo",
                       "proto", "sport", "dport"):
            assert np.array_equal(getattr(ra, column), getattr(rb, column))
        assert np.array_equal(merged_tel.capturer.to_truth().origin,
                              per_agent_tel.capturer.to_truth().origin)
        for other in (per_agent_tel, per_slice_tel):
            assert merged_tel.response_count == other.response_count
            assert _table(merged_tel.twinklenet) == _table(other.twinklenet)
            assert _state(merged_tel.twinklenet) == _state(other.twinklenet)
            for name, gw in merged_tel.gateways.items():
                assert _gateway_state(gw) \
                    == _gateway_state(other.gateways[name])
        # Preconditions: both honeypot kinds answered, and sessions of
        # several agents competed for the capped table.
        assert logs[0]["twinklenet"] and logs[0]["H_TPot1"]
        assert merged_tel.twinklenet.sessions_evicted > 0


def _deployed_telescope():
    """A proactive telescope with bound, aliased and T-Pot honeyprefixes
    deployed, and a small Twinklenet session cap and idle timeout."""
    from repro.core.honeyprefix import standard_configs
    from repro.core.proactive import ProactiveTelescope
    from repro.dns.registry import Registrar, TldRegistry
    from repro.dns.resolver import Resolver
    from repro.routing.collectors import CollectorSystem
    from repro.routing.rpki import RoaRegistry
    from repro.routing.speaker import BgpSpeaker
    from repro.tlsca.acme import AcmeClient
    from repro.tlsca.ca import CertificateAuthority
    from repro.tlsca.ctlog import CtLog

    covering = IPv6Prefix.parse("2001:db8::/32")
    roa = RoaRegistry()
    speaker = BgpSpeaker(64500, CollectorSystem(rng=0, roa_registry=roa),
                         roa)
    registrar = Registrar()
    for tld in ("com", "net", "org"):
        registrar.add_tld(TldRegistry(tld))
    acme = AcmeClient(CertificateAuthority(ct_logs=[CtLog()]), registrar,
                      Resolver([registrar]))
    tel = ProactiveTelescope("NT-A", covering, speaker, registrar, acme,
                             rng=5)
    tel.twinklenet.config.max_sessions = 24
    tel.twinklenet.config.session_timeout = 300.0
    configs = {c.name: c for c in standard_configs()}
    hps = [tel.deploy(configs[name], covering.subnet_at(0x8000 + i, 48),
                      at=0.0)
           for i, name in enumerate(("H_TCP", "H_Alias", "H_TPot1",
                                     "H_Combined", "H_TPot2"))]
    return tel, hps


def _reply_log(tel):
    """Record every reply batch per honeypot, keeping the telescope's own
    reply counting."""
    log = {"twinklenet": []}

    def recorder(key):
        def transmit(replies):
            log[key].extend(replies.to_packets())
            tel._count_tx_batch(replies)
        return transmit

    tel.twinklenet.set_transmit_batch(recorder("twinklenet"))
    for name, gw in tel.gateways.items():
        log[name] = []
        gw.set_transmit_batch(recorder(name))
    return log


def _agent_probe_batch(rng, hps, agent, n):
    """One agent's day of probes: time-sorted bare SYN / echo / UDP rows at
    responsive addresses, random honeyprefix addresses and control
    space."""
    targets = [[(a, proto, port) for a, bindings in hp.responsive.items()
                for proto, port in bindings] for hp in hps]
    targets = [t for t in targets if t]
    ts = np.sort(rng.uniform(0.0, 3600.0, size=n))
    cols = {key: [] for key in ("dst", "proto", "dport")}
    for _ in range(n):
        kind = int(rng.integers(0, 4))
        if kind < 2:
            hp_targets = targets[int(rng.integers(0, len(targets)))]
            dst, proto, port = hp_targets[int(rng.integers(0,
                                                          len(hp_targets)))]
        elif kind == 2:
            hp = hps[int(rng.integers(0, len(hps)))]
            dst = hp.prefix.network | int(rng.integers(0, 1 << 20))
            proto = int(rng.choice([TCP, ICMPV6, UDP]))
            port = int(rng.choice([22, 80, 443, 53]))
        else:
            dst = IPv6Prefix.parse("2001:db8:7777::/48").network | 9
            proto, port = TCP, 80
        cols["dst"].append(dst)
        cols["proto"].append(proto)
        cols["dport"].append(0 if port is None else port)
    # A few sources per agent, all in SRC_NET (whose low half is zero).
    src_lo = (agent << 8) + rng.integers(1, 4, size=n)
    dst_hi, dst_lo = split_u64(cols["dst"])
    batch = probe_batch(
        ts, np.full(n, SRC_NET >> 64, dtype=np.uint64), src_lo,
        dst_hi, dst_lo, cols["proto"], rng.integers(32768, 61000, size=n),
        cols["dport"])
    return batch.with_origin(agent)


class TestScenarioReactParity:
    """Swapping the columnar react kernels for their per-packet references
    must not change a single byte of a scenario run: records, ground
    truth, honeypot state and counters are identical — reaction is a pure
    sink of the emission stream."""

    @pytest.fixture(scope="class")
    def pair(self):
        from repro.core.proactive import ProactiveTelescope
        from repro.sim.scenario import PaperScenario, ScenarioConfig

        def _run():
            config = ScenarioConfig(
                seed=23, duration_days=14, volume_scale=1e-4, n_tail=20,
                phase1_day=2, phase2_day=4, phase3_day=6,
                specific_start_day=8, tls_offset_days=3,
                tpot_hitlist_offset_days=5, tpot_tls_offset_days=7,
                udp_hitlist_offset_days=2, withdraw_after_days=9,
            )
            scenario = PaperScenario(config)
            for day in range(14):
                scenario.run_day(day)
            return scenario

        batch = _run()
        with mock.patch.multiple(
            ProactiveTelescope,
            _react_tpot_slice=ProactiveTelescope._react_tpot_slice_reference,
            _react_twinklenet=(
                ProactiveTelescope._react_twinklenet_reference),
        ):
            scalar = _run()
        return batch, scalar

    def test_records_identical(self, pair):
        batch, scalar = pair
        ra = batch.telescope.capturer.to_records()
        rb = scalar.telescope.capturer.to_records()
        assert len(ra) == len(rb)
        for column in ("ts", "src_hi", "src_lo", "dst_hi", "dst_lo",
                       "proto", "sport", "dport"):
            assert np.array_equal(getattr(ra, column),
                                  getattr(rb, column)), column

    def test_honeypot_state_identical(self, pair):
        batch, scalar = pair
        assert batch.telescope.response_count == scalar.telescope.response_count
        nta_b, nta_s = batch.telescope, scalar.telescope
        assert nta_b.twinklenet.rx_count == nta_s.twinklenet.rx_count
        assert nta_b.twinklenet.tx_count == nta_s.twinklenet.tx_count
        assert nta_b.twinklenet.sessions_evicted == \
            nta_s.twinklenet.sessions_evicted
        assert nta_b.twinklenet._sessions == nta_s.twinklenet._sessions
        assert set(nta_b.gateways) == set(nta_s.gateways)
        for name in nta_b.gateways:
            gw_b, gw_s = nta_b.gateways[name], nta_s.gateways[name]
            assert list(gw_b.nat_log) == list(gw_s.nat_log)
            assert gw_b._next_port == gw_s._next_port
            assert gw_b.rx_count == gw_s.rx_count
            assert gw_b.tx_count == gw_s.tx_count
            assert gw_b.tpot.interactions == gw_s.tpot.interactions


class TestDnatLog:
    def test_list_semantics(self):
        log = DnatLog()
        assert log == [] and len(log) == 0 and not log
        entries = [DnatLogEntry(float(i), 100 + i, 32768 + i) for i in range(3)]
        for e in entries:
            log.append(e)
        log.extend_columns(
            np.asarray([3.0, 4.0]), np.asarray([0, 0], dtype=np.uint64),
            np.asarray([200, 201], dtype=np.uint64),
            np.asarray([40000, 40001]))
        entries += [DnatLogEntry(3.0, 200, 40000), DnatLogEntry(4.0, 201, 40001)]
        assert len(log) == 5
        assert list(log) == entries
        assert list(reversed(log)) == entries[::-1]
        assert log[0] == entries[0] and log[-1] == entries[-1]
        assert log[1:3] == entries[1:3]
        assert log == entries
        with pytest.raises(IndexError):
            log[5]

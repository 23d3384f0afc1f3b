"""Tests for jaccard, asinfo, effects helpers, scope, tactics, hilbert."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro._util import DAY
from repro.analysis.asinfo import MetadataJoiner
from repro.analysis.effects import convergence_day, daily_series
from repro.analysis.hilbert import (
    hilbert_d2xy,
    hilbert_map,
    hilbert_xy2d,
    prefix_cells,
)
from repro.analysis.jaccard import (
    jaccard_matrix,
    jaccard_similarity,
    overlap_report,
)
from repro.analysis.records import PacketRecords
from repro.analysis.scope import scanner_scope
from repro.analysis.tactics import label_tactics, label_tactics_reference
from repro.core.features import Feature
from repro.core.honeyprefix import HoneyprefixConfig, IcmpMode, deploy_addresses
from repro.datasets.asdb import AsCategory, AsDatabase, AsRecord
from repro.datasets.geodb import GeoDatabase
from repro.datasets.prefix2as import Prefix2As
from repro.net.addr import IPv6Prefix
from repro.net.packet import (
    TCP,
    TcpFlags,
    icmp_echo_request,
    tcp_segment,
    udp_datagram,
)

COVERING = IPv6Prefix.parse("2001:db8::/32")
HONEY = COVERING.subnet_at(0x8001, 48)
SRC_A = IPv6Prefix.parse("2620:1::/32").network | 1
SRC_B = IPv6Prefix.parse("2620:2::/32").network | 1


class TestJaccard:
    def test_similarity_basics(self):
        assert jaccard_similarity({1, 2}, {2, 3}) == pytest.approx(1 / 3)
        assert jaccard_similarity(set(), set()) == 0.0
        assert jaccard_similarity({1}, {1}) == 1.0

    def test_overlap_report_shares(self):
        a = PacketRecords.from_packets(
            [icmp_echo_request(1.0, SRC_A, 9)] * 9
            + [icmp_echo_request(2.0, SRC_B, 8)]
        )
        b = PacketRecords.from_packets([icmp_echo_request(1.0, SRC_A, 7)])
        rep = overlap_report("A", a, "B", b, 64)
        assert rep.jaccard == pytest.approx(0.5)
        assert rep.shared_traffic_share_a == pytest.approx(0.9)
        assert rep.shared_traffic_share_b == 1.0

    def test_matrix_levels(self):
        a = PacketRecords.from_packets([icmp_echo_request(1.0, SRC_A, 9)])
        b = PacketRecords.from_packets([icmp_echo_request(1.0, SRC_A, 7)])
        matrix = jaccard_matrix({"A": a, "B": b})
        assert matrix[("A", "B", 128)] == 1.0
        assert len(matrix) == 3


class TestMetadataJoiner:
    @pytest.fixture
    def joiner(self):
        p2a = Prefix2As()
        p2a.add(IPv6Prefix.parse("2620:1::/32"), 111)
        p2a.add(IPv6Prefix.parse("2620:2::/32"), 222)
        db = AsDatabase(misclassification_rate=0.0)
        db.register(AsRecord(111, "AS-A", AsCategory.HOSTING_CLOUD, "US"))
        db.register(AsRecord(222, "AS-B", AsCategory.INTERNET_SCANNER, "DE"))
        geo = GeoDatabase()
        geo.add(IPv6Prefix.parse("2620:1::/32"), "US")
        geo.add(IPv6Prefix.parse("2620:2::/32"), "DE")
        return MetadataJoiner(p2a, db, geo)

    @pytest.fixture
    def records(self):
        return PacketRecords.from_packets(
            [icmp_echo_request(float(i), SRC_A, i) for i in range(8)]
            + [tcp_segment(9.0, SRC_B, 99, 4000, 443, TcpFlags.SYN)]
        )

    def test_top_asns(self, joiner, records):
        rows = joiner.top_asns(records, n=2)
        assert rows[0].asn == 111
        assert rows[0].packets == 8
        assert rows[0].share == pytest.approx(8 / 9)
        assert rows[1].name == "AS-B"

    def test_category_breakdown(self, joiner, records):
        cats = joiner.category_breakdown(records)
        cloud = cats[AsCategory.HOSTING_CLOUD]
        assert cloud.packets == 8
        assert cloud.dominant_protocol == "icmpv6"
        scanner = cats[AsCategory.INTERNET_SCANNER]
        assert scanner.dominant_protocol == "tcp"
        assert scanner.unique_sources_128 == 1

    def test_country_breakdown(self, joiner, records):
        countries = joiner.country_breakdown(records)
        assert countries == {"US": 1, "DE": 1}

    def test_full_breakdown(self, joiner, records):
        breakdown = joiner.breakdown(records)
        assert breakdown.total_packets == 9
        assert breakdown.total_asns == 2
        assert breakdown.protocol_shares["icmpv6"] == pytest.approx(8 / 9)

    def test_unmapped_source_gets_zero(self, joiner):
        records = PacketRecords.from_packets([icmp_echo_request(0.0, 5, 9)])
        assert joiner.row_asns(records).tolist() == [0]


class TestEffectsHelpers:
    def test_daily_series_asns_requires_joiner(self):
        with pytest.raises(ValueError):
            daily_series(PacketRecords.empty(), 0, DAY, "asns")

    def test_daily_series_unknown_metric(self):
        with pytest.raises(ValueError):
            daily_series(PacketRecords.empty(), 0, DAY, "bogus")

    def test_convergence_day(self):
        series = np.concatenate([np.array([100.0, 80, 60, 40, 20]),
                                 np.full(20, 5.0)])
        day = convergence_day(series, window=5, threshold_fraction=0.25)
        assert day is not None and 3 <= day <= 6

    def test_convergence_never(self):
        series = np.full(30, 100.0)
        assert convergence_day(series) is None

    def test_convergence_short_series(self):
        assert convergence_day(np.array([1.0])) is None


class TestScope:
    def test_scope_counts(self):
        hp2 = COVERING.subnet_at(0x8002, 48)
        pkts = (
            [icmp_echo_request(1.0, SRC_A, HONEY.network | 1)]
            + [icmp_echo_request(2.0, SRC_A, hp2.network | 1)]
            + [icmp_echo_request(3.0, SRC_B, HONEY.network | 2)]
            + [icmp_echo_request(4.0, SRC_B, COVERING.subnet_at(3, 48).network | 1)]
        )
        records = PacketRecords.from_packets(pkts)
        report = scanner_scope(records, COVERING, [HONEY, hp2])
        assert report.fraction_at_most(2) == 1.0
        assert report.honeyprefix_traffic_share == pytest.approx(0.75)
        assert report.low_prefix_share_of_other == 1.0
        assert report.wide_scanners == 0

    def test_empty_records(self):
        report = scanner_scope(PacketRecords.empty(), COVERING, [])
        assert report.honeyprefix_traffic_share == 0.0

    def test_cdf(self):
        records = PacketRecords.from_packets(
            [icmp_echo_request(1.0, SRC_A, HONEY.network | 1)]
        )
        report = scanner_scope(records, COVERING, [HONEY])
        x, f = report.cdf()
        assert x.tolist() == [1] and f.tolist() == [1.0]


class TestTactics:
    @pytest.fixture
    def honeypot(self, rng):
        config = HoneyprefixConfig(
            name="H_X", icmp_mode=IcmpMode.ADDRESSES, udp_ports=(53,),
        )
        hp = deploy_addresses(config, HONEY, rng)
        hp.record(0.0, Feature.BGP)
        hp.domain_targets["bait.com"] = HONEY.network | 0xD0
        hp.manual_hitlist_addresses.append(HONEY.network | 0x111)
        hp.record(100.0, Feature.DOMAIN)
        hp.record(500.0, Feature.TLS_ROOT)
        hp.record(300.0, Feature.HITLIST)
        return hp

    @pytest.mark.parametrize("source_length", (32, 48, 64))
    @pytest.mark.parametrize("seed", range(3))
    def test_randomized_matches_reference(self, honeypot, seed,
                                          source_length):
        """The vectorized labeler equals the per-packet reference on mixed
        ICMP/TCP/UDP probes to domain, hitlist, responsive and dark
        addresses, before and after every feature time."""
        rng = np.random.default_rng(seed)
        targets = [HONEY.network | 0xD0, HONEY.network | 0x111,
                   HONEY.network | 0xFFFF, *sorted(honeypot.responsive)[:6]]
        base = IPv6Prefix.parse("2620:1::/32").network
        packets = []
        for _ in range(200):
            ts = float(rng.uniform(0.0, 1_000.0))
            src = (base | (int(rng.integers(16)) << 80)
                   | (int(rng.integers(3)) << 64) | int(rng.integers(1, 9)))
            dst = targets[int(rng.integers(len(targets)))]
            kind = int(rng.integers(3))
            if kind == 0:
                packets.append(icmp_echo_request(ts, src, dst))
            elif kind == 1:
                packets.append(tcp_segment(
                    ts, src, dst, 40_000, (22, 80, 443)[int(rng.integers(3))],
                    TcpFlags.SYN))
            else:
                packets.append(udp_datagram(
                    ts, src, dst, 40_000, (53, 123)[int(rng.integers(2))]))
        records = PacketRecords.from_packets(packets)
        report = label_tactics(records, honeypot, source_length)
        assert report == label_tactics_reference(records, honeypot,
                                                 source_length)
        # Every source sits in one /32, so only /48 and /64 split them.
        assert source_length == 32 or len(report.combos) > 1

    def test_icmp_vs_other(self, honeypot):
        records = PacketRecords.from_packets([
            icmp_echo_request(10.0, SRC_A, HONEY.network | 1),
            icmp_echo_request(11.0, SRC_A, HONEY.network | 0xFFFF),
        ])
        report = label_tactics(records, honeypot)
        assert report == label_tactics_reference(records, honeypot)
        assert report.combos == {"IO": 1}

    def test_domain_vs_tls_by_time(self, honeypot):
        records = PacketRecords.from_packets([
            tcp_segment(200.0, SRC_A, HONEY.network | 0xD0, 1, 80,
                        TcpFlags.SYN),
            tcp_segment(600.0, SRC_B, HONEY.network | 0xD0, 1, 443,
                        TcpFlags.SYN),
        ])
        report = label_tactics(records, honeypot)
        assert report == label_tactics_reference(records, honeypot)
        assert report.combos["D"] == 1   # pre-TLS: zone file
        assert report.combos["d"] == 1   # post-TLS: CT log

    def test_hitlist_attribution(self, honeypot):
        records = PacketRecords.from_packets([
            icmp_echo_request(400.0, SRC_A, HONEY.network | 0x111),
        ])
        report = label_tactics(records, honeypot)
        assert report == label_tactics_reference(records, honeypot)
        assert report.combos == {"H": 1}
        assert report.sources_using("H") == 1

    def test_udp_attribution(self, honeypot, rng):
        udp_addr = next(a for a, b in honeypot.responsive.items()
                        if any(p == 17 for p, _ in b))
        records = PacketRecords.from_packets([
            udp_datagram(10.0, SRC_A, udp_addr, 1, 53),
        ])
        report = label_tactics(records, honeypot)
        assert report == label_tactics_reference(records, honeypot)
        assert report.combos == {"U": 1}

    def test_source_aggregation(self, honeypot):
        base = IPv6Prefix.parse("2620:1::/48").network
        records = PacketRecords.from_packets([
            icmp_echo_request(10.0, base | 1, HONEY.network | 1),
            icmp_echo_request(11.0, base | 2, HONEY.network | 0xBAD),
        ])
        report = label_tactics(records, honeypot, source_length=48)
        assert report == label_tactics_reference(records, honeypot,
                                                 source_length=48)
        assert report.total_sources == 1
        assert report.combos == {"IO": 1}


class TestHilbert:
    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    def test_roundtrip_order8(self, d):
        x, y = hilbert_d2xy(8, d)
        assert hilbert_xy2d(8, x, y) == d

    def test_adjacent_distances_are_neighbors(self):
        for d in range(0, 1000):
            x1, y1 = hilbert_d2xy(8, d)
            x2, y2 = hilbert_d2xy(8, d + 1)
            assert abs(x1 - x2) + abs(y1 - y2) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            hilbert_d2xy(8, 1 << 16)
        with pytest.raises(ValueError):
            hilbert_xy2d(8, 256, 0)

    def test_map_counts(self):
        records = PacketRecords.from_packets([
            icmp_echo_request(1.0, SRC_A, HONEY.network | 5),
            icmp_echo_request(2.0, SRC_A, HONEY.network | 6),
            icmp_echo_request(3.0, SRC_A, 42),  # outside: ignored
        ])
        grid = hilbert_map(records, COVERING)
        assert grid.shape == (256, 256)
        assert grid.sum() == 2.0

    def test_map_rejects_odd_bits(self):
        with pytest.raises(ValueError):
            hilbert_map(PacketRecords.empty(), COVERING, cell_length=47)

    def test_prefix_cells(self):
        cells = prefix_cells([HONEY], COVERING)
        assert len(cells) == 1
        x, y = cells[0]
        assert 0 <= x < 256 and 0 <= y < 256
        with pytest.raises(ValueError):
            prefix_cells([IPv6Prefix.parse("2002::/48")], COVERING)

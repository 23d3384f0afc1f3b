"""Scan-tactic attribution (§5.4, Figure 11).

For each (scanner source /48, honeyprefix) pair, determine which deployed
features the scanner's probes match: protocol + destination port identify
ICMP/TCP/UDP probing; destination addresses identify domain, subdomain, and
hitlist targets; and probe *timing* disambiguates features sharing addresses
and ports — a probe to a domain-target web port before TLS issuance is
attributed to the domain (zone files), after issuance to the certificate
(CT logs).  Probes matching nothing responsive get the catch-all ``O``.

:func:`label_tactics` runs the vectorized labeler :func:`day_tactics`,
which evaluates the per-probe decision tree once per distinct
(destination, protocol, port, feature-time) tuple.  The per-packet loop
is retained as :func:`label_tactics_reference`, the oracle of the
equivalence tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.analysis.records import PacketRecords
from repro.core.features import Feature, combo_label
from repro.core.honeyprefix import Honeyprefix
from repro.net.addr import _cached_mask, mask_u64
from repro.net.packet import ICMPV6, TCP, UDP
from repro.obs import get_tracer


@dataclass(frozen=True)
class TacticReport:
    """Figure 11 data for one honeyprefix."""

    honeyprefix: str
    #: combination label (e.g. "ID", "ITH") -> number of scanner sources.
    combos: Counter
    #: total scanner sources observed.
    total_sources: int

    def sources_using(self, code: str) -> int:
        """Sources whose combination includes feature code ``code``."""
        return sum(n for label, n in self.combos.items() if code in label)


def _classify_probe(
    hp: Honeyprefix,
    ts: float,
    dst: int,
    proto: int,
    dport: int,
    tls_root_time: float | None,
    tls_sub_time: float | None,
    hitlist_time: float | None,
) -> Feature:
    """Attribute one probe to one feature."""
    domain_addrs = set(hp.domain_targets.values())
    sub_addrs = set(hp.subdomain_targets.values())
    manual = set(hp.manual_hitlist_addresses)

    if dst in manual and hitlist_time is not None and ts >= hitlist_time:
        return Feature.HITLIST
    if dst in domain_addrs:
        if tls_root_time is not None and ts >= tls_root_time:
            return Feature.TLS_ROOT
        return Feature.DOMAIN
    if dst in sub_addrs:
        if tls_sub_time is not None and ts >= tls_sub_time:
            return Feature.TLS_SUB
        return Feature.SUBDOMAIN
    if proto == ICMPV6:
        return Feature.ICMP if hp.responds(dst, ICMPV6, None) else Feature.OTHER
    if proto == TCP:
        return Feature.TCP if hp.responds(dst, TCP, dport) else Feature.OTHER
    if proto == UDP:
        return Feature.UDP if hp.responds(dst, UDP, dport) else Feature.OTHER
    return Feature.OTHER


def label_tactics(
    records: PacketRecords,
    hp: Honeyprefix,
    source_length: int = 48,
) -> TacticReport:
    """Build the Figure 11 tactic combinations for one honeyprefix.

    ``records`` should already be restricted to traffic destined to the
    honeyprefix (use ``records.select(records.mask_dst_in(hp.prefix))``).
    """
    with get_tracer().span("analysis.label_tactics", honeyprefix=hp.name,
                           records=len(records)):
        combos, total_sources = day_tactics(records, hp, source_length)
    return TacticReport(honeyprefix=hp.name, combos=combos,
                        total_sources=total_sources)


#: Feature code order for the vectorized classifier: the index of a
#: feature here is its bit in the per-source combination mask.  Only the
#: features :func:`_classify_probe` can return.
_TACTIC_FEATURES = (
    Feature.ICMP, Feature.TCP, Feature.UDP, Feature.DOMAIN,
    Feature.TLS_ROOT, Feature.SUBDOMAIN, Feature.TLS_SUB,
    Feature.HITLIST, Feature.OTHER,
)


def _classify_distinct(hp: Honeyprefix, dst_hi, dst_lo, meta) -> np.ndarray:
    """Classify each distinct ``(dst, proto, dport, flags)`` probe tuple.

    The same decision tree as :func:`_classify_probe`, restructured for
    bulk input.  A destination only classifies off the default path when
    it is one of the honeyprefix's *special* addresses — a
    domain/subdomain target, a manual hitlist entry, or an address with a
    responsive binding — and those number in the dozens while the day's
    distinct destinations number in the thousands.  So the default codes
    (aliased-prefix ICMP or the catch-all OTHER) are assigned vectorized,
    and the python decision tree runs only over candidates whose high
    address half matches a special address's.  Returns one
    ``_TACTIC_FEATURES`` index per tuple.
    """
    domain_addrs = set(hp.domain_targets.values())
    sub_addrs = set(hp.subdomain_targets.values())
    manual = set(hp.manual_hitlist_addresses)
    responsive = hp.responsive
    aliased = hp.config.aliased
    pmask = _cached_mask(hp.prefix.length)
    pnet = hp.prefix.network
    icmp_echo = (ICMPV6, None)

    proto_arr = meta >> np.uint64(32)
    codes = np.full(len(dst_hi), 8, dtype=np.uint16)  # OTHER
    if aliased:
        hi_m, lo_m = mask_u64(dst_hi, dst_lo, hp.prefix.length)
        in_prefix = (hi_m == np.uint64(pnet >> 64)) \
            & (lo_m == np.uint64(pnet & 0xFFFFFFFFFFFFFFFF))
        codes[(proto_arr == ICMPV6) & in_prefix] = 0  # ICMP

    special = domain_addrs | sub_addrs | manual | set(responsive)
    if not special:
        return codes
    special_hi = np.fromiter((a >> 64 for a in special), dtype=np.uint64,
                             count=len(special))
    candidates = np.flatnonzero(np.isin(dst_hi, special_hi))
    hi_list, lo_list = dst_hi[candidates].tolist(), dst_lo[candidates].tolist()
    meta_list = meta[candidates].tolist()
    for k, j in enumerate(candidates.tolist()):
        m = meta_list[k]
        dst = (hi_list[k] << 64) | lo_list[k]
        if dst in manual and m & 4:
            code = 7  # HITLIST
        elif dst in domain_addrs:
            code = 4 if m & 1 else 3  # TLS_ROOT / DOMAIN
        elif dst in sub_addrs:
            code = 6 if m & 2 else 5  # TLS_SUB / SUBDOMAIN
        else:
            proto = m >> 32
            bindings = responsive.get(dst)
            if proto == ICMPV6:
                responds = (aliased and dst & pmask == pnet) \
                    or (bindings and icmp_echo in bindings)
                code = 0 if responds else 8  # ICMP / OTHER
            elif proto == TCP:
                code = 1 if bindings and (TCP, (m >> 8) & 0xFFFF) \
                    in bindings else 8
            elif proto == UDP:
                code = 2 if bindings and (UDP, (m >> 8) & 0xFFFF) \
                    in bindings else 8
            else:
                code = 8  # OTHER
        codes[j] = code
    return codes


def day_tactics(records: PacketRecords, hp: Honeyprefix,
                source_length: int = 48) -> tuple[Counter, int]:
    """Figure 11 tactic combos for one honeyprefix: ``(combos, sources)``.

    The vectorized labeler behind :func:`label_tactics`, which the
    observatory also runs on every day's records (hence the name).
    Equivalent to :func:`label_tactics_reference` on the same
    (honeyprefix-restricted) records, pinned by equivalence tests.
    Classification is independent of the probe's *source*: it depends
    only on ``(dst, proto, dport, ts-vs-feature-thresholds)``, with the
    timestamp thresholds folded into three boolean flags so any packet of
    a tuple classifies identically.  The python decision tree therefore
    runs once per distinct tuple; everything else — the dedupe, mapping
    features back onto packets, and collapsing packets into per-source
    feature-combination masks — is numpy.
    """
    if not 0 < source_length <= 64:
        raise ValueError(f"source_length must be in (0, 64]: {source_length}")
    combos: Counter = Counter()
    n = len(records)
    if n == 0:
        return combos, 0
    t_root = hp.feature_time(Feature.TLS_ROOT)
    t_sub = hp.feature_time(Feature.TLS_SUB)
    t_hit = hp.feature_time(Feature.HITLIST)

    def flag(threshold, bit):
        if threshold is None:
            return np.zeros(n, dtype=np.uint64)
        return (records.ts >= threshold).astype(np.uint64) << np.uint64(bit)

    # proto (bits 32+), dport (bits 8..23), and the three threshold flags
    # (bits 0..2) packed into one key so the dedupe is a 3-key lexsort.
    meta = ((records.proto.astype(np.uint64) << np.uint64(32))
            | (records.dport.astype(np.uint64) << np.uint64(8))
            | flag(t_root, 0) | flag(t_sub, 1) | flag(t_hit, 2))
    order = np.lexsort((meta, records.dst_lo, records.dst_hi))
    hi_s, lo_s = records.dst_hi[order], records.dst_lo[order]
    meta_s = meta[order]
    firsts = np.ones(n, dtype=bool)
    firsts[1:] = ((hi_s[1:] != hi_s[:-1]) | (lo_s[1:] != lo_s[:-1])
                  | (meta_s[1:] != meta_s[:-1]))
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.cumsum(firsts) - 1

    codes = _classify_distinct(
        hp, hi_s[firsts], lo_s[firsts], meta_s[firsts])

    # Per-source feature masks: dedupe (source, feature) pairs on one
    # packed u64 key when the source fits, then OR the feature bits of
    # each source's run.  Sources wider than 60 bits fall back to a
    # 2-key lexsort; the downstream is identical.
    feature = codes[inverse].astype(np.uint64)
    source = records.src_hi >> np.uint64(64 - source_length)
    if source_length <= 60:
        packed = np.sort((source << np.uint64(4)) | feature)
        keep = np.ones(n, dtype=bool)
        keep[1:] = packed[1:] != packed[:-1]
        pairs = packed[keep]
        pair_src, pair_feat = pairs >> np.uint64(4), pairs & np.uint64(0xF)
    else:
        order2 = np.lexsort((feature, source))
        src_s, feat_s = source[order2], feature[order2]
        keep = np.ones(n, dtype=bool)
        keep[1:] = (src_s[1:] != src_s[:-1]) | (feat_s[1:] != feat_s[:-1])
        pair_src, pair_feat = src_s[keep], feat_s[keep]
    starts = np.ones(len(pair_src), dtype=bool)
    starts[1:] = pair_src[1:] != pair_src[:-1]
    start_idx = np.flatnonzero(starts)
    masks = np.bitwise_or.reduceat(
        np.uint16(1) << pair_feat.astype(np.uint16), start_idx)

    for mask, count in zip(*np.unique(masks, return_counts=True)):
        features = {f for k, f in enumerate(_TACTIC_FEATURES)
                    if mask >> k & 1}
        combos[combo_label(features)] += int(count)
    return combos, len(start_idx)


def label_tactics_reference(
    records: PacketRecords,
    hp: Honeyprefix,
    source_length: int = 48,
) -> TacticReport:
    """Per-packet reference implementation of :func:`label_tactics`.

    Kept as the ground truth for the equivalence tests.
    """
    tls_root_time = hp.feature_time(Feature.TLS_ROOT)
    tls_sub_time = hp.feature_time(Feature.TLS_SUB)
    hitlist_time = hp.feature_time(Feature.HITLIST)

    shift = 128 - source_length
    per_source: dict[int, set[Feature]] = {}
    src_iter = records.src_addresses()
    dst_iter = records.dst_addresses()
    for i in range(len(records)):
        src = next(src_iter)
        dst = next(dst_iter)
        source = (src >> shift) << shift if shift else src
        feature = _classify_probe(
            hp,
            float(records.ts[i]),
            dst,
            int(records.proto[i]),
            int(records.dport[i]),
            tls_root_time,
            tls_sub_time,
            hitlist_time,
        )
        per_source.setdefault(source, set()).add(feature)

    combos: Counter = Counter()
    for features in per_source.values():
        combos[combo_label(features)] += 1
    return TacticReport(
        honeyprefix=hp.name,
        combos=combos,
        total_sources=len(per_source),
    )

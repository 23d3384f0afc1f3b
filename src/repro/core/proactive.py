"""The proactive telescope orchestrator.

Owns the whole deployment from Figure 4: the BGP speaker (BIRD), the
registrar/ACME clients driving the attraction features, Twinklenet, the
T-Pot gateways, and the packet capturer.  ``deploy()`` turns a
:class:`~repro.core.honeyprefix.HoneyprefixConfig` into a live honeyprefix
and records every feature activation on the honeyprefix's timeline — the
ground truth that the tactic-attribution analysis (Fig. 11) joins against.

The telescope also implements the hitlist prober's responsiveness oracle,
so the public hitlist discovers honeyprefix addresses exactly the way the
real one did.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro._util import make_rng
from repro.core.capture import PacketCapturer
from repro.core.features import Feature
from repro.core.honeyprefix import (
    Honeyprefix,
    HoneyprefixConfig,
    WEB_PORTS,
    deploy_addresses,
)
from repro.core.tpot import (
    DnatGateway,
    TPOT1_CONTAINERS,
    TPOT2_CONTAINERS,
    TPotInstance,
)
from repro.core.twinklenet import Twinklenet, TwinklenetConfig
from repro.core.wordlists import common_subdomains
from repro.dns.registry import Registrar
from repro.dns.reverse import ReverseZone
from repro.hitlist.categories import HitlistCategory
from repro.hitlist.service import HitlistService
from repro.net.addr import IPv6Prefix, member_mask_cols, member_mask_u64
from repro.net.batch import PacketBatch, WireBatch
from repro.net.packet import ICMPV6, TCP, UDP, Packet
from repro.obs import get_journal, get_registry, get_tracer
from repro.routing.speaker import BgpSpeaker
from repro.tlsca.acme import AcmeClient
from repro.tlsca.ca import RateLimitExceeded

#: Let's Encrypt weekly limit kept 50 subdomain certificates per paper §4.3.2.
MAX_SUBDOMAIN_CERTS = 50


class ProactiveTelescope:
    """The full proactive telescope deployed inside an ISP's /32."""

    def __init__(
        self,
        name: str,
        covering_prefix: IPv6Prefix,
        speaker: BgpSpeaker,
        registrar: Registrar | None = None,
        acme: AcmeClient | None = None,
        hitlist: HitlistService | None = None,
        reverse_zone: ReverseZone | None = None,
        rng: np.random.Generator | int | None = 0,
        subdomain_count: int = 374,
    ):
        self.name = name
        self.covering_prefix = covering_prefix
        self.speaker = speaker
        self.registrar = registrar
        self.acme = acme
        self.hitlist = hitlist
        self.reverse_zone = reverse_zone
        self._rng = make_rng(rng)
        self.subdomain_names = common_subdomains(subdomain_count)
        self.capturer = PacketCapturer(name=f"{name}-capture")
        self.twinklenet = Twinklenet(TwinklenetConfig())
        self.honeyprefixes: list[Honeyprefix] = []
        #: fast lookup: /48 network int -> honeyprefix (every honeyprefix
        #: occupies a distinct /48 container).
        self._hp_by_48: dict[int, Honeyprefix] = {}
        self.gateways: dict[str, DnatGateway] = {}
        self._domain_counter = itertools.count(1)
        self.response_count = 0
        #: Cached sorted honeyprefix /48 key column for handle_batch, and
        #: each key's Twinklenet position; invalidated whenever a deploy
        #: adds a honeyprefix.
        self._hp_keys_hi: np.ndarray | None = None
        self._hp_twinkle_pos: np.ndarray | None = None

        def _count_tx(_pkt: Packet) -> None:
            self.response_count += 1

        def _count_tx_batch(replies: WireBatch) -> None:
            self.response_count += len(replies)

        self.twinklenet.set_transmit(_count_tx)
        self.twinklenet.set_transmit_batch(_count_tx_batch)
        self._count_tx = _count_tx
        self._count_tx_batch = _count_tx_batch

    # -- deployment ------------------------------------------------------

    def deploy(
        self,
        config: HoneyprefixConfig,
        prefix: IPv6Prefix,
        at: float,
    ) -> Honeyprefix:
        """Deploy one honeyprefix at time ``at``.

        Performs the initial feature set: ROA + BGP announcement, domain and
        subdomain registration, honeypot wiring, reverse-DNS records.  TLS
        issuance and manual hitlist insertion are separate triggers — call
        :meth:`issue_tls` / :meth:`insert_hitlist` on the paper's schedule.
        """
        if not self.covering_prefix.contains_prefix(prefix):
            raise ValueError(
                f"{prefix} is outside the telescope's {self.covering_prefix}"
            )
        hp = deploy_addresses(config, prefix, self._rng)
        hp.deployed_at = at
        self.honeyprefixes.append(hp)
        key = (prefix.network >> 80) << 80
        if key in self._hp_by_48:
            raise ValueError(f"a honeyprefix already occupies {prefix}")
        self._hp_by_48[key] = hp
        self._hp_keys_hi = None

        self._deploy_bgp(hp, at)
        if config.domains:
            self._deploy_domains(hp, at)
        if config.tpot:
            self._deploy_tpot(hp, at)
        else:
            self.twinklenet.config.honeyprefixes.append(hp)
        if config.rdns:
            self._deploy_rdns(hp, at)

        # Reaction features are active from deployment.
        if config.aliased:
            hp.record(at, Feature.ALIASED)
        if hp.icmp_addresses() or config.aliased:
            hp.record(at, Feature.ICMP)
        if config.tcp_services or config.web_on_domain_ips or config.tpot:
            hp.record(at, Feature.TCP)
        if config.udp_ports or config.tpot:
            hp.record(at, Feature.UDP)
        get_journal().emit("deploy", name=hp.name, prefix=str(prefix), at=at)
        return hp

    def _deploy_bgp(self, hp: Honeyprefix, at: float) -> None:
        announced = hp.announced_prefix
        if self.speaker.roa_registry is not None:
            self.speaker.register_roa(announced, at=at)
        if hp.config.announce_fails:
            # H_TCP: configured in BIRD but never propagated.  Keep it in
            # the local RIB only; no BGP feature ever activates.
            from repro.routing.rib import Route

            self.speaker.local_rib.insert(Route(
                prefix=announced, origin_asn=self.speaker.asn,
                as_path=(self.speaker.asn,), installed_at=at,
            ))
            return
        self.speaker.announce(announced, at=at)
        visible = [
            event.visible_at
            for collector in self.speaker.collectors.collectors
            for event in collector.events()
            if not event.is_withdrawal and event.update.prefix == announced
        ]
        # Experiment start = first visibility at a public collector (§3.2).
        hp.record(min(visible) if visible else at, Feature.BGP)

    def _deploy_domains(self, hp: Honeyprefix, at: float) -> None:
        if self.registrar is None:
            raise RuntimeError("domain features require a registrar")
        for tld in hp.config.domains:
            n = next(self._domain_counter)
            domain = f"hp{n:02d}-{hp.prefix.network >> 80 & 0xFFFF:04x}.{tld}"
            self.registrar.register_domain(domain, at=at, registrant=self.name)
            target = hp.prefix.random_address(self._rng).value
            self.registrar.set_aaaa(domain, target, at=at)
            hp.domain_targets[domain] = target
            if hp.config.web_on_domain_ips:
                for port in WEB_PORTS:
                    hp.add_responsive(target, TCP, port)
        publication = self.registrar.tld(
            hp.config.domains[0]
        ).publication_time(at)
        hp.record(publication, Feature.DOMAIN)

        if hp.config.subdomains:
            # Subdomains go on the last registered domain (H_Org/net gave
            # them only to its .net domain).
            domain = list(hp.domain_targets)[-1]
            for sub in self.subdomain_names:
                fqdn = f"{sub}.{domain}"
                target = hp.prefix.random_address(self._rng).value
                self.registrar.set_aaaa(fqdn, target, at=at)
                hp.subdomain_targets[fqdn] = target
                if hp.config.web_on_domain_ips:
                    for port in WEB_PORTS:
                        hp.add_responsive(target, TCP, port)
            hp.record(publication, Feature.SUBDOMAIN)

    def _deploy_tpot(self, hp: Honeyprefix, at: float) -> None:
        containers = TPOT1_CONTAINERS if hp.config.tpot == 1 else TPOT2_CONTAINERS
        tpot = TPotInstance(f"tpot{hp.config.tpot}", containers)
        gateway = DnatGateway(hp.prefix, tpot, transmit=self._count_tx)
        gateway.set_transmit_batch(self._count_tx_batch)
        self.gateways[hp.name] = gateway
        # Mirror the T-Pot port surface onto the honeyprefix's responsive
        # map so hitlist probing and tactic attribution see it.
        for port in tpot.open_ports(TCP):
            hp.add_responsive(gateway.target_address, TCP, port)
        for port in tpot.open_ports(UDP):
            hp.add_responsive(gateway.target_address, UDP, port)

    def _deploy_rdns(self, hp: Honeyprefix, at: float) -> None:
        if self.reverse_zone is None:
            raise RuntimeError("rDNS feature requires a reverse zone")
        for i, addr in enumerate(hp.icmp_addresses()):
            self.reverse_zone.add_ptr(addr, f"host{i}.{self.name}.example", at=at)

    # -- later triggers ----------------------------------------------------

    def issue_tls(self, hp: Honeyprefix, at: float) -> list:
        """Issue TLS certificates for the honeyprefix's names (trigger).

        Root certificates for every registered domain, then subdomain
        certificates up to the CA's weekly rate limit (the paper stopped at
        50).  Returns the issued certificates.
        """
        if self.acme is None:
            raise RuntimeError("TLS features require an ACME client")
        if not hp.domain_targets:
            raise ValueError(f"{hp.name} has no domains to certify")
        certs = []
        for domain in hp.domain_targets:
            certs.append(self.acme.obtain([domain], at=at))
        hp.record(at, Feature.TLS_ROOT)
        if hp.config.tls_sub and hp.subdomain_targets:
            issued = 0
            for fqdn in hp.subdomain_targets:
                if issued >= MAX_SUBDOMAIN_CERTS:
                    break
                try:
                    certs.append(self.acme.obtain([fqdn], at=at))
                    issued += 1
                except RateLimitExceeded:
                    break
            if issued:
                hp.record(at, Feature.TLS_SUB)
        return certs

    def insert_hitlist(self, hp: Honeyprefix, at: float) -> list:
        """Manually insert honeyprefix addresses into the hitlist (trigger).

        Per §4.3.6: two addresses per applicable category — the first
        address of the prefix and one random address.
        """
        if self.hitlist is None:
            raise RuntimeError("hitlist insertion requires a hitlist service")
        entries = []
        first = hp.prefix.network | 1
        rand = hp.prefix.random_address(self._rng).value
        hp.manual_hitlist_addresses.extend([first, rand])
        categories = [HitlistCategory.ICMP]
        if hp.config.tpot:
            categories += [HitlistCategory.TCP80, HitlistCategory.TCP443,
                           HitlistCategory.UDP53]
            entries.append(self.hitlist.insert_manual(
                HitlistCategory.ALIASED, at=at, prefix=hp.prefix,
            ))
        for category in categories:
            for addr in (first, rand):
                entries.append(self.hitlist.insert_manual(
                    category, at=at, address=addr,
                ))
        hp.record(at, Feature.HITLIST)
        return entries

    def withdraw(self, hp: Honeyprefix, at: float) -> None:
        """Retract the honeyprefix's BGP announcement (§5.3.1's experiment)."""
        self.speaker.withdraw(hp.announced_prefix, at=at)
        hp.withdrawn_at = at
        get_journal().emit("retract", name=hp.name,
                           prefix=str(hp.announced_prefix), at=at)

    # -- data plane --------------------------------------------------------

    def honeyprefix_for(self, address: int) -> Honeyprefix | None:
        """The honeyprefix containing ``address``, or None."""
        return self._hp_by_48.get((address >> 80) << 80)

    def handle(self, pkt: Packet) -> None:
        """Receive one unsolicited packet: capture, then react."""
        self.capturer.capture(pkt)
        hp = self.honeyprefix_for(pkt.dst)
        if hp is None:
            return  # control space: pure darknet
        if hp.config.tpot:
            self.gateways[hp.name].handle(pkt)
        else:
            self.twinklenet.handle(pkt)

    def handle_batch(self, batch: PacketBatch) -> None:
        """Columnar fast path: capture a whole batch, then react.

        The batch is captured as one numpy chunk and routed to the
        honeypots by /48 truncation key, vectorized.  Each T-Pot gateway
        gets its own honeyprefix's slice (gateway state is per prefix).
        Twinklenet's session table and sweep clock are shared by all its
        prefixes, so it gets one call over every row it owns, with a
        per-row owner column; those rows are stably ordered by (emitting
        agent ``origin``, /48 key, row) — the order one call per agent
        and per honeyprefix would feed it, so a day batch merged from
        many agents leaves the session table exactly as per-agent
        dispatch does.  Dark rows are bulk-accounted by the kernels, so
        rx counters stay identical to the scalar path.
        """
        if len(batch) == 0:
            return
        registry = get_registry()
        tracer = get_tracer()
        with registry.timer("telescope.capture"), \
                tracer.span("telescope.capture", telescope=self.name,
                            packets=len(batch)):
            self.capturer.capture_batch(batch)
        if not self._hp_by_48:
            return
        with registry.timer("telescope.react"), \
                tracer.span("telescope.react", telescope=self.name):
            if self._hp_keys_hi is None:
                self._index_honeyprefix_keys()
            keys = self._hp_keys_hi
            shift = np.uint64(16)  # /48 keeps 48 of hi's 64 bits
            hi48 = (batch.dst_hi >> shift) << shift
            slot = np.minimum(np.searchsorted(keys, hi48), len(keys) - 1)
            hit = keys[slot] == hi48
            if not hit.any():
                return  # control space: pure darknet
            twinkle_pos = self._hp_twinkle_pos[slot]
            twinkle = hit & (twinkle_pos >= 0)
            for key_hi in np.unique(hi48[hit & ~twinkle]).tolist():
                hp = self._hp_by_48[key_hi << 64]
                self._react_tpot_slice(hp, batch.select(hi48 == key_hi))
            rows = np.nonzero(twinkle)[0]
            if len(rows):
                sort_keys = (hi48[rows],) if batch.origin is None \
                    else (hi48[rows], batch.origin[rows])
                rows = rows[np.lexsort(sort_keys)]  # stable
                self._react_twinklenet(batch.select(rows), twinkle_pos[rows])

    def _index_honeyprefix_keys(self) -> None:
        """Sorted honeyprefix /48 key column, with each key's position in
        Twinklenet's honeyprefix list (-1 for a T-Pot prefix)."""
        twinkle = {id(hp): pos for pos, hp
                   in enumerate(self.twinklenet.config.honeyprefixes)}
        keys = sorted(self._hp_by_48)
        self._hp_keys_hi = np.asarray([key >> 64 for key in keys],
                                      dtype=np.uint64)
        self._hp_twinkle_pos = np.asarray(
            [twinkle.get(id(self._hp_by_48[key]), -1) for key in keys],
            dtype=np.int64)

    def _react_tpot_slice(self, hp: Honeyprefix, sub: PacketBatch) -> None:
        """Route one honeyprefix's slice through its DNAT gateway."""
        self.gateways[hp.name].handle_batch(sub)

    def _react_tpot_slice_reference(self, hp: Honeyprefix,
                                    sub: PacketBatch) -> None:
        """Per-packet reference for :meth:`_react_tpot_slice` (tests and
        the reply-path microbench select it by patching the method):
        materialize only rows the T-Pot surface can answer, bulk-account
        the rest."""
        gateway = self.gateways[hp.name]
        in_pref = sub.mask_dst_in(gateway.prefix)
        need = in_pref & (sub.proto == np.uint8(ICMPV6))
        tcp_ports = np.asarray(gateway.tpot.open_ports(TCP), dtype=np.uint16)
        udp_ports = np.asarray(gateway.tpot.open_ports(UDP), dtype=np.uint16)
        need |= (in_pref & (sub.proto == np.uint8(TCP))
                 & np.isin(sub.dport, tcp_ports))
        need |= (in_pref & (sub.proto == np.uint8(UDP))
                 & np.isin(sub.dport, udp_ports))
        idx = np.nonzero(need)[0]
        gateway.note_dark(len(sub) - len(idx))
        for i in idx:
            gateway.handle(sub.packet_at(int(i)))

    def _react_twinklenet(self, sub: PacketBatch, owner: np.ndarray) -> None:
        """Route Twinklenet's rows (``owner``: each row's position in its
        honeyprefix list) through it in one call."""
        self.twinklenet.handle_batch(sub, owner=owner)

    def _react_twinklenet_reference(self, sub: PacketBatch,
                                    owner: np.ndarray) -> None:
        """Per-packet reference for :meth:`_react_twinklenet` (tests and
        the reply-path microbench select it by patching the method): TCP
        rows always materialize (session table + eviction sweeps need
        every in-prefix segment); ICMP/UDP rows materialize only when the
        responsiveness map can answer them.
        """
        need = np.zeros(len(sub), dtype=bool)
        for pos in np.unique(owner).tolist():
            hp = self.twinklenet.config.honeyprefixes[pos]
            in_pref = (owner == pos) & sub.mask_dst_in(hp.prefix)
            need |= in_pref & (sub.proto == np.uint8(TCP))
            icmp = in_pref & (sub.proto == np.uint8(ICMPV6))
            if hp.config.aliased:
                need |= icmp
            elif icmp.any():
                set_hi, set_lo = hp.icmp_address_columns()
                need |= icmp & member_mask_u64(sub.dst_hi, sub.dst_lo,
                                               set_hi, set_lo)
            udp = in_pref & (sub.proto == np.uint8(UDP))
            if udp.any():
                # One composite-key membership test over the cached
                # (address, port) binding columns.
                set_hi, set_lo, set_ports = hp.binding_columns(UDP)
                if len(set_hi):
                    need |= udp & member_mask_cols(
                        (sub.dst_hi, sub.dst_lo, sub.dport),
                        (set_hi, set_lo, set_ports))
        idx = np.nonzero(need)[0]
        self.twinklenet.note_dark(len(sub) - len(idx))
        for i in idx:
            self.twinklenet.handle(sub.packet_at(int(i)))

    # -- checkpoint state ----------------------------------------------------

    def honeypot_state(self) -> dict:
        """The honeypots' traffic-derived state, for a scenario checkpoint.

        A resume rebuilds the deployments by replay, but replay sends no
        packets, so what the honeypots learned from traffic (session
        table, NAT logs, reply and rx/tx counts, T-Pot interactions) rides
        in the checkpoint.  Returned live: ``save_checkpoint`` pickles it
        synchronously.
        """
        def fields(obj, names):
            return {name: getattr(obj, name) for name in names}

        return {
            "response_count": self.response_count,
            "twinklenet": fields(self.twinklenet,
                                 Twinklenet.CHECKPOINT_FIELDS),
            "gateways": {
                name: (fields(gateway, DnatGateway.CHECKPOINT_FIELDS),
                       gateway.tpot.interactions)
                for name, gateway in self.gateways.items()
            },
        }

    def restore_honeypot_state(self, state: dict) -> None:
        """Load :meth:`honeypot_state` into a telescope whose deployments
        have been replayed to the same day."""
        self.response_count = state["response_count"]
        for name, value in state["twinklenet"].items():
            setattr(self.twinklenet, name, value)
        for name, (fields, interactions) in state["gateways"].items():
            gateway = self.gateways[name]
            for field_name, value in fields.items():
                setattr(gateway, field_name, value)
            gateway.tpot.interactions = interactions

    # -- hitlist oracle ------------------------------------------------------

    def interaction_level(self, address: int, at: float) -> int:
        """How rich the service behind ``address`` is at time ``at``.

        0 = dark, 1 = low interaction (Twinklenet), 2 = high interaction
        (T-Pot).  Scanner strategies use this to modulate engagement — the
        paper's key operational finding is that high-interaction honeypots
        amplify scanner attention by an order of magnitude.
        """
        hp = self.honeyprefix_for(address)
        if hp is None or hp.deployed_at is None or hp.deployed_at > at:
            return 0
        if hp.withdrawn_at is not None and at >= hp.withdrawn_at:
            return 0
        if hp.config.tpot:
            return 2
        if hp.config.aliased or address in hp.responsive:
            return 1
        return 0

    def responds(self, address: int, proto: int, port: int | None,
                 at: float) -> bool:
        """Responsiveness oracle for the hitlist prober."""
        hp = self.honeyprefix_for(address)
        if hp is None or hp.deployed_at is None or hp.deployed_at > at:
            return False
        if hp.withdrawn_at is not None and at >= hp.withdrawn_at:
            return False
        if hp.config.tpot:
            gateway = self.gateways[hp.name]
            return gateway.responds(address, proto, port)
        return hp.responds(address, proto, port)

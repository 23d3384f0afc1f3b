"""Scenario-level contract of the columnar packet path.

Three properties pin the fast path to the reference implementation:

* **count equality** — same seed, both paths emit the *identical* number of
  packets each day (the per-session Poisson draws come from the same
  stream);
* **determinism** — the batch path with the same seed yields bit-identical
  ``PacketRecords`` at every telescope;
* **counter conservation** — every emitted packet lands in exactly one
  dispatch counter, and telescope rx accounting matches the scalar path's
  per-packet bookkeeping.
"""

from unittest import mock

import numpy as np
import pytest

from repro.sim.scenario import PaperScenario, ScenarioConfig

DAYS = 22


def _config(seed=19):
    return ScenarioConfig(
        seed=seed, duration_days=DAYS, volume_scale=1e-4, n_tail=20,
        phase1_day=4, phase2_day=7, phase3_day=10, specific_start_day=12,
        tls_offset_days=5, tpot_hitlist_offset_days=8,
        tpot_tls_offset_days=12, udp_hitlist_offset_days=3,
        withdraw_after_days=9,
    )


def _run(seed=19):
    scenario = PaperScenario(_config(seed))
    per_day = [scenario.run_day(day) for day in range(DAYS)]
    return scenario, per_day


@pytest.fixture(scope="module")
def runs():
    with mock.patch.object(PaperScenario, "run_agents",
                           PaperScenario.run_agents_reference):
        scalar, scalar_days = _run()
    batch, batch_days = _run()
    return scalar, scalar_days, batch, batch_days


class TestCountEquality:
    def test_per_day_emitted_identical(self, runs):
        _, scalar_days, _, batch_days = runs
        assert scalar_days == batch_days

    def test_counter_conservation(self, runs):
        scalar, scalar_days, batch, batch_days = runs
        for scenario, days in ((scalar, scalar_days), (batch, batch_days)):
            c = scenario.counters
            assert (c.nta + c.ntb + c.ntc + c.live_dropped + c.unrouted
                    == sum(days))

    def test_rx_accounting_matches_dispatch(self, runs):
        _, _, batch, _ = runs
        gateways_rx = sum(g.rx_count
                          for g in batch.telescope.gateways.values())
        honeypot_rx = batch.telescope.twinklenet.rx_count + gateways_rx
        # Every NT-A packet is captured; the honeypots see the honeyprefix
        # share of them (the rest is control space).
        assert len(batch.telescope.capturer) == batch.counters.nta
        assert honeypot_rx <= batch.counters.nta

    def test_capture_sizes_close_across_paths(self, runs):
        """Contents differ (independent draws) but volumes are tied by the
        shared count stream, so telescope totals stay within a few percent."""
        scalar, _, batch, _ = runs
        for a, b in (
            (scalar.telescope.capturer, batch.telescope.capturer),
            (scalar.ntc_capturer, batch.ntc_capturer),
        ):
            hi = max(len(a), len(b))
            if hi:
                assert abs(len(a) - len(b)) / hi < 0.1


class TestBatchDeterminism:
    def test_same_seed_identical_records_all_telescopes(self, runs):
        _, _, batch, _ = runs
        again, _ = _run()
        for cap_a, cap_b in (
            (batch.telescope.capturer, again.telescope.capturer),
            (batch.ntb_capturer, again.ntb_capturer),
            (batch.ntc_capturer, again.ntc_capturer),
        ):
            ra, rb = cap_a.to_records(), cap_b.to_records()
            assert len(ra) == len(rb)
            for column in ("ts", "src_hi", "src_lo", "dst_hi", "dst_lo",
                           "proto", "sport", "dport"):
                assert np.array_equal(getattr(ra, column),
                                      getattr(rb, column)), column

    def test_different_seed_differs(self, runs):
        _, _, batch, _ = runs
        other, _ = _run(seed=20)
        ra = batch.telescope.capturer.to_records()
        rb = other.telescope.capturer.to_records()
        assert (len(ra) != len(rb)
                or not np.array_equal(ra.ts, rb.ts))


class TestMarginals:
    def test_protocol_marginals_match(self, runs):
        scalar, _, batch, _ = runs
        ra = scalar.telescope.capturer.to_records()
        rb = batch.telescope.capturer.to_records()
        for proto in np.union1d(np.unique(ra.proto), np.unique(rb.proto)):
            fa = float((ra.proto == proto).mean())
            fb = float((rb.proto == proto).mean())
            assert abs(fa - fb) < 0.05

    def test_hyper_specific_per_length_counts_identical(self, runs):
        """Fig 10's marginal is *exact* across paths: hyper-specific
        sessions draw their Poisson counts from the shared count stream
        and target only addresses inside the announced prefix, so the
        per-prefix-length capture counts match packet for packet.  This
        is the regression guard for the fig10 targeting path — a re-rolled
        decision stream or a batch sampler that leaks destinations outside
        the announced prefix shows up here before it shows up in the
        pinned results."""
        scalar, _, batch, _ = runs
        ra = scalar.telescope.capturer.to_records()
        rb = batch.telescope.capturer.to_records()
        counts = {}
        for length in range(49, 65):
            name = f"H_Specific/{length}"
            assert name in scalar.honeyprefixes, name
            prefix = scalar.honeyprefixes[name].prefix
            counts[length] = (
                int(np.count_nonzero(ra.mask_dst_in(prefix))),
                int(np.count_nonzero(rb.mask_dst_in(prefix))),
            )
        assert {k: a for k, (a, _) in counts.items()} \
            == {k: b for k, (_, b) in counts.items()}
        # The window past specific_start_day is long enough that every
        # length actually received traffic — an all-zero marginal would
        # pass the equality above while testing nothing.
        assert all(a > 0 for a, _ in counts.values())

    def test_source_48_concentration_matches(self, runs):
        """Fig 9's shape survives the fast path: the share of packets from
        the busiest /48 source prefix is path-independent."""
        scalar, _, batch, _ = runs

        def top_share(records):
            keys = (records.src_hi >> np.uint64(16)).astype(np.uint64)
            _, counts = np.unique(keys, return_counts=True)
            return counts.max() / counts.sum()

        ra = scalar.telescope.capturer.to_records()
        rb = batch.telescope.capturer.to_records()
        assert abs(top_share(ra) - top_share(rb)) < 0.1

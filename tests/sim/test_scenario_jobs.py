"""Intra-scenario sharding: byte-identity vs. serial.

One scenario run with ``jobs > 1`` shards its agents across replicated
worker processes (:mod:`repro.exec.shard`).  That must leave *no trace*
in the outputs: capture records, ground truth, dispatch counters, the
journal byte stream and the honeypot state the parent ends with are
asserted identical to the serial run for every ``jobs`` — the same
contract the experiment pool upholds across runs, pushed down inside one.
"""

import functools
import io
from unittest import mock

import pytest

from repro.core.twinklenet import TwinklenetConfig
from repro.exec.shard import shard_indices
from repro.obs import Journal, use_journal
from repro.sim import ScenarioConfig, run_scenario
from tests.sim.equivalence import assert_identical

DAYS = 10


def _config(**overrides):
    base = dict(seed=19, duration_days=DAYS, volume_scale=1e-4, n_tail=20,
                phase1_day=2, phase2_day=4, phase3_day=6,
                specific_start_day=7, withdraw_after_days=5)
    base.update(overrides)
    return ScenarioConfig(**base)


def _run(config, **kwargs):
    buffer = io.StringIO()
    with use_journal(Journal(buffer)):
        result = run_scenario(config, **kwargs)
    return result, buffer.getvalue()


@pytest.fixture(scope="module")
def serial():
    return _run(_config())


class TestShardIndices:
    def test_partition_is_exact(self):
        for jobs in (2, 3, 4, 7):
            owned = [set(shard_indices(23, shard, jobs))
                     for shard in range(jobs)]
            union = set().union(*owned)
            assert union == set(range(23))
            assert sum(len(s) for s in owned) == 23


class TestShardedEquivalence:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_jobs_byte_identical_to_serial(self, serial, jobs):
        serial_result, serial_journal = serial
        sharded, journal = _run(_config(), jobs=jobs)
        assert_identical(serial_result, sharded)
        assert journal == serial_journal

    def test_same_day_withdrawals_keep_event_order(self, serial):
        """Two honeyprefixes withdrawing on the *same day* is the journal
        merge's hard case: their session_cancel records must interleave by
        engine-event order, not by agent index.  The fixture config fires
        H_BGP2's and H_BGP3's withdrawals in one day (deploys 0.2 days
        apart, same withdraw offset), so the byte-compare above already
        covers it — this test pins the precondition so a config change
        cannot silently drop the case."""
        _, serial_journal = serial
        import json

        cancel_days = {}
        for line in serial_journal.splitlines():
            record = json.loads(line)
            if record["type"] == "session_cancel":
                cancel_days.setdefault(int(record["at"] // 86400.0),
                                       set()).add(record["prefix"])
        assert any(len(prefixes) > 1 for prefixes in cancel_days.values()), \
            "fixture no longer exercises same-day multi-prefix withdrawal"


#: A Twinklenet session cap low enough to bind at the cap-pressure
#: config's volume, so sessions of different agents evict each other.
CAP = 64


def _capped():
    return mock.patch("repro.core.proactive.TwinklenetConfig",
                      functools.partial(TwinklenetConfig, max_sessions=CAP))


@pytest.fixture(scope="module")
def capped_serial():
    with _capped():
        return _run(_config(volume_scale=1e-3))


class TestShardedHoneypotState:
    """Workers only emit; the parent dispatches and reacts.  So a sharded
    run's parent owns the same honeypot tables a serial run builds, even
    when the session cap makes every agent's traffic compete for one
    table."""

    def test_cap_binds_across_agents(self, capped_serial):
        result, _ = capped_serial
        twinklenet = result.scenario.telescope.twinklenet
        assert twinklenet.config.max_sessions == CAP
        uncapped, _ = _run(_config(volume_scale=1e-3))
        assert twinklenet.sessions_evicted \
            > uncapped.scenario.telescope.twinklenet.sessions_evicted
        peers = {key[0] >> 96 for key in twinklenet._sessions}
        assert len(peers) > 1
        assert all(len(gw.nat_log)
                   for gw in result.scenario.telescope.gateways.values())

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_sharded_matches_serial(self, capped_serial, jobs):
        serial_result, serial_journal = capped_serial
        with _capped():
            sharded, journal = _run(_config(volume_scale=1e-3), jobs=jobs)
        assert_identical(serial_result, sharded)
        assert journal == serial_journal

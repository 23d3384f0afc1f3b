"""Observatory runs end to end: bit-reproducibility and crash recovery.

The reproducibility contract under test: the data directory a streaming
observatory run writes — every per-day file, the ``observations.jsonl``
mirror, the index, the manifest — is byte-identical across serial,
``--jobs N``, and killed-and-resumed executions of one config.  Plus the
mode guards: the observer only rides a streaming run, and a checkpoint
can only resume into the observation mode that wrote it.
"""

from pathlib import Path

import pytest

from repro.observatory import Observatory, ObservatoryError, ObservatoryState
from repro.sim import ScenarioConfig, SimulationAborted, run_scenario

from tests.observatory.conftest import OBS_CONFIG, run_observatory

CADENCE = 4
ABORT_AFTER = 5

#: A lighter config for the mode-guard tests (no byte-compare needed).
GUARD = ScenarioConfig(seed=3, duration_days=6, volume_scale=1e-5, n_tail=2)


def _dir_bytes(directory) -> dict:
    return {path.name: path.read_bytes()
            for path in Path(directory).iterdir() if path.is_file()}


class TestByteIdentity:
    def test_jobs2_matches_serial(self, serial_observatory, tmp_path):
        golden, _ = serial_observatory
        run_observatory(tmp_path / "data", jobs=2)
        assert _dir_bytes(tmp_path / "data") == _dir_bytes(golden)

    def test_killed_and_resumed_matches_serial(self, serial_observatory,
                                               tmp_path):
        golden, _ = serial_observatory
        data = tmp_path / "data"
        ckpt = tmp_path / "ckpt"
        with pytest.raises(SimulationAborted):
            run_observatory(data, checkpoint_dir=ckpt,
                            checkpoint_every=CADENCE,
                            abort_after_day=ABORT_AFTER)
        # The realistic crash artifact: a torn final observations line.
        with open(data / "observations.jsonl", "ab") as stream:
            stream.write(b'{"v": 1, "type": "observer", "da')

        result = run_observatory(data, checkpoint_dir=ckpt,
                                 checkpoint_every=CADENCE, resume=True)
        assert result.observatory["days"] == OBS_CONFIG.duration_days
        # The resume healed the torn line: every file byte-identical,
        # checkpoint sidecar aside, to the uninterrupted run's.
        assert _dir_bytes(data) == _dir_bytes(golden)


class TestModeGuards:
    def test_observe_requires_streaming(self, tmp_path):
        with pytest.raises(ValueError, match="requires stream_analysis"):
            run_scenario(GUARD, observe_dir=tmp_path / "data")

    def test_plain_checkpoint_cannot_resume_into_observe(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        with pytest.raises(SimulationAborted):
            run_scenario(GUARD, stream_analysis=True, checkpoint_dir=ckpt,
                         checkpoint_every=2, abort_after_day=3)
        with pytest.raises(ValueError, match="non-observatory checkpoint"):
            run_scenario(GUARD, stream_analysis=True, checkpoint_dir=ckpt,
                         resume=True, observe_dir=tmp_path / "data")

    def test_observatory_checkpoint_cannot_drop_observe(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        with pytest.raises(SimulationAborted):
            run_scenario(GUARD, stream_analysis=True, checkpoint_dir=ckpt,
                         checkpoint_every=2, abort_after_day=3,
                         observe_dir=tmp_path / "data")
        with pytest.raises(ValueError, match="without[ \n]+observe_dir"):
            run_scenario(GUARD, stream_analysis=True, checkpoint_dir=ckpt,
                         resume=True)

    def test_directory_refuses_foreign_config(self, tmp_path):
        observatory = Observatory(tmp_path / "data", GUARD)
        observatory.close()
        with pytest.raises(ObservatoryError, match="different config"):
            Observatory(tmp_path / "data", OBS_CONFIG)

    def test_days_must_be_observed_in_order(self, tmp_path):
        observatory = Observatory(tmp_path / "data", GUARD)
        try:
            with pytest.raises(ObservatoryError, match="in order"):
                observatory.observe_day(3, None, None, {})
        finally:
            observatory.close()

    def test_state_day_mismatch_rejected(self, tmp_path):
        with pytest.raises(ObservatoryError, match="resumes at day"):
            Observatory(tmp_path / "data", GUARD, start_day=4,
                        state=ObservatoryState(next_day=2))

    def test_resume_with_missing_day_file_rejected(self, tmp_path):
        state = ObservatoryState(
            next_day=2,
            seen_sources={t: {lv: set() for lv in (128, 64, 48)}
                          for t in ("NT-A", "NT-B", "NT-C")},
            event_counts={t: {lv: 0 for lv in (128, 64, 48)}
                          for t in ("NT-A", "NT-B", "NT-C")})
        with pytest.raises(ObservatoryError, match="missing day file"):
            Observatory(tmp_path / "data", GUARD, start_day=2, state=state)


class TestOpsCounters:
    def test_registry_sees_observatory_activity(self, tmp_path):
        from repro.obs import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            result = run_scenario(GUARD, stream_analysis=True,
                                  observe_dir=tmp_path / "data")
        snapshot = registry.snapshot()
        assert snapshot["counters"]["observatory.days"] \
            == GUARD.duration_days
        assert snapshot["counters"]["observatory.records"] \
            == result.observatory["records"]
        assert snapshot["timings"]["observatory.emit"]["count"] \
            == GUARD.duration_days

"""Checkpoint/resume equivalence: a run killed mid-horizon and resumed
must be byte-identical — journal, capture records, counters, ground
truth, honeypot state — to one that ran uninterrupted.

The kill is simulated with ``run_scenario(abort_after_day=...)``, which
raises :class:`SimulationAborted` at the same point a real SIGKILL
between day windows would land: the last cadence checkpoint is on disk,
nothing after it is.  The uninterrupted baseline also runs *with*
checkpointing enabled so both journals carry the same ``checkpoint``
records.
"""

import io
import shutil

import pytest

from repro.exec.freeze import load_checkpoint
from repro.obs import Journal, use_journal
from repro.sim import ScenarioConfig, SimulationAborted, run_scenario
from tests.sim.equivalence import assert_identical

DAYS = 12
CADENCE = 4


def _config():
    return ScenarioConfig(seed=19, duration_days=DAYS, volume_scale=1e-4,
                          n_tail=20, phase1_day=2, phase2_day=4,
                          phase3_day=6, specific_start_day=7,
                          withdraw_after_days=5)


def _run(checkpoint_dir, **kwargs):
    """One journaled run; returns (result, journal text)."""
    buffer = io.StringIO()
    with use_journal(Journal(buffer)):
        result = run_scenario(_config(), checkpoint_dir=checkpoint_dir,
                              checkpoint_every=CADENCE, **kwargs)
    return result, buffer.getvalue()


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """Uninterrupted run with checkpointing on — the golden bytes."""
    return _run(tmp_path_factory.mktemp("ckpt-base"))


class TestAbort:
    def test_abort_raises_after_the_named_day(self, tmp_path):
        with pytest.raises(SimulationAborted):
            _run(tmp_path, abort_after_day=5)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_abort_leaves_the_cadence_checkpoint(self, tmp_path, jobs):
        with pytest.raises(SimulationAborted):
            _run(tmp_path, jobs=jobs, abort_after_day=5)
        checkpoint = load_checkpoint(tmp_path, _config())
        assert checkpoint is not None
        # day 5 completed, so the last cadence boundary <= 6 is day 4 —
        # in both modes: a sharded run aborts mid-window, right after
        # day 5's sinks, not at the end of the window holding day 5.
        assert checkpoint.next_day == CADENCE
        assert checkpoint.journal_records[0][0] == "run_manifest"
        assert checkpoint.journal_records[-1][0] == "checkpoint"


class TestResumeSerial:
    def test_resumed_equals_uninterrupted(self, baseline, tmp_path):
        base_result, base_journal = baseline
        with pytest.raises(SimulationAborted):
            _run(tmp_path, abort_after_day=5)
        resumed, journal = _run(tmp_path, resume=True)
        assert_identical(base_result, resumed)
        assert journal == base_journal

    def test_resume_without_checkpoint_runs_fresh(self, baseline, tmp_path):
        base_result, base_journal = baseline
        result, journal = _run(tmp_path, resume=True)
        assert_identical(base_result, result)
        assert journal == base_journal

    def test_stale_checkpoint_is_ignored(self, baseline, tmp_path):
        """A checkpoint for a *different* config must not be loaded."""
        base_result, base_journal = baseline
        other = ScenarioConfig(seed=23, duration_days=DAYS,
                               volume_scale=1e-4, n_tail=20)
        buffer = io.StringIO()
        with use_journal(Journal(buffer)):
            with pytest.raises(SimulationAborted):
                run_scenario(other, checkpoint_dir=tmp_path,
                             checkpoint_every=CADENCE, abort_after_day=5)
        assert load_checkpoint(tmp_path, _config()) is None
        result, journal = _run(tmp_path, resume=True)
        assert_identical(base_result, result)
        assert journal == base_journal


class TestResumeSharded:
    def test_sharded_abort_resume_equals_uninterrupted(self, baseline,
                                                       tmp_path):
        base_result, base_journal = baseline
        with pytest.raises(SimulationAborted):
            _run(tmp_path, jobs=2, abort_after_day=5)
        resumed, journal = _run(tmp_path, jobs=2, resume=True)
        assert_identical(base_result, resumed)
        assert journal == base_journal

    def test_cross_mode_resume(self, baseline, tmp_path):
        """A checkpoint written by a sharded run resumes serially (and the
        bytes still match): checkpoints carry no execution-mode state."""
        base_result, base_journal = baseline
        with pytest.raises(SimulationAborted):
            _run(tmp_path, jobs=2, abort_after_day=5)
        resumed, journal = _run(tmp_path, resume=True)
        assert_identical(base_result, resumed)
        assert journal == base_journal

    @pytest.mark.parametrize("killed_jobs", [1, 2])
    def test_changed_cadence_resume_matches_serial(self, tmp_path,
                                                   killed_jobs):
        """Killed at cadence 3 after day 4, resumed at cadence 2: the
        resume starts at day 3, between two of its own boundaries, so the
        sharded run must cut its first window short to checkpoint at day
        4 as the serial one does.  Serial and sharded resumes of the one
        kill then write the same bytes, checkpoint records included."""
        buffer = io.StringIO()
        with use_journal(Journal(buffer)):
            with pytest.raises(SimulationAborted):
                run_scenario(_config(), checkpoint_dir=tmp_path / "ckpt",
                             checkpoint_every=3, abort_after_day=4,
                             jobs=killed_jobs)
        assert load_checkpoint(tmp_path / "ckpt", _config()).next_day == 3
        shutil.copytree(tmp_path / "ckpt", tmp_path / "ckpt-sharded")
        runs = []
        for directory, jobs in (("ckpt", 1), ("ckpt-sharded", 2)):
            buffer = io.StringIO()
            with use_journal(Journal(buffer)):
                result = run_scenario(
                    _config(), checkpoint_dir=tmp_path / directory,
                    checkpoint_every=2, resume=True, jobs=jobs)
            runs.append((result, buffer.getvalue()))
        (serial, serial_journal), (sharded, sharded_journal) = runs
        assert_identical(serial, sharded)
        assert sharded_journal == serial_journal

"""Checkpoint/resume equivalence: a run killed mid-horizon and run again
with the same checkpoint directory resumes on its own and must be
byte-identical — journal, capture records, counters, ground truth,
honeypot state — to one that ran uninterrupted.

The kill is simulated with ``run_scenario(abort_after_day=...)``, which
raises :class:`SimulationAborted` at the same point a real SIGKILL
between day windows would land: the last cadence checkpoint is on disk,
nothing after it is.  The uninterrupted baseline also runs *with*
checkpointing enabled, in its own directory, so both journals carry the
same ``checkpoint`` records.

Checkpoints are keyed by run mode (batch, stream, observe): a run never
resumes another mode's checkpoint, and a completed run deletes its own.
"""

import io
import shutil
from pathlib import Path

import pytest

from repro.exec.freeze import checkpoint_path, load_checkpoint
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
        checkpoint = load_checkpoint(tmp_path, _config(), "batch")
        assert checkpoint is not None
        # day 5 completed, so the last cadence boundary <= 6 is day 4 —
        # in both modes: a sharded run aborts mid-window, right after
        # day 5's sinks, not at the end of the window holding day 5.
        assert checkpoint.next_day == CADENCE
        assert checkpoint.journal_records[0][0] == "run_manifest"
        assert checkpoint.journal_records[-1][0] == "checkpoint"


class TestKillResume:
    @pytest.mark.parametrize("resumed_jobs", [1, 2],
                             ids=lambda jobs: f"resumed{jobs}")
    @pytest.mark.parametrize("killed_jobs", [1, 2],
                             ids=lambda jobs: f"killed{jobs}")
    def test_resumed_equals_uninterrupted(self, baseline, tmp_path,
                                          killed_jobs, resumed_jobs):
        """Every (killed, resumed) pair of serial and sharded runs ends
        byte-identical to the uninterrupted run: checkpoints carry no
        execution-mode state."""
        base_result, base_journal = baseline
        with pytest.raises(SimulationAborted):
            _run(tmp_path, jobs=killed_jobs, abort_after_day=5)
        resumed, journal = _run(tmp_path, jobs=resumed_jobs)
        assert_identical(base_result, resumed)
        assert journal == base_journal
        assert not checkpoint_path(tmp_path, _config(), "batch").exists()


class TestResumeSerial:
    def test_resume_without_checkpoint_runs_fresh(self, baseline, tmp_path):
        base_result, base_journal = baseline
        result, journal = _run(tmp_path)
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
        assert load_checkpoint(tmp_path, _config(), "batch") is None
        result, journal = _run(tmp_path)
        assert_identical(base_result, result)
        assert journal == base_journal


class TestResumeSharded:
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
        assert load_checkpoint(tmp_path / "ckpt", _config(),
                               "batch").next_day == 3
        shutil.copytree(tmp_path / "ckpt", tmp_path / "ckpt-sharded")
        runs = []
        for directory, jobs in (("ckpt", 1), ("ckpt-sharded", 2)):
            buffer = io.StringIO()
            with use_journal(Journal(buffer)):
                result = run_scenario(
                    _config(), checkpoint_dir=tmp_path / directory,
                    checkpoint_every=2, jobs=jobs)
            runs.append((result, buffer.getvalue()))
        (serial, serial_journal), (sharded, sharded_journal) = runs
        assert_identical(serial, sharded)
        assert sharded_journal == serial_journal


def _mode_kwargs(mode: str, directory: Path) -> dict:
    """``run_scenario`` arguments for one run mode; an observe run writes
    its day files under ``directory``."""
    if mode == "batch":
        return {}
    if mode == "stream":
        return {"stream_analysis": True}
    return {"observe_dir": directory / "data"}


def _outputs(mode: str, result, directory: Path):
    """What a run of ``mode`` produced, in comparable form."""
    if mode == "batch":
        return result
    events = {name: summary.events
              for name, summary in result.streaming.items()}
    if mode == "stream":
        return events
    return events, {path.name: path.read_bytes()
                    for path in sorted((directory / "data").iterdir())}


def _assert_same_outputs(mode: str, a, b) -> None:
    if mode == "batch":
        assert_identical(a, b)
    else:
        assert a == b


@pytest.fixture(scope="module")
def fresh_runs(tmp_path_factory):
    """mode -> (outputs, journal) of an uninterrupted checkpointed run."""
    runs = {}

    def get(mode: str):
        if mode not in runs:
            root = tmp_path_factory.mktemp(f"fresh-{mode}")
            result, journal = _run(root / "ckpt",
                                   **_mode_kwargs(mode, root))
            runs[mode] = (_outputs(mode, result, root), journal)
        return runs[mode]

    return get


class TestCheckpointModes:
    PAIRS = [("stream", "batch"), ("batch", "stream"),
             ("observe", "stream"), ("stream", "observe")]

    @pytest.mark.parametrize("killed_mode,run_mode", PAIRS,
                             ids=[f"{a}-to-{b}" for a, b in PAIRS])
    def test_other_mode_is_ignored(self, fresh_runs, tmp_path,
                                   killed_mode, run_mode):
        """A run finds only its own mode's checkpoint: with another
        mode's checkpoint in the directory it runs from day 0, equal to
        a fresh run, and leaves the other checkpoint for its own mode."""
        ckpt = tmp_path / "ckpt"
        with pytest.raises(SimulationAborted):
            _run(ckpt, abort_after_day=5,
                 **_mode_kwargs(killed_mode, tmp_path / "killed"))
        result, journal = _run(ckpt, **_mode_kwargs(run_mode, tmp_path))
        fresh_outputs, fresh_journal = fresh_runs(run_mode)
        _assert_same_outputs(run_mode, _outputs(run_mode, result, tmp_path),
                             fresh_outputs)
        assert journal == fresh_journal
        assert not checkpoint_path(ckpt, _config(), run_mode).exists()
        assert load_checkpoint(ckpt, _config(),
                               killed_mode).next_day == CADENCE

    def test_completed_run_leaves_no_checkpoint(self, tmp_path):
        """A checkpoint on disk always means an unfinished run: a re-run
        of a completed config is served by the cache, not resumed."""
        cache = tmp_path / "cache"
        _run(tmp_path / "ckpt", cache_dir=cache)
        assert list((tmp_path / "ckpt").iterdir()) == []
        _, journal = _run(tmp_path / "ckpt", cache_dir=cache)
        assert '"cache_hit"' in journal
        assert '"checkpoint"' not in journal

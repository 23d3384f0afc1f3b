"""Shared observatory-test fixtures.

``OBS_CONFIG`` mirrors the crash-tolerance config from
``tests/obs/test_journal_tail.py``: 12 days, all three tactic phases plus
the hyper-specific targeting window, small enough to stream in seconds
but busy enough that every telescope drains packets and several
honeyprefixes attract traffic (so observer records are non-trivial).
"""

import pytest

from repro.sim import ScenarioConfig, run_scenario

DAYS = 12

OBS_CONFIG = ScenarioConfig(seed=19, duration_days=DAYS, volume_scale=1e-4,
                            n_tail=20, phase1_day=2, phase2_day=4,
                            phase3_day=6, specific_start_day=7,
                            withdraw_after_days=5)


def run_observatory(directory, **kwargs):
    """One observatory run (always streaming) of the shared config."""
    return run_scenario(OBS_CONFIG, observe_dir=directory, **kwargs)


@pytest.fixture(scope="session")
def serial_observatory(tmp_path_factory):
    """The golden serial run: ``(data directory, ScenarioResult)``."""
    directory = tmp_path_factory.mktemp("obs-serial") / "data"
    result = run_observatory(directory)
    return directory, result

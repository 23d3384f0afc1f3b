"""Honeypot reply-path microbench: scalar react vs columnar react.

Times only the reaction half of ``ProactiveTelescope.handle_batch`` — the
``telescope.react`` stage timer — over a 30-day scenario whose traffic is
honeypot-heavy (the aliased prefix and both T-Pot prefixes are deployed
from day 2, so a large share of NT-A rows reaches Twinklenet or a DNAT
gateway).  Both runs use the batch emit→dispatch→capture pipeline; the
scalar run patches the ``ProactiveTelescope._react_*_slice`` methods with
their retained ``*_reference`` counterparts, so the ratio isolates the
reply kernels.

Results land in ``results/BENCH_react.json``.  Manual timing (no
``benchmark`` fixture) so the numbers are produced even under
``--benchmark-disable`` — same idiom as the pipeline microbench.
"""

import contextlib
import json
import pathlib
import time
from unittest import mock

import pytest

from repro.core.proactive import ProactiveTelescope
from repro.obs import MetricsRegistry, use_registry
from repro.sim.scenario import PaperScenario, ScenarioConfig

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

DAYS = 30
VOLUME_SCALE = 1e-2


def _config():
    return ScenarioConfig(
        seed=31, duration_days=DAYS, volume_scale=VOLUME_SCALE, n_tail=20,
        phase1_day=2, phase2_day=4, phase3_day=6, specific_start_day=8,
        tpot_hitlist_offset_days=3, tpot_tls_offset_days=5,
    )


def _react_path(columnar):
    """The columnar kernels as is, or the per-packet references patched
    in."""
    if columnar:
        return contextlib.nullcontext()
    return mock.patch.multiple(
        ProactiveTelescope,
        _react_tpot_slice=ProactiveTelescope._react_tpot_slice_reference,
        _react_twinklenet=ProactiveTelescope._react_twinklenet_reference,
    )


def _measure(columnar):
    """Run the scenario under a private registry; return the react stage's
    accumulated wall clock plus honeypot rx/tx tallies."""
    registry = MetricsRegistry()
    with use_registry(registry), _react_path(columnar):
        scenario = PaperScenario(_config())
        t0 = time.perf_counter()
        for day in range(DAYS):
            scenario.run_day(day)
        total_s = time.perf_counter() - t0
    timings = registry.snapshot()["timings"]
    react_s = timings["telescope.react"]["total"]
    gateways_rx = sum(g.rx_count for g in scenario.telescope.gateways.values())
    return {
        "react_s": react_s,
        "total_s": total_s,
        "honeypot_rx": scenario.telescope.twinklenet.rx_count + gateways_rx,
        "replies": scenario.telescope.response_count,
    }


@pytest.fixture(scope="module")
def bench():
    scalar = _measure(columnar=False)
    batch = _measure(columnar=True)
    data = {
        "config": {"days": DAYS, "volume_scale": VOLUME_SCALE},
        "honeypot_rx": scalar["honeypot_rx"],
        "replies": scalar["replies"],
        "react": {
            "scalar_s": round(scalar["react_s"], 4),
            "batch_s": round(batch["react_s"], 4),
            "speedup": round(scalar["react_s"] / batch["react_s"], 2),
        },
        "run_total": {
            "scalar_s": round(scalar["total_s"], 4),
            "batch_s": round(batch["total_s"], 4),
            "speedup": round(scalar["total_s"] / batch["total_s"], 2),
        },
        # Reaction is a pure sink of the emission stream, so the two runs
        # see identical traffic and must produce identical reply counts —
        # the ratio above compares equal work.
        "replies_identical": scalar["replies"] == batch["replies"],
        "rx_identical": scalar["honeypot_rx"] == batch["honeypot_rx"],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_react.json"
    path.write_text(json.dumps(data, indent=2) + "\n")
    print(f"\n{json.dumps(data, indent=2)}\n[written to {path}]")
    return data


def test_both_paths_answer_identically(bench):
    """Same seed + pure-sink reaction ⇒ identical honeypot rx and reply
    counts; the timed ratio compares equal work."""
    assert bench["replies_identical"]
    assert bench["rx_identical"]


def test_react_speedup(bench):
    """Acceptance bar: >= 5x on the reply path (``telescope.react``)."""
    assert bench["react"]["speedup"] >= 5.0

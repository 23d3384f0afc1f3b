"""Simulation layer: the event engine, the Internet fabric wiring all
substrates together, the paper's deployment scenario, and the CDN vantage
point used for the longitudinal motivation figures.
"""

from repro.sim.engine import Engine, Event
from repro.sim.fabric import InternetFabric
from repro.sim.cdn import CdnVantage, CdnScannerSpec
from repro.sim.scenario import PaperScenario, ScenarioConfig
from repro.sim.runner import (
    ScenarioResult,
    SimulationAborted,
    mode_refusal,
    run_scenario,
)

__all__ = [
    "Engine",
    "Event",
    "InternetFabric",
    "CdnVantage",
    "CdnScannerSpec",
    "PaperScenario",
    "ScenarioConfig",
    "ScenarioResult",
    "SimulationAborted",
    "mode_refusal",
    "run_scenario",
]

"""Longitudinal observatory mode (ROADMAP item 2).

Turns a streaming scenario run into the paper's actual instrument — a
long-running telescope observatory: one schema-versioned, bit-reproducible
``observer`` JSON record per simulated day (:mod:`~repro.observatory.
observer`), an append-only long-horizon index (:mod:`~repro.observatory.
index`), and drift/changepoint summaries over the resulting daily series
(:mod:`~repro.observatory.drift`, reusing the BSTM causal-impact engine).

Entry points: ``run_scenario(..., stream_analysis=True, observe_dir=...)``,
CLI ``python -m repro observe`` / ``repro run --stream --observe``, and the
service's ``GET /observatory`` SSE endpoint.
"""

from repro.observatory.drift import Changepoint, DriftReport, SeriesDrift
from repro.observatory.index import (
    list_day_files,
    read_index,
    read_observations,
    update_index,
)
from repro.observatory.observer import (
    Observatory,
    ObservatoryError,
    ObservatoryState,
    day_file_path,
    load_observer_day,
    observer_line,
    validate_observer,
)

__all__ = [
    "Changepoint",
    "DriftReport",
    "Observatory",
    "ObservatoryError",
    "ObservatoryState",
    "SeriesDrift",
    "day_file_path",
    "list_day_files",
    "load_observer_day",
    "observer_line",
    "read_index",
    "read_observations",
    "update_index",
    "validate_observer",
]

"""Online analysis bundle for streaming runs.

A streaming run (``run_scenario(stream_analysis=True)``) never keeps the
horizon's records: each day boundary drains one
:class:`~repro.analysis.records.PacketRecords` chunk per telescope and
hands it to that telescope's :class:`StreamAnalyzer`.  The analyzer feeds
the chunk to one :class:`~repro.analysis.scandetect.SessionTracker` per
aggregation level and, optionally, a
:class:`~repro.analysis.flows.FlowTracker`.  These trackers are the same
code that :func:`~repro.analysis.scandetect.detect_scans` and
:func:`~repro.analysis.flows.aggregate_flows` run in one feed, so a
finished :class:`StreamSummary` holds exactly the batch event and flow
lists, at O(open sessions + one day) memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.flows import DEFAULT_FLOW_TIMEOUT, Flow, FlowTracker
from repro.analysis.records import PacketRecords
from repro.analysis.scandetect import (
    DEFAULT_MIN_TARGETS,
    DEFAULT_TIMEOUT,
    ScanEvent,
    SessionTracker,
)

#: The paper's three source-aggregation levels, in report order.
SCAN_LEVELS = (128, 64, 48)


@dataclass
class StreamSummary:
    """What a finished streaming run carries instead of full records."""

    name: str
    records_in: int
    #: aggregation level -> the run's full scan-event list (identical to
    #: batch ``detect_scans`` over the materialized records).
    events: dict[int, list[ScanEvent]] = field(default_factory=dict)
    #: the run's flow list (identical to batch ``aggregate_flows``), when
    #: flow tracking was enabled.
    flows: list[Flow] | None = None


class StreamAnalyzer:
    """One telescope's online analysis bundle.

    Holds a :class:`SessionTracker` per aggregation level (the paper's
    /128, /64, /48 by default) plus an optional :class:`FlowTracker`, all
    fed the same day chunk.  Fully picklable, so a streaming run's open
    state checkpoints alongside the scenario.
    """

    def __init__(
        self,
        name: str = "NT-A",
        levels: tuple[int, ...] = SCAN_LEVELS,
        min_targets: int = DEFAULT_MIN_TARGETS,
        timeout: float = DEFAULT_TIMEOUT,
        flows: bool = False,
        flow_timeout: float = DEFAULT_FLOW_TIMEOUT,
    ):
        self.name = name
        self.levels = tuple(levels)
        self.trackers = {
            level: SessionTracker(source_length=level,
                                  min_targets=min_targets, timeout=timeout)
            for level in self.levels
        }
        self.flow_tracker = FlowTracker(timeout=flow_timeout) if flows \
            else None
        self.records_in = 0
        self._summary: StreamSummary | None = None

    def feed(self, records: PacketRecords, now: float | None = None) -> int:
        """Feed one day chunk to every tracker; returns events closed."""
        closed = 0
        for tracker in self.trackers.values():
            closed += tracker.feed(records, now=now)
        if self.flow_tracker is not None:
            self.flow_tracker.feed(records, now=now)
        self.records_in += len(records)
        return closed

    @property
    def open_sessions(self) -> int:
        return sum(t.open_sessions for t in self.trackers.values())

    def finish(self) -> StreamSummary:
        """Finalize every tracker into a :class:`StreamSummary`
        (idempotent)."""
        if self._summary is None:
            self._summary = StreamSummary(
                name=self.name,
                records_in=self.records_in,
                events={level: tracker.finish()
                        for level, tracker in self.trackers.items()},
                flows=(self.flow_tracker.finish()
                       if self.flow_tracker is not None else None),
            )
        return self._summary

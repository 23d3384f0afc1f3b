"""Ground-truth detection scoring.

The simulator knows which scanner agent emitted every packet — provenance
the paper's telescopes could never observe.  The emission path threads a
stable agent id through :class:`~repro.net.batch.PacketBatch` as the
``origin`` column; the capture boundary strips it from the analysis-facing
records and retains it in a sidecar :class:`GroundTruthRecords` table.

This module closes the loop: :func:`truth_events` builds the *actual* scan
sessions per agent (the same ≥``min_targets``-distinct-destinations /
``timeout``-gap definition the detector uses, but grouped by the true
emitter instead of the observed source prefix), and :func:`score_detection`
grades the detector's output against them:

* **precision** — fraction of detected events whose packets all came from
  a single agent (an impure event blends scanners the analysis would then
  mis-attribute);
* **recall** — fraction of truth scan events recovered by at least one
  detected event (same agent contributing, overlapping time);
* **fragmentation** — mean number of detected events covering one
  recovered truth event (>1 at /128 when an agent rotates source
  addresses and the detector splits its scan);
* **merge rate** — fraction of detected events containing packets from
  more than one agent (rises with coarser aggregation, /48 merging
  co-located scanners).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.records import PacketRecords
from repro.analysis.scandetect import (
    DEFAULT_MIN_TARGETS,
    DEFAULT_TIMEOUT,
    ScanEvent,
    detect_scans,
    sessionize,
)
from repro.net.addr import mask_u64
from repro.obs import get_tracer

_U64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class GroundTruthRecords:
    """Sidecar provenance table: one row per captured packet.

    Column-compatible with :class:`~repro.analysis.records.PacketRecords`
    plus the ``origin`` agent-id column the telescopes never saw.
    """

    ts: np.ndarray        # float64
    src_hi: np.ndarray    # uint64
    src_lo: np.ndarray    # uint64
    dst_hi: np.ndarray    # uint64
    dst_lo: np.ndarray    # uint64
    origin: np.ndarray    # int32 agent ids (< 0: unknown emitter)

    def __post_init__(self) -> None:
        n = len(self.ts)
        for name in ("src_hi", "src_lo", "dst_hi", "dst_lo", "origin"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} length mismatch")

    @classmethod
    def from_columns(cls, ts, src_hi, src_lo, dst_hi, dst_lo,
                     origin) -> "GroundTruthRecords":
        return cls(
            ts=np.asarray(ts, dtype=np.float64),
            src_hi=np.asarray(src_hi, dtype=np.uint64),
            src_lo=np.asarray(src_lo, dtype=np.uint64),
            dst_hi=np.asarray(dst_hi, dtype=np.uint64),
            dst_lo=np.asarray(dst_lo, dtype=np.uint64),
            origin=np.asarray(origin, dtype=np.int32),
        )

    @classmethod
    def empty(cls) -> "GroundTruthRecords":
        return cls.from_columns([], [], [], [], [], [])

    @classmethod
    def from_batches(cls, batches) -> "GroundTruthRecords":
        """Concatenate capture-order batches (each must carry ``origin``)."""
        parts = [b for b in batches if len(b)]
        if not parts:
            return cls.empty()
        for b in parts:
            if b.origin is None:
                raise ValueError("ground truth requires the origin column")
        return cls(
            ts=np.concatenate([b.ts for b in parts]),
            src_hi=np.concatenate([b.src_hi for b in parts]),
            src_lo=np.concatenate([b.src_lo for b in parts]),
            dst_hi=np.concatenate([b.dst_hi for b in parts]),
            dst_lo=np.concatenate([b.dst_lo for b in parts]),
            origin=np.concatenate([b.origin for b in parts]),
        )

    @classmethod
    def concat(cls, parts: list["GroundTruthRecords"]) -> "GroundTruthRecords":
        parts = [p for p in parts if len(p)]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        return cls(
            ts=np.concatenate([p.ts for p in parts]),
            src_hi=np.concatenate([p.src_hi for p in parts]),
            src_lo=np.concatenate([p.src_lo for p in parts]),
            dst_hi=np.concatenate([p.dst_hi for p in parts]),
            dst_lo=np.concatenate([p.dst_lo for p in parts]),
            origin=np.concatenate([p.origin for p in parts]),
        )

    def __len__(self) -> int:
        return len(self.ts)

    def agents(self) -> np.ndarray:
        """Distinct (known) agent ids present in the table."""
        known = self.origin[self.origin >= 0]
        return np.unique(known)

    # -- persistence -----------------------------------------------------

    def save_npz(self, path) -> None:
        """Persist the columns as a compressed ``.npz`` archive."""
        np.savez_compressed(
            path,
            ts=self.ts, src_hi=self.src_hi, src_lo=self.src_lo,
            dst_hi=self.dst_hi, dst_lo=self.dst_lo, origin=self.origin,
        )

    @classmethod
    def load_npz(cls, path) -> "GroundTruthRecords":
        """Load a sidecar saved by :meth:`save_npz`.

        An archive without the ``origin`` column (e.g. a plain
        :class:`~repro.analysis.records.PacketRecords` archive) still
        loads: every row gets origin ``-1``, the unknown-emitter marker.
        """
        with np.load(path) as archive:
            origin = (archive["origin"] if "origin" in archive.files
                      else np.full(len(archive["ts"]), -1, dtype=np.int32))
            return cls.from_columns(
                ts=archive["ts"],
                src_hi=archive["src_hi"], src_lo=archive["src_lo"],
                dst_hi=archive["dst_hi"], dst_lo=archive["dst_lo"],
                origin=origin,
            )


@dataclass(frozen=True, slots=True)
class TruthEvent:
    """One actual scan session of one agent (the detector's target)."""

    agent: int
    start: float
    end: float
    packets: int
    unique_targets: int


def truth_events(
    truth: GroundTruthRecords,
    min_targets: int = DEFAULT_MIN_TARGETS,
    timeout: float = DEFAULT_TIMEOUT,
) -> list[TruthEvent]:
    """The scan events a perfect detector would report.

    Applies the paper's scan definition — sessions bounded by
    ``timeout``-second gaps, qualifying at ``min_targets`` distinct /128
    destinations — but grouped by the *emitting agent* rather than the
    observed source prefix.  Rows with unknown provenance (``origin`` < 0)
    are excluded.
    """
    known = truth.origin >= 0
    if not known.any():
        return []
    ts = truth.ts[known]
    origin = truth.origin[known]
    order = np.lexsort((ts, origin))
    o = origin[order]
    t = ts[order]
    starts, packets, start_ts, end_ts, uniq, _, _ = sessionize(
        o[1:] != o[:-1], t,
        truth.dst_hi[known][order], truth.dst_lo[known][order],
        timeout,
    )
    qualifying = np.flatnonzero(uniq >= min_targets)
    events = [
        TruthEvent(
            agent=int(o[starts[i]]),
            start=float(start_ts[i]),
            end=float(end_ts[i]),
            packets=int(packets[i]),
            unique_targets=int(uniq[i]),
        )
        for i in qualifying
    ]
    events.sort(key=lambda e: (e.start, e.agent))
    return events


@dataclass(frozen=True)
class DetectionScore:
    """How well detected scan-events recover the true scanner sessions."""

    source_length: int
    n_events: int          # detected events
    n_truth_events: int    # actual agent scan sessions
    n_agents: int          # distinct agents with >= 1 truth event
    precision: float       # single-agent ("pure") events / detected events
    recall: float          # truth events recovered / truth events
    fragmentation: float   # mean detected events per recovered truth event
    merge_rate: float      # multi-agent events / detected events

    def render_row(self) -> str:
        return (
            f"  /{self.source_length:<4d} events {self.n_events:>6d}  "
            f"truth {self.n_truth_events:>6d}  "
            f"precision {self.precision:6.1%}  recall {self.recall:6.1%}  "
            f"frag {self.fragmentation:5.2f}  merge {self.merge_rate:6.1%}"
        )


def _event_contributors(
    events: list[ScanEvent],
    truth: GroundTruthRecords,
    source_length: int,
) -> list[np.ndarray]:
    """Per detected event: the distinct agent ids of its truth packets.

    The truth rows are sorted once by (masked source, timestamp); each
    event then resolves to a contiguous slice via binary search, so the
    total cost is one sort plus O(log n) per event.
    """
    mhi, mlo = mask_u64(truth.src_hi, truth.src_lo, source_length)
    order = np.lexsort((truth.ts, mlo, mhi))
    khi, klo = mhi[order], mlo[order]
    kts = truth.ts[order]
    korigin = truth.origin[order]

    contributors: list[np.ndarray] = []
    for event in events:
        ehi = np.uint64((event.source >> 64) & _U64)
        elo = np.uint64(event.source & _U64)
        lo = int(np.searchsorted(khi, ehi, side="left"))
        hi = int(np.searchsorted(khi, ehi, side="right"))
        lo += int(np.searchsorted(klo[lo:hi], elo, side="left"))
        hi = lo + int(np.searchsorted(klo[lo:hi], elo, side="right"))
        lo += int(np.searchsorted(kts[lo:hi], event.start, side="left"))
        hi = lo + int(np.searchsorted(kts[lo:hi], event.end, side="right"))
        rows = korigin[lo:hi]
        contributors.append(np.unique(rows[rows >= 0]))
    return contributors


def score_detection(
    events: list[ScanEvent],
    truth: GroundTruthRecords,
    min_targets: int = DEFAULT_MIN_TARGETS,
    timeout: float = DEFAULT_TIMEOUT,
    source_length: int | None = None,
) -> DetectionScore:
    """Grade detected scan-events against the simulated scanner population.

    ``events`` must all share one aggregation level (the usual output of
    :func:`~repro.analysis.scandetect.detect_scans`); truth events are
    built with the same ``min_targets``/``timeout`` the detector used, so
    the comparison is apples-to-apples.  ``source_length`` is derived from
    the events; pass it explicitly when the list may be empty (an empty
    detection is still a score — recall 0 against a non-empty truth).
    """
    lengths = {e.source_length for e in events}
    if len(lengths) > 1:
        raise ValueError(
            f"events mix aggregation levels {sorted(lengths)}; score one "
            f"level at a time"
        )
    if lengths:
        derived = lengths.pop()
        if source_length is not None and source_length != derived:
            raise ValueError(
                f"events are aggregated at /{derived}, not /{source_length}"
            )
        source_length = derived
    elif source_length is None:
        source_length = 128

    with get_tracer().span("analysis.score_detection",
                           source_length=source_length,
                           events=len(events)):
        truths = truth_events(truth, min_targets=min_targets,
                              timeout=timeout)
        contributors = _event_contributors(events, truth, source_length)

        pure = sum(1 for c in contributors if len(c) == 1)
        merged = sum(1 for c in contributors if len(c) > 1)

        # agent id -> [(start, end), ...] of detected events it contributed to
        by_agent: dict[int, list[tuple[float, float]]] = {}
        for event, agents in zip(events, contributors):
            for agent in agents:
                by_agent.setdefault(int(agent), []).append(
                    (event.start, event.end)
                )

        recovered = 0
        fragments = 0
        for te in truths:
            n_overlapping = sum(
                1 for (s, e) in by_agent.get(te.agent, ())
                if s <= te.end and e >= te.start
            )
            if n_overlapping:
                recovered += 1
                fragments += n_overlapping

        return DetectionScore(
            source_length=source_length,
            n_events=len(events),
            n_truth_events=len(truths),
            n_agents=len({te.agent for te in truths}),
            precision=pure / len(events) if events else 1.0,
            recall=recovered / len(truths) if truths else 1.0,
            fragmentation=fragments / recovered if recovered else 0.0,
            merge_rate=merged / len(events) if events else 0.0,
        )


def score_all_levels(
    records: PacketRecords,
    truth: GroundTruthRecords,
    levels: tuple[int, ...] = (128, 64, 48),
    min_targets: int = DEFAULT_MIN_TARGETS,
    timeout: float = DEFAULT_TIMEOUT,
) -> dict[int, DetectionScore]:
    """Run detection and scoring at each aggregation level."""
    scores: dict[int, DetectionScore] = {}
    for length in levels:
        events = detect_scans(records, source_length=length,
                              min_targets=min_targets, timeout=timeout)
        scores[length] = score_detection(
            events, truth, min_targets=min_targets, timeout=timeout,
            source_length=length,
        )
    return scores

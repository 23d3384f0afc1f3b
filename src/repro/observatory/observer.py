"""The observatory runner: one validated observer record per simulated day.

An :class:`Observatory` rides along a ``run_scenario(stream_analysis=True)``
day loop.  At every day boundary the runner hands it the day's drained
telescope records plus the (already fed) per-telescope
:class:`~repro.analysis.streaming.StreamAnalyzer` instances, and the
observatory emits one schema-versioned ``observer`` record:

* per-telescope scan-event rates (sessions closed that day at every
  aggregation level), open-session counts, and drained record counts;
* new-scanner discovery — sources at /128, /64, and /48 never seen on
  that telescope before this day;
* tactic-mix shares — Figure 11 feature combinations across every
  deployed honeyprefix, counted per scanner /48 over the day's probes;
* honeyprefix reaction latency — seconds from a prefix's deployment to
  the first NT-A probe it attracted.

Every record is written twice, in the same serialized bytes: as its own
atomic per-day file ``observer-NNNNN.json`` (write-then-rename, so a kill
can never leave a torn day file) and as one line appended to
``observations.jsonl`` (line-buffered, which is what the service's SSE
endpoint tails live).  Concatenating the day files in day order yields
exactly the ``observations.jsonl`` body — that equivalence is what makes
the stream and the on-disk files interchangeable.

Reproducibility contract (same as the run journal's): records contain
simulation-time values only — never wall clock, hostnames, or paths — so
the per-day files are byte-identical across serial, ``--jobs N``, and
killed-and-resumed executions of one config.  On
resume the observatory restores its cursor state (seen-source sets,
cumulative event counts, first-contact times) from the scenario
checkpoint and rewrites the ``observations.jsonl`` prefix from the
already-emitted day files, so a torn final line from the kill is healed
rather than inherited.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro._util import DAY
from repro.analysis.records import PacketRecords
from repro.analysis.streaming import SCAN_LEVELS
from repro.analysis.tactics import day_tactics
from repro.net.addr import mask_u64
from repro.obs import (
    JOURNAL_SCHEMA_VERSION,
    config_hash,
    get_registry,
    validate_record,
)

#: The three telescopes every scenario runs, in emission order.
TELESCOPES = ("NT-A", "NT-B", "NT-C")

#: ``observer-00042.json`` — zero-padded so lexicographic listing is day
#: order for horizons up to ~270 simulated years.
DAY_FILE_FORMAT = "observer-{day:05d}.json"

#: The line-oriented mirror of the day files (plus the closing
#: ``observatory_end`` marker) — what the SSE endpoint tails.
OBSERVATIONS_NAME = "observations.jsonl"

#: Append-only long-horizon index maintained by :func:`repro.observatory.
#: index.update_index`.
INDEX_NAME = "index.jsonl"

#: Data-dir provenance marker: which config wrote this directory.
MANIFEST_NAME = "observatory.json"


class ObservatoryError(ValueError):
    """An observer record, day file, or data directory is invalid."""


def day_file_path(directory, day: int) -> Path:
    return Path(directory) / DAY_FILE_FORMAT.format(day=day)


def observer_line(record: dict) -> str:
    """The canonical serialized form: sorted keys, one trailing newline.

    Both the day file and the ``observations.jsonl`` line use exactly
    this string, which is what makes them byte-interchangeable.
    """
    return json.dumps(record, sort_keys=True) + "\n"


def validate_observer(record: dict) -> dict:
    """Schema-validate one ``observer`` record; returns it.

    Layered on the journal-level check (``v``/``type``/required fields):
    every telescope section must cover exactly the known telescopes with
    non-negative per-level integer counts, tactic shares must be a
    probability vector over the combo labels, and honeyprefix entries
    must carry a coherent deployment/first-contact/latency triple.
    """
    validate_record(record)
    if record.get("type") != "observer":
        raise ObservatoryError(
            f"expected an observer record, got {record.get('type')!r}")
    if not isinstance(record["day"], int) or record["day"] < 0:
        raise ObservatoryError(f"bad day: {record['day']!r}")
    telescopes = record["telescopes"]
    if set(telescopes) != set(TELESCOPES):
        raise ObservatoryError(
            f"telescope sections {sorted(telescopes)} != {sorted(TELESCOPES)}")
    level_keys = {str(level) for level in SCAN_LEVELS}
    for name, section in telescopes.items():
        if not isinstance(section.get("records"), int) or section["records"] < 0:
            raise ObservatoryError(f"{name}: bad records count")
        for part in ("events_closed", "open_sessions", "new_sources"):
            counts = section.get(part)
            if not isinstance(counts, dict) or set(counts) != level_keys:
                raise ObservatoryError(
                    f"{name}.{part}: levels {counts} != {sorted(level_keys)}")
            for level, value in counts.items():
                if not isinstance(value, int) or value < 0:
                    raise ObservatoryError(
                        f"{name}.{part}[{level}]: bad count {value!r}")
    tactics = record["tactics"]
    if (not isinstance(tactics.get("sources"), int)
            or tactics["sources"] < 0
            or not isinstance(tactics.get("combos"), dict)
            or not isinstance(tactics.get("shares"), dict)
            or set(tactics["combos"]) != set(tactics["shares"])):
        raise ObservatoryError(f"bad tactics section: {tactics!r}")
    if sum(tactics["combos"].values()) != tactics["sources"]:
        raise ObservatoryError("tactic combo counts do not sum to sources")
    for name, entry in record["honeyprefixes"].items():
        deployed, first = entry.get("deployed_at"), entry.get("first_seen")
        latency = entry.get("reaction_s")
        if first is not None and deployed is not None:
            if latency is None or abs((first - deployed) - latency) > 1e-9:
                raise ObservatoryError(
                    f"{name}: reaction_s inconsistent with "
                    f"first_seen - deployed_at")
        elif latency is not None:
            raise ObservatoryError(
                f"{name}: reaction_s set without first_seen/deployed_at")
    return record


def load_observer_day(path) -> dict:
    """Parse and validate one per-day observer file."""
    path = Path(path)
    try:
        text = path.read_text()
        record = json.loads(text)
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as error:
        raise ObservatoryError(f"unreadable day file {path.name}: {error}")
    if not isinstance(record, dict):
        raise ObservatoryError(f"day file {path.name} is not a JSON object")
    return validate_observer(record)


@dataclass
class ObservatoryState:
    """The observatory's resumable cursor — what rides in a checkpoint.

    Everything here is derived from records already observed, never from
    the data directory: a resumed run re-creates its
    :class:`Observatory` around this state and re-emits days from the
    checkpoint boundary byte-identically.
    """

    #: First day the observatory still has to emit.
    next_day: int
    #: telescope -> level -> set of truncated source addresses (as ints).
    seen_sources: dict = field(default_factory=dict)
    #: telescope -> level -> cumulative sessions closed through next_day.
    event_counts: dict = field(default_factory=dict)
    #: honeyprefix name -> simulation time of its first NT-A probe.
    first_seen: dict = field(default_factory=dict)
    #: Total records drained across all telescopes through next_day.
    records_total: int = 0


class Observatory:
    """Per-day observer emission over one streaming scenario run."""

    def __init__(self, directory, config=None, *, start_day: int = 0,
                 state: ObservatoryState | None = None,
                 levels: tuple[int, ...] = SCAN_LEVELS):
        self.directory = Path(directory)
        self.levels = levels
        self._registry = get_registry()
        self._closed = False
        if state is None:
            state = ObservatoryState(
                next_day=0,
                seen_sources={t: {lv: set() for lv in levels}
                              for t in TELESCOPES},
                event_counts={t: {lv: 0 for lv in levels}
                              for t in TELESCOPES},
            )
        if state.next_day != start_day:
            raise ObservatoryError(
                f"observatory state is at day {state.next_day}, "
                f"run resumes at day {start_day}")
        self.state = state
        self.directory.mkdir(parents=True, exist_ok=True)
        self._check_manifest(config)
        self._stream = self._open_stream(start_day)

    # -- directory plumbing ------------------------------------------------

    def _check_manifest(self, config) -> None:
        """Refuse to interleave two configs' observations in one dir."""
        path = self.directory / MANIFEST_NAME
        manifest = {
            "v": JOURNAL_SCHEMA_VERSION,
            "config_hash": config_hash(config) if config is not None else None,
            "levels": [int(level) for level in self.levels],
        }
        if path.exists():
            try:
                existing = json.loads(path.read_text())
            except (OSError, ValueError) as error:
                raise ObservatoryError(
                    f"unreadable observatory manifest: {error}")
            if (config is not None
                    and existing.get("config_hash") is not None
                    and existing.get("config_hash") != manifest["config_hash"]):
                raise ObservatoryError(
                    f"observatory directory {self.directory} was written by "
                    f"a different config (hash {existing.get('config_hash')})")
            return
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(observer_line(manifest))
        os.replace(tmp, path)

    def _open_stream(self, start_day: int):
        """(Re)build ``observations.jsonl`` up to ``start_day`` and open it.

        The prefix is reconstructed from the atomic day files rather than
        trusted from the previous process: a kill mid-append leaves a torn
        final line, and a rewrite from known-good files heals it.  Day
        files are the exact line bytes, so this is pure concatenation.
        """
        path = self.directory / OBSERVATIONS_NAME
        stream = open(path, "w", buffering=1, encoding="utf-8")
        try:
            for day in range(start_day):
                stream.write(day_file_path(self.directory, day).read_text())
        except FileNotFoundError as error:
            stream.close()
            raise ObservatoryError(
                f"cannot resume at day {start_day}: missing day file "
                f"({error.filename})")
        return stream

    @property
    def observations_path(self) -> Path:
        return self.directory / OBSERVATIONS_NAME

    # -- per-day emission --------------------------------------------------

    def observe_day(self, day: int, scenario, streams,
                    drained: dict) -> dict:
        """Emit the observer record for one completed day.

        ``drained`` maps telescope name to the day's
        :class:`PacketRecords` (already fed into ``streams``).  Returns
        the emitted record.
        """
        if self._closed:
            raise ObservatoryError("observatory already finished")
        if day != self.state.next_day:
            raise ObservatoryError(
                f"days must be observed in order: got {day}, "
                f"expected {self.state.next_day}")
        with self._registry.timer("observatory.emit"):
            record = self._build_record(day, scenario, streams, drained)
            validate_observer(record)
            line = observer_line(record)
            path = day_file_path(self.directory, day)
            tmp = path.with_suffix(".json.tmp")
            tmp.write_text(line)
            os.replace(tmp, path)
            self._stream.write(line)
            self.state.next_day = day + 1
        self._registry.counter("observatory.days").inc()
        self._registry.counter("observatory.records").inc(
            sum(len(records) for records in drained.values()))
        return record

    def _build_record(self, day: int, scenario, streams,
                      drained: dict) -> dict:
        telescopes = {}
        for name in TELESCOPES:
            records = drained[name]
            analyzer = streams[name]
            events_closed, open_sessions = {}, {}
            for level in self.levels:
                tracker = analyzer.trackers[level]
                total = tracker.events_closed
                previous = self.state.event_counts[name][level]
                events_closed[str(level)] = total - previous
                self.state.event_counts[name][level] = total
                open_sessions[str(level)] = tracker.open_sessions
            telescopes[name] = {
                "records": len(records),
                "events_closed": events_closed,
                "open_sessions": open_sessions,
                "new_sources": {
                    str(level): self._count_new_sources(name, level, records)
                    for level in self.levels
                },
            }
            self.state.records_total += len(records)

        combos: Counter = Counter()
        total_sources = 0
        honeyprefixes = {}
        nta = drained["NT-A"]
        day_end = (day + 1) * DAY
        for name in sorted(scenario.honeyprefixes):
            hp = scenario.honeyprefixes[name]
            # Gate on the deployment *time*, not dict membership: the
            # sharded parent's engine registers a whole window's deploys
            # before the first day's observation runs, while the serial
            # path registers them day by day.  The timestamp is identical
            # in both modes; membership is not.
            if hp.deployed_at is None or hp.deployed_at >= day_end:
                continue
            selected = (nta.select(nta.mask_dst_in(hp.prefix))
                        if len(nta) else PacketRecords.empty())
            if len(selected) and name not in self.state.first_seen:
                self.state.first_seen[name] = float(selected.ts.min())
            deployed = hp.deployed_at
            first = self.state.first_seen.get(name)
            honeyprefixes[name] = {
                "deployed_at": deployed,
                "first_seen": first,
                "reaction_s": (first - deployed
                               if first is not None and deployed is not None
                               else None),
            }
            if len(selected):
                hp_combos, hp_sources = day_tactics(selected, hp)
                combos += hp_combos
                total_sources += hp_sources

        shares = {label: count / total_sources
                  for label, count in combos.items()} if total_sources else {}
        return {
            "v": JOURNAL_SCHEMA_VERSION,
            "type": "observer",
            "day": day,
            "telescopes": telescopes,
            "tactics": {
                "sources": total_sources,
                "combos": dict(sorted(combos.items())),
                "shares": dict(sorted(shares.items())),
            },
            "honeyprefixes": honeyprefixes,
        }

    def _count_new_sources(self, telescope: str, level: int,
                           records: PacketRecords) -> int:
        if len(records) == 0:
            return 0
        hi, lo = mask_u64(records.src_hi, records.src_lo, level)
        seen = self.state.seen_sources[telescope][level]
        before = len(seen)
        if level <= 64:
            # The masked low half is all zeros: the high half alone
            # identifies the source, and small ints keep the set cheap.
            seen.update(np.unique(hi).tolist())
        else:
            order = np.lexsort((lo, hi))
            hi, lo = hi[order], lo[order]
            firsts = np.ones(len(hi), dtype=bool)
            firsts[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
            # (hi, lo) tuples, not packed 128-bit ints: ``zip`` builds
            # them in C, and tuple hashing beats bigint construction.
            seen.update(zip(hi[firsts].tolist(), lo[firsts].tolist()))
        return len(seen) - before

    # -- lifecycle ---------------------------------------------------------

    def checkpoint_state(self) -> ObservatoryState:
        """The cursor to embed in a scenario checkpoint.  Returned live:
        ``save_checkpoint`` pickles it synchronously, before the next
        day's observation can mutate it."""
        return self.state

    def finish(self) -> dict:
        """Close the run: ``observatory_end`` marker + index refresh."""
        from repro.observatory.index import update_index

        if self._closed:
            raise ObservatoryError("observatory already finished")
        summary = {
            "v": JOURNAL_SCHEMA_VERSION,
            "type": "observatory_end",
            "days": self.state.next_day,
            "records": self.state.records_total,
        }
        validate_record(summary)
        self._stream.write(observer_line(summary))
        self.close()
        update_index(self.directory)
        return {"directory": str(self.directory),
                "days": summary["days"], "records": summary["records"]}

    def close(self) -> None:
        """Release the stream handle without writing the end marker (what
        an aborted run does; ``finish`` calls it too)."""
        if not self._closed:
            self._closed = True
            self._stream.close()

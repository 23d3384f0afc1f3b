"""End-to-end experiment runner and result bundle."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro._util import DAY
from repro.analysis.asinfo import MetadataJoiner
from repro.analysis.records import PacketRecords
from repro.core.honeyprefix import Honeyprefix
from repro.net.addr import IPv6Prefix
from repro.obs import (
    RecordingJournal,
    RunManifest,
    config_hash,
    get_journal,
    get_registry,
    get_tracer,
    sample_peak_rss,
    set_journal,
    use_journal,
)
from repro.sim.scenario import PaperScenario, ScenarioConfig


class SimulationAborted(RuntimeError):
    """Raised by ``run_scenario(abort_after_day=...)`` — the test hook
    simulating a process killed mid-horizon.  Any state the run was asked
    to persist (checkpoints, journal lines) is already on disk when this
    raises, exactly as it would be at a real kill between day windows."""

#: A /48-truncated address has its low 80 bits zeroed; prefixes whose
#: network keeps any of those bits set can never equal a truncated net.
_LOW80 = (1 << 80) - 1


@dataclass
class ScenarioResult:
    """Everything the analysis pipeline needs from one scenario run."""

    scenario: PaperScenario
    nta: PacketRecords
    ntb: PacketRecords
    ntc: PacketRecords
    #: Metrics snapshot taken right after the run (empty when metrics are
    #: disabled) — experiments join their own numbers against it.
    telemetry: dict = field(default_factory=dict)
    #: Per-telescope ground-truth provenance sidecars
    #: (:class:`repro.analysis.groundtruth.GroundTruthRecords`): which agent
    #: emitted each captured packet — data a real telescope never has, kept
    #: out of the analysis-facing records and used only for scoring.
    truth: dict = field(default_factory=dict)
    #: ``stream_analysis`` runs only: telescope name ->
    #: :class:`~repro.analysis.streaming.StreamSummary` (scan events at
    #: every aggregation level, computed incrementally).  The record
    #: columns above are empty in that mode — the packets were analyzed
    #: and released day by day, never retained.
    streaming: dict | None = None
    #: ``observe_dir`` runs only: the observatory's closing summary
    #: (``{"directory", "days", "records"}``) after its per-day observer
    #: files, ``observations.jsonl``, and index were written.
    observatory: dict | None = None

    @property
    def config(self) -> ScenarioConfig:
        return self.scenario.config

    @property
    def honeyprefixes(self) -> dict[str, Honeyprefix]:
        return self.scenario.honeyprefixes

    @property
    def start(self) -> float:
        return 0.0

    @property
    def end(self) -> float:
        return self.config.duration_days * DAY

    @cached_property
    def joiner(self) -> MetadataJoiner:
        fabric = self.scenario.fabric
        return MetadataJoiner(fabric.prefix2as, fabric.asdb, fabric.geodb)

    def honeyprefix_records(self, name: str) -> PacketRecords:
        """NT-A records restricted to one honeyprefix's /48."""
        hp = self.honeyprefixes[name]
        return self.nta.select(self.nta.mask_dst_in(hp.prefix))

    def control_records(self) -> PacketRecords:
        """Records of the busiest *control* /48 (non-honeyprefix dark space).

        The paper's counterfactuals use the control subnet that received the
        most scanner attention, which lower-bounds the effect sizes.

        Vectorized: the /48 truncation ``(dst >> 80) << 80`` lives entirely
        in the high 64 bits, so the per-row nets come straight from the
        ``dst_hi`` column.  Ties on the packet count are broken by first
        appearance, matching :meth:`control_records_reference` exactly.
        """
        if len(self.nta) == 0:
            return PacketRecords.empty()
        excluded = {hp.prefix.network for hp in self.honeyprefixes.values()}
        excluded |= {p.network for p in self.scenario.live_prefixes}
        excluded_hi = np.fromiter(
            (net >> 64 for net in excluded if net & _LOW80 == 0),
            dtype=np.uint64,
        )
        nets_hi = (self.nta.dst_hi >> np.uint64(16)) << np.uint64(16)
        candidates = nets_hi[~np.isin(nets_hi, excluded_hi)]
        if candidates.size == 0:
            return PacketRecords.empty()
        uniq, first_seen, counts = np.unique(
            candidates, return_index=True, return_counts=True
        )
        ties = np.flatnonzero(counts == counts.max())
        best = uniq[ties[np.argmin(first_seen[ties])]]
        return self.nta.select(nets_hi == best)

    def control_records_reference(self) -> PacketRecords:
        """Per-packet reference for :meth:`control_records` (ground truth
        for the randomized equivalence tests)."""
        honey = {hp.prefix.network for hp in self.honeyprefixes.values()}
        live = {p.network for p in self.scenario.live_prefixes}
        nets = np.zeros(len(self.nta), dtype=object)
        counts: dict[int, int] = {}
        for i, dst in enumerate(self.nta.dst_addresses()):
            net = (dst >> 80) << 80
            nets[i] = net
            if net not in honey and net not in live:
                counts[net] = counts.get(net, 0) + 1
        if not counts:
            return PacketRecords.empty()
        best = max(counts, key=counts.get)
        mask = np.fromiter((n == best for n in nets), dtype=bool,
                           count=len(nets))
        return self.nta.select(mask)

    def telescopes(self) -> dict[str, PacketRecords]:
        return {"NT-A": self.nta, "NT-B": self.ntb, "NT-C": self.ntc}

    def truth_combined(self):
        """All telescopes' ground-truth sidecars as one table."""
        from repro.analysis.groundtruth import GroundTruthRecords

        return GroundTruthRecords.concat(list(self.truth.values()))


#: Checkpoints (and the sharded path's day windows) land every this many
#: days unless overridden.
DEFAULT_CHECKPOINT_EVERY = 10


def run_scenario(
    config: ScenarioConfig | None = None,
    progress: bool = False,
    cache_dir=None,
    *,
    jobs: int = 1,
    checkpoint_dir=None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    resume: bool = False,
    abort_after_day: int | None = None,
    stream_analysis: bool = False,
    observe_dir=None,
    spill_dir=None,
    spill_budget_bytes: int | None = None,
) -> ScenarioResult:
    """Build, run, and bundle one full scenario.

    Each stage (world construction, the day loop, freezing the captures)
    is timed into the active metrics registry and wrapped in a trace span
    under one ``run_scenario`` root, and the resulting metrics snapshot
    rides along as :attr:`ScenarioResult.telemetry`.  When a journal is
    active, the run opens with its ``run_manifest`` (config hash + seed +
    package version) and closes with a ``run_end`` summary.

    With ``cache_dir``, the run goes through the on-disk
    :class:`~repro.exec.cache.ScenarioCache`: a verified entry for this
    exact config (hash covers every field) and package version is loaded
    instead of simulating — skipping ``scenario.build``/``scenario.run``
    entirely — and a miss simulates as usual, then stores the frozen
    bundle.  The returned result renders every experiment byte-identically
    either way; the journal records ``cache_hit``/``cache_store`` so a
    warm run is auditable from its artifacts.

    Execution modes (all byte-identical in records, counters, and journal
    — the non-negotiable determinism contract):

    * ``jobs > 1`` shards the day loop across that many replicated worker
      processes (:mod:`repro.exec.shard`), in day windows that end on
      multiples of ``checkpoint_every``.
    * ``checkpoint_dir`` saves a resumable engine-state checkpoint every
      ``checkpoint_every`` days; with ``resume=True`` a usable checkpoint
      is loaded, the covered days are fast-forwarded without re-emitting
      a single packet, and the journal records emitted before the
      checkpoint are replayed verbatim into the active journal.  The
      cadence may differ between the killed and the resumed run.
    * ``abort_after_day=N`` raises :class:`SimulationAborted` once day N
      has completed and its per-day sinks (stream feed, observatory,
      checkpoint) have run, in either mode — the test hook for
      kill/resume equivalence.

    Memory-bounded modes (each changes what is held, never what is
    computed):

    * ``stream_analysis=True`` runs the scan/flow detectors *during* the
      day loop: each day's captures are drained into per-telescope
      :class:`~repro.analysis.streaming.StreamAnalyzer` instances and
      released, so peak memory holds one day of packets instead of the
      horizon.  The result carries :attr:`ScenarioResult.streaming`
      summaries whose events are element-identical to running
      ``detect_scans`` over the batch records; the record columns come
      back empty.  Composes with ``jobs`` and ``checkpoint_dir`` (open
      analyzer state rides in the checkpoint); incompatible with
      ``cache_dir`` (the cache stores record bundles).
    * ``spill_dir`` keeps the *batch* path's captures bounded instead:
      buffered chunks past ``spill_budget_bytes`` are sealed to
      checksummed npz segments and streamed back at freeze time.
      Incompatible with ``checkpoint_dir`` (checkpoints snapshot
      in-memory chunks) and redundant under ``stream_analysis`` (the
      day-drain already bounds the buffer), so both pairings are errors.

    ``observe_dir`` turns a streaming run into the longitudinal
    observatory (:mod:`repro.observatory`): one validated, bit-
    reproducible observer JSON record per simulated day (scan-event
    rates, new-source discovery, tactic mix, honeyprefix reaction
    latency) written into the directory, mirrored to
    ``observations.jsonl``, and indexed at the end.  Requires
    ``stream_analysis=True``; composes with ``jobs`` and
    ``checkpoint_dir`` (the observer cursor rides in the checkpoint).
    """
    config = config if config is not None else ScenarioConfig()
    if observe_dir is not None and not stream_analysis:
        raise ValueError(
            "observe_dir requires stream_analysis=True: observer records "
            "are derived from the streaming day drain")
    if stream_analysis and cache_dir is not None:
        raise ValueError(
            "stream_analysis runs produce no record bundle to cache; "
            "drop cache_dir or stream_analysis")
    if spill_dir is not None and checkpoint_dir is not None:
        raise ValueError(
            "capture spill and checkpointing are mutually exclusive: "
            "a checkpoint snapshots in-memory chunks only")
    if spill_dir is not None and stream_analysis:
        raise ValueError(
            "stream_analysis already bounds capture memory by draining "
            "each day; spill_dir would hide chunks from the day drain")
    registry = get_registry()
    tracer = get_tracer()

    checkpoint = None
    if resume and checkpoint_dir is not None:
        from repro.exec.freeze import load_checkpoint

        checkpoint = load_checkpoint(checkpoint_dir, config)
        if checkpoint is not None:
            # A checkpoint can only resume into the mode that wrote it:
            # batch checkpoints carry chunks the streaming path would
            # never analyze, streaming ones carry analyzer state the
            # batch path would silently drop.
            if stream_analysis and checkpoint.streaming is None:
                raise ValueError(
                    "cannot resume a batch-mode checkpoint with "
                    "stream_analysis=True")
            if not stream_analysis and checkpoint.streaming is not None:
                raise ValueError(
                    "cannot resume a stream_analysis checkpoint without "
                    "stream_analysis=True")
            # Same pairing rule for the observatory cursor: its seen-source
            # sets and event counters only mean anything to a run that
            # keeps observing, and a run that observes cannot start from a
            # checkpoint that never tracked them.
            if observe_dir is not None and checkpoint.observatory is None:
                raise ValueError(
                    "cannot resume a non-observatory checkpoint with "
                    "observe_dir set")
            if observe_dir is None and checkpoint.observatory is not None:
                raise ValueError(
                    "cannot resume an observatory checkpoint without "
                    "observe_dir")

    streams = None
    if stream_analysis:
        from repro.analysis.streaming import StreamAnalyzer

        if checkpoint is not None and checkpoint.streaming is not None:
            streams = checkpoint.streaming
        else:
            streams = {name: StreamAnalyzer(name)
                       for name in ("NT-A", "NT-B", "NT-C")}

    # With checkpointing on, wrap the active journal in a recorder for the
    # duration of the run: checkpoints then carry every record emitted so
    # far, and a resumed run replays them for a byte-identical journal.
    previous_journal = None
    if checkpoint_dir is not None:
        recorder = RecordingJournal(inner=get_journal())
        previous_journal = set_journal(recorder)
    observatory = None
    try:
        journal = get_journal()
        cache = None
        if checkpoint is None:
            # The manifest opens the journal whether the run simulates or
            # loads from cache: a warm run stays auditable from artifacts.
            journal.emit(
                "run_manifest",
                **RunManifest.from_config(config).to_record_fields())
            if cache_dir is not None:
                from repro.exec.cache import ScenarioCache

                cache = ScenarioCache(cache_dir)
                with tracer.span("run_scenario.cached",
                                 days=config.duration_days,
                                 seed=config.seed):
                    cached = cache.load(config)
                if cached is not None:
                    return cached
        else:
            # Resuming mid-run: the checkpoint's records (the original
            # manifest included) are the journal's opening lines, and the
            # cache is only consulted for storage at the end.
            journal.replay(checkpoint.journal_records)
            if cache_dir is not None:
                from repro.exec.cache import ScenarioCache

                cache = ScenarioCache(cache_dir)
        start_day = checkpoint.next_day if checkpoint is not None else 0

        if observe_dir is not None:
            from repro.observatory import Observatory

            observatory = Observatory(
                observe_dir, config, start_day=start_day,
                state=(checkpoint.observatory
                       if checkpoint is not None else None),
            )

        with tracer.span("run_scenario", days=config.duration_days,
                         seed=config.seed):
            scenario = _simulate(
                config, checkpoint, start_day, progress=progress, jobs=jobs,
                checkpoint_dir=checkpoint_dir,
                checkpoint_every=checkpoint_every,
                abort_after_day=abort_after_day, streams=streams,
                observatory=observatory,
                spill_dir=spill_dir, spill_budget_bytes=spill_budget_bytes,
            )
            sample_peak_rss(registry, stage="run")
            summaries = None
            observatory_summary = None
            with registry.timer("scenario.freeze"), \
                    tracer.span("scenario.freeze"):
                if streams is not None:
                    summaries = {name: analyzer.finish()
                                 for name, analyzer in streams.items()}
                    nta = ntb = ntc = PacketRecords.empty()
                    truth = {}
                    counts = [s.records_in for s in summaries.values()]
                    if observatory is not None:
                        observatory_summary = observatory.finish()
                else:
                    caps = scenario.capturers()
                    nta, ntb, ntc = (cap.to_records()
                                     for cap in caps.values())
                    truth = {name: cap.to_truth()
                             for name, cap in caps.items()}
                    counts = [len(nta), len(ntb), len(ntc)]
            journal.emit("run_end", days=config.duration_days,
                         packets=sum(counts))
            sample_peak_rss(registry, stage="freeze")
        for key, count in zip(("nta", "ntb", "ntc"), counts):
            registry.gauge(f"scenario.records.{key}").set(count)
        result = ScenarioResult(
            scenario=scenario, nta=nta, ntb=ntb, ntc=ntc,
            telemetry=registry.snapshot() if registry.enabled else {},
            truth=truth, streaming=summaries,
            observatory=observatory_summary,
        )
        if cache is not None:
            cache.store(result)
        return result
    finally:
        # An aborted observatory run releases its stream handle without
        # the end marker — exactly the on-disk state a killed process
        # leaves, which resume is built to heal.
        if observatory is not None:
            observatory.close()
        if checkpoint_dir is not None:
            set_journal(previous_journal)


def _feed_streams(scenario, streams, journal, day: int,
                  observatory=None) -> None:
    """Drain each telescope's day of captures into its analyzer.

    ``now`` is the day boundary, so sessions idle past the timeout close
    deterministically each day regardless of when their source next shows
    up.  One ``stream_detection`` record per telescope, in fixed order —
    the serial and sharded paths emit identical journals.

    With an ``observatory``, the drained day records are handed to it
    after all three feeds, so the observer record sees the day's
    post-feed tracker state alongside the raw packets.  The records are
    released either way once the observation is written — the one-day
    memory bound is unchanged.
    """
    drained = {} if observatory is not None else None
    for name, cap in scenario.capturers().items():
        records = cap.drain_day_records()
        closed = streams[name].feed(records, now=(day + 1) * DAY)
        journal.emit(
            "stream_detection", day=day, telescope=name,
            records_in=len(records), events_closed=closed,
            open_sessions=streams[name].open_sessions,
        )
        if drained is not None:
            drained[name] = records
    if observatory is not None:
        observatory.observe_day(day, scenario, streams, drained)


def _simulate(config, checkpoint, start_day, *, progress, jobs,
              checkpoint_dir, checkpoint_every, abort_after_day,
              streams=None, observatory=None, spill_dir=None,
              spill_budget_bytes=None):
    """Build (or rebuild-and-fast-forward) the scenario and run its days,
    serially or sharded across ``jobs`` workers; returns the run
    scenario.

    Both modes share one build and one set of per-day sinks; they differ
    only in the day driver that produces each day's state.
    """
    registry = get_registry()
    tracer = get_tracer()
    journal = get_journal()
    duration = config.duration_days
    cadence = max(1, checkpoint_every)
    chash = config_hash(config)

    pool = None
    if jobs > 1:
        from repro.exec.shard import ShardPool

        # Spawn first: worker replicas build while the parent builds.
        pool = ShardPool(config, jobs, start_day)
    try:
        with registry.timer("scenario.build"), \
                tracer.span("scenario.build"):
            scenario = PaperScenario(config)
            # A sharded run's parent never polls: its workers replay
            # their own agents, it advances the engine alone.
            with use_journal(None):
                for day in range(start_day):
                    scenario.replay_day(day, agents=pool is None)
            if checkpoint is not None:
                from repro.exec.freeze import restore_checkpoint

                restore_checkpoint(scenario, checkpoint)
            if spill_dir is not None:
                for cap in scenario.capturers().values():
                    if spill_budget_bytes is not None:
                        cap.enable_spill(spill_dir, spill_budget_bytes)
                    else:
                        cap.enable_spill(spill_dir)
        sample_peak_rss(registry, stage="build")

        def end_day(day: int, emitted: int) -> None:
            """The per-day sinks, in order: progress line, stream feed
            (plus observatory), cadence checkpoint, abort hook.  The
            ``checkpoint`` record goes out *before* the file is written
            so the checkpoint carries its own record and a resumed
            journal replays it in place."""
            if progress and day % 10 == 0:
                counters = scenario.counters
                print(f"day {day}: {emitted} packets "
                      f"(NT-A {counters.nta}, NT-C {counters.ntc})")
            if streams is not None:
                _feed_streams(scenario, streams, journal, day,
                              observatory=observatory)
            next_day = day + 1
            if (checkpoint_dir is not None and next_day < duration
                    and next_day % cadence == 0):
                from repro.exec.freeze import (
                    capture_checkpoint,
                    save_checkpoint,
                )

                journal.emit("checkpoint", day=next_day, config_hash=chash)
                save_checkpoint(
                    checkpoint_dir,
                    capture_checkpoint(
                        scenario, next_day, journal.plain_records(),
                        streaming=streams,
                        observatory=(observatory.checkpoint_state()
                                     if observatory is not None else None)),
                    config,
                )
            if abort_after_day is not None and day >= abort_after_day:
                raise SimulationAborted(f"aborted after day {day}")

        with registry.timer("scenario.run"), \
                tracer.span("scenario.run", jobs=jobs):
            if pool is None:
                for day in range(start_day, duration):
                    end_day(day, scenario.run_day(day))
            else:
                from repro.exec.shard import run_sharded_days

                # Windows end on cadence days, so every checkpoint lands
                # on a window boundary.
                run_sharded_days(scenario, pool, start_day=start_day,
                                 duration=duration, window_days=cadence,
                                 on_day_end=end_day)
    finally:
        if pool is not None:
            pool.close()
    return scenario

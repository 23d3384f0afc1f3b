"""Intra-scenario process sharding: one run, replicated worker worlds.

The experiment pool (:mod:`repro.exec.pool`) parallelizes *across*
scenario runs; this module parallelizes *inside* one.  ``jobs`` persistent
workers each build the identical :class:`~repro.sim.scenario.PaperScenario`
(construction is deterministic under the config seed) and run the day loop,
but each only polls and emits the agents whose index is congruent to its
shard number — every packet is emitted exactly once.  Workers never
dispatch: the parent advances its own replica's engine to day *d*,
concatenates the day's worker batches in agent order, and routes them
through the same :meth:`~repro.sim.scenario.PaperScenario.dispatch_batch`
call a serial run makes.  Capture and honeypot reaction therefore happen
once, in the parent, against the engine state a serial run has — the
parent owns every capturer, Twinklenet session table and DNAT gateway.

Why replication is sound: world evolution (engine events, hitlist cycles,
BGP collectors, honeyprefix triggers) depends only on the config seed,
never on emitted traffic or on which agents polled, so every replica walks
the same world; and every poll/emission draw comes from a per-agent RNG or
a key-derived decision stream, so a shard's draws are untouched by the
other shards' absence.  The parent's replica never polls; it provides the
honeyprefix/fabric surface, the engine-phase journal records (deploys,
retractions) and every telescope.

**Identity contract**: the merged journal, capture records, ground truth,
dispatch counters *and honeypot state* (Twinklenet sessions, evictions,
rx/tx; every gateway's NAT log) are identical to a serial run's.  The
subtle part is journal order.  A serial day writes: engine-event records
(deploy/retract/session_cancel, in event order, cancels in agent order
within an event), then each agent's poll records in agent order, then the
day record.  Workers therefore tag engine-phase records with the engine's
processed-event count — identical across replicas because every replica
processes the identical event sequence — and the parent sort-merges on
``(event ordinal, agent index, emission order)``, with its own
deploy/retract records keyed at agent index -1 (a serial ``_withdraw``
emits the retraction before any cancel).

Workers ship, per day: the engine-phase session records, each agent's
poll records, and one batch of everything their agents emitted (rows
carry the emitting agent in ``origin``, which restores agent order in
the parent).  Workers run one window ahead: while the parent dispatches
and reacts window *k*, they emit window *k + 1*.
"""

from __future__ import annotations

import traceback

import numpy as np

from repro._util import DAY
from repro.exec.parallel import process_context
from repro.net.batch import PacketBatch
from repro.obs import (
    get_journal,
    set_journal,
    set_registry,
    set_tracer,
    use_journal,
)
from repro.obs.journal import RecordingJournal

#: Journal record types that originate from scanner agents — the only
#: kinds a shard worker contributes to the merged journal (everything
#: else, deploys and retractions included, comes from the parent replica).
_SESSION_TYPES = frozenset({"session_start", "session_cancel",
                            "session_drop"})


def shard_indices(n_agents: int, shard_index: int, shard_count: int):
    """The agent indices shard ``shard_index`` of ``shard_count`` owns."""
    return range(shard_index, n_agents, shard_count)


# -- worker side -----------------------------------------------------------

def _worker_day(scenario, recorder, day: int, shard_index: int,
                shard_count: int) -> dict:
    """Poll and emit one day for this shard; returns the merge payload."""
    # Engine phase: tag records with the processed-event ordinal so the
    # parent can interleave cancels from all shards in serial order.
    recorder.context_fn = lambda: scenario.engine.processed
    day_start, day_end = scenario.begin_day(day)
    engine_records = [
        (tag, fields.get("agent", -1), i, rtype, fields)
        for i, (tag, rtype, fields) in enumerate(recorder.records)
        if rtype in _SESSION_TYPES
    ]
    recorder.context_fn = None
    recorder.clear()
    polls = []
    batches = []
    for idx in shard_indices(len(scenario.agents), shard_index,
                             shard_count):
        batches.append(scenario.emit_agent_day(scenario.agents[idx],
                                               day_start, day_end))
        if recorder.records:
            polls.append((idx, [(rtype, fields)
                                for _, rtype, fields in recorder.records]))
            recorder.clear()
    scenario._last_poll = day_end
    return {"engine": engine_records, "polls": polls,
            "batch": PacketBatch.concat(batches)}


def _worker_main(conn, config, shard_index: int, shard_count: int,
                 start_day: int) -> None:
    """Persistent shard worker: build, fast-forward, then serve windows."""
    try:
        # Isolate observability: the fork inherited the parent's registry/
        # tracer/journal objects — a worker must never write to them.
        set_registry(None)
        set_tracer(None)
        recorder = RecordingJournal()
        set_journal(recorder)
        from repro.sim.scenario import PaperScenario

        scenario = PaperScenario(config)
        if start_day:
            with use_journal(None):
                for day in range(start_day):
                    scenario.replay_day(day, shard_index=shard_index,
                                        shard_count=shard_count)
        recorder.clear()
        conn.send(("ready", shard_index))
        while True:
            message = conn.recv()
            if message[0] == "stop":
                return
            _, window_start, window_end = message
            days = [
                _worker_day(scenario, recorder, day, shard_index,
                            shard_count)
                for day in range(window_start, window_end)
            ]
            conn.send(("window", days))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


# -- parent side -----------------------------------------------------------

class ShardWorkerError(RuntimeError):
    """A shard worker died; carries its traceback text."""


class ShardPool:
    """``jobs`` persistent shard workers over pipes.

    Spawned eagerly so worker world construction overlaps the parent's
    own replica build; the first :meth:`send_window` waits for readiness.
    """

    def __init__(self, config, jobs: int, start_day: int = 0):
        if jobs < 2:
            raise ValueError(f"a shard pool needs jobs >= 2, got {jobs}")
        # Flush buffered journal bytes before forking: a child inheriting
        # a non-empty stdio buffer would duplicate it at exit.
        get_journal().flush()
        ctx = process_context()
        self.jobs = jobs
        self._conns = []
        self._procs = []
        self._ready = False
        for shard in range(jobs):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, config, shard, jobs, start_day),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    def _recv(self, conn):
        try:
            message = conn.recv()
        except EOFError as error:
            raise ShardWorkerError(
                "shard worker exited without reporting a result"
            ) from error
        if message[0] == "error":
            raise ShardWorkerError(f"shard worker failed:\n{message[1]}")
        return message

    def send_window(self, window_start: int, window_end: int) -> None:
        if not self._ready:
            for conn in self._conns:
                self._recv(conn)  # ("ready", shard)
            self._ready = True
        for conn in self._conns:
            conn.send(("run", window_start, window_end))

    def recv_window(self) -> list:
        """Per-worker day payload lists, in shard order."""
        return [self._recv(conn)[1] for conn in self._conns]

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (OSError, ValueError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)


def merge_day(scenario, journal, day: int, parent_records,
              worker_payloads) -> None:
    """Merge one day's shard outputs into the parent.

    Reconstructs the serial journal order (engine phase sort-merged on
    ``(event ordinal, agent, emission order)``, then poll records in
    agent order, then the day record), and dispatches the day's rows,
    restored to agent order, through the parent's telescopes.  The
    parent's engine must already stand at the end of ``day``.
    """
    engine_phase = [
        (tag, fields.get("agent", -1), i, rtype, fields)
        for i, (tag, rtype, fields) in enumerate(parent_records)
        if rtype not in _SESSION_TYPES
    ]
    for payload in worker_payloads:
        engine_phase.extend(payload["engine"])
    engine_phase.sort(key=lambda record: (record[0], record[1], record[2]))
    for _tag, _agent, _i, rtype, fields in engine_phase:
        journal.emit(rtype, **fields)

    polls = sorted(
        (entry for payload in worker_payloads for entry in payload["polls"]),
        key=lambda entry: entry[0],
    )
    for _idx, records in polls:
        for rtype, fields in records:
            journal.emit(rtype, **fields)

    batch = PacketBatch.concat([payload["batch"]
                                for payload in worker_payloads])
    if batch.origin is not None:
        # Agent-major, each agent's rows in emission order: the serial
        # day batch.
        batch = batch.select(np.argsort(batch.origin, kind="stable"))
    scenario.dispatch_batch(batch)
    journal.emit("day", day=day, emitted=len(batch))


def run_sharded_days(scenario, pool: ShardPool, *, start_day: int,
                     duration: int, window_days: int, on_day_end) -> None:
    """Drive the day loop across the pool in day windows.

    Workers emit a window while the parent merges the previous one: for
    each day, the parent advances its own engine (buffering its
    deploy/retract records with event ordinals), then merges and
    dispatches the workers' rows.  ``on_day_end(day)`` runs
    after each day's merge, when the parent capturers, counters and
    honeypots hold exactly the state a serial run has after that day.

    Windows end on multiples of ``window_days`` (or at ``duration``): a
    run resumed between two boundaries first runs a short window up to
    the next one, so a checkpoint taken by ``on_day_end`` on a boundary
    day is the one a serial run would take.
    """
    journal = get_journal()
    window_days = max(1, int(window_days))

    def window_end_of(start: int) -> int:
        return min((start // window_days + 1) * window_days, duration)

    window_start = start_day
    if window_start < duration:
        pool.send_window(window_start, window_end_of(window_start))
    while window_start < duration:
        window_end = window_end_of(window_start)
        worker_days = pool.recv_window()
        if window_end < duration:
            pool.send_window(window_end, window_end_of(window_end))
        for offset, day in enumerate(range(window_start, window_end)):
            buffer = RecordingJournal(
                context_fn=lambda: scenario.engine.processed
            )
            with use_journal(buffer):
                scenario.begin_day(day)
            scenario._last_poll = (day + 1) * DAY
            merge_day(
                scenario, journal, day, buffer.records,
                [per_worker[offset] for per_worker in worker_days],
            )
            on_day_end(day)
        window_start = window_end

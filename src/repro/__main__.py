"""Command-line entry point: ``python -m repro``.

Subcommands:

* ``list`` — show the available experiments,
* ``run`` — run the full scenario and print the headline tables,
* ``experiment <id> [...]`` — regenerate specific tables/figures,
* ``observe`` — run a streaming observatory: one schema-versioned
  observer JSON per simulated day (scan-event rates per telescope,
  new-scanner discovery, tactic mix, honeyprefix reaction latency),
  then print the rolling drift/changepoint report over the day files,
* ``serve`` — run the multi-tenant scenario service: an asyncio HTTP API
  where clients POST a ``ScenarioConfig`` JSON to ``/runs``, identical
  configs dedupe onto one in-flight run, warm configs are served from the
  scenario cache, progress streams as Server-Sent Events, and
  ``/metrics``/``/traces`` are the ops surface (see
  ``docs/ARCHITECTURE.md``, "Scenario service").

Options shared by ``run``/``experiment``: ``--days``, ``--scale``,
``--seed``, ``--tail``, and the observability trio (composable in one
invocation):

* ``--metrics[=FILE]`` — print a telemetry snapshot after the run; with
  ``FILE``, also write it as JSON;
* ``--trace[=FILE]`` — trace the pipeline and print a self-time-per-stage
  table; with ``FILE``, also write Chrome/Perfetto trace-event JSON;
* ``--journal[=FILE]`` — append the run-provenance journal (manifest,
  per-day progress, session/honeyprefix lifecycle, detection summaries)
  to ``FILE`` (default ``journal.jsonl``);
* ``--cache[=DIR]`` — reuse/store the scenario result in an on-disk cache
  (default ``.cache``); ``--no-cache`` ignores any configured cache;
* ``--checkpoint[=DIR]`` — save a resumable engine-state checkpoint every
  ``--checkpoint-every`` days (default dir ``.checkpoints``); ``--resume``
  picks up from the last checkpoint instead of starting at day zero.

``run`` additionally takes ``--jobs N`` (shard the day loop's agents
across ``N`` worker processes), which produces byte-identical results to
a serial run.  ``experiment`` takes ``--jobs N`` to render report sections
in ``N`` worker processes (the report bytes do not depend on N).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.experiments import EXPERIMENTS
from repro.obs import (
    Journal,
    MetricsRegistry,
    Tracer,
    get_tracer,
    set_journal,
    set_registry,
    set_tracer,
)
from repro.sim import ScenarioConfig, run_scenario

#: --journal without a path appends here.
DEFAULT_JOURNAL_PATH = "journal.jsonl"

#: --cache without a directory uses this.
DEFAULT_CACHE_DIR = ".cache"

#: --checkpoint without a directory uses this.
DEFAULT_CHECKPOINT_DIR = ".checkpoints"

#: --spill without a directory uses this.
DEFAULT_SPILL_DIR = ".spill"

#: --observe / the observe subcommand write observer day files here.
DEFAULT_OBSERVE_DIR = "data"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Unveiling IPv6 Scanning Dynamics'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser(
        "list", help="list available experiments",
        description="List the experiment ids 'experiment' accepts.  "
                    "Scenario-driven rows carry a marker column: "
                    "'*' means the experiment fans out internally with "
                    "--jobs N; 's' means its detection inputs can be "
                    "computed by a streaming run (run --stream).")
    list_p.add_argument("--json", action="store_true",
                        help="emit the experiment table as JSON (id, "
                             "standalone, jobs- and stream-eligibility) "
                             "instead of text")

    def add_scenario_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--days", type=int, default=100,
                       help="simulated days (default 100)")
        p.add_argument("--scale", type=float, default=2e-4,
                       help="volume scale vs. the paper (default 2e-4)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tail", type=int, default=140,
                       help="number of long-tail scanner ASes")
        p.add_argument("--metrics", nargs="?", const=True, default=None,
                       metavar="FILE",
                       help="collect pipeline telemetry and print a sorted "
                            "snapshot; with FILE, also write it as JSON")
        p.add_argument("--trace", nargs="?", const=True, default=None,
                       metavar="FILE",
                       help="trace the pipeline and print a self-time-per-"
                            "stage table; with FILE, also write Chrome/"
                            "Perfetto trace-event JSON")
        p.add_argument("--journal", nargs="?", const=DEFAULT_JOURNAL_PATH,
                       default=None, metavar="FILE",
                       help="write the run-provenance journal (JSONL) to "
                            f"FILE (default {DEFAULT_JOURNAL_PATH})")
        p.add_argument("--cache", nargs="?", const=DEFAULT_CACHE_DIR,
                       default=None, metavar="DIR",
                       help="load/store the scenario result via the on-disk "
                            f"cache in DIR (default {DEFAULT_CACHE_DIR})")
        p.add_argument("--no-cache", action="store_true",
                       help="ignore any configured cache and simulate")
        p.add_argument("--checkpoint", nargs="?",
                       const=DEFAULT_CHECKPOINT_DIR, default=None,
                       metavar="DIR",
                       help="save a resumable checkpoint every "
                            "--checkpoint-every days into DIR (default "
                            f"{DEFAULT_CHECKPOINT_DIR})")
        p.add_argument("--checkpoint-every", type=int, default=10,
                       metavar="DAYS",
                       help="checkpoint cadence in days (default 10)")
        p.add_argument("--resume", action="store_true",
                       help="resume from the last usable checkpoint in "
                            "the --checkpoint directory")

    run_p = sub.add_parser("run", help="run the scenario, print headlines")
    run_p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="shard the day loop's agents across N worker "
                            "processes (results are identical for every N)")
    run_p.add_argument("--stream", action="store_true",
                       help="run scan detection incrementally during the "
                            "day loop and release each day's packets: peak "
                            "memory holds one day, not the horizon; prints "
                            "a streaming scan summary instead of the "
                            "record-driven tables")
    run_p.add_argument("--observe", nargs="?", const=DEFAULT_OBSERVE_DIR,
                       default=None, metavar="DIR",
                       help="with --stream: emit one schema-versioned "
                            "observer JSON per simulated day into DIR "
                            f"(default {DEFAULT_OBSERVE_DIR})")
    run_p.add_argument("--spill", nargs="?", const=DEFAULT_SPILL_DIR,
                       default=None, metavar="DIR",
                       help="bound capture memory by sealing buffered "
                            "chunks past the budget to checksummed npz "
                            "segments in DIR (default "
                            f"{DEFAULT_SPILL_DIR})")
    run_p.add_argument("--spill-budget-mb", type=int, default=None,
                       metavar="MB",
                       help="capture bytes to buffer before spilling "
                            "(default 64)")
    add_scenario_args(run_p)

    exp_p = sub.add_parser("experiment",
                           help="regenerate specific tables/figures")
    exp_p.add_argument("ids", nargs="+", metavar="ID",
                       help="experiment ids (see 'list'), or 'all'")
    exp_p.add_argument("--output", default=None,
                       help="also write the combined report to this file")
    exp_p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="render report sections in N worker processes "
                            "(output is identical for every N)")
    add_scenario_args(exp_p)

    obs_p = sub.add_parser(
        "observe",
        help="run the scenario in observatory mode, print a drift report")
    obs_p.add_argument("--data", default=DEFAULT_OBSERVE_DIR, metavar="DIR",
                       help="observatory directory: one observer JSON per "
                            "simulated day, plus observations.jsonl and "
                            f"index.jsonl (default {DEFAULT_OBSERVE_DIR})")
    obs_p.add_argument("--summary-only", action="store_true",
                       help="skip the simulation; summarize the day files "
                            "already in --data")
    obs_p.add_argument("--json", default=None, metavar="FILE",
                       help="also write the drift report as JSON to FILE")
    obs_p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="shard the day loop's agents across N worker "
                            "processes (day files are identical for "
                            "every N)")
    add_scenario_args(obs_p)

    serve_p = sub.add_parser(
        "serve", help="serve scenario runs over HTTP (multi-tenant API)")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8642,
                         help="TCP port (default 8642; 0 picks a free one)")
    serve_p.add_argument("--cache", default=DEFAULT_CACHE_DIR, metavar="DIR",
                         help="scenario cache directory backing the service "
                              f"(default {DEFAULT_CACHE_DIR})")
    serve_p.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes executing cold runs")
    serve_p.add_argument("--queue-limit", type=int, default=32, metavar="N",
                         help="max pending runs before POSTs get 503 "
                              "(default 32)")
    serve_p.add_argument("--cache-budget", type=int, default=None,
                         metavar="BYTES",
                         help="evict least-recently-used unpinned entries "
                              "beyond this many bytes (default: no budget)")
    serve_p.add_argument("--journals", default=None, metavar="DIR",
                         help="run-journal directory (default "
                              "<cache>/journals)")
    serve_p.add_argument("--checkpoint", nargs="?",
                         const=DEFAULT_CHECKPOINT_DIR, default=None,
                         metavar="DIR",
                         help="checkpoint in-flight runs every "
                              "--checkpoint-every days so a killed service "
                              "resumes instead of recomputing (default dir "
                              f"{DEFAULT_CHECKPOINT_DIR})")
    serve_p.add_argument("--checkpoint-every", type=int, default=10,
                         metavar="DAYS", help="checkpoint cadence "
                         "(default 10)")
    serve_p.add_argument("--observatory", default=None, metavar="DIR",
                         help="expose the observatory directory at "
                              "GET /observatory (SSE tail) and "
                              "GET /observatory/<day>")
    return parser


def _config(args) -> ScenarioConfig:
    return ScenarioConfig(
        seed=args.seed, duration_days=args.days,
        volume_scale=args.scale, n_tail=args.tail,
    )


def _cache_dir(args):
    return None if args.no_cache else args.cache


def _mode_conflict(args) -> str | None:
    """First mutually-exclusive option combination (or out-of-range
    option value) as a one-line message, or None when the requested mode
    set is coherent.

    Centralising the refusals keeps every combination to the same
    contract: one ``error:`` line on stderr, exit status 2, no traceback.
    """
    observe_run = args.command == "observe" and not args.summary_only
    stream = getattr(args, "stream", False) or observe_run
    observe = getattr(args, "observe", None)
    spill = getattr(args, "spill", None)
    if stream and _cache_dir(args) is not None:
        return ("--stream is incompatible with --cache (streaming runs "
                "produce no record bundle to cache)")
    if observe is not None and not stream:
        return ("--observe requires --stream (observer records are "
                "derived from the streaming day drain)")
    if spill is not None and stream:
        return ("--spill is incompatible with --stream (a streaming run "
                "already releases each day's packets)")
    if spill is not None and args.checkpoint:
        return ("--spill is incompatible with --checkpoint (spilled "
                "segments are not captured by checkpoints)")
    if args.resume and not args.checkpoint:
        return "--resume requires --checkpoint (nothing to resume from)"
    budget_mb = getattr(args, "spill_budget_mb", None)
    if budget_mb is not None and budget_mb <= 0:
        return f"--spill-budget-mb must be positive, got {budget_mb}"
    return None


def _scenario(args) -> object:
    print(f"running scenario: {args.days} days, scale {args.scale}, "
          f"seed {args.seed} ...", file=sys.stderr)
    budget_mb = getattr(args, "spill_budget_mb", None)
    return run_scenario(
        _config(args), cache_dir=_cache_dir(args),
        jobs=getattr(args, "jobs", 1) if args.command == "run" else 1,
        checkpoint_dir=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        stream_analysis=getattr(args, "stream", False),
        observe_dir=getattr(args, "observe", None),
        spill_dir=getattr(args, "spill", None),
        spill_budget_bytes=(budget_mb * 1024 * 1024
                            if budget_mb is not None else None),
    )


def _render_stream_summary(result) -> str:
    """The ``run --stream`` headline: per-telescope scan-event counts at
    every aggregation level, computed without retaining the packets."""
    lines = ["Streaming scan summary (events element-identical to batch "
             "detect_scans)"]
    lines.append(f"  {'telescope':10s} {'packets':>9s} "
                 f"{'scans/128':>9s} {'scans/64':>8s} {'scans/48':>8s}")
    for name, summary in result.streaming.items():
        counts = {level: len(events)
                  for level, events in summary.events.items()}
        lines.append(
            f"  {name:10s} {summary.records_in:9d} "
            f"{counts.get(128, 0):9d} {counts.get(64, 0):8d} "
            f"{counts.get(48, 0):8d}"
        )
    return "\n".join(lines)


def _observe(args) -> int:
    """The ``observe`` subcommand: a streaming observatory run (unless
    ``--summary-only``) followed by the drift report over its day files."""
    import json

    from repro.observatory import DriftReport, list_day_files

    if not args.summary_only:
        result = run_scenario(
            _config(args), jobs=args.jobs,
            checkpoint_dir=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
            stream_analysis=True, observe_dir=args.data,
        )
        summary = result.observatory
        print(f"observatory: {summary['days']} day files, "
              f"{summary['records']} telescope records in {args.data}",
              file=sys.stderr)
    if not list_day_files(args.data):
        print(f"error: no observer day files in {args.data}",
              file=sys.stderr)
        return 2
    report = DriftReport.from_data_dir(args.data)
    print(report.render())
    if args.json:
        with open(args.json, "w") as stream:
            json.dump(report.to_json(), stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"drift report written to {args.json}", file=sys.stderr)
    return 0


def _emit_metrics(registry: MetricsRegistry, metrics_arg) -> None:
    """Print the snapshot table; write JSON when a path was given."""
    print()
    print(registry.render_table())
    if isinstance(metrics_arg, str):
        registry.write_json(metrics_arg)
        print(f"metrics written to {metrics_arg}", file=sys.stderr)


def _emit_trace(tracer: Tracer, trace_arg) -> None:
    """Print the self-time table; write Chrome trace when a path was given."""
    print()
    print(tracer.render_self_time())
    if isinstance(trace_arg, str):
        tracer.write_chrome_trace(trace_arg)
        print(f"trace written to {trace_arg}", file=sys.stderr)


def _serve(args) -> int:
    """Run the scenario service until SIGINT/SIGTERM, then drain."""
    import asyncio
    import signal

    from repro.service import ScenarioServer, ScenarioService

    service = ScenarioService(
        args.cache, jobs=args.jobs, queue_limit=args.queue_limit,
        max_cache_bytes=args.cache_budget, journals_dir=args.journals,
        checkpoint_dir=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        observatory_dir=args.observatory,
    )
    server = ScenarioServer(service, host=args.host, port=args.port)

    async def amain() -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, server.request_stop)
        task = asyncio.ensure_future(server.serve_async())
        # Announce only once the socket is bound (port 0 resolves here).
        while not server._started.is_set():
            await asyncio.sleep(0.01)
        print(f"scenario service on http://{args.host}:{server.port} "
              f"(cache {args.cache}, {args.jobs} worker(s), "
              f"queue limit {args.queue_limit})", file=sys.stderr, flush=True)
        await task

    try:
        asyncio.run(amain())
    finally:
        print("draining in-flight runs ...", file=sys.stderr, flush=True)
        service.close(drain=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        from repro.experiments.report import JOBS_AWARE, STREAM_ELIGIBLE

        if args.json:
            import json

            payload = [
                {
                    "id": key,
                    "standalone": not needs_result,
                    "jobs": key in JOBS_AWARE,
                    "stream": key in STREAM_ELIGIBLE,
                    "description": (fn.__doc__ or "")
                    .strip().splitlines()[0],
                }
                for key, (fn, needs_result) in EXPERIMENTS.items()
            ]
            print(json.dumps(payload, indent=2))
            return 0

        def describe(key: str) -> str:
            fn, _ = EXPERIMENTS[key]
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            marker = "*" if key in JOBS_AWARE else (
                "s" if key in STREAM_ELIGIBLE else " ")
            return f"  {key:8s} {marker} {doc}"

        print("standalone (no scenario run needed):")
        for key, (_, needs_result) in EXPERIMENTS.items():
            if not needs_result:
                print(describe(key))
        print("scenario-driven (share one telescope run; "
              "* = fans out internally with --jobs; "
              "s = detection inputs computable by run --stream):")
        for key, (_, needs_result) in EXPERIMENTS.items():
            if needs_result:
                print(describe(key))
        return 0

    if args.command == "serve":
        return _serve(args)

    conflict = _mode_conflict(args)
    if conflict is not None:
        print(f"error: {conflict}", file=sys.stderr)
        return 2

    # Install the observability layers before the scenario is built:
    # components bind their counters at construction time (tracer and
    # journal are fetched at call time, but installing everything up front
    # keeps one composable lifecycle).
    registry = MetricsRegistry() if args.metrics else None
    tracer = Tracer() if args.trace else None
    journal = Journal(args.journal) if args.journal else None
    prev_registry = set_registry(registry) if registry else None
    prev_tracer = set_tracer(tracer) if tracer else None
    prev_journal = set_journal(journal) if journal else None
    try:
        if args.command == "observe":
            code = _observe(args)
            if registry:
                _emit_metrics(registry, args.metrics)
            if tracer:
                _emit_trace(tracer, args.trace)
            return code

        if args.command == "run":
            result = _scenario(args)
            if args.stream:
                print()
                print(_render_stream_summary(result))
                if result.observatory is not None:
                    summary = result.observatory
                    print(f"observatory: {summary['days']} day files, "
                          f"{summary['records']} telescope records in "
                          f"{summary['directory']}", file=sys.stderr)
                if registry:
                    _emit_metrics(registry, args.metrics)
                if tracer:
                    _emit_trace(tracer, args.trace)
                return 0
            for key in ("table1", "table3", "fig5", "fig9", "table4"):
                fn, _ = EXPERIMENTS[key]
                print()
                with get_tracer().span(f"experiment.{key}"):
                    if registry:
                        with registry.timer(f"experiment.{key}"):
                            rendered = fn(result).render()
                    else:
                        rendered = fn(result).render()
                print(rendered)
            if registry:
                _emit_metrics(registry, args.metrics)
            if tracer:
                _emit_trace(tracer, args.trace)
            return 0

        # experiment
        from repro.exec import (
            UnknownExperimentError,
            partition_ids,
            resolve_ids,
            run_experiments,
        )

        try:
            ids = resolve_ids(args.ids)
        except UnknownExperimentError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        result = None
        if partition_ids(ids)[1]:
            result = _scenario(args)
        print(run_experiments(
            ids=ids, jobs=args.jobs, output_path=args.output, result=result,
        ))
        if registry:
            _emit_metrics(registry, args.metrics)
        if tracer:
            _emit_trace(tracer, args.trace)
        return 0
    finally:
        if registry:
            set_registry(prev_registry)
        if tracer:
            set_tracer(prev_tracer)
        if journal:
            set_journal(prev_journal)
            journal.close()
            print(f"journal written to {args.journal}", file=sys.stderr)


if __name__ == "__main__":
    try:
        code = main()
    except BrokenPipeError:
        # ``repro list --json | head`` and friends: the consumer closed
        # the pipe, which is an answer, not an error worth a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    raise SystemExit(code)

"""Where each per-layer metric points, and how it is derived.

``BENCHMARK.json`` holds every metric's name, unit and direction.  This
module adds what it has no room for: ``PER_LAYER`` maps each per-layer
metric to the end-to-end metric it should move (``moves``), the
workloads it moves on (``on``) and those it must not move on (``off``).
A traced run reports every row, with zero where the workload bypasses
the layer.  ``SERVICE_END_TO_END`` are the service's own user-facing
figures, printed by the ``service`` workload but not in
``BENCHMARK.json``, which holds only metrics every workload reports.

Time metrics (``*_s``) are *self* time summed over every process of the
program (parent, shard workers, service pool workers): the time spent
inside the layer's wrapped calls minus nested wrapped calls, except the
``experiments.*`` rows, which are each experiment's inclusive time.
"""

from __future__ import annotations

#: Printed for every workload: failed runs, requests and checks over
#: attempted ones (``failed`` over ``attempted`` in the JSON result).
FAILED_FRAC = ("failed_frac", "ratio")

SERVICE_END_TO_END = [
    ("warm_p50_ms", "ms", "median latency of a warm submit"),
    ("warm_p99_ms", "ms", "99th-percentile latency of a warm submit"),
    ("warm_rps", "1/s", "warm submits completed per second of load"),
    ("cold_p50_s", "s", "median time from a cold submit until its run "
                        "is done"),
]

REPORT, OBSERVE, SERVICE = "report", "observe", "service"
SIM = (OBSERVE, REPORT)
STATE = "none (state as data)"
GUARD = "none (guards the trace)"

#: name -> (moves, on, off)
PER_LAYER = {
    **{f"experiments.{key}_s": ("wall_s,cpu_s", [REPORT], [OBSERVE, SERVICE])
       for key in ("table1", "table3", "fig5", "fig9", "table4")},
    "analysis.join_s": ("wall_s", [REPORT], [OBSERVE]),
    "analysis.join_calls": ("wall_s", [REPORT], [OBSERVE]),
    "analysis.scope_s": ("wall_s", [REPORT], [OBSERVE]),
    "analysis.bstm_s": ("wall_s", [REPORT, OBSERVE], [SERVICE]),
    "analysis.stream_feed_s": ("wall_s", [OBSERVE], [REPORT]),
    "analysis.stream_rows": ("wall_s", [OBSERVE], [REPORT]),
    "observatory.observe_day_s": ("wall_s", [OBSERVE], [REPORT]),
    "observatory.drift_s": ("wall_s", [OBSERVE], [REPORT]),
    "scanners.poll_s": ("wall_s,cpu_s", SIM, [SERVICE]),
    "scanners.emit_s": ("wall_s,cpu_s", SIM, [SERVICE]),
    "scanners.emit_calls": ("wall_s,cpu_s", SIM, [SERVICE]),
    "scanners.rows_per_emit": ("wall_s,cpu_s", SIM, [SERVICE]),
    "sim.build_s": ("setup_s", SIM, [SERVICE]),
    "sim.engine_s": ("wall_s", SIM, [SERVICE]),
    "sim.run_day_self_s": ("wall_s", SIM, [SERVICE]),
    "sim.dispatch_self_s": ("wall_s", SIM, [SERVICE]),
    "sim.dispatch_calls": ("wall_s", SIM, [SERVICE]),
    "sim.packets_emitted": ("wall_s", SIM, [SERVICE]),
    "sim.captured_frac": ("wall_s", SIM, [SERVICE]),
    "core.react_s": ("wall_s", SIM, [SERVICE]),
    "core.react_calls": ("wall_s", SIM, [SERVICE]),
    "core.honeypot_rx": ("wall_s", SIM, [SERVICE]),
    "core.replies": ("wall_s", SIM, [SERVICE]),
    "core.reply_frac": ("wall_s", SIM, [SERVICE]),
    "core.capture_s": ("wall_s", SIM, [SERVICE]),
    "core.darknet_s": ("wall_s", SIM, [SERVICE]),
    "core.sessions_end": (STATE, [REPORT, OBSERVE], [SERVICE]),
    "core.nat_entries_end": (STATE, [REPORT, OBSERVE], [SERVICE]),
    "exec.freeze_s": ("peak_rss_mb", [REPORT], [OBSERVE]),
    "exec.drain_s": ("peak_rss_mb", [OBSERVE], [REPORT]),
    "exec.rss_after_build_mb": ("peak_rss_mb", [REPORT, OBSERVE], []),
    "exec.rss_after_run_mb": ("peak_rss_mb", [REPORT, OBSERVE], []),
    "exec.rss_after_freeze_mb": ("peak_rss_mb", [REPORT, OBSERVE], []),
    "exec.shard_ready_s": ("setup_s", [OBSERVE], [REPORT]),
    "exec.shard_wait_s": ("wall_s", [OBSERVE], [REPORT]),
    "exec.shard_merge_s": ("wall_s", [OBSERVE], [REPORT]),
    "exec.cache_probe_s": ("warm_p50_ms,warm_rps", [SERVICE],
                           [REPORT, OBSERVE]),
    "exec.cache_load_s": ("warm_p50_ms,cold_p50_s", [SERVICE],
                          [REPORT, OBSERVE]),
    "exec.cache_store_s": ("cold_p50_s", [SERVICE], [REPORT, OBSERVE]),
    "exec.cache_evictions": ("cold_p50_s", [SERVICE], [REPORT, OBSERVE]),
    "service.cache_hit_ratio": ("warm_p50_ms,warm_rps", [SERVICE],
                                [REPORT, OBSERVE]),
    "service.cold_runs": ("cold_p50_s,failed_frac", [SERVICE],
                          [REPORT, OBSERVE]),
    "service.rejected": ("failed_frac", [SERVICE], [REPORT, OBSERVE]),
    "obs.trace_overhead": (GUARD, [REPORT, OBSERVE, SERVICE], []),
    "obs.unattributed_s": (GUARD, [REPORT, OBSERVE, SERVICE], []),
}


def _total(procs, table: str, *names: str) -> float:
    return sum(proc[table].get(name, 0) for proc in procs for name in names)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(procs: list[dict], wall: float) -> dict[str, float]:
    """Every probe-derived per-layer metric of one program invocation.

    ``procs`` are the per-process probe files; ``wall`` is the invocation's
    wall time (for the service, one traced server's lifetime), which bounds
    the parent's unattributed time.  The service-only ``service.*`` rows
    and ``obs.trace_overhead`` come from elsewhere.
    """
    def self_s(*names):
        return _total(procs, "self", *names)

    def calls(*names):
        return _total(procs, "calls", *names)

    def counts(name):
        return _total(procs, "counts", name)

    def gauges(name):
        return _total(procs, "gauges", name)

    main = next((p for p in procs if p["role"] == "main"), None)
    main_gauges = main["gauges"] if main else {}
    marks = main["marks"] if main else {}
    metrics = {
        f"experiments.{key}_s": _total(procs, "incl", f"experiments.{key}")
        for key in ("table1", "table3", "fig5", "fig9", "table4")
    }
    emitted = counts("scanners.rows")
    rx = gauges("honeypot_rx")
    replies = gauges("replies")
    metrics.update({
        "analysis.join_s": self_s("analysis.join"),
        "analysis.join_calls": calls("analysis.join"),
        "analysis.scope_s": self_s("analysis.scope"),
        "analysis.bstm_s": self_s("analysis.bstm"),
        "analysis.stream_feed_s": self_s("analysis.stream_feed"),
        "analysis.stream_rows": counts("analysis.stream_rows"),
        "observatory.observe_day_s": self_s("observatory.observe_day"),
        "observatory.drift_s": self_s("observatory.drift"),
        "scanners.poll_s": self_s("scanners.poll"),
        "scanners.emit_s": self_s("scanners.emit"),
        "scanners.emit_calls": calls("scanners.emit"),
        "scanners.rows_per_emit": _ratio(emitted, calls("scanners.emit")),
        "sim.build_s": self_s("sim.build"),
        "sim.engine_s": self_s("sim.engine"),
        "sim.run_day_self_s": self_s("sim.run_day"),
        "sim.dispatch_self_s": self_s("sim.dispatch"),
        "sim.dispatch_calls": calls("sim.dispatch"),
        "sim.packets_emitted": emitted,
        "sim.captured_frac": _ratio(counts("core.captured_rows"), emitted),
        "core.react_s": self_s("core.react", "core.react.twinklenet",
                               "core.react.dnat"),
        "core.react_calls": calls("core.react.twinklenet",
                                  "core.react.dnat"),
        "core.honeypot_rx": rx,
        "core.replies": replies,
        "core.reply_frac": _ratio(replies, rx),
        "core.capture_s": self_s("core.capture"),
        "core.darknet_s": self_s("core.darknet"),
        "core.sessions_end": main_gauges.get("sessions_end", 0),
        "core.nat_entries_end": main_gauges.get("nat_entries_end", 0),
        "exec.freeze_s": self_s("exec.freeze"),
        "exec.drain_s": self_s("exec.drain"),
        "exec.rss_after_build_mb": main_gauges.get("rss_after_build_mb", 0),
        "exec.rss_after_run_mb": main_gauges.get("rss_after_run_mb", 0),
        "exec.rss_after_freeze_mb": main_gauges.get("rss_after_freeze_mb",
                                                    0),
        "exec.shard_ready_s": (marks["pool_ready"] - marks["pool_spawn"]
                               if "pool_spawn" in marks else 0.0),
        "exec.shard_wait_s": self_s("exec.shard_wait", "exec.shard_send"),
        "exec.shard_merge_s": self_s("exec.shard_merge"),
        "exec.cache_probe_s": self_s("exec.cache_probe"),
        "exec.cache_load_s": self_s("exec.cache_load"),
        "exec.cache_store_s": self_s("exec.cache_store"),
        "exec.cache_evictions": counts("exec.cache_evictions"),
        # Read from the service's /metrics by the service workload.
        "service.cache_hit_ratio": 0.0,
        "service.cold_runs": 0,
        "service.rejected": 0,
    })
    # Wall time of the parent that no layer explains: time outside every
    # wrapped call, plus run_scenario's own self time (its body between
    # the layer calls it makes).
    covered = main["covered"] - main["self"].get("run_scenario", 0.0) \
        if main else 0.0
    metrics["obs.unattributed_s"] = max(0.0, wall - covered)
    return metrics

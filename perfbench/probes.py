"""Call-boundary probes: the benchmark's own wrappers around the program.

The program is never edited for measurement.  Instead, :func:`install`
replaces public functions and methods of each layer with wrappers that
time every call (``perf_counter``) and count its work, before the program
starts.  Wrappers are inherited by processes the program forks (shard
workers, service pool workers); each process keeps its own totals and
writes them to ``probe-<pid>.json`` in the probe directory, so
worker-side time reaches the traced output even though the program
itself drops worker telemetry.

Accounting: a wrapped call's *inclusive* time is its duration; its *self*
time is that minus the time of wrapped calls nested inside it, on the
same thread.  Time spent at nesting depth zero is the process's
*covered* time; wall time not covered is unattributed.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


def current_rss_mb() -> float:
    """Resident set size of this process now, in MiB."""
    with open("/proc/self/statm") as stream:
        pages = int(stream.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Probes:
    """Per-process accumulators for every wrapped call boundary."""

    def __init__(self, directory: Path, role: str):
        self.directory = Path(directory)
        self._lock = threading.Lock()
        self.reset(role)

    def reset(self, role: str) -> None:
        """Start empty totals (a forked child calls this first)."""
        self.role = role
        self.pid = os.getpid()
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.gauges: dict[str, float] = {}
        self.marks: dict[str, float] = {}
        self.covered = 0.0
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn, after=None):
        """``fn`` wrapped: time every call under ``name``; ``after(result,
        args, kwargs)`` runs once the call returns, outside the timing."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                with self._lock:
                    if stack:
                        stack[-1][0] += elapsed
                    else:
                        self.covered += elapsed
                    self.incl[name] += elapsed
                    self.self_time[name] += elapsed - frame[0]
                    self.calls[name] += 1
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def mark_once(self, name: str) -> None:
        """Record the monotonic time of the first occurrence of ``name``."""
        if name not in self.marks:
            self.marks[name] = time.monotonic()

    # -- output ------------------------------------------------------------

    def dump(self) -> None:
        """Write this process's totals atomically (last write wins)."""
        with self._lock:
            payload = {
                "pid": self.pid, "role": self.role,
                "incl": dict(self.incl), "self": dict(self.self_time),
                "calls": dict(self.calls), "counts": dict(self.counts),
                "gauges": dict(self.gauges), "marks": dict(self.marks),
                "covered": self.covered,
            }
        path = self.directory / f"probe-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)


def load_probe_files(directory: Path) -> list[dict]:
    """Every process's probe totals from one program invocation."""
    return [json.loads(path.read_text())
            for path in sorted(Path(directory).glob("probe-*.json"))]


# -- patching ----------------------------------------------------------------

def _patch_method(owner, attr: str, make) -> None:
    """Replace ``owner.attr`` with ``make(function)``, keeping its kind."""
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def _patch_function(module, attr: str, make) -> None:
    """Replace a module-level function in its module and in every loaded
    ``repro`` module that imported it by name."""
    original = getattr(module, attr)
    wrapped = make(original)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def patch(probes: Probes, owner, attr: str, name: str, after=None) -> None:
    """Time ``owner.attr`` (a class or a module) under ``name``."""
    def make(fn):
        return probes.timed(name, fn, after)

    if inspect.ismodule(owner):
        _patch_function(owner, attr, make)
    else:
        _patch_method(owner, attr, make)


def _rows(result, _args, _kwargs) -> int:
    return len(result)


def install(probes: Probes, traced: bool) -> dict:
    """Wrap the program's layers; returns a holder the agent fills with the
    scenario result.

    Untraced runs wrap only what the end-to-end metrics and output checks
    need: the scenario build and the shard pool's first window (set-up
    end) and ``run_scenario`` (the result the checks read).  Traced runs
    wrap every layer boundary listed in :mod:`layers`.
    """
    import repro.__main__  # noqa: F401  (loads every module the CLI names)
    import repro.exec.shard as shard
    import repro.sim.runner as runner
    from repro.sim.scenario import PaperScenario

    holder: dict = {}
    main_pid = os.getpid()

    def in_parent() -> bool:
        return os.getpid() == main_pid

    def built(_result, _args, _kwargs):
        if in_parent():
            probes.mark_once("built")

    def window_sent(_result, _args, _kwargs):
        if in_parent():
            probes.mark_once("pool_ready")

    def keep_result(result, _args, _kwargs):
        if in_parent():
            holder["result"] = result

    patch(probes, PaperScenario, "__init__", "sim.build", built)
    patch(probes, shard.ShardPool, "send_window", "exec.shard_send",
          window_sent)
    patch(probes, runner, "run_scenario", "run_scenario", keep_result)
    if not traced:
        return holder

    import repro.analysis.scope as scope
    import repro.service.core as service_core
    from repro.analysis.asinfo import MetadataJoiner
    from repro.analysis.bstm import CausalImpact
    from repro.analysis.streaming import StreamAnalyzer
    from repro.core.capture import PacketCapturer
    from repro.core.darknet import DarknetTelescope
    from repro.core.proactive import ProactiveTelescope
    from repro.core.tpot import DnatGateway
    from repro.core.twinklenet import Twinklenet
    from repro.exec.cache import ScenarioCache
    from repro.experiments import EXPERIMENTS
    from repro.observatory.drift import DriftReport
    from repro.observatory.observer import Observatory
    from repro.scanners.agent import ScannerAgent
    from repro.service.core import ScenarioService
    from repro.sim.engine import Engine

    def counted(metric, measure):
        def after(result, args, kwargs):
            probes.count(metric, measure(result, args, kwargs))
        return after

    def worker_day(_result, args, _kwargs):
        # A shard worker's honeypot state, after every day: the worker
        # exits without a chance to report, so each day is its last word.
        probes.gauges.update(honeypot_state(args[0], sessions=False))
        probes.dump()

    def run_done(_result, _args, _kwargs):
        probes.dump()

    def rss_sample(_result, _args, kwargs):
        stage = kwargs.get("stage")
        if stage and in_parent():
            probes.gauges[f"rss_after_{stage}_mb"] = current_rss_mb()

    def pool_spawn_start(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            probes.mark_once("pool_spawn")
            return fn(*args, **kwargs)
        return wrapper

    _patch_method(shard.ShardPool, "__init__", pool_spawn_start)
    for key in ("table1", "table3", "fig5", "fig9", "table4"):
        fn, needs_result = EXPERIMENTS[key]
        EXPERIMENTS[key] = (probes.timed(f"experiments.{key}", fn),
                            needs_result)

    for method in ("row_asns", "top_asns", "category_breakdown",
                   "country_breakdown", "breakdown"):
        patch(probes, MetadataJoiner, method, "analysis.join")
    patch(probes, scope, "scanner_scope", "analysis.scope")
    patch(probes, CausalImpact, "run", "analysis.bstm")
    patch(probes, StreamAnalyzer, "feed", "analysis.stream_feed",
          counted("analysis.stream_rows", lambda r, a, k: len(a[1])))
    patch(probes, Observatory, "observe_day", "observatory.observe_day")
    patch(probes, DriftReport, "from_data_dir", "observatory.drift")
    patch(probes, DriftReport, "render", "observatory.drift")

    patch(probes, ScannerAgent, "poll_feeds", "scanners.poll")
    patch(probes, ScannerAgent, "emit_day_batch", "scanners.emit",
          counted("scanners.rows", _rows))
    patch(probes, Engine, "run_until", "sim.engine")
    patch(probes, PaperScenario, "run_day", "sim.run_day")
    patch(probes, shard, "_worker_day", "sim.run_day", worker_day)
    patch(probes, shard, "run_sharded_days", "sim.run_day")
    patch(probes, PaperScenario, "dispatch_batch", "sim.dispatch")

    patch(probes, ProactiveTelescope, "handle_batch", "core.react")
    patch(probes, Twinklenet, "handle_batch", "core.react.twinklenet")
    patch(probes, DnatGateway, "handle_batch", "core.react.dnat")
    patch(probes, PacketCapturer, "capture_batch", "core.capture",
          counted("core.captured_rows", lambda r, a, k: len(a[1])))
    patch(probes, DarknetTelescope, "handle_batch", "core.darknet")

    patch(probes, PacketCapturer, "to_records", "exec.freeze")
    patch(probes, PacketCapturer, "to_truth", "exec.freeze")
    patch(probes, PacketCapturer, "drain_day_records", "exec.drain")
    patch(probes, runner, "sample_peak_rss", "obs.rss", rss_sample)
    patch(probes, shard.ShardPool, "recv_window", "exec.shard_wait")
    patch(probes, shard, "merge_day", "exec.shard_merge")

    patch(probes, ScenarioCache, "probe", "exec.cache_probe")
    patch(probes, ScenarioCache, "load", "exec.cache_load")
    patch(probes, ScenarioCache, "store", "exec.cache_store")
    patch(probes, ScenarioCache, "evict", "exec.cache_evict",
          counted("exec.cache_evictions", _rows))
    # No metric of their own: they mark the server's request handling as
    # covered time, so unattributed time is the idle event loop.
    patch(probes, ScenarioService, "submit", "service.submit")
    patch(probes, ScenarioService, "status", "service.status")
    patch(probes, ScenarioService, "metrics_snapshot", "service.metrics")
    patch(probes, service_core, "_execute_run", "service.execute_run",
          run_done)
    return holder


def honeypot_state(scenario, sessions: bool = True) -> dict:
    """Honeypot counters (and, for the parent, the state it holds)."""
    telescope = scenario.telescope
    gateways = telescope.gateways.values()
    state = {
        "honeypot_rx": telescope.twinklenet.rx_count
        + sum(gateway.rx_count for gateway in gateways),
        "replies": telescope.response_count,
    }
    if sessions:
        # Twinklenet exposes no session count; its table's length is one.
        state["sessions_end"] = len(telescope.twinklenet._table)
        state["nat_entries_end"] = sum(len(gateway.nat_log)
                                       for gateway in gateways)
    return state

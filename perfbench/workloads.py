"""The three workloads: ``report``, ``observe`` and ``service``.

Each workload runs the program from source (``src/``) as a child process,
repeats its unit of work until the run's time is spent (at least
``MIN_OPS`` times), checks every output, and returns an :class:`Outcome`
of per-unit samples, with times rescaled to reference seconds
(:mod:`calibrate`).  Traced runs alternate traced and untraced units:
the traced ones give the per-layer metrics, and each pair of the same
input gives the tracing overhead.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import Clock
from layers import layer_metrics
from probes import load_probe_files
from repro.exec.cache import ScenarioCache
from repro.obs import config_hash
from repro.observatory import list_day_files, load_observer_day, read_index
from repro.observatory.observer import OBSERVATIONS_NAME
from repro.service import ServiceClient
from repro.sim import ScenarioConfig, run_scenario

HERE = Path(__file__).resolve().parent
AGENT = HERE / "agent.py"

#: Fewest units of work a run measures, however long each one takes.
MIN_OPS = 3

#: ``report``: the ROADMAP's unit of account, a serial ``repro run``.
#: 30 days reaches every deployment phase and Table 4's interventions;
#: the scale keeps one run near five seconds on a 2-CPU host, so a run
#: measures several.
REPORT_DAYS, REPORT_SCALE = 30, 5e-4

#: ``observe``: long and thin.  75 days crosses the T-Pot hitlist
#: trigger (~day 54), TLS issuance (~day 68) and the BGP retraction
#: (~day 70); the low scale leaves few packets per day, so per-day and
#: per-call overhead dominate.
OBSERVE_DAYS, OBSERVE_SCALE, OBSERVE_JOBS = 75, 5e-5, 2

#: ``service``: each boot of ``repro serve`` takes one closed-loop round
#: of ``SERVICE_CLIENTS`` threads: together they submit every pinned,
#: already-cached config once, and each thread one cold config.
SERVICE_CLIENTS = 2
PINNED_CONFIGS = 40

REPORT_SECTIONS = ("Table 1 —", "Table 3/8 —", "Fig 5 —", "Fig 9 —",
                   "Table 4 —")


@dataclass
class Context:
    """One benchmark run's settings and scratch space."""

    root: Path
    work: Path
    seed: int
    seconds: float
    traced: bool
    start: float = field(default_factory=time.monotonic)
    #: Hard limit for the whole run: every child is killed past it.
    budget: float = 165.0

    @property
    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        return env

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def remaining(self) -> float:
        return self.budget - self.elapsed()


@dataclass
class Outcome:
    """Samples and verdicts of one workload run."""

    #: Times rescaled to reference seconds (see :mod:`calibrate`).
    end_to_end: dict = field(default_factory=dict)
    #: The same times as measured, before rescaling.
    raw: dict = field(default_factory=dict)
    service: dict = field(default_factory=dict)
    layers: list = field(default_factory=list)
    overhead: float = 0.0
    attempted: int = 0
    failed: int = 0
    verdicts: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    def add(self, table: dict, name: str, value: float) -> None:
        table.setdefault(name, []).append(value)

    def add_time(self, name: str, seconds: float, factor: float) -> None:
        """Record a time both rescaled by ``factor`` and as measured."""
        self.add(self.end_to_end, name, seconds * factor)
        self.add(self.raw, name, seconds)

    def verdict(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
        self.verdicts.append(
            f"{label}: " + ("ok" if not problems else
                            "FAILED " + "; ".join(problems)))


@dataclass
class Invocation:
    """One finished child process of the program."""

    code: int
    wall: float
    cpu: float
    peak_rss_mb: float
    started: float
    stdout: bytes
    probes: list


def _kill_group(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap(proc, started: float, timeout: float):
    """Wait for ``proc`` (killing its group at ``timeout``); returns
    ``(exit code, wall, rusage)``.  ``wait4`` reports the CPU and peak
    RSS of the child together with every descendant it reaped."""
    timer = threading.Timer(max(1.0, timeout), _kill_group, (proc,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def spawn_agent(ctx: Context, tag: str, traced: bool, argv: list[str],
                stdout, stderr):
    """Start the program under the probe agent in its own session."""
    probe_dir = ctx.work / f"{tag}.probes"
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(AGENT), str(probe_dir), "1" if traced else "0",
         "--", *argv],
        stdout=stdout, stderr=stderr, cwd=ctx.work, env=ctx.env,
        start_new_session=True,
    )
    return proc, probe_dir, started


def run_cli(ctx: Context, tag: str, traced: bool,
            argv: list[str]) -> Invocation:
    out_path = ctx.work / f"{tag}.out"
    with open(out_path, "wb") as out, \
            open(ctx.work / f"{tag}.err", "wb") as err:
        proc, probe_dir, started = spawn_agent(ctx, tag, traced, argv,
                                               out, err)
        code, wall, usage = _reap(proc, started, ctx.remaining())
    return Invocation(
        code=code, wall=wall, cpu=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024, started=started,
        stdout=out_path.read_bytes(), probes=load_probe_files(probe_dir),
    )


def _main_probe(inv: Invocation) -> dict:
    return next((p for p in inv.probes if p["role"] == "main"),
                {"gauges": {}, "marks": {}})


def _setup_s(inv: Invocation) -> float:
    """Process start until the scenario is built and the pool is ready."""
    marks = _main_probe(inv)["marks"]
    ends = [marks[key] for key in ("built", "pool_ready") if key in marks]
    return max(ends) - inv.started if ends else float("nan")


def _digest(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


# -- report / observe --------------------------------------------------------

def scenario_seed(seed: int, unit: int) -> int:
    """The scenario seed of a run's ``unit``-th untraced (or traced) unit.

    A run spreads its units over several scenario seeds: the cost of one
    scenario moves by several percent with its seed, and the median over
    a few seeds moves less from one benchmark seed to the next.
    """
    return 1000 * seed + unit


def _cli_workload(ctx: Context, argv_for, check, config_for) -> Outcome:
    """Repeat one CLI invocation.

    ``argv_for(tag, scenario_seed)`` gives its arguments and
    ``check(inv, tag)`` the problems found in its outputs plus their
    digest.  Traced runs pair each traced unit with an untraced one of
    the same scenario seed; the pairs give the tracing overhead.
    """
    outcome = Outcome()
    clock = Clock(ctx.work)
    digests: dict[int, str] = {}
    walls: dict[int, dict] = {}
    untraced = []
    index = 0
    while True:
        typical = statistics.median(
            w for pair in walls.values() for w in pair.values()) \
            if index else 0.0
        if index >= MIN_OPS and ctx.elapsed() + typical > ctx.seconds:
            break
        if index and ctx.remaining() < 1.5 * typical:
            break
        traced = ctx.traced and index % 2 == 0
        seed = scenario_seed(ctx.seed, index // 2 if ctx.traced else index)
        tag = f"op{index}"
        inv = run_cli(ctx, tag, traced, argv_for(tag, seed))
        clock.tick()
        problems, digest = check(inv, tag)
        if inv.code != 0:
            problems.insert(0, f"exit code {inv.code}")
        if digests.setdefault(seed, digest) != digest:
            problems.append("output digest differs from the earlier unit "
                            "of this scenario seed")
        outcome.verdict(f"{tag}{' (traced)' if traced else ''} seed {seed} "
                        f"digest {digest[:16]}", problems)
        walls.setdefault(seed, {})[traced] = inv.wall
        if traced:
            outcome.layers.append(layer_metrics(inv.probes, inv.wall))
        else:
            untraced.append((index, inv))
        facts = _main_probe(inv)["gauges"]
        outcome.add(outcome.facts, "packets_emitted", facts.get("emitted"))
        outcome.add(outcome.facts, "rows_captured", sum(
            facts.get(f"captured.{name}", 0)
            for name in ("NT-A", "NT-B", "NT-C")))
        index += 1
    for unit, inv in untraced:
        factor = clock.factor(unit)
        outcome.add_time("wall_s", inv.wall, factor)
        outcome.add_time("cpu_s", inv.cpu, clock.factor(unit, cpu=True))
        outcome.add_time("setup_s", _setup_s(inv), factor)
        outcome.add(outcome.end_to_end, "peak_rss_mb", inv.peak_rss_mb)
    ratios = [pair[True] / pair[False] for pair in walls.values()
              if len(pair) == 2]
    if ratios:
        outcome.overhead = statistics.median(ratios) - 1.0
    outcome.facts["calibration_s"] = clock.samples
    outcome.facts["output_digests"] = {str(k): v for k, v in digests.items()}
    outcome.facts["config_hashes"] = {
        str(seed): config_hash(config_for(seed)) for seed in digests}
    return outcome


def _counter_problems(gauges: dict) -> list[str]:
    """Captured rows against the dispatch counters, per telescope."""
    if "counter.NT-A" not in gauges:
        return ["no scenario result reached the probes"]
    problems = []
    for name in ("NT-A", "NT-B", "NT-C"):
        routed = gauges[f"counter.{name}"]
        accounted = gauges[f"captured.{name}"] \
            + gauges.get(f"ignored.{name}", 0)
        if routed != accounted:
            problems.append(f"{name}: {routed} dispatched, {accounted} "
                            f"captured or ignored")
    return problems


def report(ctx: Context) -> Outcome:
    def argv_for(_tag, seed):
        return ["run", "--days", str(REPORT_DAYS), "--scale",
                str(REPORT_SCALE), "--seed", str(seed)]

    def check(inv: Invocation, _tag):
        text = inv.stdout.decode("utf-8", "replace")
        problems = [f"section {title!r} missing"
                    for title in REPORT_SECTIONS if title not in text]
        if "(skipped" in text:
            problems.append("a section was skipped")
        problems += _counter_problems(_main_probe(inv)["gauges"])
        return problems, _digest(inv.stdout)

    def config_for(seed):
        return ScenarioConfig(seed=seed, duration_days=REPORT_DAYS,
                              volume_scale=REPORT_SCALE)

    outcome = _cli_workload(ctx, argv_for, check, config_for)
    outcome.facts["config"] = {"days": REPORT_DAYS, "scale": REPORT_SCALE,
                               "jobs": 1}
    return outcome


def _observatory_problems(data: Path, days: int) -> tuple[list, bytes]:
    """Day files, index chain and stream mirror of one observatory dir."""
    problems = []
    files = list_day_files(data)
    if [day for day, _ in files] != list(range(days)):
        problems.append(f"{len(files)} day files for {days} days")
    payloads = []
    for day, path in files:
        try:
            load_observer_day(path)
        except ValueError as error:
            problems.append(f"day {day} fails its schema: {error}")
        payloads.append(path.read_bytes())
    index = read_index(data)
    if [entry["day"] for entry in index] != list(range(days)):
        problems.append("index does not list every day once, in order")
    for entry, payload in zip(index, payloads):
        if entry["sha256"] != hashlib.sha256(payload).hexdigest():
            problems.append(f"index hash of day {entry['day']} differs")
            break
    mirror = data / OBSERVATIONS_NAME
    stream = mirror.read_bytes() if mirror.is_file() else b""
    body = b"".join(payloads)
    tail = stream[len(body):]
    if not stream.startswith(body) or b'"observatory_end"' not in tail \
            or tail.count(b"\n") != 1:
        problems.append("observations.jsonl is not the day files plus "
                        "the end marker")
    return problems, body


def observe(ctx: Context) -> Outcome:
    def argv_for(tag, seed):
        return ["observe", "--days", str(OBSERVE_DAYS), "--scale",
                str(OBSERVE_SCALE), "--seed", str(seed), "--jobs",
                str(OBSERVE_JOBS), "--data", str(ctx.work / f"{tag}.data")]

    def check(inv: Invocation, tag):
        problems, body = _observatory_problems(ctx.work / f"{tag}.data",
                                               OBSERVE_DAYS)
        if b"Observatory drift report" not in inv.stdout:
            problems.append("no drift report on stdout")
        return problems, _digest(inv.stdout, body)

    def config_for(seed):
        return ScenarioConfig(seed=seed, duration_days=OBSERVE_DAYS,
                              volume_scale=OBSERVE_SCALE)

    outcome = _cli_workload(ctx, argv_for, check, config_for)
    outcome.facts["config"] = {"days": OBSERVE_DAYS, "scale": OBSERVE_SCALE,
                               "jobs": OBSERVE_JOBS}
    return outcome


# -- service -----------------------------------------------------------------

def tiny_config(seed: int) -> dict:
    """A config that simulates in well under a second."""
    return {"seed": seed, "duration_days": 3, "volume_scale": 1e-5,
            "n_tail": 2}


def _tree_cpu_s(root_pid: int) -> float:
    """CPU seconds so far of ``root_pid`` and every live descendant."""
    parents, cpu = {}, {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stream:
                fields = stream.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        pid = int(entry)
        parents[pid] = int(fields[1])
        cpu[pid] = sum(int(value) for value in fields[11:15])
    tree, frontier = {root_pid}, [root_pid]
    while frontier:
        parent = frontier.pop()
        for pid, ppid in parents.items():
            if ppid == parent and pid not in tree:
                tree.add(pid)
                frontier.append(pid)
    ticks = os.sysconf("SC_CLK_TCK")
    return sum(cpu.get(pid, 0) for pid in tree) / ticks


class Server:
    """One ``repro serve`` process on a free port."""

    def __init__(self, ctx: Context, tag: str, traced: bool, budget: int):
        argv = ["serve", "--port", "0", "--cache", str(ctx.work / "cache"),
                "--jobs", "1", "--cache-budget", str(budget)]
        self.err_path = ctx.work / f"{tag}.err"
        self._err = open(self.err_path, "wb")
        self.proc, self.probe_dir, self.started = spawn_agent(
            ctx, tag, traced, argv, subprocess.DEVNULL, self._err)
        self.ctx = ctx
        try:
            self.port = self._wait_port()
            self.client = ServiceClient("127.0.0.1", self.port, timeout=30)
            while not self._healthy():
                time.sleep(0.002)
        except BaseException:
            if self.proc.returncode is None:
                _kill_group(self.proc)
                _reap(self.proc, self.started, 10.0)
            self._err.close()
            raise
        self.boot_s = time.monotonic() - self.started

    def _alive(self) -> bool:
        return self.proc.poll() is None and self.ctx.remaining() > 0

    def _healthy(self) -> bool:
        try:
            return self.client.healthz()
        except OSError:
            if not self._alive():
                raise RuntimeError("server did not answer /healthz")
            return False

    def _wait_port(self) -> int:
        marker = b"scenario service on http://127.0.0.1:"
        while True:
            text = self.err_path.read_bytes()
            if marker in text:
                tail = text.split(marker, 1)[1]
                return int(tail.split(b" ", 1)[0])
            if not self._alive():
                raise RuntimeError("server did not start: "
                                   + text.decode(errors="replace")[-400:])
            time.sleep(0.002)

    def stop(self):
        """SIGTERM, drain, reap; returns ``(wall, peak_rss_mb)``."""
        self.proc.send_signal(signal.SIGTERM)
        _, wall, usage = _reap(self.proc, self.started,
                               min(30.0, self.ctx.remaining()))
        self._err.close()
        return wall, usage.ru_maxrss / 1024


def _pinned_seed(ctx: Context, i: int) -> int:
    return ctx.seed * 1000 + i


def _cold_seed(ctx: Context, boot: int, thread: int) -> int:
    """A config seed no other submit of this run uses."""
    return 10**6 + ctx.seed * 10**4 + boot * SERVICE_CLIENTS + thread


def _populate(ctx: Context) -> int:
    """Cache and pin the warm configs through the library, as a service
    worker would; returns the byte budget for the server: the pinned
    entries plus one more entry, so every cold store sweeps the cache."""
    cache = ScenarioCache(ctx.work / "cache")
    for i in range(PINNED_CONFIGS):
        config = ScenarioConfig(**tiny_config(_pinned_seed(ctx, i)))
        run_scenario(config, cache_dir=cache.root)
        cache.pin(config)
    sizes = [row.bytes for row in cache.entries() if row.pinned]
    return sum(sizes) + max(sizes)


def _client_round(server: Server, ctx: Context, thread: int, boot: int,
                  samples: list) -> None:
    """One client's request plan: its share of the pinned configs, each
    submitted once (so each is a cache probe), and one cold submit in the
    middle, waited until done."""
    client = server.client
    warm_seeds = range(thread, PINNED_CONFIGS, SERVICE_CLIENTS)
    for i in range(len(warm_seeds) + 1):
        cold = i == len(warm_seeds) // 2
        started = time.monotonic()
        try:
            if cold:
                config = tiny_config(_cold_seed(ctx, boot, thread))
                view = client.submit(config)
                ok = view["outcome"] == "created"
                client.wait(view["run_id"], timeout=60, poll_interval=0.01)
                detail = (view["run_id"], config)
            else:
                seed = warm_seeds[i - (i > len(warm_seeds) // 2)]
                view = client.submit(tiny_config(_pinned_seed(ctx, seed)))
                ok = view["state"] == "done" and view["outcome"] == "warm"
                detail = None if ok else f"not served from the cache: {view}"
        except Exception as error:  # noqa: BLE001  every failure counts
            ok, detail = False, repr(error)
        samples.append(("cold" if cold else "warm",
                        time.monotonic() - started, ok, detail))


def _boot(ctx: Context, outcome: Outcome, boot: int, traced: bool,
          budget: int) -> dict:
    """One server boot under one closed-loop round of load.

    The service answers a config it has seen since boot from memory, so a
    submit reaches the cache only the first time a boot sees its config:
    each boot takes one round, in which every pinned config is submitted
    once."""
    tag = f"boot{boot}"
    server = Server(ctx, tag, traced, budget)
    try:
        per_thread = [[] for _ in range(SERVICE_CLIENTS)]
        threads = [
            threading.Thread(target=_client_round, args=(
                server, ctx, t, boot, per_thread[t]))
            for t in range(SERVICE_CLIENTS)
        ]
        cpu_before = _tree_cpu_s(server.proc.pid)
        started = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        round_s = time.monotonic() - started
        cpu = _tree_cpu_s(server.proc.pid) - cpu_before
        requests = [sample for samples in per_thread for sample in samples]
        counters = server.client.metrics()["counters"]
        problems = _boot_problems(server, counters, requests, tag)
    finally:
        server_wall, peak = server.stop()
    failures = [(kind, detail) for kind, _, ok, detail in requests
                if not ok]
    outcome.attempted += len(requests)
    outcome.failed += len(failures)
    for kind, detail in failures:
        outcome.verdicts.append(f"{tag} {kind} request FAILED {detail}")
    outcome.verdict(f"{tag}{' (traced)' if traced else ''} "
                    f"{len(requests)} requests", problems)
    return {"index": boot - 1, "round": round_s, "cpu": cpu, "requests": requests,
            "peak": peak, "boot": server.boot_s, "counters": counters,
            "probes": load_probe_files(server.probe_dir),
            "wall": server_wall, "traced": traced}


def _boot_problems(server: Server, counters: dict, requests: list,
                   tag: str) -> list:
    """``/metrics`` against the load plan, plus one verified fetch."""
    warm = sum(1 for kind, *_ in requests if kind == "warm")
    cold = [detail for kind, _, ok, detail in requests
            if kind == "cold" and ok]
    seen = {name: counters.get(f"service.{name}", 0)
            for name in ("requests", "warm_hits", "deduped", "cold_runs")}
    planned = {"requests": len(requests), "warm_hits": warm, "deduped": 0,
               "cold_runs": len(requests) - warm}
    problems = [f"/metrics counts {seen[name]} service.{name}, the plan "
                f"expects {planned[name]}"
                for name in planned if seen[name] != planned[name]]
    if cold:
        run_id, config = cold[0]
        try:
            server.client.fetch_result(run_id, ScenarioConfig(**config),
                                       server.ctx.work / f"{tag}.fetched")
        except Exception as error:  # noqa: BLE001  reported as a failure
            problems.append(f"fetched result failed verification: {error}")
    return problems


def service(ctx: Context) -> Outcome:
    outcome = Outcome()
    budget = _populate(ctx)
    clock = Clock(ctx.work)
    boots = []
    while True:
        typical = statistics.median(
            b["wall"] for b in boots) if boots else 0.0
        if len(boots) >= 2 * MIN_OPS \
                and ctx.elapsed() + typical > ctx.seconds:
            break
        if boots and ctx.remaining() < 20 + 1.5 * typical:
            break
        traced = ctx.traced and len(boots) % 2 == 1
        boots.append(_boot(ctx, outcome, len(boots) + 1, traced, budget))
        clock.tick()
    plain = [b for b in boots if not b["traced"]]
    for boot in plain:
        factor = clock.factor(boot["index"])
        outcome.add_time("setup_s", boot["boot"], factor)
        outcome.add_time("wall_s", boot["round"], factor)
        outcome.add_time("cpu_s", boot["cpu"],
                         clock.factor(boot["index"], cpu=True))
        outcome.add(outcome.end_to_end, "peak_rss_mb", boot["peak"])
        for kind, latency, ok, _ in boot["requests"]:
            if ok and kind == "warm":
                outcome.add(outcome.service, "warm_p50_ms", latency * 1e3)
            elif ok and kind == "cold":
                outcome.add(outcome.service, "cold_p50_s", latency)
    warm = outcome.service.get("warm_p50_ms", [])
    outcome.service["warm_p99_ms"] = list(warm)
    outcome.service["warm_rps"] = [
        sum(1 for kind, _, ok, _ in b["requests"] if ok and kind == "warm")
        / b["round"] for b in plain]
    traced_boots = [b for b in boots if b["traced"]]
    for boot in traced_boots:
        layers = layer_metrics(boot["probes"], boot["wall"])
        counters = boot["counters"]
        requests = counters.get("service.requests", 0)
        layers["service.cache_hit_ratio"] = (
            counters.get("service.warm_hits", 0) / requests
            if requests else 0.0)
        layers["service.cold_runs"] = counters.get("service.cold_runs", 0)
        layers["service.rejected"] = counters.get("service.rejected", 0)
        outcome.layers.append(layers)
    if traced_boots:
        outcome.overhead = (
            statistics.median(b["round"] for b in traced_boots)
            / statistics.median(b["round"] for b in plain) - 1.0)
    outcome.facts["calibration_s"] = clock.samples
    outcome.facts["config"] = {
        "clients": SERVICE_CLIENTS, "pinned": PINNED_CONFIGS,
        "cold_per_round": SERVICE_CLIENTS, "cache_budget_bytes": budget,
        "config_hash": _configs_hash(
            [tiny_config(_pinned_seed(ctx, i))
             for i in range(PINNED_CONFIGS)]),
    }
    outcome.facts["requests_attempted"] = sum(
        len(b["requests"]) for b in boots)
    return outcome


def _configs_hash(configs: list[dict]) -> str:
    return _digest(*(config_hash(ScenarioConfig(**c)).encode()
                     for c in configs))[:16]


WORKLOADS = {"report": report, "observe": observe, "service": service}


def run(name: str, ctx: Context) -> Outcome:
    ctx.work.mkdir(parents=True, exist_ok=True)
    try:
        return WORKLOADS[name](ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

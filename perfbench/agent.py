"""Run one ``python -m repro`` invocation under the benchmark's probes.

Usage::

    python perfbench/agent.py PROBE_DIR TRACE -- <repro arguments>

``TRACE`` is ``1`` to wrap every layer boundary, ``0`` to wrap only the
calls that mark set-up completion and hand the scenario result to the
output checks.  The program's stdout and exit code pass through
unchanged; the probe totals of this process (and of every process it
forks) land in ``PROBE_DIR``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from probes import Probes, honeypot_state, install


def result_facts(result) -> dict:
    """Counters and state of one scenario result, for the output checks."""
    counters = result.scenario.counters
    facts = {
        "counter.NT-A": counters.nta, "counter.NT-B": counters.ntb,
        "counter.NT-C": counters.ntc,
        "emitted": counters.nta + counters.ntb + counters.ntc
        + counters.live_dropped + counters.unrouted,
    }
    if result.streaming is not None:
        captured = {name: summary.records_in
                    for name, summary in result.streaming.items()}
    else:
        captured = {name: len(records)
                    for name, records in result.telescopes().items()}
    for name, rows in captured.items():
        facts[f"captured.{name}"] = rows
    # Passive telescopes drop rows aimed at assigned (production) space:
    # their dispatch counter is captured plus ignored rows.
    for name, darknet in (("NT-B", result.scenario.ntb),
                          ("NT-C", result.scenario.ntc)):
        facts[f"ignored.{name}"] = darknet.ignored_count
    facts.update(honeypot_state(result.scenario))
    return facts


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    probe_dir = Path(sys.argv[1])
    probe_dir.mkdir(parents=True, exist_ok=True)
    probes = Probes(probe_dir, "main")
    os.register_at_fork(after_in_child=lambda: probes.reset("worker"))
    holder = install(probes, traced=sys.argv[2] == "1")

    from repro.__main__ import main as repro_main

    try:
        return repro_main(sys.argv[4:])
    finally:
        result = holder.get("result")
        if result is not None:
            probes.gauges.update(result_facts(result))
        sys.stdout.flush()
        probes.dump()


if __name__ == "__main__":
    raise SystemExit(main())

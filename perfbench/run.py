"""The repository benchmark: one command, three workloads, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {report,observe,service} \\
        --seed N --seconds S --trace {0,1}

The program is run from source (``src/``); nothing is installed or
built.  The run repeats its workload's unit of work for about ``S``
seconds, checks every output, prints a table of each metric (median,
high percentile, sample count), the check verdicts and the host and
input facts, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics, measured by the
benchmark's own wrappers around each layer's calls (see ``probes.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=("report", "observe", "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def high_quantile(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, or the
    maximum when there are too few samples for one."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], "max"
    percent = math.floor(100.0 * (1.0 - 10.0 / n))
    index = min(n - 1, int(round(percent / 100.0 * (n - 1))))
    return ordered[index], f"p{percent}"


def _row(name: str, unit: str, values: list[float]) -> str:
    hi, label = high_quantile(values)
    return (f"  {name:28s} {unit:6s} median {statistics.median(values):12.5g}"
            f"  {label:>5s} {hi:12.5g}  n={len(values)}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import numpy

    import workloads
    from layers import FAILED_FRAC, PER_LAYER, SERVICE_END_TO_END

    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    ctx = workloads.Context(root=ROOT, work=work, seed=args.seed,
                            seconds=args.seconds, traced=bool(args.trace))
    outcome = workloads.run(args.workload, ctx)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  measured {ctx.elapsed():.1f} s")
    for verdict in outcome.verdicts:
        print(f"  check {verdict}")
    metrics = {}
    if args.trace:
        print("per-layer metrics (median over traced units; the "
              "end-to-end metrics each should move, and on which "
              "workloads):")
        for metric in spec["per_layer"]:
            name, unit = metric["name"], metric["unit"]
            moves, on, _ = PER_LAYER[name]
            if name == "obs.trace_overhead":
                values = [outcome.overhead]
            else:
                values = [layers[name] for layers in outcome.layers]
            print(f"{_row(name, unit, values)}  moves {moves} "
                  f"on {','.join(on)}")
            metrics[name] = {"value": statistics.median(values),
                             "unit": unit}
    else:
        print("end-to-end metrics (times in reference seconds; raw: as "
              "measured):")
        for metric in spec["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            values = outcome.end_to_end[name]
            print(_row(name, unit, values))
            if name in outcome.raw:
                print(_row(f"  raw {name}", unit, outcome.raw[name]))
            metrics[name] = {"value": statistics.median(values),
                             "unit": unit}
        for name, unit, _ in SERVICE_END_TO_END:
            values = outcome.service.get(name)
            if not values:
                continue
            if name == "warm_p99_ms":
                ordered = sorted(values)
                p99 = ordered[min(len(ordered) - 1,
                                  int(round(0.99 * (len(ordered) - 1))))]
                print(f"  {name:28s} {unit:6s} p99    {p99:12.5g}"
                      f"  n={len(values)}")
            else:
                print(_row(name, unit, values))
    name, unit = FAILED_FRAC
    print(f"  {name:28s} {unit:6s} {outcome.failed / outcome.attempted:.6g}"
          f"  ({outcome.failed} of {outcome.attempted})")
    facts = {
        "workload": args.workload, "seed": args.seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        **outcome.facts,
    }
    print("facts " + json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

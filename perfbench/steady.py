"""Steadiness report: rerun workloads and compare each metric's spread
with its bound.

Usage, from the root of a checkout::

    python3 perfbench/steady.py [--runs 10] [--sets 1]

Each set runs every workload of ``BENCHMARK.json`` ``--runs`` times, for
its ``run_seconds``, with seeds 1, 2, ...; every set uses the same
seeds.  For each end-to-end metric the report prints the median and the
spread, the distance between the first and third quartile
(``statistics.quantiles`` with ``n=4``) as a share of the median, next
to the metric's bound from ``BENCHMARK.json``.  A spread must stay under
a third of the bound.  With two sets or more, each later set's median
must not be worse than the first set's by more than the bound.  Every
unit of one scenario seed must print the same output digest, in every
run.  Exits non-zero when any of that fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=240,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    facts = next(json.loads(line[len("facts "):]) for line in lines
                 if line.startswith("facts "))
    result["digests"] = facts.get("output_digests", {})
    result["failures"] = [line.strip() for line in lines if "FAILED" in line]
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric: dict, first: float, later: float) -> float:
    """How much worse ``later`` is than ``first``, as a share of it."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="perfbench/steady.py")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)

    ok = True
    log = ROOT / ".perfbench" / "steady.jsonl"
    log.parent.mkdir(exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        digests: dict[str, set] = {}
        for set_no in range(args.sets):
            runs = []
            for seed in range(1, args.runs + 1):
                result = _run(workload, seed, spec["run_seconds"])
                runs.append(result)
                for unit_seed, digest in result["digests"].items():
                    digests.setdefault(unit_seed, set()).add(digest)
                with open(log, "a") as stream:
                    stream.write(json.dumps({"workload": workload,
                                             "set": set_no, "seed": seed,
                                             **result}) + "\n")
                if not result["correct"]:
                    print(f"{workload} seed {seed}: {result['failed']} of "
                          f"{result['attempted']} failed")
                    for line in result["failures"]:
                        print(f"  {line}")
            sets.append(runs)
        print(f"{workload}: {args.runs} runs x {args.sets} set(s)")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for set_no, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                median, share = statistics.median(values), spread(values)
                medians.append(median)
                verdict = "ok" if share < bound / 3 else "WIDE"
                ok &= verdict != "WIDE"
                print(f"  set {set_no} {name:12s} median {median:11.5g} "
                      f"spread {share:7.2%} bound {bound:5.0%} "
                      f"(a third: {bound / 3:6.2%}) {verdict}")
            for set_no, later in enumerate(medians[1:], start=1):
                change = worse_by(metric, medians[0], later)
                verdict = "ok" if change <= bound else "WORSE"
                ok &= verdict == "ok"
                print(f"  set {set_no} {name:12s} vs set 0: "
                      f"{change:+7.2%} worse (bound {bound:.0%}) {verdict}")
        mismatched = [seed for seed, seen in digests.items() if len(seen) > 1]
        if mismatched:
            ok = False
            print(f"  output digests differ across runs of scenario seeds "
                  f"{mismatched}")
        elif digests:
            print(f"  output digests identical across every run of each of "
                  f"{len(digests)} scenario seeds")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

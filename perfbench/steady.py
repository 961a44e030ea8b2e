#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs workloads repeatedly, each run with another --seed, and prints for
every metric the median, the quartiles, the spread (the distance
between the quartiles as a share of the median) and the gap between the
medians of the first and second half of the runs, set against the
metric's bound in BENCHMARK.json. It also checks that every run fails
exactly the same share of its operations.

Run from the root of the repository:

    python3 perfbench/steady.py --workload tcp-overload --runs 5
    python3 perfbench/steady.py --runs 10             # every workload

Each metric is judged by the larger of its spread and its half-gap: below
a third of the bound it is marked "ok", within the bound "wide", and past
it "FAIL".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def report(workload, results, bounds):
    shares = {(r["failed"], r["attempted"]) for r in results}
    share_ok = len({f / a for f, a in shares}) == 1
    ok_all = share_ok and all(r["correct"] for r in results)
    print(f"\n== {workload}: {len(results)} runs, failed/attempted {sorted(shares)}"
          f"{'' if share_ok else '  FAIL: failed share differs'}"
          f"{'' if all(r['correct'] for r in results) else '  FAIL: a run was not correct'}")
    print(f"{'metric':<28}{'unit':>6}{'bound':>7}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>8}{'halfgap':>8}  verdict")
    half = len(results) // 2
    for name in sorted(results[0]["metrics"]):
        vals = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        q1, med, q3, sp = spread(vals)
        first, second = statistics.median(vals[:half]), statistics.median(vals[half:])
        gap = abs(second - first) / med if med else float("inf")
        bound = bounds[name]
        judged = max(sp, gap)
        verdict = "ok" if judged < bound / 3 else ("wide" if judged <= bound else "FAIL")
        ok_all = ok_all and verdict != "FAIL"
        print(f"{name:<28}{unit:>6}{bound:>7}{med:>14.6g}{q1:>14.6g}"
              f"{q3:>14.6g}{sp:>8.3f}{gap:>8.3f}  {verdict}")
    return ok_all


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", help="workload to run (repeatable; default all)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    spec = load_spec()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for name in names:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            results.append(run_once(spec, name, seed, seconds))
            print(f"{name} seed {seed}: {json.dumps(results[-1]['metrics'], sort_keys=True)}",
                  file=sys.stderr, flush=True)
        ok = report(name, results, bounds) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

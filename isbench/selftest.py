#!/usr/bin/env python3
"""Steadiness self-test of the repository benchmark.

Runs every workload twice with the same seed, untraced and traced, and
checks that

* each end-to-end metric of the second run is within the metric's bound
  (from BENCHMARK.json) of the first;
* every deterministic count repeats bit for bit: VM evals, intern hits and
  misses, mover cache traffic, pairwise checks, single-worker engine
  counts, the daemon's cache counters, and each run's attempted and failed
  operations (visited/edge counts are gated inside every run against fixed
  expected values, so a drift there shows as failed operations).

Usage, from the repository root:

    python3 isbench/selftest.py [--seed N] [--seconds S] [--workloads a,b]

Exits 0 when every check holds, 1 otherwise. Takes about four runs per
workload.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Per-layer metrics that are deterministic functions of the inputs.
COUNTS = {
    "prove-table1": [
        "mover.cache_hits",
        "mover.cache_misses",
        "mover.pairwise_checks",
        "kernel.intern_hits",
        "kernel.intern_misses",
        "lang.vm_evals",
    ],
    "explore-large": [
        "lang.vm_evals.broadcast-n6",
        "lang.vm_evals.producer-consumer-k256",
        "lang.vm_evals.paxos-r3n2",
        "lang.vm_evals.chang-roberts-n8",
        "engine.evals_per_edge.broadcast-n6",
        "engine.evals_per_edge.producer-consumer-k256",
        "engine.evals_per_edge.paxos-r3n2",
        "engine.evals_per_edge.chang-roberts-n8",
        "engine.reduce.pruned",
        "engine.reduce.orbit_collapses",
    ],
    "serve-edit": [
        "core.incr.full_lookups",
        "core.incr.full_hit_ratio",
        "core.incr.obligation_lookups",
        "core.incr.obligation_hit_ratio",
        "core.incr.rerun_obligations_per_edit",
        "core.incr.cached_obligations",
        "serve.known_programs",
    ],
}

# Workloads whose operation count is fixed by the seed (the others run for
# a fixed time, so only their failure count must repeat).
FIXED_STREAM = {"serve-edit"}


def run(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0 or not out.stdout.strip():
        sys.exit(f"{workload}: benchmark exited {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    opts = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    problems = []
    for workload in opts.workloads.split(","):
        for trace in (0, 1):
            a, b = (run(bench["command"], workload, opts.seed, opts.seconds, trace) for _ in range(2))
            for r in (a, b):
                if not r["correct"]:
                    problems.append(f"{workload} trace {trace}: correct is false")
            keys = ["failed"] + (["attempted"] if workload in FIXED_STREAM else [])
            for key in keys:
                if a[key] != b[key]:
                    problems.append(f"{workload} trace {trace}: {key} {a[key]} then {b[key]}")
            if trace == 0:
                for name, bound in bounds.items():
                    x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
                    change = (y - x) / x
                    status = "ok" if abs(change) <= bound else "OUTSIDE BOUND"
                    print(f"{workload} {name}: {x:.6g} then {y:.6g} ({change:+.1%}, bound {bound:.0%}) {status}")
                    if abs(change) > bound:
                        problems.append(f"{workload} {name} moved {change:.1%}, bound {bound:.0%}")
            else:
                for name in COUNTS[workload]:
                    x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
                    print(f"{workload} {name}: {x} then {y} {'ok' if x == y else 'DRIFT'}")
                    if x != y:
                        problems.append(f"{workload} {name} drifted: {x} then {y}")
            print(f"{workload} trace {trace}: attempted {a['attempted']}/{b['attempted']}, "
                  f"failed {a['failed']}/{b['failed']}")
    for p in problems:
        print("PROBLEM", p)
    print("steady" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

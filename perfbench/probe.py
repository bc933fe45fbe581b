#!/usr/bin/env python3
"""Steadiness probe for the end-to-end benchmark.

Runs each workload repeatedly with consecutive seeds and prints the median,
the quartiles and the spread (interquartile range over median) of every
end-to-end metric, next to the bound BENCHMARK.json gives it. Then it makes
a traced run on the first seed and reports the tracing overhead (untraced
vs traced throughput). On the cold workloads it makes a second traced run
in another process and compares the governor checkpoint counts recorded on
every evaluation span of the two, to list the query/graph pairs whose work
depends on hash order.

Run from the repository root:

    python3 perfbench/probe.py --runs 5
    python3 perfbench/probe.py --workloads xregex-cold --runs 3 --seconds 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
COLD = {"crpq-cold", "xregex-cold"}


def build():
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        check=True,
    )
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join("perfbench", "target"))
    return os.path.join(ROOT, target, "release", "perfbench")


def result(binary, workload, seed, seconds, trace):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        cwd=ROOT, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def checkpoints(workload, seed):
    """Each evaluated query/graph pair's governor checkpoint counts, as
    recorded on the `engine.answers` spans of the last traced run."""
    path = os.path.join(ROOT, "perfbench", "traces", f"{workload}-seed{seed}.jsonl")
    counts = {}
    with open(path) as f:
        for line in f:
            span = json.loads(line)
            if span["name"] == "engine.answers" and "checkpoints" in span["counters"]:
                counts.setdefault(span["tag"], []).append(span["counters"]["checkpoints"])
    return counts


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / med


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--seed0", type=int, default=1)
    a = p.parse_args()
    binary = build()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for w in a.workloads.split(","):
        results = [result(binary, w, a.seed0 + i, a.seconds, False) for i in range(a.runs)]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{w}: {a.runs} runs, seeds {a.seed0}..{a.seed0 + a.runs - 1}, "
              f"correct {all(r['correct'] for r in results)}, failed shares {sorted(shares)}")
        print(f"  {'metric':<16} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            if len(vals) < 2:
                print(f"  {name:<16} {vals[0]:>12.4f}")
                continue
            q1, med, q3, sp = spread(vals)
            flag = "" if sp < bounds[name] / 3 else "  <- above a third of the bound"
            print(f"  {name:<16} {q1:>12.4f} {med:>12.4f} {q3:>12.4f} {sp:>8.4f} {bounds[name]:>6}{flag}")

        traced = result(binary, w, a.seed0, a.seconds, True)["metrics"]["trace.throughput_qps"]["value"]
        plain = results[0]["metrics"]["throughput_qps"]["value"]
        print(f"  tracing overhead on seed {a.seed0}: {plain:.2f} qps untraced, {traced:.2f} qps traced "
              f"({100 * (plain - traced) / plain:+.1f}% slower traced)")
        if w not in COLD:
            continue
        first = checkpoints(w, a.seed0)
        result(binary, w, a.seed0, a.seconds, True)
        second = checkpoints(w, a.seed0)
        pairs = sorted(set(first) & set(second))
        moved = [t for t in pairs if len(set(first[t]) | set(second[t])) > 1]
        print(f"  hash order: {len(moved)} of {len(pairs)} query/graph pairs do different governor work "
              f"across the evaluations of two processes")
        for t in moved:
            print(f"    {t:<28} {min(first[t]):>10.0f}-{max(first[t]):<10.0f} vs "
                  f"{min(second[t]):>10.0f}-{max(second[t]):<10.0f}")


if __name__ == "__main__":
    sys.exit(main())

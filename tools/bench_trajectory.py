#!/usr/bin/env python3
"""Write one PR's record into BENCH_trajectory.json.

    python3 tools/bench_trajectory.py --pr N --parent SHA \\
        --workload paper_flow parent.jsonl change.jsonl [traced.jsonl] \\
        --workload yield_study parent.jsonl change.jsonl

Each --workload names a benchmark workload and two files of result lines,
the final JSON line `perfbench/run.py` prints: one line per parent run and
one per change run, in run order, so line i of each file is pair i. An
optional third file holds one result line of a traced change run
(`--trace 1`); its metrics become the record's per-layer metrics.

The script refuses, exiting nonzero and leaving the output untouched, when
any run is not correct, any run has failed operations, the parent and
change sides have different run counts, the workloads have different pair
counts, or a run lacks a metric the others report.

The record holds the PR number, its commit (null: the commit that adds the
record) and parent, nproc (of this machine, so run the script where the
pairs ran), threads, the number of pairs, the claimed metric (null when no
gain is claimed), and per workload, for each end-to-end metric, its unit
and the parent's and the change's median and quartiles (inclusive method,
as numpy's default). A record with the same PR number is replaced; the
others are kept in PR order.
"""

import argparse
import json
import os
import statistics
import sys

THREADS = 4  # perfbench/run.py pins MEMSTRESS_THREADS=4 for every run


def fail(message):
    print(f"bench_trajectory: {message}", file=sys.stderr)
    sys.exit(1)


def read_results(path):
    with open(path) as f:
        runs = [json.loads(line) for line in f if line.strip()]
    for i, run in enumerate(runs, 1):
        if not run.get("correct"):
            fail(f"{path}: run {i} is not correct")
        if run.get("failed", 0) > 0:
            fail(f"{path}: run {i} has {run['failed']} failed operations")
    return runs


def summary(values):
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": rounded(median), "q1": rounded(q1), "q3": rounded(q3)}


def rounded(value):
    return float(f"{value:.6g}")


def end_to_end(workload, parent, change):
    names = set(parent[0]["metrics"])
    for run in parent + change:
        if set(run["metrics"]) != names:
            fail(f"{workload}: runs report different metrics")
    return {name: {"unit": parent[0]["metrics"][name]["unit"],
                   "parent": summary([r["metrics"][name]["value"] for r in parent]),
                   "change": summary([r["metrics"][name]["value"] for r in change])}
            for name in sorted(names)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--commit", default=None,
                        help="this PR's commit (default null: the commit "
                             "that adds the record)")
    parser.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC",
                        help="the metric whose gain this PR claims")
    parser.add_argument("--workload", action="append", nargs="+", required=True,
                        metavar="NAME PARENT CHANGE [TRACED]")
    parser.add_argument("--out", default="BENCH_trajectory.json")
    args = parser.parse_args()

    workloads = {}
    pairs = set()
    for spec in args.workload:
        if len(spec) not in (3, 4):
            fail(f"--workload takes NAME PARENT CHANGE [TRACED], got {spec}")
        name, parent, change = spec[0], read_results(spec[1]), read_results(spec[2])
        if not parent or len(parent) != len(change):
            fail(f"{name}: {len(parent)} parent runs vs {len(change)} change runs")
        pairs.add(len(parent))
        entry = {"end_to_end": end_to_end(name, parent, change)}
        if len(spec) == 4:
            traced = read_results(spec[3])
            if len(traced) != 1:
                fail(f"{name}: want one traced result line, got {len(traced)}")
            entry["per_layer"] = traced[0]["metrics"]
        workloads[name] = entry
    if len(pairs) != 1:
        fail(f"workloads have different pair counts: {sorted(pairs)}")

    claim = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        claim = {"workload": workload, "metric": metric}
    record = {"pr": args.pr, "commit": args.commit, "parent": args.parent,
              "nproc": os.cpu_count(), "threads": THREADS,
              "pairs": pairs.pop(), "claim": claim, "workloads": workloads}

    trajectory = {"records": []}
    if os.path.exists(args.out):
        with open(args.out) as f:
            trajectory = json.load(f)
    records = [r for r in trajectory["records"] if r["pr"] != args.pr]
    trajectory["records"] = sorted(records + [record], key=lambda r: r["pr"])
    with open(args.out, "w") as f:
        json.dump(trajectory, f, indent=1)
        f.write("\n")
    print(f"bench_trajectory: wrote PR {args.pr} "
          f"({record['pairs']} pairs, {', '.join(workloads)}) to {args.out}")


if __name__ == "__main__":
    main()

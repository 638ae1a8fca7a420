#!/usr/bin/env python3
"""Self-test of the memstress benchmark: every workload on tiny inputs.

    python3 perfbench/selftest.py

Run it from the root of a checkout. It builds the benchmark as run.py does,
runs `memstress_bench --check-logic` (scripted checks of serve_mix's rate
staircase), then runs each workload BENCHMARK.json names, and fleet, with --tiny,
untraced and traced, and asserts for each run that it exits 0, that its output checks
pass with no failed operation, and that it emits every metric BENCHMARK.json
names for that mode with its unit (end-to-end values also nonzero). Takes
about a minute once the build is done; exits 1 on any failure.
"""

import math
import os
import sys

import run


def problems_of(spec, trace, code, result, stderr):
    if code != 0 or result is None:
        return [f"exit {code}, no result: {stderr[-800:]}"]
    found = []
    if not result["correct"]:
        found += [f"check {c['name']} failed {c.get('detail', '')}"
                  for c in result["checks"] if not c["ok"]]
    if result["attempted"] < 1 or result["failed"] != 0:
        found.append(f"attempted {result['attempted']}, failed {result['failed']}")
    for m in spec["per_layer"] if trace else spec["end_to_end"]:
        got = result["metrics"].get(m["name"])
        if got is None:
            found.append(f"metric {m['name']} missing")
        elif got["unit"] != m["unit"]:
            found.append(f"metric {m['name']} in {got['unit']}, not {m['unit']}")
        elif not math.isfinite(got["value"]) or (not trace and got["value"] <= 0):
            found.append(f"metric {m['name']} = {got['value']}")
    return found


def main():
    root = os.getcwd()
    spec = run.load_spec(root)
    binary = run.build(root)
    code, out, err = run.run_binary(binary, ["--check-logic"], root)
    print(out + err, end="")
    failed = int(code != 0)
    print(f"{'FAIL' if failed else 'PASS'} --check-logic")
    workloads = [w["name"] for w in spec["workloads"]] + list(run.EXTRA_WORKLOADS)
    for workload in workloads:
        for trace in (0, 1):
            args = ["--workload", workload, "--tiny", "--seconds", "1",
                    "--trace", str(trace)]
            code, out, err = run.run_binary(binary, args, root)
            found = problems_of(spec, trace, code, run.parse_result(out), err)
            print(f"{'FAIL' if found else 'PASS'} {workload} --trace {trace}")
            for p in found:
                print(f"    {p}")
            failed += bool(found)
    print(f"selftest: {failed} of {2 * len(workloads) + 1} runs failed")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()

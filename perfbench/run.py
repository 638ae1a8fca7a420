#!/usr/bin/env python3
"""Run one workload of the memstress benchmark and print its result.

    python3 perfbench/run.py --workload paper_flow --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. It builds perfbench/ (a CMake package
that compiles the library from src/ together with memstress_bench) in
Release mode into .bench_build/, runs the benchmark binary with every
MEMSTRESS_* knob unset or pinned, checks the run's output digests against
the references recorded in perfbench/references.json, and prints, as its
last line, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics BENCHMARK.json names;
with --trace 1 they are its per-layer metrics, from a separate traced pass.
The lines before it record the environment and print every metric by name
with its unit.

--record stores this run's digests as the references for its workload and
seed (seed-independent digests are stored once per workload).
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "memstress_bench")
DEFAULT_SEED = 1
# Workloads the binary runs that BENCHMARK.json leaves out, because on a
# shared 4-vCPU machine their run-to-run spread came too close to the largest
# bound the benchmark may set: serve_mix's tail latency and saturation rate
# move with the host's load from run to run; fleet waits on the slowest of
# three 6-second shards.
EXTRA_WORKLOADS = ("serve_mix", "fleet")
# The benchmark binary must exit well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec(root):
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found; run from the root of a checkout", 2)
    with open(path) as f:
        return json.load(f)


def build(root, log=sys.stderr):
    """Configure (once) and build the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("the memstress sources (src/) are not in this directory; "
             "run from the root of a checkout", 2)
    build_dir = os.path.join(root, BUILD_DIR)
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                  "--target", "memstress_bench"])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT, cwd=root) != 0:
                with open(build_log) as f:
                    tail = f.read()[-4000:]
                print(tail, file=log)
                fail(f"build failed (log: {build_log})")
    return os.path.join(root, BINARY)


def pinned_env():
    """The caller's environment without any MEMSTRESS_* knob, plus the pins."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MEMSTRESS_")}
    env["MEMSTRESS_THREADS"] = "4"
    env["MEMSTRESS_SOLVER"] = "batched"
    return env


def run_binary(binary, args, root):
    """Run the benchmark binary in its own process group; returns
    (exit code, stdout, stderr). The whole group is killed on timeout."""
    proc = subprocess.Popen([binary] + args, cwd=root, env=pinned_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return -1, out, err + f"\nperfbench: timed out after {RUN_TIMEOUT_S} s\n"
    return proc.returncode, out, err


def parse_result(stdout):
    lines = [l for l in stdout.splitlines() if l.startswith("RESULT ")]
    return json.loads(lines[-1][len("RESULT "):]) if lines else None


def source_digest(root):
    """SHA-256 over the files the benchmark builds from, for the record."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit(root):
    try:
        return subprocess.check_output(["git", "rev-parse", "HEAD"], cwd=root,
                                       stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_references():
    if not os.path.isfile(REFERENCES):
        return {}
    with open(REFERENCES) as f:
        return json.load(f)


def check_references(workload, seed, digests):
    """Compare digests with the stored references; returns mismatch texts.
    Seed-dependent digests are compared only for seeds with a reference."""
    ref = load_references().get(workload, {})
    expected = [("fixed", ref.get("fixed", {}), digests.get("fixed", {})),
                ("seed", ref.get("seeds", {}).get(str(seed), {}), digests.get("seed", {}))]
    mismatches = []
    for group, want, got in expected:
        for name, value in want.items():
            if got.get(name) != value:
                mismatches.append(f"{group} digest {name}: {got.get(name)!r} != reference {value!r}")
    return mismatches


def record_references(workload, seed, digests):
    refs = load_references()
    entry = refs.setdefault(workload, {"fixed": {}, "seeds": {}})
    entry["fixed"] = digests.get("fixed", {})
    entry["seeds"][str(seed)] = digests.get("seed", {})
    entry["seeds"] = dict(sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])))
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests as the references")
    args = parser.parse_args()

    root = os.getcwd()
    spec = load_spec(root)
    names = [w["name"] for w in spec["workloads"]] + list(EXTRA_WORKLOADS)
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (known: {', '.join(names)})", 2)
    if args.seed < 0:
        fail("--seed must be a non-negative integer", 2)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    binary = build(root)
    trace_path = os.path.join(root, BUILD_DIR, f"trace_{args.workload}.json")
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(seconds), "--trace", str(args.trace)]
    if args.trace:
        bench_args += ["--trace-out", trace_path]
    started = time.monotonic()
    code, out, err = run_binary(binary, bench_args, root)
    sys.stderr.write(err)
    result = parse_result(out)
    if code != 0 or result is None:
        fail(f"{args.workload} run failed (exit {code}); no result")

    mismatches = check_references(args.workload, args.seed, result["digests"])
    for m in mismatches:
        print(f"perfbench: reference check FAILED: {m}", file=sys.stderr)
    if args.record:
        record_references(args.workload, args.seed, result["digests"])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} missing or not in {m['unit']}: {got}")
        metrics[m["name"]] = got

    info = dict(result["info"])
    info.update({"commit": commit(root), "source_sha256": source_digest(root),
                 "wall_s": round(time.monotonic() - started, 3),
                 "checks": result["checks"], "digests": result["digests"]})
    print("perfbench: env " + json.dumps(info, sort_keys=True))
    for name, m in metrics.items():
        print(f"perfbench: {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": bool(result["correct"]) and not mismatches,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

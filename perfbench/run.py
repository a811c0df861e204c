"""The parjoin benchmark: one command that builds the program from source,
generates a workload's inputs from a seed, replays them through parjoind's
serving core in a closed loop, checks every result, and prints metrics.

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Builds into .bench_build/ there. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1 (see BENCHMARK.json and
perfbench/manifest.json for what each measures and should move). Exits
nonzero when a query fails, a gate fires, or the build fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
DRIVER_TIMEOUT_S = 150

sys.path.insert(0, HERE)
import gen  # noqa: E402
import metrics  # noqa: E402


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver and self-test; quiet when current."""
    steps = [
        ["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", CMAKE_DIR, "-j", str(min(4, os.cpu_count() or 1)),
         "--target", "perfbench_driver", "perfbench_selftest"],
    ]
    if os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(1)


def self_test():
    """The C++ gate self-test plus the Python metric-code tests."""
    proc = subprocess.run([os.path.join(CMAKE_DIR, "perfbench_selftest")],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=60)
    if proc.returncode != 0:
        log(proc.stdout)
        return False
    suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
    result = unittest.TextTestRunner(stream=open(os.devnull, "w")).run(suite)
    for _, trace in result.failures + result.errors:
        log(trace)
    return result.wasSuccessful()


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args):
    manifest = gen.load_manifest()
    wl = manifest["workloads"][args.workload]
    tail_pct = manifest["workloads"][wl.get("stream_of", args.workload)][
        "tail_percentile"]
    data = os.path.join(BUILD, "data", f"{args.workload}-{args.seed}-{os.getpid()}")
    out = os.path.join(BUILD, "out")
    os.makedirs(out, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    raw_path = os.path.join(out, tag + ".json")
    spans_path = os.path.join(out, tag + ".spans.jsonl")
    try:
        summary = gen.generate(args.workload, args.seed, data, manifest)
        env = dict(os.environ, PARJOIN_THREADS=str(manifest["threads"]))
        proc = subprocess.run(
            [os.path.join(CMAKE_DIR, "perfbench_driver"),
             "--workload", "stream.workload",
             "--out", raw_path, "--spans", spans_path,
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--faults", "1" if wl["faults"] else "0",
             "--seed", str(args.seed)],
            cwd=data, env=env, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
        sys.exit(1)
    finally:
        shutil.rmtree(data, ignore_errors=True)
    if proc.returncode not in (0, 3):
        log(f"driver exited with {proc.returncode}")
        sys.exit(1)
    with open(raw_path) as f:
        raw = json.load(f)
    correct = proc.returncode == 0 and raw["failed"] == 0 and not raw["errors"]
    for err in raw["errors"][:20]:
        log("GATE:", err)

    print(f"workload {args.workload}, seed {args.seed}: catalog "
          f"{summary['relations']} relations / {summary['tuples']} tuples, "
          f"{len(raw['passes'])} passes of {summary['stream_length']} "
          f"queries, p={raw['p']}, PARJOIN_THREADS={raw['threads']}")
    print(f"failed_frac {raw['failed'] / raw['attempted']:.6g} "
          f"({raw['failed']} of {raw['attempted']}; "
          f"{raw['oracle_checked']} distinct results checked against the "
          f"reference, {raw['twin_checked']} against a fault-free twin)")
    spec = benchmark_spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = {}
    if correct:
        if args.trace:
            with open(spans_path) as f:
                spans = [json.loads(line) for line in f]
            templates = sorted({t for w in manifest["workloads"].values()
                                for t in w.get("templates", {})})
            values = metrics.per_layer(raw, spans, summary["tuples"],
                                       templates)
        else:
            values, notes = metrics.end_to_end(raw, tail_pct)
            print(f"host-time metrics are medians over {notes['passes']} "
                  f"passes; latency_tail_ms is p{notes['tail_percentile']:g} "
                  f"of each pass's {notes['pass_samples']} samples")
        if set(values) != {m["name"] for m in declared}:
            log("metric set differs from BENCHMARK.json:",
                sorted(set(values) ^ {m["name"] for m in declared}))
            sys.exit(1)

    units = {m["name"]: m["unit"] for m in declared}
    for name in sorted(values):
        print(f"{name} {values[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in sorted(values)},
    }))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    build()
    if not self_test():
        log("benchmark self-test failed")
        return 1
    if args.self_test:
        print("perfbench self-test: ok")
        return 0
    if args.workload not in gen.load_manifest()["workloads"]:
        parser.error(f"unknown --workload {args.workload!r}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

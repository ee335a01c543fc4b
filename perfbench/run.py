#!/usr/bin/env python3
"""Whole-run benchmark of the deltaclus library (see perfbench/README.md).

Run from the root of a source tree:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      Builds the benchmark (first time only), generates the workload's
      input from the seed, mines it and prints one JSON object as the last
      line: {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --steadiness N --workload W [--seconds S]
      Runs the workload N times with seeds 1..N and prints, for each
      end-to-end metric, the median, the quartiles and the spread
      (q3 - q1) / median set against the bound in BENCHMARK.json.

  python3 perfbench/run.py --gen-only DIR --workload W --seed N
      Writes the workload's input files for seed N into DIR.

The build goes to $CARGO_TARGET_DIR, or .bench_build when it is unset.
Standard library only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or ".bench_build")


def build():
    """Configures (once) and builds the benchmark; runs the checker test."""
    out = build_dir()
    steps = []
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    steps.append([os.path.join(out, "checker_test")])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(1)
    return os.path.join(out, "perfbench")


def generate(exe, workload, seed, directory):
    os.makedirs(directory, exist_ok=True)
    r = subprocess.run([exe, "gen", "--workload", workload, "--seed",
                        str(seed), "--dir", directory],
                       stdout=sys.stderr, stderr=sys.stderr,
                       timeout=RUN_TIMEOUT_S)
    if r.returncode != 0:
        log(f"input generation failed for {workload} seed {seed}")
        sys.exit(1)


def run_once(exe, workload, seed, seconds, trace):
    """Generates the input in a separate process, then measures it."""
    work = os.path.join(build_dir(), "runs",
                        f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        generate(exe, workload, seed, work)
        r = subprocess.run([exe, "run", "--workload", workload, "--dir", work,
                            "--seconds", str(seconds), "--trace", str(trace)],
                           stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log(f"{workload} seed {seed} exited with {r.returncode}")
        sys.exit(1)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log(f"malformed result: {lines[-1]}")
        sys.exit(1)
    return result


def steadiness(exe, workload, runs, seconds):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    shares = []
    for seed in range(1, runs + 1):
        result = run_once(exe, workload, seed, seconds, 0)
        shares.append(result["failed"] / result["attempted"])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        log(f"{workload} seed {seed}: " + ", ".join(
            f"{n}={result['metrics'][n]['value']:.6g}" for n in values))
    print(f"{workload}: {runs} runs of {seconds} s, failed share "
          f"{sorted(set(shares))}")
    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6} {'spread/bound':>12}")
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{name:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {bounds[name]:>6} "
              f"{spread / bounds[name]:>12.3f}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=18)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, metavar="N")
    p.add_argument("--gen-only", metavar="DIR")
    args = p.parse_args()

    exe = build()
    if args.gen_only:
        generate(exe, args.workload, args.seed,
                 os.path.abspath(args.gen_only))
    elif args.steadiness:
        steadiness(exe, args.workload, args.steadiness, args.seconds)
    else:
        result = run_once(exe, args.workload, args.seed, args.seconds,
                          args.trace)
        print(json.dumps(result))


if __name__ == "__main__":
    main()

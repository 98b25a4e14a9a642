#!/usr/bin/env python3
"""Build and run the TTW benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a cargo package of its own, against the repository's
crates by path) in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs one workload in its own process and passes its output
through. The last line of standard output is the result object. Before
passing it on, the metric names are checked against `BENCHMARK.json`.
`--workload all` runs every workload in turn, each in its own process, and
prints each one's output.

Exits non-zero, without printing a result, when the build fails, the run
fails or times out, or the result does not match `BENCHMARK.json`; exits
with the benchmark's own status (non-zero when an output check failed)
otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("warm_hits", "edit_stream", "cold_synthesis", "runtime_faults")
RUN_TIMEOUT_S = 175


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    return parser.parse_args()


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    command = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(command, env=env, stdout=sys.stderr, check=False)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail(f"build failed with status {done.returncode}")
    binary = os.path.join(target, "release", "ttw-perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, or None without it."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"last line is not JSON ({e}): {line[:200]}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    want = expected_metrics(trace)
    if want is not None and set(result["metrics"]) != want:
        missing = sorted(want - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - want)
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")


def run(binary, target, workload, args):
    """Runs one workload; returns its output and exit status once checked."""
    command = [
        binary,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--out", os.path.join(target, "perfbench"),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, check=False
        )
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").splitlines()
    if not lines:
        fail(f"{workload} printed nothing (status {done.returncode})")
    check_result(lines[-1], args.trace)
    return done.stdout, done.returncode


def main():
    args = parse_args()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    binary = build(target)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        output, code = run(binary, target, workload, args)
        if len(workloads) > 1:
            print(f"## {workload}")
        sys.stdout.write(output)
        sys.stdout.flush()
        status = status or code
    sys.exit(status)


if __name__ == "__main__":
    main()

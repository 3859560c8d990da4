#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds the `perfbench` crate in release
mode (into $CARGO_TARGET_DIR, default `.bench_build`), runs one workload in
a child process, and prints the child's output; the last line is the JSON
result.  With `--trace 0` the launcher adds `peak_rss_mb`, the child's peak
resident memory as the kernel reports it on exit.  Exits non-zero, without
a result line, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("analyze-mix", "serve-read", "churn-durable")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    state = os.path.join(target, "perfbench-state")
    os.makedirs(state, exist_ok=True)
    fs = subprocess.run(["stat", "-f", "-c", "%T", state],
                        capture_output=True, text=True).stdout.strip() or "unknown"

    binary = os.path.join(target, "release", "perfbench")
    child = subprocess.Popen(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--state-dir", state, "--fs", fs],
        stdout=subprocess.PIPE, text=True)
    lines = child.stdout.read().splitlines()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0 or not lines:
        print(f"perfbench: workload exited with {child.returncode}", file=sys.stderr)
        return 1

    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if args.trace == "0":
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024, "unit": "MiB"}
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())

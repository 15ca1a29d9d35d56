#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/METRICS.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The benchmark binary is built from source with cargo (offline) into
$CARGO_TARGET_DIR, default `.bench_build`. The last line of standard output
is the result JSON of the workload; with `--workload all` the workloads run
one after another and the last line combines them, each metric prefixed by
its workload. A traced run also writes its spans to
<target dir>/perfbench-trace/<workload>-seed<n>.json.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["d3_serial", "d1_stream_2t", "d1_batch_2w", "fleet_micro_2w"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A single workload run ends well within this; a run that does not is
# stopped and counts as a failure.
RUN_TIMEOUT_S = 170


def git_revision():
    """Source revision and dirty flag, when the root is a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return rev + ("-dirty" if dirty else "")


def build(target_dir):
    """Builds the benchmark binary; returns its path or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [
        "cargo", "build", "--offline", "--release", "--quiet",
        "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as err:
        print(f"error: cannot run cargo: {err}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("error: benchmark build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir, "release", "redeye-perfbench")


def run_one(binary, target_dir, workload, args, git):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [
        binary, "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--git", git,
    ]
    if args.trace:
        cmd += ["--spans", os.path.join(
            target_dir, "perfbench-trace", f"{workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, []
    sys.stderr.write(done.stderr)
    return done.returncode, done.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target_dir = os.path.join(ROOT, target_dir)
    binary = build(target_dir)
    if binary is None:
        return 1
    git = git_revision()

    if args.workload != "all":
        code, lines = run_one(binary, target_dir, args.workload, args, git)
        print("\n".join(lines))
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, lines = run_one(binary, target_dir, workload, args, git)
        if code != 0 or not lines:
            return code or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())

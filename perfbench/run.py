#!/usr/bin/env python3
"""Builds and runs one workload of the absort benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--bite oracle|tape]

Run from the repository root. The benchmark binary is built from source
(`cargo build --release --offline`) into `$CARGO_TARGET_DIR`, or
`.bench_build` when that is unset. With `--trace 0` set-up is timed in
SETUP_SAMPLES fresh processes, half of them before and half after the
measured run (which is one of them), and the median is reported as
`setup_s`. The last line of stdout is the measured
run's JSON result; any failed build, failed check or timeout exits non-zero
without printing one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 150


def run(cmd, timeout):
    """Runs the benchmark binary; returns its last stdout line, or None."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"error: {' '.join(cmd)} timed out after {timeout} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {' '.join(cmd)} exited with {proc.returncode}", file=sys.stderr)
        return None
    return lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--bite", choices=["oracle", "tape"])
    args = ap.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr,
        env=dict(os.environ, CARGO_TARGET_DIR=str(target)),
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1

    cmd = [
        str(target / "release" / "absort-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.bite:
        cmd += ["--bite", args.bite]

    setups = []

    def time_setups(count):
        for _ in range(count):
            line = run(cmd + ["--setup-only"], SETUP_TIMEOUT_S)
            if line is None:
                return False
            setups.append(json.loads(line)["setup_s"])
        return True

    extra = SETUP_SAMPLES - 1 if args.trace == "0" else 0
    if not time_setups(extra // 2):
        return 1
    line = run(cmd, RUN_TIMEOUT_S)
    if line is None or not time_setups(extra - extra // 2):
        return 1
    result = json.loads(line)
    if args.trace == "0":
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        setup["value"] = statistics.median(setups)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

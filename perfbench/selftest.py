#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py [--seconds 1]

Run from the repository root. Checks that

* the binary's metric catalogue equals `BENCHMARK.json` (names, units,
  workloads);
* a short untraced and a short traced run of every workload succeed and
  print exactly the declared metrics with their units, every end-to-end
  value above zero;
* a deliberately corrupted oracle (every workload) or tape (`compile`)
  makes the run exit non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seconds, trace, bite=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", trace]
    if bite:
        cmd += ["--bite", bite]
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    # Build once through run.py, then read the catalogue from the binary.
    warm = run("campaign", args.seconds, "0")
    expect(warm.returncode == 0, "build and first run")
    if warm.returncode != 0:
        print(warm.stderr[-2000:], file=sys.stderr)
        return 1
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cat = json.loads(subprocess.run([str(target / "release" / "absort-perfbench"), "--catalogue"],
                                    stdout=subprocess.PIPE, text=True, check=True).stdout)
    declared = {kind: [(m["name"], m["unit"]) for m in spec[kind]] for kind in ("end_to_end", "per_layer")}
    for kind in ("end_to_end", "per_layer"):
        expect([tuple(m) for m in cat[kind]] == declared[kind], f"catalogue {kind} matches BENCHMARK.json")
    expect(cat["workloads"] == [w["name"] for w in spec["workloads"]], "catalogue workloads match BENCHMARK.json")

    for w in cat["workloads"]:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            proc = run(w, args.seconds, trace)
            result = last_json(proc.stdout)
            ok = proc.returncode == 0 and result is not None
            if ok:
                ok = (set(result) == {"correct", "attempted", "failed", "metrics"}
                      and result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
                      and [(k, v["unit"]) for k, v in result["metrics"].items()] == declared[kind])
                if kind == "end_to_end":
                    ok = ok and all(v["value"] > 0 for v in result["metrics"].values())
            expect(ok, f"{w} --trace {trace} prints every {kind} metric with its unit")
            if not ok:
                print(proc.stderr[-2000:], file=sys.stderr)

    bites = [(w, "oracle") for w in cat["workloads"]] + [("compile", "tape")]
    for w, bite in bites:
        proc = run(w, args.seconds, "0", bite)
        expect(proc.returncode != 0 and last_json(proc.stdout) is None, f"{w} --bite {bite} fails the run")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

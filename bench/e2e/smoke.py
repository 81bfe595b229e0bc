#!/usr/bin/env python3
"""Smoke test of cbsim_bench on the tiny workload shapes.

    python3 bench/e2e/smoke.py path/to/cbsim_bench

Runs each tiny shape timed (seed 1) and traced (seed 7).  A run fails
unless it is correct, its first pass was checked against a committed
digest, and it prints exactly the metrics BENCHMARK.json lists for its
mode, by name and unit.  A run on a host with fewer threads than the
workload's jobs (exit 3) withholds wall_s and events_per_s and is checked
without them.  Exits 77 (skipped) when the binary refuses to measure
(exit 2: a sanitizer or non-Release build).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "..", "..", "BENCHMARK.json")
UNFIT_BUILD, OVERSUBSCRIBED, SKIPPED = 2, 3, 77
WITHHELD_WHEN_OVERSUBSCRIBED = ("wall_s", "events_per_s")


class UnfitBuild(Exception):
    pass


def check(binary, spec, workload, seed, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    r = subprocess.run(cmd, capture_output=True, text=True)
    if r.returncode == UNFIT_BUILD:
        raise UnfitBuild(r.stderr.strip())
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, OVERSUBSCRIBED) or len(lines) < 2:
        return [f"exit {r.returncode}: {r.stderr.strip()[-500:]}"]
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    problems = []
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"incorrect: {info['problems']}")
    if not info["passes"][0]["digest_checked"]:
        problems.append("no committed digest for this seed")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    if r.returncode == OVERSUBSCRIBED:
        for name in WITHHELD_WHEN_OVERSUBSCRIBED:
            want.pop(name, None)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        diff = sorted(set(got.items()) ^ set(want.items()))
        problems.append(f"metric names/units differ from BENCHMARK.json: {diff}")
    return problems


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    failures = 0
    for workload in ("fig8-tiny", "halo-tiny", "resilience-tiny"):
        for seed, trace in ((1, 0), (7, 1)):
            try:
                problems = check(sys.argv[1], spec, workload, seed, trace)
            except UnfitBuild as e:
                print(f"skip: {e}")
                return SKIPPED
            status = "FAIL" if problems else "ok"
            print(f"{status:4s} {workload} seed {seed} trace {trace}")
            for p in problems:
                print("     " + p)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

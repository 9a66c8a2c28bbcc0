#!/usr/bin/env python3
"""Smoke test of bench_e2e (registered as the bench_e2e_smoke ctest).

    smoke.py <bench_e2e binary> <BENCHMARK.json> <work dir>

Runs every workload of BENCHMARK.json at 1/100 scale for three seconds
(the service's open phase then spans more than one window), untraced
and traced. Fails when a run exits non-zero, fails a check or
an operation, or when its result line does not carry exactly the
metrics BENCHMARK.json names (end-to-end untraced, per-layer traced)
with their units.
"""

import json
import os
import subprocess
import sys


def main():
    binary, manifest_path, work = sys.argv[1:4]
    with open(manifest_path) as f:
        manifest = json.load(f)
    failures = []
    for workload in manifest["workloads"]:
        for traced, kind in ((False, "end_to_end"), (True, "per_layer")):
            name = workload["name"]
            command = [binary, f"--workload={name}", "--seconds=3",
                       "--scale=0.01",
                       f"--scratch-dir={os.path.join(work, 'scratch')}"]
            if traced:
                command.append(f"--trace-out={os.path.join(work, 'traces')}")
            run = subprocess.run(command, capture_output=True, text=True,
                                 timeout=120)
            label = f"{name} ({'traced' if traced else 'untraced'})"
            print(run.stdout, end="")
            if run.returncode != 0:
                failures.append(f"{label}: exit status {run.returncode}")
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0:
                failures.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']}")
            want = {m["name"]: m["unit"] for m in manifest[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if want != got:
                failures.append(f"{label}: metrics {sorted(got.items())} "
                                f"!= {sorted(want.items())}")
    for failure in failures:
        print("SMOKE FAILURE:", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

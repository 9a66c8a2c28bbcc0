#!/usr/bin/env python3
"""Builds and runs one workload of the hdldp end-to-end benchmark.

    python3 bench_e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds bench_e2e (the hdldp library plus
the benchmark binary) from this checkout's sources into .bench_build/;
later runs reuse that build. Build output goes to standard error; the
binary's report goes to standard output, whose last line is the run's
JSON result. --trace 1 reports the per-layer metrics instead of the
end-to-end ones and writes a Chrome trace-event file to
.bench_build/traces/. Shards and snapshots live in .bench_build/scratch/
while a run lasts. Exits non-zero, printing no result, when the build
fails or the run fails a check.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "bench_e2e")
# A run is setup plus --seconds plus a few seconds of replays; this only
# stops a hung run.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Returns the path of a current bench_e2e binary, or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no hdldp sources in {ROOT}")
        return None
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e",
                  "-j", "4"])
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr) != 0:
            log("build failed: " + " ".join(step))
            return None
    return os.path.join(BUILD, "bench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    command = [
        binary,
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--scratch-dir={os.path.join(OUT, 'scratch')}",
        f"--expect-digests={os.path.join(HERE, 'baselines', 'digests.txt')}",
    ]
    if args.trace:
        command.append(f"--trace-out={os.path.join(OUT, 'traces')}")
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as run:
        try:
            output, _ = run.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            run.kill()
            run.communicate()
            log(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
            return 1
    if run.returncode != 0:
        # Keep the report for the reader but drop the result line, so a
        # failed run never looks like a measurement.
        lines = output.splitlines()
        if lines and lines[-1].startswith("{"):
            lines.pop()
        sys.stdout.write("\n".join(lines) + "\n")
        log(f"{args.workload} exited with status {run.returncode}")
        return 1
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())

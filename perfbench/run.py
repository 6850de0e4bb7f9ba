#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload <paper-batch|svc-cold|svc-hit>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and compiles the
quanta library and the benchmark program into .bench_build/perfbench (later
calls only re-check the build). Build output goes to standard error; the
program's last line of standard output is the result JSON. The exit code is
the program's: 0 when every answer was correct, non-zero otherwise or when
the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("paper-batch", "svc-cold", "svc-hit")
# A run that has not finished by then is stuck: it is killed and fails.
RUN_TIMEOUT_S = 160


def build():
    """Configures once, then (re)builds the program; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--parallel", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--tamper", action="store_true",
                    help="corrupt one expected answer (self-test only)")
    args = ap.parse_args()

    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        sys.exit("perfbench: no quanta sources (src/) in this checkout")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    # Per-run scratch space (daemon sockets, state and checkpoint dirs),
    # removed again when the run ends; traces are kept next to the build.
    run_dir = os.path.join(".bench_build", "run-%d" % os.getpid())
    trace_dir = os.path.join(".bench_build", "traces")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--run-dir", run_dir]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    if args.tamper:
        cmd.append("--tamper")
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.exit(code if code >= 0 else 128 - code)


if __name__ == "__main__":
    main()

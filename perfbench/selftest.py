#!/usr/bin/env python3
"""Short self-test of the repo benchmark.

    python3 perfbench/selftest.py [--seconds 1]

Run from the root of a checkout. For every workload in BENCHMARK.json it
checks that
  * an untraced run emits every end-to-end metric, with its unit, as a
    positive number, and reports no failed operation (fail ratio 0);
  * a traced run emits every per-layer metric with its unit;
  * a run fed a tampered expected answer (--tamper) reports correct=false,
    counts the failure and exits non-zero;
and that the command fails without printing a result in a directory holding
only BENCHMARK.json and the benchmark's own files. Exits 1 on any failure.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seconds, trace, tamper=False, cwd=ROOT):
    cmd = ["python3", os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", str(seconds), "--trace",
           "1" if trace else "0"]
    if tamper:
        cmd.append("--tamper")
    p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=180)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return p.returncode, result, p.stderr


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for w in bench["workloads"]:
        name = w["name"]
        for trace, specs in ((False, bench["end_to_end"]),
                             (True, bench["per_layer"])):
            label = "%s trace=%d" % (name, trace)
            code, res, err = run(name, args.seconds, trace)
            expect(code == 0 and res is not None,
                   "%s exits 0 with a result%s" % (
                       label, "" if code == 0 else ": " + err[-400:]))
            if res is None:
                continue
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                   label + " result has exactly the four keys")
            expect(res.get("correct") is True and res.get("failed") == 0 and
                   res.get("attempted", 0) >= 1,
                   label + " is correct with fail ratio 0 (%s/%s failed)" % (
                       res.get("failed"), res.get("attempted")))
            metrics = res.get("metrics", {})
            expect(sorted(metrics) == sorted(m["name"] for m in specs),
                   label + " emits exactly the %d named metrics" % len(specs))
            for m in specs:
                got = metrics.get(m["name"], {})
                value = got.get("value")
                ok = got.get("unit") == m["unit"] and isinstance(
                    value, (int, float)) and math.isfinite(value)
                if not trace:
                    ok = ok and value > 0
                expect(ok, "%s %s = %r %s" % (label, m["name"], value,
                                               got.get("unit")))
        code, res, _ = run(name, args.seconds, False, tamper=True)
        expect(code != 0 and res is not None and res["correct"] is False and
               res["failed"] > 0,
               "%s with a tampered expected answer fails (exit %d, %s)" % (
                   name, code, res and "%d failed" % res["failed"]))

    # The command must fail, printing no result, where only the benchmark's
    # own files exist (no sources to build).
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, res, _ = run(bench["workloads"][0]["name"], args.seconds, False,
                       cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and res is None,
           "a checkout without sources fails without a result (exit %d)" % code)

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

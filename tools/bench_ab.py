#!/usr/bin/env python3
"""Alternating parent/change runs of the repo benchmark, kept as a BENCH file.

    python3 tools/bench_ab.py --parent <rev> --pr <n> --workload svc-cold
                              [--seed 1] [--pairs 10] [--trace 0]
                              [--workdir DIR]

Unpacks <rev> with `git archive` into <workdir>/parent (never a worktree),
builds both checkouts with one short warm-up run each, then runs `pairs`
pairs of `python3 perfbench/run.py` from each checkout root, alternating
which side goes first (pair i: parent first when i is even). Every run lasts
BENCHMARK.json `run_seconds`. The change side is this working tree;
uncommitted edits are named by the hash of `git diff HEAD` (BENCH files left
out). Every result line is appended to BENCH_<pr>.json at the repository
root, together with
both git revisions, the seed, the workload, `nproc` and `run_seconds`;
repeated invocations (other workloads, seeds, a traced pair) add to the same
file. After each invocation the file's `summary` is recomputed: per
workload, seed and trace setting, each end-to-end metric of BENCHMARK.json
with both sides' median and quartiles and the change's pair wins.
"""

import argparse
import datetime
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def unpack(rev, dest):
    """Extracts `git archive rev` into dest (replacing an older extraction
    of another revision; an existing build directory is kept)."""
    stamp = os.path.join(dest, ".bench_ab_rev")
    if os.path.exists(stamp) and open(stamp).read() == rev:
        return
    os.makedirs(dest, exist_ok=True)
    blob = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest)
    with open(stamp, "w") as f:
        f.write(rev)


def run_once(checkout, workload, seed, seconds, trace):
    """One perfbench run; returns (exit code, parsed result or None)."""
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    try:
        return p.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(p.stderr[-2000:])
        return p.returncode, None


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]


def summarize(doc):
    """Per (workload, seed, trace) and end-to-end metric: medians,
    quartiles and the change's wins over the pairs."""
    contract = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    better = {m["name"]: m["better"] for m in contract["end_to_end"]}
    groups = {}
    for r in doc["runs"]:
        key = "%s seed=%d trace=%d" % (r["workload"], r["seed"], r["trace"])
        groups.setdefault(key, {}).setdefault(r["pair"], {})[r["side"]] = r
    summary = {}
    for key, pairs in sorted(groups.items()):
        full = [p for p in pairs.values() if "parent" in p and "change" in p
                and p["parent"]["result"] and p["change"]["result"]]
        row = {"pairs": len(full),
               "failed": {side: sum(p[side]["result"]["failed"] for p in full)
                          for side in ("parent", "change")}}
        for name, direction in better.items():
            # A traced run reports the per-layer split, not these metrics.
            if not full or any(name not in p[side]["result"]["metrics"]
                               for p in full for side in p):
                continue
            vals = {side: [p[side]["result"]["metrics"][name]["value"]
                           for p in full] for side in ("parent", "change")}
            sign = 1 if direction == "lower" else -1
            wins = sum(1 for a, b in zip(vals["parent"], vals["change"])
                       if sign * (b - a) < 0)
            pq = quartiles(vals["parent"])
            cq = quartiles(vals["change"])
            row[name] = {
                "parent_q1_median_q3": pq,
                "change_q1_median_q3": cq,
                "median_change": (cq[1] - pq[1]) / pq[1] if pq[1] else None,
                "parent_iqr": pq[2] - pq[0],
                "change_wins": wins,
            }
        summary[key] = row
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent git revision")
    ap.add_argument("--pr", required=True, help="names BENCH_<pr>.json")
    ap.add_argument("--workload", required=True,
                    choices=("paper-batch", "svc-cold", "svc-hit"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", default=None,
                    help="where the parent is unpacked "
                         "(default: .bench_ab/ in the repository)")
    args = ap.parse_args()

    contract = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = contract["run_seconds"]
    parent_rev = git("rev-parse", args.parent)
    change_rev = git("rev-parse", "HEAD")
    # An uncommitted change is identified by the hash of its diff, leaving
    # out the BENCH files this script itself rewrites.
    diff = subprocess.run(["git", "diff", "HEAD", "--", ".",
                           ":(exclude)BENCH_*.json"], cwd=ROOT, check=True,
                          capture_output=True).stdout
    if diff:
        change_rev += "+diff:" + hashlib.sha256(diff).hexdigest()[:16]
    workdir = os.path.abspath(args.workdir or os.path.join(ROOT, ".bench_ab"))
    parent = os.path.join(workdir, "parent")
    unpack(parent_rev, parent)
    sides = {"parent": parent, "change": ROOT}

    out_path = os.path.join(ROOT, "BENCH_%s.json" % args.pr)
    doc = {"pr": args.pr, "runs": []}
    if os.path.exists(out_path):
        doc = json.load(open(out_path))
    doc.update({
        "parent_rev": parent_rev,
        "change_rev": change_rev,
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "command": "python3 perfbench/run.py --workload W --seed S "
                   "--seconds T --trace X, from each checkout root",
    })

    for side, checkout in sides.items():  # build + warm up, not recorded
        code, _ = run_once(checkout, args.workload, args.seed, 1, 0)
        if code != 0:
            sys.exit("bench_ab: warm-up run of the %s failed" % side)

    first_pair = 1 + max([r["pair"] for r in doc["runs"]
                          if r["workload"] == args.workload
                          and r["seed"] == args.seed
                          and r["trace"] == args.trace] or [-1])
    for i in range(first_pair, first_pair + args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            code, result = run_once(sides[side], args.workload, args.seed,
                                    seconds, args.trace)
            doc["runs"].append({
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "pair": i, "side": side,
                "first": side == order[0], "exit": code,
                "rev": parent_rev if side == "parent" else doc["change_rev"],
                "utc": datetime.datetime.utcnow().isoformat(timespec="seconds"),
                "result": result,
            })
            shown = ("qps", "lat_p50_ms", "lat_p90_ms", "ckpt.sink_ms",
                     "svc.engine_ms")
            print("pair %d %-6s exit %d %s" % (
                i, side, code,
                "" if result is None else
                " ".join("%s=%.4g" % (k, result["metrics"][k]["value"])
                         for k in shown if k in result["metrics"])),
                  flush=True)
        doc["summary"] = summarize(doc)
        with open(out_path, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    print(json.dumps(doc["summary"], indent=1))


if __name__ == "__main__":
    main()

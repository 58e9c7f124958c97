#!/usr/bin/env python3
"""A/A steadiness check of the benchmark.

    python3 perfbench/aa.py [--workloads trajectory,ranks2,served] [--runs 10]
                            [--sets 1] [--seed0 1] [--seconds S] [--out FILE]

Runs perfbench/run.py --trace 0 `runs` times per workload, each with another
seed, and prints for every end-to-end metric its median and its spread: the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, next to the metric's bound from BENCHMARK.json.
"steady" means the spread is below a third of the bound. With --sets 2 it
repeats the whole set with fresh seeds and also prints how far the second
median moved from the first, against the same bound. This is the evidence
for each bound in BENCHMARK.json. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise SystemExit("run failed: " + " ".join(cmd))
    return json.loads(r.stdout.strip().split("\n")[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    results = {}
    seed = args.seed0
    for w in workloads:
        for s in range(args.sets):
            runs = []
            for _ in range(args.runs):
                res = run_once(w, seed, seconds)
                seed += 1
                runs.append(res)
                print("%s set %d seed %d: correct=%s attempted=%d failed=%d" %
                      (w, s + 1, seed - 1, res["correct"], res["attempted"], res["failed"]),
                      file=sys.stderr)
            results.setdefault(w, []).append(runs)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)

    ok = True
    for w in workloads:
        print("\n== %s (%d runs x %d sets, %g s each)" % (w, args.runs, args.sets, seconds))
        print("  %-20s %12s %8s %8s %7s  %s" % ("metric", "median", "spread", "bound", "move",
                                              "verdict"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = []
            verdicts = []
            for runs in results[w]:
                med, spr = spread([r["metrics"][name]["value"] for r in runs])
                meds.append((med, spr))
                if name != "setup_s" and spr > bound:
                    verdicts.append("TOO NOISY")
                elif spr > bound / 3:
                    verdicts.append("within bound")
                else:
                    verdicts.append("steady")
            move = ""
            if len(meds) == 2:
                worse = (meds[1][0] - meds[0][0]) / meds[0][0]
                if m["better"] == "higher":
                    worse = -worse
                move = "%+.3f" % worse
                if worse > bound:
                    verdicts.append("MOVED")
            for i, (med, spr) in enumerate(meds):
                print("  %-20s %12.6g %8.4f %8.3f %7s  %s" % (
                    name if i == 0 else "", med, spr, bound, move if i == len(meds) - 1 else "",
                    verdicts[i]))
            if any(v in ("TOO NOISY", "MOVED") for v in verdicts):
                ok = False
        bad = sum(1 for runs in results[w] for r in runs if not r["correct"])
        if bad:
            print("  %d runs reported correct=false" % bad)
            ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""End-to-end benchmark of the PT-TDDFT engine.

    python3 perfbench/run.py --workload trajectory|ranks2|served \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds libpwdft and the perfbench binary from
source (CMake, into $CARGO_TARGET_DIR/perfbench or .bench_build/perfbench),
runs one workload with PWDFT_NUM_THREADS pinned for it and every other
PWDFT_* variable removed, and prints the binary's table followed, as the
last line, by one JSON object with "correct", "attempted", "failed" and
"metrics": the end_to_end metrics of BENCHMARK.json with --trace 0, its
per_layer metrics with --trace 1. Every timing is in machine-normalised
seconds (see perfbench/src/bench.hpp); raw.* twins are in the table.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# Pool width per workload: the only setting passed through the environment.
THREADS = {"trajectory": 1, "ranks2": 1, "served": 2}
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once and builds incrementally; returns the binary's path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("library sources not found next to perfbench/ (need CMakeLists.txt and src/)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
        for cmd in steps:
            r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(THREADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    exe = build()
    env = {k: v for k, v in os.environ.items() if not k.startswith("PWDFT_")}
    env["PWDFT_NUM_THREADS"] = str(THREADS[args.workload])
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    # Own process group, so a timeout or a stop request can end the binary
    # and its rank processes together.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark binary timed out")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        fail("benchmark binary exited with code %d" % proc.returncode)

    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(metrics) - known)
    if unknown:
        fail("benchmark binary reported metrics BENCHMARK.json does not list: " + ", ".join(unknown))
    missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in metrics]
    if missing:
        fail("benchmark binary did not report: " + ", ".join(missing))
    for line in lines[:-1]:
        print(line)
    # A per-layer metric the workload does not exercise or cannot observe
    # reads 0 (for example comm bytes on one rank, or td phases when served).
    absent = [m["name"] for m in wanted if m["name"] not in metrics]
    if absent:
        print("not observed on this workload (reported as 0): " + ", ".join(absent))
    selected = {}
    for m in wanted:
        got = metrics.get(m["name"], {"value": 0, "unit": m["unit"]})
        if got["unit"] != m["unit"]:
            fail("unit of %s is %s, BENCHMARK.json says %s" % (m["name"], got["unit"], m["unit"]))
        selected[m["name"]] = got
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": selected}))
    sys.stdout.flush()


if __name__ == "__main__":
    main()

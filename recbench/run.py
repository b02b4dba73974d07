#!/usr/bin/env python3
"""Build and run the reconciliation benchmark.

    python3 recbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
recbench/ (which builds the library from ../src) into
$CARGO_TARGET_DIR/recbench, or .bench_build/recbench when that variable is
unset; later runs only rebuild what changed. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. Each run also
leaves a copy of its output, stamped with the host, under <build>/out/.

Exit status: the benchmark's own (0 ok, 1 on a wrong diff), 2 when the
build fails or the sources are missing, 3 when the run overruns its time.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("peers-uring", "peers-epoll", "bulk-mem", "churn-mem")
RUN_TIMEOUT_S = 170


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    return p.parse_args()


def git_sha(root):
    """HEAD's commit from .git in the checkout, or 'unknown' (no git call)."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # The build tool's file appears only once configure fully succeeded.
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "recbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    args = parse_args()
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "recbench")
    if not build(build_dir):
        print("recbench: build failed", file=sys.stderr)
        return 2
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "recbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", out_dir, "--git-sha", git_sha(root)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("recbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    log = os.path.join(out_dir, "result-%s-seed%d-trace%s.txt"
                       % (args.workload, args.seed, args.trace))
    with open(log, "w") as f:
        f.write(proc.stdout)
        f.write("# wall_s %.3f exit %d\n"
                % (time.monotonic() - start, proc.returncode))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

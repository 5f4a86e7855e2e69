#!/usr/bin/env python3
"""Build and run the vvsp repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload repro_cold|repro_warm|cyclesim \
        [--seed N] [--seconds S] [--trace 0|1]

The first run configures and builds perfbench/CMakeLists.txt (the
vvsp library from src/ plus vvsp_perfbench, Release) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs
only re-check the build. vvsp_perfbench then measures the workload, checks
its outputs, and prints its report line followed by the result line
{"correct", "attempted", "failed", "metrics"} as the last line of
standard output. Scratch files (disk-cache directories, span traces,
reports) go to .bench_work/ in the checkout.

Exit status is vvsp_perfbench's: 0 when every check passed, 1 when a
check failed or the build or run could not complete, 2 on bad usage.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time

WORKLOADS = ("repro_cold", "repro_warm", "cyclesim")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Run a command with its output on stderr; False on failure."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as exc:
        log(f"{cmd[0]} failed: {exc}")
        return False
    return proc.returncode == 0


def build(build_dir):
    """Configure (once) and build vvsp_perfbench; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=Release"],
                          BUILD_TIMEOUT_S):
            return None
    if not run_logged(["cmake", "--build", build_dir, "-j", jobs,
                       "--target", "vvsp_perfbench"],
                      max(1, deadline - time.monotonic())):
        return None
    exe = os.path.join(build_dir, "vvsp_perfbench")
    return exe if os.access(exe, os.X_OK) else None


def source_digest():
    """SHA-256 over the sources vvsp_perfbench is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no vvsp sources under {ROOT}/src; run from a full checkout")
        return 1
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    exe = build(build_dir)
    if exe is None:
        log("build failed")
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(ROOT, ".bench_work"),
           "--commit", git_commit(), "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

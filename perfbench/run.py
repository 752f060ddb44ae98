#!/usr/bin/env python3
"""Build and run the fairsfe benchmark.

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first call configures and builds the
fairsfe library, fairbench, fairbenchd and the perfbench driver from source
into .bench_build/perfbench (CMake + Ninja, Release); later calls only
rebuild what changed. The driver's output is forwarded: an env line, a
detail line and, last, the result object
{"correct", "attempted", "failed", "metrics"}. Build output goes to stderr.

Exits non-zero without a result when the build or the run fails, or when
the run exceeds its time limit. Metric definitions: perfbench/README.md.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = ".bench_build"
BUILD_DIR = os.path.join(WORK_DIR, "perfbench")
WORKLOADS = ("paper_suite", "gmw_circuits", "daemon_mix")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build; False on any failure."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("run.py: no fairsfe sources next to perfbench/", file=sys.stderr)
        return False
    cache = os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def source_id():
    """The git commit when there is one, else a digest of the sources (docs
    excluded, so a README edit does not split result sets)."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            return "git:" + r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".md"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0], allow_abbrev=False)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not build():
        return 1
    os.makedirs(os.path.join(ROOT, WORK_DIR), exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--daemon", os.path.join(BUILD_DIR, "fairbenchd"),
           "--fairbench", os.path.join(BUILD_DIR, "fairbench"),
           "--source-id", source_id()]
    # Own process group, so a timed-out run takes the daemon it spawned
    # down with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("run.py: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print("run.py: perfbench exited %d" % proc.returncode, file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

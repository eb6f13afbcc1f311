#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds the
simulator library and the benchmark (Release, LTO, as the repository
builds them) into $CARGO_TARGET_DIR (default .bench_build); later calls
rebuild only what changed.  Each call runs the benchmark's self-tests,
then one workload, and passes its standard output through: the last
line is the JSON result.  The benchmark's log (stderr) goes to
.perfbench_out/.  Exits non-zero, without a result, when the sources
are missing, the build or a self-test fails, or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("paper-sweep", "steady-refresh", "sram-c32", "serve-mix")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_digest(root):
    """sha256 over the simulator and benchmark sources, for the stamp."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(root, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return h.hexdigest()[:16]


def commit_id(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(root, build_dir, log):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        step = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
            fail("configure failed; see " + log.name)
    step = ["cmake", "--build", build_dir, "-j", "3", "--target",
            "perfbench", "perfbench_selftest"]
    if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
        fail("build failed; see " + log.name)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    for need in ("CMakeLists.txt", "src", "tests/golden",
                 "perfbench/CMakeLists.txt", "perfbench/digests.txt"):
        if not os.path.exists(os.path.join(root, need)):
            fail("run from the repository root: %s is missing" % need)

    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    build_dir = os.path.join(build_dir, "perfbench")
    with open(os.path.join(out_dir, "build.log"), "w") as log:
        build(root, build_dir, log)

    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest"),
                               ".perfbench_tmp"],
                              capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout + selftest.stderr)
        fail("self-tests failed")

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", "tests/golden/sweep_cache_default.csv",
           "--digests", "perfbench/digests.txt",
           "--scratch", ".perfbench_tmp", "--out", ".perfbench_out",
           "--commit", commit_id(root), "--src-digest", source_digest(root)]
    with open(os.path.join(out_dir, tag + ".log"), "w") as err:
        try:
            run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err,
                                 text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("run exceeded %d s; see %s" % (RUN_TIMEOUT_S, err.name))
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        fail("run failed (exit %d); see %s" % (run.returncode, err.name))
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

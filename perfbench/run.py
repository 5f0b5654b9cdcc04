#!/usr/bin/env python3
"""Build svcbench from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload kv-a --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build), taken
relative to the repository root; shm arenas and trace files go to its run/
subdirectory. svcbench's output is passed through unchanged: its last line
is the JSON result. The exit code is svcbench's (1 = a correctness check
failed); 2 means the build failed or the sources are missing, 3 that the
run overran its time limit.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 175


def build(build_dir):
    """Configure once, then build; returns the svcbench path or None."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithAsserts"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--parallel", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout)
            sys.stderr.write("run.py: %s failed\n" % " ".join(cmd))
            return None
    return os.path.join(build_dir, "svcbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["kv-a", "durable-scan"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--skip-persist-all", action="store_true",
                   help="negative control: crash kv-a without "
                        "persist_all(); the crash check must fail")
    args = p.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: library sources not found under %s\n" % ROOT)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    exe = build(build_dir)
    if exe is None:
        return 2

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", os.path.join(build_dir, "run")]
    if args.skip_persist_all:
        cmd.append("--skip-persist-all")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_LIMIT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: svcbench overran %d s\n" % RUN_LIMIT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace 0|1
    python3 perfbench/run.py --selftest

The first call configures and compiles perfbench/ (which compiles ../src) in
Release into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later calls rebuild incrementally. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Scratch files (server data,
durable directories, span dumps) go to .perfbench_work/.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [configure,
             ["cmake", "--build", build_dir, "-j", jobs, "--target",
              "perfbench", "perfbench_selftest"]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return build_dir


def main():
    build_dir = build()
    if sys.argv[1:] == ["--selftest"]:
        os.execv(os.path.join(build_dir, "perfbench_selftest"),
                 ["perfbench_selftest"])
    work = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    sys.stdout.flush()
    binary = os.path.join(build_dir, "perfbench")
    os.execv(binary, [binary] + sys.argv[1:] + ["--work", work])


if __name__ == "__main__":
    main()

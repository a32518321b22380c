#!/usr/bin/env python3
"""Build rfpbench from this checkout's sources, then run one workload.

    python3 rfpbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 rfpbench/run.py --smoke

Run from the root of a checkout. Each checkout builds into a directory of
its own, $CARGO_TARGET_DIR/rfpbench-<hash of the checkout's path> (default
.bench_build/rfpbench-<hash>), so two checkouts that share CARGO_TARGET_DIR
never run each other's binary. cmake's output goes to stderr, so the last
line of standard output is the benchmark's JSON result. With --trace 1 the
spans are written to trace-<workload>-<seed>.json in the build directory,
whose path is printed to stderr. The exit status is the benchmark's, or 2
if the sources are missing or the build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)


def arg_value(args, flag, default):
    if flag in args and args.index(flag) + 1 < len(args):
        return args[args.index(flag) + 1]
    return default


def build_dir_for(root):
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    key = hashlib.sha1(root.encode()).hexdigest()[:12]
    return os.path.join(os.path.abspath(target), "rfpbench-" + key)


def build(build_dir):
    """Configures once, then builds incrementally; returns True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    args = sys.argv[1:]
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "libm", "rfp.h"))):
        print("rfpbench: the project's sources are not next to rfpbench/; "
              "run from a full checkout", file=sys.stderr)
        return 2
    build_dir = build_dir_for(ROOT)
    if not build(build_dir):
        print("rfpbench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(build_dir, "rfpbench")] + args
    if arg_value(args, "--trace", "0") != "0" and "--trace-file" not in args:
        name = "trace-%s-%s.json" % (arg_value(args, "--workload", "none"),
                                     arg_value(args, "--seed", "1"))
        cmd += ["--trace-file", os.path.join(build_dir, name)]
        print("rfpbench: trace -> %s" % cmd[-1], file=sys.stderr)
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

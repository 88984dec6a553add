#!/usr/bin/env python3
"""Build and run the wall-clock benchmark of the real list-I/O data path.

Usage, from the repository root:

    python3 perfbench/run.py --workload cyclic_read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the repository's libraries and the
benchmark with CMake under .bench_build/ (or $CARGO_TARGET_DIR); later calls
only rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's result JSON. The exit code is the benchmark's.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: repository sources (src/) not found next to "
                 "perfbench/; nothing to build")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "perfbench_selftest", "-j", jobs],
                   stdout=sys.stderr, check=True)


def commit():
    """The git commit when run from a clone, else a hash of the sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
        return head.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main(argv):
    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    if argv == ["--selftest"]:
        return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode
    args = [*argv, "--commit", commit()]
    runs = [args]
    at = argv.index("--workload") + 1 if "--workload" in argv else len(argv)
    if argv[at:at + 1] == ["all"]:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        runs = [args[:at] + [name] + args[at + 1:] for name in names]
    codes = [subprocess.run([os.path.join(out, "perfbench"), *run]).returncode
             for run in runs]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

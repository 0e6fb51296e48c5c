#!/usr/bin/env python3
"""Build and run the verifier's benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the verifier's
libraries and the benchmark driver from source into .bench_build/
(RelWithDebInfo); later runs reuse the build. The driver's output is passed through: "# " header lines, then
one JSON result object as the last line. Build output goes to stderr.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("cold_source", "case_sweep", "edit_loop", "serve_stream")


def revision():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-" + digest.hexdigest()[:16]


def build():
    """Configures and builds the driver; returns its path."""
    if not os.path.exists(os.path.join(ROOT, "src", "core", "verifier.hpp")):
        sys.exit("perfbench: the verifier's sources (src/) are missing from this checkout")
    bdir = os.path.join(BUILD, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", bdir],
             ["cmake", "--build", bdir, "--target", "tv_perfbench", "-j", jobs]]
    if os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps = steps[1:]  # the build step re-configures when CMakeLists.txt changed
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(bdir, "tv_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--workdir", os.path.join(BUILD, "work"), "--revision", revision()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

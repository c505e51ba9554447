#!/usr/bin/env python3
"""Build and run one benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload verify|sweep|serve --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

Builds the benchmark program and the ripple-sim CLI with dune (release
profile), then runs the program, whose last line of standard output is
the result JSON.  Exits non-zero, without a result, if the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

PROFILE = "release"
TARGETS = ["./perfbench/perfbench.exe", "./bin/ripple_cli.exe"]
SOURCE_DIRS = ["lib", "bin", "perfbench"]


def commit():
    """The git commit, when the checkout is a git repository."""
    if not os.path.isdir(".git"):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    for top in SOURCE_DIRS:
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=["verify", "sweep", "serve"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    p.add_argument("--size", default="full", choices=["full", "tiny"])
    a = p.parse_args()

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", PROFILE, *TARGETS],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    cli = os.path.join("_build", "default", "bin", "ripple_cli.exe")
    sys.stdout.flush()
    # Replace this process, so a signal meant for the benchmark reaches it.
    os.execv(
        exe,
        [
            exe,
            "--workload", a.workload,
            "--seed", str(a.seed),
            "--seconds", str(a.seconds),
            "--trace", a.trace,
            "--size", a.size,
            "--cli", cli,
            "--profile", PROFILE,
            "--commit", commit(),
            "--source", source_digest(),
        ],
    )


if __name__ == "__main__":
    sys.exit(main())

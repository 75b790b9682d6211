#!/usr/bin/env python3
"""Builds the benchmark and the campaign daemon from source, then runs one
workload.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

Run from the root of a checkout. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`); the daemon's queue roots and the traced run's spans go to
`.bench_work`. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--locked", "--quiet"]
    builds = [
        # The daemon binary, built by the repository's own workspace.
        cargo + ["-p", "ftdircmp-serve", "--bin", "ftdircmp-serve"],
        cargo + ["--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "ftdircmp-perfbench"),
        *sys.argv[1:],
        "--serve-bin",
        os.path.join(release, "ftdircmp-serve"),
        "--work",
        os.path.join(ROOT, ".bench_work"),
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

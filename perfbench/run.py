#!/usr/bin/env python3
"""Build and run the fixed-work end-to-end benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Builds the benchmark (its own cargo package in this directory) and the
`hta` CLI, whose `simulate` output the simulate-4k workload is checked
against, into $CARGO_TARGET_DIR (default: .bench_build), then runs the
benchmark with the given arguments. Build output goes to stderr; the last
line of stdout is the run's JSON result. Exits non-zero when a build fails
or a correctness gate fails.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target, PERFBENCH_TMP=os.path.join(target, "perfbench-tmp"))
    builds = [
        ["--manifest-path", os.path.join(here, "Cargo.toml")],
        ["--manifest-path", os.path.join(root, "Cargo.toml"), "-p", "hta-cli"],
    ]
    for args in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
        built = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench")] + sys.argv[1:] + ["--hta", os.path.join(release, "hta")]
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark package is built in release mode, offline, into
CARGO_TARGET_DIR when it is set (else e2ebench/target). The benchmark then
runs with CPS_THREADS=1, so every engine's worker pool is one thread wide,
and pinned to one CPU. Unpinned, a warm admission's round trip took either
about 16 or about 35 microseconds, depending on whether the client and the
service worker woke each other on one core or across two, and the median
moved by more than 2x between runs. Pinned, every hand-off is a same-core
switch. Cargo's output goes to stderr: the last line of stdout stays the
benchmark's JSON result. The exit code is the build's when it fails, else
the benchmark's.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return build.returncode
    target = Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target")
    binary = target / "release" / "e2ebench"
    env = dict(os.environ, CPS_THREADS="1")
    cpu = max(os.sched_getaffinity(0))
    return subprocess.run([str(binary), *sys.argv[1:]], env=env,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu})).returncode


if __name__ == "__main__":
    sys.exit(main())

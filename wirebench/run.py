#!/usr/bin/env python3
"""Build the release dego-server and the wire benchmark, then run it.

Run from the repository root:

    python3 wirebench/run.py --workload kv-read --seed 1 --seconds 10 --trace 0

Both are built from source into $CARGO_TARGET_DIR (default .bench_build);
every other argument goes to the benchmark binary, which boots the server,
drives the workload and prints the result as its last line of output.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "dego-server", "--bin", "dego-server"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", "wirebench/Cargo.toml"],
    ]
    for cmd in builds:
        # Build output goes to stderr: the last line of stdout is the result.
        if subprocess.run(cmd, cwd=root, stdout=sys.stderr).returncode != 0:
            print("wirebench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    bench = os.path.join(release, "wirebench")
    args = [bench, "--server", os.path.join(release, "dego-server")] + sys.argv[1:]
    sys.stdout.flush()
    os.execv(bench, args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the benchmark and run it with the given arguments (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR, or .bench_build under the current
directory when it is unset. Build output goes to standard error, so the
last line of standard output is the benchmark's result.
"""

import os
import subprocess
import sys

here = os.path.dirname(os.path.abspath(__file__))
target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
build = subprocess.run(
    ["cargo", "build", "--release", "--offline", "--quiet",
     "--manifest-path", os.path.join(here, "Cargo.toml")],
    env=dict(os.environ, CARGO_TARGET_DIR=target),
    stdout=sys.stderr,
)
if build.returncode != 0:
    sys.exit("perfbench: build failed")
exe = os.path.join(target, "release", "perfbench")
os.execv(exe, [exe] + sys.argv[1:])

#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload mixed-partitions --seed 1 --seconds 20 --trace 0

The Go toolchain's caches and the built binary live in .bench_build/ at
the checkout root, so a run reads and writes nothing outside the checkout.
All arguments are passed to the benchmark binary; its last line of
standard output is the result. The exit code is the binary's, or 1 when
the build fails (as it does without the library's sources next to this
directory).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        # The go command keeps its settings and telemetry under the user
        # config directory; point it inside the checkout too.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    return env


def main():
    binary = os.path.join(BUILD, "perfbench", "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE,
        env=go_env(),
        stdout=sys.stderr,
        timeout=900,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    out = os.path.join(BUILD, "perfbench")
    return subprocess.run([binary, "-out", out] + sys.argv[1:], cwd=ROOT, timeout=170).returncode


if __name__ == "__main__":
    sys.exit(main())

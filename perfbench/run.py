#!/usr/bin/env python3
"""Build and run the perfbench driver from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The driver is the command cmd/perfbench of the Go module in this
directory, which imports the repository's packages through a
`replace repro => ../` directive. It is built into .bench_build/, with
the Go build cache, module cache and Go's config directory all kept
there, so the benchmark reads and writes nothing outside the checkout.
Flags are forwarded to the driver, whose last line of standard output
is the JSON result. The exit code is the driver's; a failed build exits
1 without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# Each run must end within 180 s; a longer one is killed and fails.
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        PPROF_TMPDIR=os.path.join(BUILD, "pprof"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if shutil.which("go") is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 1
    os.makedirs(BUILD, exist_ok=True)
    env = go_env()
    build = subprocess.run(["go", "build", "-o", BINARY, "./cmd/perfbench"], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [
        BINARY,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-out", os.path.join(BUILD, "trace"),
    ]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

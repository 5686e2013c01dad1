#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Run from the repository root:

    python3 simbench/run.py --workload rip_scale --seed 1 --seconds 12 --trace 0

The Go program in simbench/ is built from source into .bench_build/,
with every Go cache and temporary directory kept there too, then run
with the same arguments. Traced runs (--trace 1) also write their spans
to .bench_build/spans/<workload>-seed<seed>.json. The program's last
line of output is the result as one JSON object; the exit status is the
program's, or the build's when the build fails.
"""

import argparse
import os
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOTMPDIR=os.path.join(out, "tmp"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
    )
    for d in ("tmp", "config", "spans"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    binary = os.path.join(out, "simbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env)
    if build.returncode != 0:
        print("simbench: build failed", file=sys.stderr)
        return build.returncode or 1

    cmd = [
        binary,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", repr(args.seconds),
        "-trace", str(args.trace),
    ]
    if args.trace == 1:
        spans = os.path.join(out, "spans", "%s-seed%d.json" % (args.workload, args.seed))
        cmd += ["-spans", spans]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

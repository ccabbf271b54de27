#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hpc_w_steer --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py record -seeds 0-99
    python3 perfbench/run.py compare base.json new.json

Every argument is passed to the binary. The Go build cache, temporary files
and the binary live under .bench_build/ in the checkout, so nothing is read
from or written to the user's home directory. The exit code is the binary's,
or non-zero without a result line when the build fails (for instance when
the simulator sources beside perfbench/ are missing).
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
        "GOTELEMETRY": "off",
    })
    for d in ("gocache", "tmp", "gopath", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

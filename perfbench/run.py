#!/usr/bin/env python3
"""Build and run the isolbench host-performance benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload closed-mix --seed 1 --seconds 30 --trace 0

The Go program in perfbench/ is built from source into .bench_build/
(build and module caches included, so nothing is written outside the
checkout) and then run with the given flags. Its last line of standard
output is the JSON result. Seeds missing from perfbench/digests.json get
their digests recorded in .bench_build/perfbench/digests.json on first
use and checked on every later run in the same checkout.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "go", "cache"),
        "GOPATH": os.path.join(BUILD, "go", "path"),
        "GOMODCACHE": os.path.join(BUILD, "go", "path", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "go", "config"),
        "XDG_CACHE_HOME": os.path.join(BUILD, "go", "xdg-cache"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOENV": "off",
        "CGO_ENABLED": "0",
    })
    return env


def main():
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    build = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=os.path.join(ROOT, "perfbench"), env=go_env(),
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [BINARY, "--record", os.path.join(BUILD, "perfbench", "digests.json")]
    args += sys.argv[1:]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

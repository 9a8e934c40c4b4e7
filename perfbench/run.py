#!/usr/bin/env python3
"""Build the benchmark inside the checkout and run it.

    python3 perfbench/run.py --workload paper-loop --seed 1 --seconds 10 --trace 0

Run from the repository root. Every build and run artefact (Go build cache,
binary, CPU profiles, span trace) goes under .bench_build/ at the root, and
the Go toolchain's own config and telemetry files are kept there too, so
nothing is written outside the checkout. The arguments are passed to the
benchmark unchanged; its exit code is returned.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"),
                     ("XDG_CONFIG_HOME", "config")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = ""
    env["CGO_ENABLED"] = "0"
    return env


def stop(signum, _frame):
    # Turn SIGTERM into an exception so the finally clause below stops the
    # benchmark process before the wrapper exits.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop)
    env = go_env()
    binary = os.path.join(BUILD, "perfbench-bin")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, env=env)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the upsimd end-to-end benchmark.

Run from the repository root:

    python3 upsimbench/run.py --workload campus-hot --seed 1 --seconds 20 --trace 0

The script builds upsimbench/ (a Go module of its own that imports the
program's packages from the repository root) into .bench_build/, keeping
the Go build cache and temporary files there too, then runs the binary with
the same arguments. The binary's last output line is the JSON result; the
exit code is the binary's (0 = every answer matched). Without the program's
sources next to it the script exits 3 and prints no result.
"""

import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "upsimbench")
OUT = os.path.join(ROOT, ".bench_build")


def fail(msg, code):
    print("upsimbench: " + msg, file=sys.stderr)
    sys.exit(code)


def program_present():
    try:
        with open(os.path.join(ROOT, "go.mod")) as f:
            first = f.readline().split()
    except OSError:
        return False
    return first == ["module", "upsim"] and os.path.isdir(os.path.join(ROOT, "internal", "server"))


def build():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"),
                     ("XDG_CONFIG_HOME", "config")):
        path = os.path.join(OUT, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(GOTOOLCHAIN="local", GOFLAGS="", GOPROXY="off", GOENV="off")
    binary = os.path.join(OUT, "upsimbench")
    res = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH, env=env)
    if res.returncode != 0:
        fail("build failed", 3)
    return binary


def main():
    if not os.path.isfile(os.path.join(BENCH, "go.mod")):
        fail("run from the repository root (upsimbench/go.mod not found)", 3)
    if not program_present():
        fail("the program's sources (go.mod, internal/) are not next to the benchmark", 3)
    binary = build()
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT)

    def stop(signum, _frame):
        proc.send_signal(signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.exit(code if code >= 0 else 128 - code)


if __name__ == "__main__":
    main()

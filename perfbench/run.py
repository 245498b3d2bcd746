#!/usr/bin/env python3
"""Run the repository benchmark on one workload.

    python3 perfbench/run.py --workload stream|fleet|grid --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  The script builds `seqdiv`
and the benchmark executable from source with dune (the first build
takes a few minutes), then runs the benchmark, whose last line of
standard output is the result object.  Build output goes to standard
error.  The exit status is the benchmark's: non-zero when a correctness
check fails, the program cannot be built, or the run does not end
within 2 x S + 90 seconds (it is then killed with the servers it
started).  See perfbench/DESIGN.md.
"""

import argparse
import os
import signal
import subprocess
import sys

SEQDIV = os.path.join("_build", "default", "bin", "main.exe")
PERFBENCH = os.path.join("_build", "default", "perfbench", "bench", "perfbench.exe")
SOURCES = ("dune-project", os.path.join("bin", "main.ml"), "lib")


def children(pid):
    """The processes whose parent is pid, from /proc."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(os.path.join("/proc", entry, "stat")) as f:
                # The command name may hold spaces: fields restart after ')'.
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == pid:
            found.append(int(entry))
    return found


def kill_run(bench):
    """Kill the benchmark and the servers it started."""
    # Stopped first, so that it starts no server while its children are
    # looked up.
    os.kill(bench.pid, signal.SIGSTOP)
    for pid in children(bench.pid):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    bench.kill()
    bench.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["stream", "fleet", "grid"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        print(
            "perfbench: run from the root of a seqdiv source checkout "
            "(missing: %s)" % ", ".join(missing),
            file=sys.stderr,
        )
        return 2

    # The shared dune cache lives outside the checkout: keep it out.
    build = subprocess.run(
        [
            "dune", "build", "--root", ".", "--cache=disabled",
            "./bin/main.exe", "./perfbench/bench/perfbench.exe",
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode

    cmd = [
        PERFBENCH,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--seqdiv", SEQDIV,
    ]
    bench = subprocess.Popen(cmd)
    try:
        return bench.wait(timeout=2 * args.seconds + 90)
    except subprocess.TimeoutExpired:
        kill_run(bench)
        print("perfbench: the run did not finish in time", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

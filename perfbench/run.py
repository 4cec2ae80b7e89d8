#!/usr/bin/env python3
"""StratRec serving benchmark entry point.

Run from the root of a stratrec checkout:

    python3 perfbench/run.py --workload adpar-cold --seed 1 --seconds 5 --trace 0

Builds stratrec-serve and the load generator from source (dune, build
directory .bench_build, shared cache off so nothing is written outside
the checkout), then runs the generator, which prints one JSON result as
the last line of standard output. Workloads: adpar-cold, batch-fit,
zipf-hot (see perfbench/README.md). Exits non-zero without a result when
the checkout holds no stratrec sources, the build fails, or a check fails.
"""

import argparse
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
TIMEOUT_S = 170
SOURCES = ["dune-project", "bin/stratrec_serve.ml", "lib/serve/daemon.ml", "perfbench/dune"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["adpar-cold", "batch-fit", "zipf-hot"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    missing = [p for p in SOURCES if not os.path.isfile(p)]
    if missing:
        print("perfbench: not a stratrec checkout (missing %s)" % ", ".join(missing),
              file=sys.stderr)
        return 2

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--cache=disabled",
         "./bin/stratrec_serve.exe", "./perfbench/stratbench.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "stratbench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(BUILD_DIR, "default", "bin", "stratrec_serve.exe"),
           "--dir", RUN_DIR]
    # The generator and every server it starts share one CPU, so the
    # host-speed kernel the generator times runs where the server runs
    # (see perfbench/README.md). Client and server take turns in the
    # closed loop, so they lose little by sharing it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # A session of its own, so a timeout can stop the generator together
    # with every server it started.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: timed out after %d s" % TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the VDCE end-to-end benchmark from source and run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload apps_daemon --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout.  The last stdout line is the run's JSON result; the exit code
is non-zero when the build fails, an output check fails or the run
overruns.  --selftest builds and runs the tests of the benchmark's own
arithmetic instead.
"""

import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("apps_daemon", "bulk_tcp", "stream_spectrum")
# A run that has not finished by then is stopped and reported failed.
RUN_TIMEOUT_S = 170.0


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else ROOT / target


def build(targets) -> bool:
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", jobs, "--target", *targets],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def stop_group(pgid: int) -> None:
    """Kill what is left of the run's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run(argv) -> int:
    env = {k: v for k, v in os.environ.items() if k != "VDCE_TRACE"}
    # Its own process group, so that stop_group() also reaches the site
    # daemons it forks.
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env,
                            preexec_fn=os.setpgrp, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        print("perfbench: run overran %.0f s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        stop_group(proc.pid)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        if not build(["perfbench_selftest"]):
            return 1
        return subprocess.run([str(build_dir() / "perfbench_selftest")]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not build(["vdce_perfbench", "vdce_site_daemon"]):
        return 1

    argv = [str(build_dir() / "vdce_perfbench"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = build_dir() / "spans"
        spans.mkdir(exist_ok=True)
        argv += ["--spans-out",
                 str(spans / ("%s-seed%d.csv" % (args.workload, args.seed)))]
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())

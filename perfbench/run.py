#!/usr/bin/env python3
"""Builds the benchmark and the servers it drives, then runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload serve-ppr --seed 1 --seconds 20 --trace 0

The last line of standard output is the JSON result. The exit code is 0
only if the run completed and every output check held. See README.md.
"""

import argparse
import os
import pathlib
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve-powerlaw", "serve-ppr", "routed-pagerank")
# Every run must end within this many seconds after its build.
RUN_LIMIT_S = 170


def revision():
    """The checkout's git revision, or "unknown" outside a git clone."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def stop_group(pgid):
    """Kills every process left in the run's process group and waits until
    none remains."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))).resolve()
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(HERE / "Cargo.toml"),
         "-p", "ihtl-perfbench", "-p", "ihtl-serve", "-p", "ihtl-router"],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return 2

    env["PERFBENCH_REVISION"] = revision()
    # glibc gives each new thread its own malloc arena, up to 8 per CPU, so
    # a server's peak memory depends on which thread first allocated what.
    # Two arenas make peak memory a property of the program, not of timing.
    env["MALLOC_ARENA_MAX"] = "2"
    bins = target / "release"
    cmd = [str(bins / "ihtl-perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", str(bins), "--work-dir", str(ROOT / ".bench_work"),
           "--manifest", str(ROOT / "BENCHMARK.json")]
    sys.stdout.flush()
    # Its own process group, so servers it starts can be stopped with it.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        code = 3
    finally:
        stop_group(proc.pid)
        proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())

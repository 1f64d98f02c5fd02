#!/usr/bin/env python3
"""Builds the DStress benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first call configures and builds
perfbench/ (the DStress library plus the perfbench driver, CMake Release)
under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later calls only rebuild what changed. Build output goes to stderr,
so the last line of stdout is the driver's JSON result. Extra flags
(--small) are passed to the driver unchanged; see README.md.
"""

import argparse
import os
import pathlib
import shutil
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
# The driver must finish well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def build_dir():
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build(out):
    if not (ROOT / "src" / "engine" / "engine.h").is_file():
        sys.exit("perfbench: the DStress sources (src/) are missing next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = parser.parse_known_args()

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")

    command = [str(out / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace] + extra
    if args.trace == "1":
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    # A session of its own, so a timeout can stop the driver and the bank
    # processes it forked together.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    if code != 0:
        # Stop whatever is left of the group (banks of a crashed driver).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        if code is None:
            sys.exit(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
        sys.exit(f"perfbench: driver exited with status {code}")


if __name__ == "__main__":
    main()

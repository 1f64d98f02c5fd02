#!/usr/bin/env python3
"""Self-test of the DStress benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json, and secure-tcp, at reduced size
(--small, with a one-second budget, which also bounds the number of fresh
engines) on two seeds — the default seed 1 and seed 2 — in both modes, and
checks that each run prints exactly the metric names and units
BENCHMARK.json declares for that mode (end_to_end for --trace 0, per_layer
for --trace 1), that all its checks passed, and that failed_frac is 0.
Exits non-zero on the first mismatch.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
# Runnable, but not in BENCHMARK.json: its run-to-run spread on a shared VM
# is too wide for a gated bound (see README.md, Workloads).
UNGATED_WORKLOADS = ["secure-tcp"]


def run(workload, seed, trace):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--small"]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}: exit {out.returncode}\n"
                 f"{out.stderr[-3000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in [w["name"] for w in bench["workloads"]] + UNGATED_WORKLOADS:
        for seed in SEEDS:
            for trace in (0, 1):
                result = run(workload, seed, trace)
                printed = {name: m["unit"] for name, m in result["metrics"].items()}
                problems = []
                if printed != expected[trace]:
                    missing = sorted(set(expected[trace]) - set(printed))
                    extra = sorted(set(printed) - set(expected[trace]))
                    wrong_unit = sorted(n for n in printed.keys() & expected[trace].keys()
                                        if printed[n] != expected[trace][n])
                    problems.append(f"missing {missing} extra {extra} unit {wrong_unit}")
                if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                    problems.append(f"checks: {result['attempted']} attempted, "
                                    f"{result['failed']} failed")
                if trace == 1 and result["metrics"]["failed_frac"]["value"] != 0:
                    problems.append("failed_frac is not 0")
                status = "ok" if not problems else "FAIL " + "; ".join(problems)
                print(f"{workload:20s} seed {seed} trace {trace}: {status}", flush=True)
                if problems:
                    sys.exit(1)
    print("perfbench smoke test passed")


if __name__ == "__main__":
    main()

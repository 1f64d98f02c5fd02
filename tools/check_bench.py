#!/usr/bin/env python3
"""Regression gate over BENCH_fig6.json: measured rows against committed history.

Usage: tools/check_bench.py BENCH_fig6.json [REFERENCE.json]

BENCH_fig6.json is the run to check; REFERENCE.json is the committed
BENCH_fig6.json, copied aside before the bench overwrites it. Every gate
reads wall-clock rows. The cost-model rows (`secure-projected`) are never
gated; the validation row's model error is printed as information.

Same-run gates, checked on every run (no reference needed):
  * every `cleartext-ensemble` row's amortization, wall_ms_baseline (K solo
    runs) / wall_ms (one lockstep pass), is at least ENSEMBLE_FLOOR;
  * every `cleartext` row with N >= 1,000,000 finishes within
    CLEARTEXT_1M_BUDGET_MS.
A run without such rows prints a named SKIP for that gate.

Normalized gate, checked when REFERENCE.json is given. bench_fig6_scalability
records kernel_ms, the best-of-5 time of a fixed integer kernel that calls no
library code, and times every row of the GATED_MODES best of 3. Each such
row's wall_ms / kernel_ms is compared with the same row's in the reference,
and the row FAILS when it exceeds the reference's by more than the factor
TOLERANCE. Rows match on mode, N, D, block_size, workers and scenarios.
Named SKIPs: a row with no counterpart in the reference; a row whose
reference is shorter than MIN_GATED_KERNEL_UNITS kernel units, where
scheduler noise alone approaches the tolerance; and every row when the run's
hardware_concurrency differs from the reference's, since the worker rows
measure parallel overlap, which another core count changes. The gate FAILS
when it compared no row at all, whatever the reason: a reference taken on
another core count must be regenerated on the run's.

Other failures: a missing, non-numeric or non-positive wall_ms or kernel_ms
(in either file) names the row or file; a run with no row of the
GATED_MODES fails.

`secure-ha` rows (docs/ha.md) print their HA overhead, heartbeat traffic and
checkpoint time as information; `secure-ensemble` rows print their ratio to
the solo runs. Neither is gated.

Exit status 0 = every gate passed; 1 prints every failing row. Stdlib only.
"""

import argparse
import json
import sys

# Modes whose rows are wall-clock runs timed best of 3 by the bench.
GATED_MODES = ("secure", "secure-ot", "cleartext", "cleartext-ensemble")

# Largest allowed ratio of a row's normalized time to the reference's.
# Eleven Release runs of the default bench on a shared 4-vCPU VM spread the
# compared rows' wall_ms / kernel_ms by at most 1.41x (max/min, cleartext
# N=1M; the 1-worker secure row 1.38x), and the other ten read at most
# 1.37x the first, which is the committed reference. With every transfer
# kernel run twice the 1-worker secure row read 1.70-2.11x that reference.
TOLERANCE = 1.6

# Shortest reference row the normalized gate compares, in kernel units
# (~0.3 s on that VM). The rows below it (cleartext N <= 100,000 and the
# cleartext ensembles, 2-120 ms) spread up to 1.76x over the same runs.
MIN_GATED_KERNEL_UNITS = 10.0

# Lockstep ensemble vs K solo runs (src/ensemble).
ENSEMBLE_FLOOR = 1.3

# The arena graph plane's N=1M sweep point (docs/graph-plane.md).
CLEARTEXT_1M_BUDGET_MS = 10000.0

KEY_FIELDS = ("mode", "N", "D", "block_size", "workers", "scenarios")


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def row_key(entry):
    return tuple(entry.get(field) for field in KEY_FIELDS)


def row_name(entry) -> str:
    parts = [f"mode={entry.get('mode')}", f"N={entry.get('N')}", f"D={entry.get('D')}"]
    for field in ("block_size", "workers", "scenarios"):
        if field in entry:
            parts.append(f"{field}={entry[field]}")
    return " ".join(parts)


def kernel_ms(bench, path, failures):
    value = bench.get("kernel_ms")
    if not is_number(value) or value <= 0:
        failures.append(f"FAIL: {path}: malformed kernel_ms {value!r}")
        return None
    return value


def gate_normalized(run, ref, run_path, ref_path, failures, skips, notes):
    """The wall_ms / kernel_ms comparison of every gated row."""
    rows = [e for e in run.get("entries", []) if e.get("mode") in GATED_MODES]
    if not rows:
        failures.append(f"FAIL: no row of modes {', '.join(GATED_MODES)} in {run_path}; "
                        "nothing gated")
        return
    run_kernel = kernel_ms(run, run_path, failures)
    ref_kernel = kernel_ms(ref, ref_path, failures)
    if run_kernel is None or ref_kernel is None:
        return

    run_cores = run.get("hardware_concurrency")
    ref_cores = ref.get("hardware_concurrency")
    reference = {row_key(e): e for e in ref.get("entries", [])}
    compared = 0
    for e in rows:
        wall = e.get("wall_ms")
        if not is_number(wall) or wall <= 0:
            failures.append(f"FAIL: {row_name(e)}: malformed wall_ms {wall!r}")
            continue
        if run_cores != ref_cores:
            skips.append(f"SKIP: {row_name(e)}: hardware_concurrency {run_cores!r} != "
                         f"reference {ref_cores!r}; row not gated")
            continue
        base = reference.get(row_key(e))
        if base is None:
            skips.append(f"SKIP: {row_name(e)}: no counterpart in {ref_path}; row not gated")
            continue
        base_wall = base.get("wall_ms")
        if not is_number(base_wall) or base_wall <= 0:
            failures.append(f"FAIL: {row_name(e)}: malformed reference wall_ms {base_wall!r}")
            continue
        base_norm = base_wall / ref_kernel
        if base_norm < MIN_GATED_KERNEL_UNITS:
            skips.append(f"SKIP: {row_name(e)}: reference {base_norm:.2f} kernel units < "
                         f"{MIN_GATED_KERNEL_UNITS:.0f}, too short to gate")
            continue
        compared += 1
        norm = wall / run_kernel
        ratio = norm / base_norm
        line = (f"{row_name(e)}: {norm:.2f} kernel units vs {base_norm:.2f} "
                f"reference ({ratio:.2f}x)")
        if ratio > TOLERANCE:
            failures.append(f"FAIL: {line} > {TOLERANCE:.2f}x tolerance")
        else:
            notes.append(f"ok: {line}")
    if compared == 0:
        if run_cores != ref_cores:
            failures.append(f"FAIL: {ref_path} was measured on {ref_cores!r} hardware threads "
                            f"and {run_path} on {run_cores!r}; no row compared. Regenerate "
                            "the reference on a machine with the run's core count")
        else:
            failures.append(f"FAIL: no gated row of {run_path} was compared with {ref_path}")


def gate_ensemble_floor(entries, path, failures, skips, notes):
    ensemble_rows = [e for e in entries if e.get("mode") == "cleartext-ensemble"]
    if not ensemble_rows:
        skips.append(f"SKIP: no 'cleartext-ensemble' row in {path}; "
                     "amortization floor not applied")
    for e in ensemble_rows:
        wall = e.get("wall_ms")
        baseline = e.get("wall_ms_baseline")
        if not is_number(wall) or wall <= 0 or not is_number(baseline) or baseline <= 0:
            failures.append(f"FAIL: {row_name(e)}: malformed wall_ms {wall!r} or "
                            f"wall_ms_baseline {baseline!r}")
            continue
        amortization = baseline / wall
        line = f"{row_name(e)}: {amortization:.2f}x amortization"
        if amortization < ENSEMBLE_FLOOR:
            failures.append(f"FAIL: {line} < {ENSEMBLE_FLOOR:.2f}x floor")
        else:
            notes.append(f"ok: {line} (floor {ENSEMBLE_FLOOR:.2f}x)")


def gate_million_budget(entries, path, failures, skips, notes):
    million_rows = [e for e in entries
                    if e.get("mode") == "cleartext"
                    and is_number(e.get("N")) and e.get("N") >= 1_000_000]
    if not million_rows:
        skips.append(f"SKIP: no 'cleartext' row with N >= 1,000,000 in {path}; "
                     "wall-clock budget not applied")
    for e in million_rows:
        wall = e.get("wall_ms")
        if not is_number(wall) or wall <= 0:
            failures.append(f"FAIL: {row_name(e)}: malformed wall_ms {wall!r}")
        elif wall > CLEARTEXT_1M_BUDGET_MS:
            failures.append(f"FAIL: {row_name(e)}: {wall:.0f} ms > "
                            f"{CLEARTEXT_1M_BUDGET_MS:.0f} ms budget")
        else:
            notes.append(f"ok: {row_name(e)}: {wall:.0f} ms "
                         f"(budget {CLEARTEXT_1M_BUDGET_MS:.0f} ms)")


def informational(entries):
    lines = []
    for e in entries:
        if "model_error" in e and is_number(e.get("model_error")):
            lines.append(f"info: {row_name(e)}: projection {e.get('projected_ms')} ms vs "
                         f"measured {e.get('wall_ms')} ms, model error "
                         f"{e['model_error'] * 100:+.0f}%")
        if e.get("mode") == "secure-ensemble":
            lines.append(f"info: {row_name(e)}: {e.get('wall_ms')} ms vs "
                         f"{e.get('wall_ms_baseline')} ms for the solos (not gated)")
        if is_number(e.get("ha_control_bytes")):
            wall = e.get("wall_ms")
            plain = e.get("wall_ms_baseline")
            if is_number(wall) and is_number(plain) and plain > 0:
                overhead = f"{(wall / plain - 1.0) * 100.0:+.1f}% wall overhead vs plain"
            else:
                overhead = "no plain-run baseline"
            ckpt_ms = e.get("ha_checkpoint_ms")
            ckpt = f"{ckpt_ms / 1e3:.3f}" if is_number(ckpt_ms) else "?"
            lines.append(f"info: {row_name(e)}: {overhead}, "
                         f"{e['ha_control_bytes'] / 1e6:.2f} MB heartbeat/control traffic, "
                         f"{ckpt} s checkpointing (not gated)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("bench_json", help="the run's BENCH_fig6.json")
    parser.add_argument("reference_json", nargs="?",
                        help="the committed BENCH_fig6.json; without it only the "
                             "same-run gates are checked")
    args = parser.parse_args(argv)

    with open(args.bench_json) as f:
        run = json.load(f)
    entries = run.get("entries", [])

    failures, skips, notes = [], [], []
    if args.reference_json is None:
        ref = None
        skips.append("SKIP: no reference given; measured rows not compared")
    else:
        with open(args.reference_json) as f:
            ref = json.load(f)
        gate_normalized(run, ref, args.bench_json, args.reference_json, failures, skips, notes)
    gate_ensemble_floor(entries, args.bench_json, failures, skips, notes)
    gate_million_budget(entries, args.bench_json, failures, skips, notes)

    for line in informational(entries) + notes + skips:
        print(line)
    if failures:
        for line in failures:
            print(line)
        return 1
    if ref is None:
        print("OK: every same-run gate passed")
    else:
        print(f"OK: every gate passed (tolerance {TOLERANCE:.2f}x, kernel {run.get('kernel_ms')} "
              f"ms vs reference {ref.get('kernel_ms')} ms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

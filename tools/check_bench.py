#!/usr/bin/env python3
"""Regression gate over BENCH_fig6.json (ROADMAP item 1's acceptance hook).

Every bench_fig6 run records, for each `secure-projected` row, both the
batched-engine projection and its seed-schedule baseline measured in the
SAME run on the SAME machine, so the recorded speedup column is immune to
host speed and only moves when the engine/baseline ratio moves. This gate
fails the run if any row's speedup falls below the floor — i.e. if the
transfer crypto engine's win over the seed schedule regresses.

With --ensemble-min-speedup the gate additionally pins the scenario-ensemble
amortization: every `cleartext-ensemble` row (wall_ms vs wall_ms_baseline =
K independent solo runs) must be at or above that floor.

With --cleartext-max-wall-ms the gate additionally pins the flat-arena graph
plane's headline (ROADMAP item 3): every `cleartext` row with N >= 1,000,000
must finish within that absolute wall-clock budget. When the run produced no
such row (e.g. a reduced grid), the gate prints a named SKIP instead of
passing silently.

Row hygiene: a row whose wall_ms_baseline is 0 is SKIPPED by name (a zero
baseline means "no baseline measured this run", and dividing by it would
crash the gate); a row with missing or non-numeric wall_ms / wall_ms_baseline
is a FAILURE naming the offending row's N, D, and mode.

`secure-ha` rows (docs/ha.md) carry ha_control_bytes / ha_checkpoint_ms;
those are printed as informational columns — HA overhead vs the plain run,
heartbeat/control traffic, checkpoint wall time — and are never gated.

Usage: tools/check_bench.py BENCH_fig6.json [--min-speedup 5.0]
                                            [--mode secure-projected]
                                            [--ensemble-min-speedup 10.0]
                                            [--cleartext-max-wall-ms 10000]
Exit status 0 = every gated row at or above its floor; nonzero prints each
offending row. Stdlib only.
"""

import argparse
import json
import sys


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def row_name(entry, mode) -> str:
    return f"N={entry.get('N')} D={entry.get('D')} mode={entry.get('mode', mode)}"


def gate_rows(rows, mode, floor):
    """Returns (failure_lines, skip_lines, worst) for one mode's rows."""
    failures = []
    skips = []
    worst = None
    for e in rows:
        baseline = e.get("wall_ms_baseline")
        wall = e.get("wall_ms")
        if not is_number(wall) or wall <= 0:
            failures.append(f"FAIL: {row_name(e, mode)}: malformed wall_ms {wall!r}")
            continue
        if not is_number(baseline):
            failures.append(
                f"FAIL: {row_name(e, mode)}: malformed wall_ms_baseline {baseline!r}")
            continue
        if baseline == 0:
            skips.append(f"SKIP: {row_name(e, mode)}: wall_ms_baseline == 0 "
                         "(no baseline measured); row not gated")
            continue
        speedup = baseline / wall
        if worst is None or speedup < worst[1]:
            worst = (e, speedup)
        if speedup < floor:
            failures.append(f"FAIL: {row_name(e, mode)}: {speedup:.2f}x "
                            f"< {floor:.2f}x floor")
    return failures, skips, worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json", help="path to BENCH_fig6.json")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="floor for every row's same-run speedup")
    parser.add_argument("--mode", default="secure-projected",
                        help="entry mode the gate applies to")
    parser.add_argument("--ensemble-min-speedup", type=float, default=None,
                        help="when set, also gate 'cleartext-ensemble' rows "
                             "(wall vs K solo runs) at this amortization floor")
    parser.add_argument("--cleartext-max-wall-ms", type=float, default=None,
                        help="when set, every 'cleartext' row with N >= 1e6 "
                             "must finish within this wall-clock budget (ms)")
    args = parser.parse_args()

    with open(args.bench_json) as f:
        bench = json.load(f)
    entries = bench.get("entries", [])

    rows = [e for e in entries if e.get("mode") == args.mode]
    if not rows:
        print(f"FAIL: no '{args.mode}' entries in {args.bench_json}")
        return 1
    failures, skips, worst = gate_rows(rows, args.mode, args.min_speedup)

    # HA overhead rows (mode "secure-ha", docs/ha.md): purely informational
    # — heartbeat traffic scales with wall time, not protocol work, so these
    # columns are printed but never gated.
    for e in entries:
        if not is_number(e.get("ha_control_bytes")):
            continue
        wall = e.get("wall_ms")
        plain = e.get("wall_ms_baseline")
        if is_number(wall) and is_number(plain) and plain > 0:
            overhead = f"{(wall / plain - 1.0) * 100.0:+.1f}% wall overhead vs plain"
        else:
            overhead = "no plain-run baseline"
        ckpt_ms = e.get("ha_checkpoint_ms")
        ckpt = f"{ckpt_ms / 1e3:.3f}" if is_number(ckpt_ms) else "?"
        print(f"ha: N={e.get('N')} D={e.get('D')}: {overhead}, "
              f"{e['ha_control_bytes'] / 1e6:.2f} MB heartbeat/control traffic, "
              f"{ckpt} s checkpointing (informational, not gated)")

    ensemble_rows = []
    if args.ensemble_min_speedup is not None:
        ensemble_rows = [e for e in entries if e.get("mode") == "cleartext-ensemble"]
        if not ensemble_rows:
            failures.append(f"FAIL: no 'cleartext-ensemble' entries in "
                            f"{args.bench_json} (ensemble gate requested)")
        else:
            ens_failures, ens_skips, ens_worst = gate_rows(
                ensemble_rows, "cleartext-ensemble", args.ensemble_min_speedup)
            failures += ens_failures
            skips += ens_skips
            if ens_worst is not None:
                e, speedup = ens_worst
                skips.append(f"ensemble: {len(ensemble_rows)} rows, worst "
                             f"{speedup:.2f}x amortization at N={e.get('N')} "
                             f"K={e.get('scenarios')} scenarios")

    # Absolute wall-clock budget for the arena graph plane's large-N sweep
    # point (ROADMAP item 3: N=1M in single-digit seconds).
    if args.cleartext_max_wall_ms is not None:
        million_rows = [e for e in entries
                        if e.get("mode") == "cleartext"
                        and is_number(e.get("N")) and e.get("N") >= 1_000_000]
        if not million_rows:
            skips.append("SKIP: no 'cleartext' row with N >= 1,000,000 in "
                         f"{args.bench_json}; wall-clock gate not applied "
                         "(reduced sweep grid?)")
        for e in million_rows:
            wall = e.get("wall_ms")
            if not is_number(wall) or wall <= 0:
                failures.append(f"FAIL: {row_name(e, 'cleartext')}: "
                                f"malformed wall_ms {wall!r}")
            elif wall > args.cleartext_max_wall_ms:
                failures.append(f"FAIL: {row_name(e, 'cleartext')}: "
                                f"{wall:.0f} ms > "
                                f"{args.cleartext_max_wall_ms:.0f} ms budget")
            else:
                print(f"cleartext: N={e.get('N')} in {wall:.0f} ms "
                      f"(budget {args.cleartext_max_wall_ms:.0f} ms)")

    for line in skips:
        print(line)
    if failures:
        for line in failures:
            print(line)
        return 1

    if worst is None:
        print(f"FAIL: every '{args.mode}' row was skipped; nothing gated")
        return 1
    e, speedup = worst
    print(f"OK: {len(rows)} '{args.mode}' rows >= {args.min_speedup:.2f}x "
          f"(worst {speedup:.2f}x at N={e.get('N')} D={e.get('D')}, "
          f"block_size={bench.get('block_size')}, "
          f"transfer_workers={bench.get('transfer_workers')})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

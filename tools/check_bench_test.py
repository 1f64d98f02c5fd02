#!/usr/bin/env python3
"""Unit tests for tools/check_bench.py over synthetic BENCH_fig6.json and
BENCH_transfer.json files.

Run: python3 tools/check_bench_test.py (ctest runs it as check_bench_test).
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench  # noqa: E402


def bench(kernel_ms=25.0, cores=4):
    return {
        "bench": "fig6",
        "block_size": 8,
        "kernel_ms": kernel_ms,
        "hardware_concurrency": cores,
        "entries": [
            {"N": 250, "D": 10, "mode": "secure-projected", "wall_ms": 3400.0,
             "mpc_ms": 20.0, "bytes_per_node": 3257007},
            {"N": 20, "D": 6, "mode": "secure", "block_size": 8, "workers": 0,
             "wall_ms": 1500.0, "projected_ms": 1300.0, "model_error": -0.13,
             "bytes_per_node": 2720474},
            {"N": 20, "D": 6, "mode": "secure", "block_size": 8, "workers": 1,
             "wall_ms": 3600.0, "bytes_per_node": 2720474},
            {"N": 20, "D": 6, "mode": "secure-ha", "wall_ms": 15000.0,
             "wall_ms_baseline": 11000.0, "speedup": 0.73, "ha_control_bytes": 320000,
             "ha_checkpoint_ms": 2.0, "bytes_per_node": 2720474},
            {"N": 10, "D": 3, "mode": "secure-ot", "wall_ms": 900.0, "bytes_per_node": 3389418},
            {"N": 2000, "D": 8, "mode": "cleartext", "wall_ms": 2.0, "bytes_per_node": 90},
            {"N": 1000000, "D": 8, "mode": "cleartext", "wall_ms": 1300.0,
             "bytes_per_node": 139},
            {"N": 1000, "D": 8, "mode": "cleartext-ensemble", "scenarios": 64,
             "wall_ms": 30.0, "wall_ms_baseline": 70.0, "speedup": 2.33,
             "bytes_per_node": 4589},
        ],
    }


def transfer_bench():
    return {
        "bench": "transfer",
        "block_size": 8,
        "primitives_us": {"mul_variable_base": 77.0, "recode": 0.8},
        "roles": [{"role": "encrypt", "us": 4384.0}],
        "transfers": [
            {"block_size": b, "ms": 10.0 * b, "i_recv_bytes": 400 * (b + 1) ** 2,
             "member_bi_sent_bytes": 400 * (b + 1), "j_sent_bytes": 430 * b,
             "member_bj_recv_bytes": 429}
            for b in (8, 12, 16, 20)
        ],
    }


def row(data, mode, **match):
    for e in data["entries"]:
        if e["mode"] == mode and all(e.get(k) == v for k, v in match.items()):
            return e
    raise KeyError((mode, match))


class CheckBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def gate(self, run, ref=None, flags=()):
        paths = list(flags)
        for name, data in (("run.json", run), ("ref.json", ref)):
            if data is None:
                continue
            path = os.path.join(self.tmp.name, name)
            with open(path, "w") as f:
                json.dump(data, f)
            paths.append(path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = check_bench.main(paths)
        return status, out.getvalue()

    def test_clean_pass(self):
        status, out = self.gate(bench(), bench())
        self.assertEqual(status, 0, out)
        self.assertIn("OK: every gate passed", out)
        self.assertIn("ok: mode=secure N=20 D=6 block_size=8 workers=1", out)
        self.assertIn("model error -13%", out)

    def test_short_row_is_a_named_skip(self):
        run = bench()
        row(run, "cleartext", N=2000)["wall_ms"] *= 3
        row(run, "cleartext-ensemble")["wall_ms"] *= 1.5
        status, out = self.gate(run, bench())
        self.assertEqual(status, 0, out)
        self.assertIn("SKIP: mode=cleartext N=2000 D=8: reference 0.08 kernel units < 10, "
                      "too short to gate", out)
        self.assertIn("SKIP: mode=cleartext-ensemble N=1000 D=8 scenarios=64: reference 1.20 "
                      "kernel units < 10, too short to gate", out)

    def test_slower_machine_passes_after_normalization(self):
        run = bench(kernel_ms=50.0)
        for e in run["entries"]:
            for field in ("wall_ms", "wall_ms_baseline"):
                if field in e:
                    e[field] *= 2
        status, out = self.gate(run, bench())
        self.assertEqual(status, 0, out)

    def test_normalized_regression_fails_naming_the_row(self):
        run = bench()
        row(run, "secure", workers=1)["wall_ms"] *= check_bench.TOLERANCE * 1.1
        status, out = self.gate(run, bench())
        self.assertEqual(status, 1, out)
        self.assertIn("FAIL: mode=secure N=20 D=6 block_size=8 workers=1", out)
        self.assertNotIn("FAIL: mode=secure N=20 D=6 block_size=8 workers=0", out)

    def test_regression_within_tolerance_passes(self):
        run = bench()
        row(run, "secure", workers=1)["wall_ms"] *= check_bench.TOLERANCE * 0.95
        status, out = self.gate(run, bench())
        self.assertEqual(status, 0, out)

    def test_row_missing_from_reference_is_a_named_skip(self):
        run = bench()
        run["entries"].append({"N": 100, "D": 10, "mode": "secure", "block_size": 20,
                               "workers": 0, "wall_ms": 90000.0, "bytes_per_node": 1})
        status, out = self.gate(run, bench())
        self.assertEqual(status, 0, out)
        self.assertIn("SKIP: mode=secure N=100 D=10 block_size=20 workers=0: "
                      "no counterpart", out)

    def test_concurrency_mismatch_skips_every_row_and_fails(self):
        status, out = self.gate(bench(cores=2), bench(cores=4))
        self.assertEqual(status, 1, out)
        for name in ("mode=secure N=20 D=6 block_size=8 workers=0",
                     "mode=secure N=20 D=6 block_size=8 workers=1",
                     "mode=secure-ot N=10 D=3", "mode=cleartext N=1000000 D=8",
                     "mode=cleartext-ensemble N=1000 D=8 scenarios=64"):
            self.assertIn(f"SKIP: {name}: hardware_concurrency 2 != reference 4", out)
        self.assertNotIn("kernel units vs", out)
        self.assertIn("measured on 4 hardware threads", out)
        self.assertIn("Regenerate the reference on a machine with the run's core count", out)

    def test_malformed_wall_ms_fails(self):
        for bad in (None, "fast", 0, -3.0, True):
            run = bench()
            row(run, "secure-ot")["wall_ms"] = bad
            status, out = self.gate(run, bench())
            self.assertEqual(status, 1, f"{bad!r}: {out}")
            self.assertIn("FAIL: mode=secure-ot N=10 D=3: malformed wall_ms", out)

    def test_malformed_kernel_ms_fails(self):
        for bad in (None, "25", 0):
            for side in ("run", "ref"):
                run, ref = bench(), bench()
                target = run if side == "run" else ref
                if bad is None:
                    del target["kernel_ms"]
                else:
                    target["kernel_ms"] = bad
                status, out = self.gate(run, ref)
                self.assertEqual(status, 1, f"{side} {bad!r}: {out}")
                self.assertIn("malformed kernel_ms", out)

    def test_ensemble_floor_fires(self):
        run = bench()
        row(run, "cleartext-ensemble")["wall_ms_baseline"] = 30.0 * 1.2
        status, out = self.gate(run, copy.deepcopy(run))
        self.assertEqual(status, 1, out)
        self.assertIn("FAIL: mode=cleartext-ensemble N=1000 D=8 scenarios=64: 1.20x "
                      "amortization < 1.30x floor", out)

    def test_ensemble_setup_is_information_only(self):
        run = bench()
        status, out = self.gate(run, bench())
        self.assertNotIn("engine set-up", out)
        row(run, "cleartext-ensemble")["setup_ms"] = 55.5
        ref = copy.deepcopy(run)
        row(ref, "cleartext-ensemble")["setup_ms"] = 1.0
        status, out = self.gate(run, ref)
        self.assertEqual(status, 0, out)
        self.assertIn("info: mode=cleartext-ensemble N=1000 D=8 scenarios=64: engine set-up "
                      "55.5 ms, best of the gated repetitions (not gated)", out)

    def test_without_reference_only_same_run_gates_run(self):
        run = bench()
        row(run, "secure", workers=1)["wall_ms"] *= 10
        status, out = self.gate(run)
        self.assertEqual(status, 0, out)
        self.assertIn("SKIP: no reference given; measured rows not compared", out)
        self.assertIn("OK: every same-run gate passed", out)
        row(run, "cleartext-ensemble")["wall_ms_baseline"] = 30.0 * 1.2
        status, out = self.gate(run)
        self.assertEqual(status, 1, out)
        self.assertIn("amortization < 1.30x floor", out)

    def test_million_budget_fires(self):
        run = bench()
        row(run, "cleartext", N=1000000)["wall_ms"] = 10500.0
        status, out = self.gate(run, copy.deepcopy(run))
        self.assertEqual(status, 1, out)
        self.assertIn("FAIL: mode=cleartext N=1000000 D=8: 10500 ms > 10000 ms budget", out)

    def test_missing_million_row_is_a_named_skip(self):
        run = bench()
        run["entries"] = [e for e in run["entries"] if e["mode"] != "cleartext"]
        status, out = self.gate(run, bench())
        self.assertEqual(status, 0, out)
        self.assertIn("SKIP: no 'cleartext' row with N >= 1,000,000", out)

    def test_empty_gated_set_fails(self):
        run = bench()
        run["entries"] = [e for e in run["entries"]
                          if e["mode"] not in check_bench.GATED_MODES]
        status, out = self.gate(run, bench())
        self.assertEqual(status, 1, out)
        self.assertIn("nothing gated", out)

    def test_nothing_compared_fails(self):
        ref = bench()
        ref["entries"] = [e for e in ref["entries"] if e["mode"] not in check_bench.GATED_MODES]
        status, out = self.gate(bench(), ref)
        self.assertEqual(status, 1, out)
        self.assertIn("was compared", out)

    def test_equal_traffic_passes(self):
        for flags in ((), ("--traffic-only",)):
            status, out = self.gate(bench(), bench(), flags)
            self.assertEqual(status, 0, f"{flags}: {out}")
            self.assertIn("ok: bytes_per_node of 8 matched rows equal the reference's", out)

    def test_changed_traffic_fails_naming_the_row(self):
        for flags in ((), ("--traffic-only",)):
            run = bench()
            row(run, "secure", workers=1)["bytes_per_node"] += 1
            status, out = self.gate(run, bench(), flags)
            self.assertEqual(status, 1, f"{flags}: {out}")
            self.assertIn("FAIL: mode=secure N=20 D=6 block_size=8 workers=1: bytes_per_node "
                          "2720475 != reference 2720474", out)
            self.assertNotIn("FAIL: mode=secure N=20 D=6 block_size=8 workers=0", out)

    def test_malformed_traffic_fails(self):
        for bad in (None, "2720474", True):
            run = bench()
            row(run, "secure-ot")["bytes_per_node"] = bad
            status, out = self.gate(run, bench(), ("--traffic-only",))
            self.assertEqual(status, 1, f"{bad!r}: {out}")
            self.assertIn("FAIL: mode=secure-ot N=10 D=3: malformed bytes_per_node", out)

    def test_row_without_counterpart_is_a_named_traffic_skip(self):
        run = bench()
        run["entries"].append({"N": 100, "D": 10, "mode": "secure", "block_size": 20,
                               "workers": 0, "wall_ms": 90000.0, "bytes_per_node": 1})
        status, out = self.gate(run, bench(), ("--traffic-only",))
        self.assertEqual(status, 0, out)
        self.assertIn("SKIP: mode=secure N=100 D=10 block_size=20 workers=0: no counterpart "
                      "in", out)
        self.assertIn("traffic not compared", out)

    def test_traffic_only_ignores_timing(self):
        run = bench(kernel_ms=25.0, cores=2)
        row(run, "secure", workers=1)["wall_ms"] *= 10
        row(run, "cleartext-ensemble")["wall_ms_baseline"] = 30.0 * 1.2
        row(run, "cleartext", N=1000000)["wall_ms"] = 10500.0
        status, out = self.gate(run, bench(), ("--traffic-only",))
        self.assertEqual(status, 0, out)
        self.assertIn("OK: every matched row's bytes_per_node equals the reference's", out)
        self.assertNotIn("kernel units", out)
        self.assertNotIn("amortization", out)
        status, out = self.gate(run, bench())
        self.assertEqual(status, 1, out)

    def test_traffic_only_with_no_match_fails(self):
        ref = bench()
        ref["entries"] = ref["entries"][:1]
        ref["entries"][0]["mode"] = "other"
        status, out = self.gate(bench(), ref, ("--traffic-only",))
        self.assertEqual(status, 1, out)
        self.assertIn("has a counterpart in", out)

    def test_equal_transfer_traffic_passes(self):
        run = transfer_bench()
        for t in run["transfers"]:
            t["ms"] *= 3  # timing is not compared
        status, out = self.gate(run, transfer_bench(), ("--traffic-only",))
        self.assertEqual(status, 0, out)
        self.assertIn("ok: per-role bytes of 4 matched transfers rows equal the reference's", out)
        self.assertIn("OK: every transfers row's per-role bytes equal the reference's", out)

    def test_changed_transfer_field_fails_naming_block_and_field(self):
        run = transfer_bench()
        run["transfers"][2]["j_sent_bytes"] += 33
        status, out = self.gate(run, transfer_bench(), ("--traffic-only",))
        self.assertEqual(status, 1, out)
        self.assertIn("FAIL: transfers block_size=16: j_sent_bytes 6913 != reference 6880", out)
        self.assertEqual(out.count("FAIL"), 1, out)

    def test_malformed_transfer_field_fails(self):
        for bad in (None, "429", True):
            run = transfer_bench()
            if bad is None:
                del run["transfers"][0]["member_bj_recv_bytes"]
            else:
                run["transfers"][0]["member_bj_recv_bytes"] = bad
            status, out = self.gate(run, transfer_bench(), ("--traffic-only",))
            self.assertEqual(status, 1, f"{bad!r}: {out}")
            self.assertIn("FAIL: transfers block_size=8: malformed member_bj_recv_bytes", out)

    def test_missing_transfer_block_fails(self):
        run = transfer_bench()
        del run["transfers"][3]
        status, out = self.gate(run, transfer_bench(), ("--traffic-only",))
        self.assertEqual(status, 1, out)
        self.assertIn("FAIL: transfers block_size=20: in", out)
        extra = transfer_bench()
        extra["transfers"].append(dict(extra["transfers"][0], block_size=24))
        status, out = self.gate(extra, transfer_bench(), ("--traffic-only",))
        self.assertEqual(status, 1, out)
        self.assertIn("FAIL: transfers block_size=24: no counterpart in", out)

    def test_mixed_bench_kinds_fail(self):
        for run, ref in ((transfer_bench(), bench()), (bench(), transfer_bench())):
            status, out = self.gate(run, ref, ("--traffic-only",))
            self.assertEqual(status, 1, out)
            self.assertIn("nothing compared", out)
            self.assertNotIn("OK:", out)

    def test_traffic_only_needs_a_reference(self):
        with self.assertRaises(SystemExit) as cm, contextlib.redirect_stderr(io.StringIO()):
            self.gate(bench(), None, ("--traffic-only",))
        self.assertEqual(cm.exception.code, 2)


if __name__ == "__main__":
    unittest.main()

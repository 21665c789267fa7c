#!/usr/bin/env python3
"""Tests of the benchmark itself, on shrunken workloads.

    python3 -m unittest perfbench/test_perfbench.py     # from the repo root

Each test drives perfbench/run.py (which builds the driver on first use).
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def bench(*args, cwd=ROOT):
    """Runs run.py; returns (exit code, stdout lines)."""
    proc = subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def result(lines):
    return json.loads(lines[-1])


def digest_line(lines):
    for line in lines:
        m = re.match(r"# sub-experiment 0: digest (\w+), (\d+) events", line)
        if m:
            return m.group(1), int(m.group(2))
    raise AssertionError("no digest line in output")


class PerfbenchTest(unittest.TestCase):
    def test_decorators_keep_behaviour_on_tiny_run(self):
        # 8 hosts: untraced (public driver plus plain mirror) and traced
        # (timing decorators, then the armed checker) runs must agree.
        tiny_run = ("--workload", "fabric256_elephants", "--tiny", "--seed", "5",
                 "--seconds", "0.1")
        code, untraced = bench(*tiny_run, "--trace", "0")
        self.assertEqual(code, 0)
        code, traced = bench(*tiny_run, "--trace", "1")
        self.assertEqual(code, 0)
        self.assertTrue(result(untraced)["correct"])
        self.assertTrue(result(traced)["correct"])
        self.assertFalse([l for l in traced if l.startswith("MISMATCH")])
        self.assertEqual(digest_line(untraced), digest_line(traced))

    def test_every_metric_printed_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for w in spec["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    code, lines = bench("--workload", w["name"], "--tiny",
                                        "--seconds", "0.1", "--trace", trace)
                    self.assertEqual(code, 0)
                    r = result(lines)
                    self.assertTrue(r["correct"])
                    got = {k: v["unit"] for k, v in r["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, unit in want.items():
                        row = [l for l in lines[:-1]
                               if l.split()[:1] == [name]]
                        self.assertEqual(len(row), 1, name)
                        self.assertEqual(row[0].split()[-1], unit)

    def check_failures_counted(self, lines):
        r = result(lines)
        self.assertGreater(r["failed"], 0)
        self.assertGreater(r["attempted"], r["failed"])
        frac = [l for l in lines if "fail_frac" in l][0]
        m = re.search(r"fail_frac (\S+) \((\d+)/(\d+) operations\)", frac)
        self.assertEqual((int(m.group(2)), int(m.group(3))),
                         (r["failed"], r["attempted"]))
        self.assertAlmostEqual(float(m.group(1)),
                               r["failed"] / r["attempted"], places=4)

    def test_stalled_rpc_counts_as_failed(self):
        # On gray_asym_ctl some mice RPCs stall (waiting out a retransmission
        # timeout, 200 ms at least) past the end of the 30 ms tiny run.
        code, lines = bench("--workload", "gray_asym_ctl", "--tiny",
                            "--seed", "1", "--seconds", "0.1", "--trace", "0")
        self.assertEqual(code, 0)
        self.check_failures_counted(lines)

    def test_unfinished_flow_counts_as_failed(self):
        # The tiny open-loop shape has no drain: flows issued near the end
        # of the window are cut off.
        code, lines = bench("--workload", "websearch_openloop", "--tiny",
                            "--seconds", "0.1", "--trace", "0")
        self.assertEqual(code, 0)
        self.check_failures_counted(lines)

    def test_refuses_without_simulator_sources(self):
        tmp = tempfile.mkdtemp(prefix="perfbench-test-")
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "gray_asym_ctl", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=180,
                env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Builds and runs the Presto simulator benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
simulator's libraries plus the perfbench driver into the directory named by
CARGO_TARGET_DIR (default .bench_build); later runs only rebuild what
changed. Each workload runs in its own single-threaded process. With
--trace 0 the output ends with the end-to-end metrics, with --trace 1 with
the per-layer metrics; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. `--workload all` runs every workload
in turn and ends with one JSON object whose metric names are prefixed with
the workload name.

Seeds: 1 is the default seed; 2027 is held out, kept for re-checking a
claim on a seed not used while writing it.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
HELD_OUT_SEED = 2027
WORKLOADS = ["fabric256_elephants", "websearch_openloop", "gray_asym_ctl",
             "fuzz_oracles"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"simulator sources missing under {ROOT}/src; nothing to build")
        return None
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j",
         str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.isfile(binary) else None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_metrics(trace):
    """Metric name -> unit that BENCHMARK.json lists for this mode."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in load_spec()[key]}


def run_one(binary, workload, args):
    """Runs one workload; returns its parsed result or None."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        log(f"{workload}: exit code {proc.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: last line is not JSON")
        return None
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        log(f"{workload}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}, "
            f"units {[k for k in want if k in got and got[k] != want[k]]}")
        return None
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="one of %s, or all" % ", ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    help="host seconds measured per workload "
                         "(default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken workloads, for tests")
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]

    binary = build()
    if binary is None:
        return 1
    if args.workload != "all":
        result = run_one(binary, args.workload, args)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        print(f"== {w}")
        result = run_one(binary, w, args)
        if result is None:
            return 1
        print(json.dumps(result))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())

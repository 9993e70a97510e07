#!/usr/bin/env python3
"""End-to-end benchmark of the cmh deadlock-detection library.

    python3 perfbench/run.py --workload ddb_hot16 --seed 1 --seconds 30 --trace 0

Builds perfbench/driver.cpp against the repository's src/ tree (CMake,
Release) under $CARGO_TARGET_DIR (default .bench_build) in the repository
root, runs the driver on one workload and prints its report.  The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics; --trace 0 gives the end-to-end metrics, --trace 1 the per-layer
ones.
Workloads and metric names are those of BENCHMARK.json at the repository
root; the driver's header comment describes what each one measures.

Exits non-zero without printing a result when the library sources are
missing or the build or the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD_TIMEOUT_S = 850
# The driver measures for --seconds; set-up, checks and teardown come on top.
RUN_SLACK_S = 60


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def build(build_dir: pathlib.Path) -> pathlib.Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(SOURCE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench_driver",
         "-j", jobs],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "perfbench_driver"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        return fail("library sources (src/) not found; run from a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_dir / "perfbench"
    try:
        driver = build(build_dir)
    except (OSError, subprocess.SubprocessError) as exc:
        return fail(f"build failed: {exc}")

    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        return fail("driver timed out")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return fail(f"driver printed nothing (exit {proc.returncode})")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        return fail(f"driver's last line is not JSON: {lines[-1]!r}")
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        return fail(f"unexpected report keys {sorted(report)}")
    units = {name: m.get("unit") for name, m in report["metrics"].items()}
    if units != expected:
        return fail(f"metrics {units} do not match BENCHMARK.json {expected}")

    for line in lines:
        print(line)
    return 0 if proc.returncode == 0 and report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

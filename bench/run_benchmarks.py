#!/usr/bin/env python3
"""Benchmark-trajectory harness.

Runs the google-benchmark binaries (bench_micro, bench_sim, bench_net) and
reduces their JSON output to a small, stable schema so successive runs can
be committed and diffed:

    {
      "schema": "cmh-bench/1",
      "suite": "micro" | "sim" | "net",
      "benchmarks": [
        {"name": ..., "time_ns": ..., "cpu_ns": ...,
         "iterations": ..., "items_per_second": ...},   # last key optional
        ...
      ]
    }

Only real benchmark entries survive the reduction -- aggregates such as
BigO/RMS rows and machine context (hostname, date, CPU caches) are
dropped, so the schema stays byte-stable apart from the numbers.

Usage:
    bench/run_benchmarks.py [--build-dir build] [--out-dir .]
                            [--suite micro|sim|net|all] [--min-time SECS]
                            [--compare OLD.json]
                            [--fail-on-regress PCT] [--hot NAME ...]

--min-time is passed through to --benchmark_min_time (this tree's
google-benchmark takes a plain double, not the newer "0.01x" form).
--compare prints an old-vs-new table against a previously committed file.
--fail-on-regress PCT (requires --compare) exits non-zero when any *hot*
benchmark got more than PCT percent slower than the old file.  Hot
benchmarks are named with repeated --hot flags (prefix match, so
"--hot BM_SimMessageChurn" covers every /N variant); with no --hot flags a
built-in list of the event-loop-bound benchmarks is used.  Only regressions
gate -- a new benchmark is marked "new" and a removed one is skipped; neither
fails the run.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

SUITES = {
    "micro": "bench_micro",
    "sim": "bench_sim",
    "net": "bench_net",
}

# Benchmarks whose regressions gate CI (prefix match).  These are the ones
# dominated by the optimized hot paths: the simulator event loop, the probe
# codecs, the epoll transport's small-frame throughput, the DDB
# controller's probe path, whole T5 episode (flat DDB state) and T5 cluster
# construction, and DDB episodes of 96 to 6,144 transactions (detection
# cost against lock-table size); the macro detection-wave numbers are
# tracked but too workload-shaped to gate.
DEFAULT_HOT = [
    "BM_SimMessageChurn",
    "BM_SimBatchedChurn",
    "BM_SimTimerStorm",
    "BM_EncodeProbe",
    "BM_DecodeProbe",
    "BM_NetEpollTcpSmallFrames",
    "BM_DdbHandleProbe",
    "BM_DdbT5Episode",
    "BM_ClusterConstruct",
    "BM_DdbScaleEpisode",
]


# google-benchmark reports each row's real_time and cpu_time in that row's
# time_unit (a benchmark registered with ->Unit(benchmark::kMillisecond)
# reports milliseconds); the reduced schema is nanoseconds throughout.
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def raw_ns(entry: dict, key: str) -> float:
    """`entry[key]` of a raw google-benchmark row, in nanoseconds."""
    return float(entry[key]) * NS_PER_UNIT[entry.get("time_unit", "ns")]


def run_suite(binary: pathlib.Path, min_time: float | None) -> list[dict]:
    cmd = [str(binary), "--benchmark_format=json"]
    if min_time is not None:
        cmd.append(f"--benchmark_min_time={min_time}")
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    raw = json.loads(proc.stdout)
    benchmarks = []
    for entry in raw.get("benchmarks", []):
        # Skip BigO/RMS/mean-style aggregate rows.
        if entry.get("run_type", "iteration") != "iteration":
            continue
        reduced = {
            "name": entry["name"],
            "time_ns": round(raw_ns(entry, "real_time"), 3),
            "cpu_ns": round(raw_ns(entry, "cpu_time"), 3),
            "iterations": int(entry["iterations"]),
        }
        if "items_per_second" in entry:
            reduced["items_per_second"] = round(
                float(entry["items_per_second"]), 1)
        benchmarks.append(reduced)
    return benchmarks


def write_suite(out_dir: pathlib.Path, suite: str,
                benchmarks: list[dict]) -> pathlib.Path:
    doc = {"schema": "cmh-bench/1", "suite": suite, "benchmarks": benchmarks}
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{suite}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def load_times(path: pathlib.Path) -> dict[str, float]:
    doc = json.loads(path.read_text())
    entries = doc["benchmarks"] if isinstance(doc, dict) else doc
    times = {}
    for entry in entries:
        # Accept both this schema and raw google-benchmark output.
        if entry.get("run_type", "iteration") != "iteration":
            continue
        times[entry["name"]] = (float(entry["time_ns"]) if "time_ns" in entry
                                else raw_ns(entry, "real_time"))
    return times


def print_comparison(old: dict[str, float], new: list[dict]) -> None:
    print(f"{'benchmark':<40} {'old ns':>12} {'new ns':>12} {'speedup':>8}")
    for entry in new:
        name = entry["name"]
        if name not in old:
            print(f"{name:<40} {'-':>12} {entry['time_ns']:>12.2f} {'new':>8}")
            continue
        ratio = old[name] / entry["time_ns"] if entry["time_ns"] else 0.0
        print(f"{name:<40} {old[name]:>12.2f} {entry['time_ns']:>12.2f} "
              f"{ratio:>7.2f}x")


def find_regressions(old: dict[str, float], new: list[dict],
                     hot: list[str], threshold_pct: float) -> list[str]:
    """Hot benchmarks that got more than threshold_pct slower."""
    failures = []
    for entry in new:
        name = entry["name"]
        if name not in old or old[name] <= 0.0:
            continue
        if not any(name.startswith(prefix) for prefix in hot):
            continue
        slowdown_pct = (entry["time_ns"] / old[name] - 1.0) * 100.0
        if slowdown_pct > threshold_pct:
            failures.append(
                f"{name}: {old[name]:.1f} ns -> {entry['time_ns']:.1f} ns "
                f"(+{slowdown_pct:.1f}% > {threshold_pct:.0f}%)")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build", type=pathlib.Path)
    parser.add_argument("--out-dir", default=".", type=pathlib.Path)
    parser.add_argument("--suite", default="all",
                        choices=[*SUITES.keys(), "all"])
    parser.add_argument("--min-time", default=None, type=float)
    parser.add_argument("--compare", default=None, type=pathlib.Path)
    parser.add_argument("--fail-on-regress", default=None, type=float,
                        metavar="PCT")
    parser.add_argument("--hot", action="append", default=None,
                        metavar="NAME")
    args = parser.parse_args()

    if args.fail_on_regress is not None and args.compare is None:
        parser.error("--fail-on-regress requires --compare")

    suites = list(SUITES) if args.suite == "all" else [args.suite]
    old = load_times(args.compare) if args.compare else None
    failures: list[str] = []
    for suite in suites:
        binary = args.build_dir / "bench" / SUITES[suite]
        if not binary.exists():
            print(f"error: {binary} not built (run cmake --build first)",
                  file=sys.stderr)
            return 1
        benchmarks = run_suite(binary, args.min_time)
        path = write_suite(args.out_dir, suite, benchmarks)
        print(f"wrote {path} ({len(benchmarks)} benchmarks)")
        if old is not None:
            print_comparison(old, benchmarks)
            if args.fail_on_regress is not None:
                failures += find_regressions(old, benchmarks,
                                             args.hot or DEFAULT_HOT,
                                             args.fail_on_regress)
    if failures:
        print("\nhot-benchmark regressions:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

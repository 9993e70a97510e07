#!/usr/bin/env python3
"""Paired parent/change runs of the end-to-end benchmark.

    python3 tools/perfbench_pairs.py --parent PARENT_TREE --change CHANGE_TREE \
        --workload ddb_hot16 --workload ddb_hot32 --seeds 801-810 \
        --seconds 30 --per-layer-seconds 10 --build-root /tmp/pairs

PARENT_TREE and CHANGE_TREE are checkouts of the two commits.  Each tree's
perfbench driver is built by that tree's own perfbench/run.py, into its own
directory under --build-root (run.py's CARGO_TARGET_DIR).  For every seed
and workload the two sides run back to back, and the side that runs first
alternates from seed to seed (the parent on the first seed).  Each run is
`perfbench/run.py --workload W --seed S --seconds N --trace T`, with
--trace 0 (end-to-end metrics, --seconds) and --trace 1 (per-layer metrics,
--per-layer-seconds).

Prints one table per workload and trace with every run, then the summary:
each side's median with its interquartile range (quartiles interpolated
linearly), change/parent, the number of pairs in which the change is better
(ties count for neither) by the direction BENCHMARK.json gives each metric,
and the number of pairs that read exactly equal.  Each metric with a
`bound` in BENCHMARK.json (the end-to-end ones) also gets a verdict:
"worse beyond bound" when the change's median is worse than the parent's by
more than the bound, else "unresolved" when the parent's IQR/median exceeds
the bound and not every change run beats every parent run, else "within
bound".  Exits non-zero if a run fails, reports correct=false, or counts a
failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_side(tree: pathlib.Path, build_dir: pathlib.Path, workload: str,
             seed: int, seconds: int, trace: int) -> dict:
    env = dict(os.environ, CARGO_TARGET_DIR=str(build_dir))
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    # run.py prints a report that says correct=false and exits 1; main()
    # flags it.
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) < 1e-3:
        return f"{value:.2e}"
    return f"{value:.4g}"


def verdict(metric: dict, parent: list[float], change: list[float]) -> str:
    """The no-regression verdict of one bounded metric (see module doc)."""
    bound = metric["bound"]
    higher = metric["better"] == "higher"
    p_lo, p_med, p_hi = quartiles(parent)
    c_med = quartiles(change)[1]
    if p_med:
        worse = (p_med - c_med if higher else c_med - p_med) / abs(p_med)
        if worse > bound:
            return "worse beyond bound"
        spread = (p_hi - p_lo) / abs(p_med)
    else:
        spread = 0.0
    beats_all = (min(change) > max(parent) if higher
                 else max(change) < min(parent))
    if spread > bound and not beats_all:
        return "unresolved"
    return "within bound"


def report(workload: str, trace: int, metrics: list[dict],
           runs: list[tuple[int, str, dict, dict]]) -> None:
    names = [m["name"] for m in metrics]
    print(f"\n{workload}, --trace {trace}: every run (parent | change)\n")
    print("| seed | first | "
          + " | ".join(f"{n} parent | change" for n in names) + " |")
    print("|---|---|" + "---|---|" * len(names))
    for seed, first, parent, change in runs:
        cells = [f"{fmt(parent['metrics'][n]['value'])} | "
                 f"{fmt(change['metrics'][n]['value'])}" for n in names]
        print(f"| {seed} | {first} | " + " | ".join(cells) + " |")

    bounded = any("bound" in m for m in metrics)
    print(f"\n{workload}, --trace {trace}: medians (IQR)\n")
    print("| metric | parent median (IQR) | change median (IQR) "
          "| change/parent | change better in | equal in |"
          + (" verdict |" if bounded else ""))
    print("|---|---|---|---|---|---|" + ("---|" if bounded else ""))
    for m in metrics:
        name = m["name"]
        higher = m["better"] == "higher"
        p = [r[2]["metrics"][name]["value"] for r in runs]
        c = [r[3]["metrics"][name]["value"] for r in runs]
        pq, cq = quartiles(p), quartiles(c)
        wins = sum(1 for a, b in zip(p, c)
                   if (b > a if higher else b < a))
        ties = sum(1 for a, b in zip(p, c) if a == b)
        ratio = f"{cq[1] / pq[1]:.3f}" if pq[1] else "-"
        row = (f"| {name} | {fmt(pq[1])} ({fmt(pq[0])}..{fmt(pq[2])}) "
               f"| {fmt(cq[1])} ({fmt(cq[0])}..{fmt(cq[2])}) | {ratio} "
               f"| {wins}/{len(runs)} | {ties}/{len(runs)} |")
        if bounded:
            row += f" {verdict(m, p, c) if 'bound' in m else '-'} |"
        print(row)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=pathlib.Path, required=True)
    parser.add_argument("--change", type=pathlib.Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True,
                        help="e.g. 801-810 or 1,5,9")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--per-layer-seconds", type=int,
                        help="run length with --trace 1 (default: --seconds)")
    parser.add_argument("--build-root", type=pathlib.Path, required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {0: spec["end_to_end"], 1: spec["per_layer"]}
    seconds = {0: args.seconds,
               1: args.per_layer_seconds or args.seconds}
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    builds = {side: args.build_root.resolve() / side for side in SIDES}
    seeds = parse_seeds(args.seeds)

    ok = True
    for trace in (0, 1):
        for workload in args.workload:
            runs = []
            for i, seed in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                result = {}
                for side in order:
                    result[side] = run_side(trees[side], builds[side],
                                            workload, seed, seconds[trace],
                                            trace)
                    r = result[side]
                    if r["correct"] is not True or r["failed"] != 0:
                        print(f"{side} {workload} seed {seed}: correct="
                              f"{r['correct']} failed={r['failed']}",
                              file=sys.stderr)
                        ok = False
                runs.append((seed, order[0], result["parent"],
                             result["change"]))
            report(workload, trace, metrics[trace], runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

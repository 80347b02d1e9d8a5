"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--workload NAME ...] [--json OUT]
    python3 perfbench/spread.py --compare FIRST.json SECOND.json

Runs `run.py --trace 0` once per seed (seeds first-seed, first-seed+1, ...)
for each workload, with `run_seconds` from BENCHMARK.json, and prints for
every end-to-end metric its median, quartiles and quartile spread
(Q3 - Q1) / median next to the metric's bound.  A benchmark is steady when
every spread stays below a third of its bound.
With --json the raw values are written out too.  --compare reads two such
files and checks that no median of the second set is worse than the first
by more than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    result = json.loads(last) if last.startswith("{") else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, (Q3 - Q1) / median) as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def compare(first: dict, second: dict, bounds: dict) -> bool:
    """Print each median shift; True when none is worse than its bound."""
    ok = True
    for name in first:
        print(f"== {name}")
        for metric, bound in bounds.items():
            a = statistics.median(first[name][metric])
            b = statistics.median(second[name][metric])
            worse = (b - a) / a
            ok &= worse <= bound
            print(f"  {metric:<12} first {a:.4g}  second {b:.4g}  change {worse:+.3f}  "
                  f"bound {bound}  {'ok' if worse <= bound else 'WORSE'}")
    return ok


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--json", help="write the raw values to this file")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                sets.append(json.load(fh))
        return 0 if compare(sets[0], sets[1], bounds) else 1
    raw: dict = {}
    steady = True
    for name in args.workload or names:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        for k in range(args.runs):
            result = run_once(name, args.first_seed + k, bench["run_seconds"])
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
        raw[name] = values
        print(f"== {name} ({args.runs} runs)")
        for metric, bound in bounds.items():
            med, q1, q3, rel = spread(values[metric])
            ok = rel < bound / 3
            steady &= ok
            print(f"  {metric:<12} median {med:.4g}  Q1 {q1:.4g}  Q3 {q3:.4g}  "
                  f"spread {rel:.3f}  bound {bound}  {'ok' if ok else 'TOO WIDE'}",
                  flush=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(raw, fh, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

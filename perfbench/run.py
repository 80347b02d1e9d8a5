"""Benchmark of the equihom CLI.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

A closed loop with one client: jobs one after another for S seconds of job
time, with a round of set-up samples before each job and after the last.  A
job starts only if, at the mean job time so far, it would end inside the
window, and at least one job (one of each mode when traced) runs.  Every
set-up sample and every job is a fresh worker process (`worker.py`) that
imports `equihom` from `src/` next to this directory, because a CLI user
pays the cold in-process memos and `ru_maxrss` is a per-process high-water
mark.  Outputs are checked against `workloads.py` after each job, outside
the timed interval.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json (`wall_probes`,
`peak_rss_mb`, `setup_s`), and in the text report also the raw `wall_s`,
the probe time `probe_ms` and `error_rate`.  `--trace 1` alternates
traced and untraced jobs and reports the per-layer metrics of `spans.py`.
The seed orders the jobs; the inputs are fixed by each workload.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.  The
exit code is 1 when any job failed or any output mismatched its reference.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from spans import SELF_METRICS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

# Set-up is sampled in rounds spread over the run, one before each job and
# one after the last, so that its median does not rest on a few seconds of
# the machine's varying speed.  A round is at least SETUP_ROUND_REPEATS
# samples and at least SETUP_ROUND_S seconds.
SETUP_ROUND_REPEATS = 2
SETUP_ROUND_S = 0.5
# A worker that takes longer is killed and counted as failed.
WORKER_TIMEOUT_S = 150.0

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _BENCH = json.load(_fh)
# metric name -> unit, as BENCHMARK.json defines them
END_TO_END = {m["name"]: m["unit"] for m in _BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCH["per_layer"]}


def spawn(spec: dict) -> dict:
    """Run one worker to completion; return its ready time, exit code,
    result and stderr.  The worker is killed after WORKER_TIMEOUT_S."""
    env = dict(os.environ)
    env.pop("EQUIHOM_CACHE_DIR", None)
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, WORKER, json.dumps(spec)],
            stdout=subprocess.PIPE, stderr=err, text=True, env=env, cwd=ROOT,
        )
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            ready_s = time.perf_counter() - start if first.strip() == "ready" else None
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    result = None
    lines = rest.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return {"ready_s": ready_s, "returncode": proc.returncode,
            "result": result, "stderr": stderr}


def _failure(outcome: dict, needs_result: bool) -> str | None:
    if outcome["returncode"] != 0:
        tail = outcome["stderr"].strip().splitlines()[-1:] or ["(no stderr)"]
        return f"worker exited {outcome['returncode']}: {tail[0]}"
    if outcome["ready_s"] is None:
        return "worker never reported ready"
    if needs_result and outcome["result"] is None:
        return "worker printed no result"
    if needs_result and outcome["result"].get("rc", 0) != 0:
        return f"equihom exited {outcome['result']['rc']}"
    return None


def measure(workload, seconds: float, trace: bool, seed: int, work_dir: str) -> dict:
    """Run jobs for `seconds` of job time, with a set-up round before each
    job and one after the last."""
    rng = random.Random(seed)
    cache_dir = os.path.join(work_dir, "cache")
    setups, setup_writes, jobs, failures = [], [], [], []
    failed = attempted = 0

    def setup_round():
        nonlocal failed, attempted
        start, repeats = time.perf_counter(), 0
        while repeats < SETUP_ROUND_REPEATS or time.perf_counter() - start < SETUP_ROUND_S:
            repeats += 1
            attempted += 1
            shutil.rmtree(cache_dir, ignore_errors=True)
            outcome = spawn({"src": SRC, "mode": "setup", "argv": None, "trace": trace,
                             "prepare": workload.prepare_argv(cache_dir)})
            problem = _failure(outcome, trace)
            if problem:
                failures.append(f"set-up: {problem}")
                failed += 1
            else:
                setups.append(outcome["ready_s"])
                if trace:
                    setup_writes.append(outcome["result"]["layers"]["cli.cache_write_s"])

    modes = ["job"]
    if trace:
        modes = ["traced", "untraced"]
        rng.shuffle(modes)
    job_time = 0.0
    while True:
        setup_round()
        mode = modes[len(jobs) % len(modes)]
        start = time.perf_counter()
        outcome = spawn({"src": SRC, "mode": "job", "prepare": None,
                         "argv": workload.job_argv(cache_dir),
                         "trace": mode == "traced"})
        job_time += time.perf_counter() - start
        job = {"mode": mode, "problems": []}
        problem = _failure(outcome, True)
        if problem:
            job["problems"].append(problem)
        else:
            job.update(outcome["result"])
            job["problems"].extend(workload.problems(job.pop("stdout")))
        failures.extend(f"job {len(jobs)}: {p}" for p in job["problems"])
        failed += bool(job["problems"])
        jobs.append(job)
        # start another job only if it is expected to end inside the window
        enough = len(jobs) >= len(modes)
        if enough and job_time * (len(jobs) + 1) / len(jobs) > seconds:
            break
    setup_round()
    return {"workload": workload.name, "seed": seed, "setups": setups,
            "setup_writes": setup_writes, "jobs": jobs, "failures": failures,
            "attempted": attempted + len(jobs), "failed": failed}


def tail_percentile(values: list[float]):
    """(P, value) for the highest whole percentile P that leaves at least ten
    samples above it (nearest-rank), or None for fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(values)[rank - 1]


def _median(values):
    return statistics.median(values) if values else float("nan")


def median_traced_job(run: dict):
    """The traced job whose wall time is the (lower) median, or None."""
    traced = sorted((j for j in run["jobs"] if j["mode"] == "traced" and not j["problems"]),
                    key=lambda j: j["wall_s"])
    return traced[(len(traced) - 1) // 2] if traced else None


def summarize(run: dict, trace: bool) -> dict:
    """Metric name -> (value, unit, samples).

    Untraced, each metric is the median of its samples.  Traced, every
    per-layer metric comes from one job, the median traced job, so that its
    self times add up to its wall time."""
    untraced = [j for j in run["jobs"]
                if j["mode"] in ("job", "untraced") and not j["problems"]]
    if not trace:
        series = {
            "wall_probes": ([j["wall_s"] / j["probe_s"] for j in untraced], "probes"),
            "wall_s": ([j["wall_s"] for j in untraced], "s"),
            "probe_ms": ([1000 * j["probe_s"] for j in untraced], "ms"),
            "peak_rss_mb": ([j["peak_rss_mb"] for j in untraced], "MB"),
            "setup_s": (run["setups"], "s"),
        }
        return {name: (_median(values), unit, values)
                for name, (values, unit) in series.items()}
    job = median_traced_job(run)
    if job is None:
        return {name: (float("nan"), unit, []) for name, unit in PER_LAYER.items()}
    values = dict(job["layers"])
    values["process.cpu_s"] = job["cpu_s"]
    values["process.probe_ms"] = 1000 * job["probe_s"]
    values["trace.overhead_s"] = job["wall_s"] - _median([j["wall_s"] for j in untraced])
    values["setup.cache_write_s"] = _median(run["setup_writes"])
    return {name: (values[name], unit, [values[name]]) for name, unit in PER_LAYER.items()}


def _fmt(value: float) -> str:
    if value != value:
        return "nan"
    if float(value).is_integer() and abs(value) >= 1:
        return f"{int(value)}"
    return f"{value:.4g}"


def report(run: dict, metrics: dict, trace: bool, out=sys.stdout) -> None:
    """Human-readable report of one workload run."""
    wl = WORKLOADS.get(run["workload"])
    failed = run["failed"]
    print(f"== {run['workload']}  (seed {run['seed']}, {len(run['jobs'])} jobs, "
          f"{len(run['setups'])} set-ups)", file=out)
    for problem in run["failures"]:
        print(f"  FAILED {problem}", file=out)
    if not trace:
        for name, (value, unit, values) in metrics.items():
            tail = tail_percentile(values)
            tail_text = (f"p{tail[0]} {_fmt(tail[1])}" if tail
                         else "no tail percentile (needs >= 11 samples)")
            print(f"  {name:<14} {_fmt(value):>10} {unit:<3} median of "
                  f"{len(values)}; {tail_text}", file=out)
        print(f"  {'error_rate':<14} {failed / run['attempted']:>10.4g}     "
              f"{failed} failed of {run['attempted']} attempted", file=out)
        return
    job = median_traced_job(run)
    traced = sum(j["mode"] == "traced" for j in run["jobs"])
    print(f"  per-layer metrics of the median of {traced} traced jobs:", file=out)
    for name, (value, unit, _) in metrics.items():
        print(f"  {name:<30} {_fmt(value):>12} {unit}", file=out)
    self_total = sum(metrics[m][0] for m in SELF_METRICS)
    print(f"  self times sum to {self_total:.4f} s; traced wall_s "
          f"{metrics['trace.wall_s'][0]:.4f} s", file=out)
    if job is None:
        return
    print("  eliminate calls:", file=out)
    print("    degree  shape          full  nnz_in    nnz_out   rank   "
          "coeff_bits  seconds", file=out)
    for e in job["eliminations"]:
        shape = "x".join(str(x) for x in e["shape"])
        print(f"    {str(e['degree']):<7} {shape:<14} {str(e['full']):<5} "
              f"{e['nnz_in']:<9} {e['nnz_out']:<9} {e['rank']:<6} "
              f"{e['max_coeff_bits']:<11} {e['seconds']:.3f}", file=out)
    layers: dict[str, float] = {}
    for m in SELF_METRICS:
        layers[m.split(".")[0]] = layers.get(m.split(".")[0], 0.0) + metrics[m][0]
    top_layer = max(layers, key=layers.get)
    print(f"  largest self time by layer: {top_layer} {layers[top_layer]:.3f} s "
          f"({layers[top_layer] / self_total:.0%} of traced wall)", file=out)
    top = max(SELF_METRICS, key=lambda m: metrics[m][0])
    print(f"  largest self time by metric: {top} {metrics[top][0]:.3f} s "
          f"({metrics[top][0] / self_total:.0%})", file=out)
    if wl is not None and wl.diagnosis:
        named = sum(metrics[m][0] for m in wl.diagnosis)
        rest = max((metrics[m][0] for m in SELF_METRICS if m not in wl.diagnosis),
                   default=0.0)
        verdict = "agrees with" if named >= rest else "DISAGREES with"
        print(f"  {' + '.join(wl.diagnosis)} = {named:.3f} s "
              f"({named / self_total:.0%}): {verdict} "
              f"the diagnosis ({wl.diagnosis_source})", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running worker is killed and reaped and
    # the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "equihom", "cli.py")):
        print(f"error: no equihom sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    random.Random(args.seed).shuffle(names)
    trace = bool(args.trace)
    attempted = failed = 0
    metrics_json = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work_dir:
        for name in names:
            run = measure(WORKLOADS[name], args.seconds, trace, args.seed, work_dir)
            metrics = summarize(run, trace)
            report(run, metrics, trace)
            attempted += run["attempted"]
            failed += run["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            for metric in END_TO_END if not trace else PER_LAYER:
                value, unit, _ = metrics[metric]
                metrics_json[prefix + metric] = {"value": value, "unit": unit}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics_json}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

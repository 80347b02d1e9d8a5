"""One benchmark job in a fresh process.

Usage: python3 worker.py SPEC_JSON

SPEC_JSON holds `src` (the directory that contains the `equihom` package),
`mode` ("setup" or "job"), `argv` (the CLI arguments of the job), `prepare`
(CLI arguments run before the worker reports ready, or null) and `trace`.
The worker imports `equihom`, runs `prepare`, prints `ready` and, in job
mode, times `equihom.cli.run(argv, out=<buffer>)` and prints one JSON line
with the exit code, wall and CPU seconds, the median probe time (below),
`ru_maxrss` of this process, the captured stdout and, when traced, the
per-layer metrics.  A traced set-up prints the per-layer metrics of
`prepare` after `ready`.

The machine's speed is not steady: the same job can take 30% longer a
minute later.  So while the job runs, a fixed piece of pure-Python work (the
probe) is timed every PROBE_INTERVAL_S from a SIGALRM handler in this
process, on the same CPU and at the same moments as the job, and once before
and after it.  The job's wall time divided by the median probe time is the
job's length in units of the machine's speed while it ran.
"""

from __future__ import annotations

import io
import json
import signal
import statistics
import sys
import time

import spans


PROBE_INTERVAL_S = 0.05
PROBE_ROWS = 20


class SpeedProbe:
    """Times the probe loop before, during (every PROBE_INTERVAL_S) and
    after the `with` block."""

    def __init__(self):
        self.samples: list[float] = []

    def probe(self, signum=None, frame=None):
        # Small sparse rows (dicts) added into each other: the kind of work
        # the workloads do.  In paired trials this tracked their slowdowns
        # more closely than an integer loop did.
        start = time.perf_counter()
        rows = [{j: j for j in range(i, i + 40)} for i in range(0, 10 * PROBE_ROWS, 10)]
        for above, below in zip(rows, rows[1:]):
            for key, value in above.items():
                below[key] = below.get(key, 0) - value
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    @property
    def median_s(self) -> float:
        return statistics.median(self.samples)


def run_cli(equihom, tracer, argv, out) -> int:
    """equihom.cli.run under a root `cli.run` span when traced."""
    root = tracer.begin("cli.run") if tracer else None
    try:
        return equihom.cli.run(argv, out=out)
    finally:
        if tracer:
            tracer.end(root)


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import equihom
    import equihom.cli

    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        spans.install(tracer, equihom)
    if spec["prepare"]:
        rc = run_cli(equihom, tracer, spec["prepare"], io.StringIO())
        if rc != 0:
            print(f"prepare exited {rc}", file=sys.stderr)
            return 1
    print("ready", flush=True)
    if spec["mode"] == "setup":
        if tracer:
            print(json.dumps({"layers": spans.layer_metrics(tracer.spans)}), flush=True)
        return 0

    out = io.StringIO()
    with SpeedProbe() as probe:
        cpu_start = time.process_time()
        start = time.perf_counter()
        rc = run_cli(equihom, tracer, spec["argv"], out)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
    result = {
        "rc": rc,
        "wall_s": wall,
        "cpu_s": cpu,
        "probe_s": probe.median_s,
        "peak_rss_mb": spans.maxrss_mb(),
        "stdout": out.getvalue(),
    }
    if tracer:
        result["layers"] = spans.layer_metrics(tracer.spans)
        result["eliminations"] = spans.eliminations(tracer.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

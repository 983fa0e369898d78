"""Benchmark for the insured-agents simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the simulator is imported from its
`src/`. One client serves requests in a closed loop: each request is sent
only after the previous one finished and its output was checked. The
workloads are defined in `workloads.py`. Items are episodes (completed,
excluded or aborted) on the three simulator workloads and audited draws on
`equilibrium_audit`.

Every run first serves the workload's fixed number of checked requests, the
first of the seed's stream. Their outputs decide `correct`, `attempted` and
`failed`, and `outputs_sha256` is the digest of their canonical output
bytes. Because the prefix is fixed, whether a run is correct does not depend
on how fast the program is. The requests of the measured phase are checked
too; their failures are printed and recorded as `timed_failed` but do not
decide the result.

`--trace 0` measures the end-to-end metrics with nothing wrapped:

- `setup_s`: set-up time of a fresh process, from process start until the
  first request is ready (imports, loading and validating the scenario,
  generating the first inputs), rescaled to a reference host speed. Each
  probe starts a reference process (`REF_START`: the interpreter importing
  numpy, without the simulator) and then a fresh benchmark process. The
  metric is the median ratio of the two start times, times `REF_START_S`,
  the reference's start time on a 2-core Xeon with Python 3.11.7. The
  probes are spread evenly through the measured phase.
- `item_cost_ref`: the cost of one item in iterations of a fixed pure-Python
  reference loop (`ref_loop_s`), run on as many threads as the workload's
  requests use. The loop is timed between every two requests; each
  request's items are priced at the mean of the two readings around it, and
  the metric is the time spent in requests divided by the items' total
  price, times the loop's iteration count.
- `peak_rss_mb`: the benchmark process's peak resident set.

Why normalised: on a 2-core Xeon host the speed drifted by up to 2x over
seconds to minutes, with no steal time and CPU time drifting with wall time.
Between two sets of ten runs of the same code, items per second moved by up
to 37% and raw set-up time by up to 29%, while the two normalised metrics
moved by at most 17%.

Printed beside them but not in the final JSON object: `setup_raw_s` and
`setup_ref_start_s` (median seconds of the two kinds of probe),
`items_per_s` (items per second spent in requests), `request_ms_p50`,
`request_ms_tail` (the highest percentile of request latency with ten
samples beyond it, with that percentile and the sample count) and
`error_rate` (failed / attempted items of the checked requests; a failure is
an aborted episode, an exception or a failed output check). They are raw
times and move with the host.

`--trace 1` serves a fixed list of requests twice, first unwrapped and then
with the per-layer wrappers of `layertrace.py` installed, and reports the
per-layer metrics plus `trace_overhead_ratio` (traced wall time / unwrapped
wall time of the same requests). Counts repeat exactly for a given seed.

`machine.ref_loop_ms` is the reference loop's time before and after the run,
to show the host's speed beside the numbers.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. A fuller record, with the machine, is
written to `.perfbench/` in the checkout, and a traced run also writes its
spans there. The run exits 1 unless the checked requests all passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

DEFAULT_SEED = 1
#: Seed reserved for confirming a performance claim; never tune on it.
HELD_OUT_SEED = 20261017
SETUP_PROBES = 9
REF_ITERATIONS = 50_000
#: The reference for set-up time: the interpreter and numpy starting, without
#: the simulator. REF_START_S is its start time on a 2-core Xeon with Python
#: 3.11.7 and numpy 2.4.6.
REF_START = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
REF_START_S = 0.15
#: Units of the printed extras that are measurements.
EXTRA_UNITS = {
    "items_per_s": "1/s",
    "request_ms_p50": "ms",
    "request_ms_tail": "ms",
    "tail_percentile": "%",
    "setup_raw_s": "s",
    "setup_ref_start_s": "s",
    "error_rate": "ratio",
    "machine.ref_loop_ms_before": "ms",
    "machine.ref_loop_ms_during": "ms",
    "machine.ref_loop_ms_after": "ms",
}


def _import_simulator():
    """Import the benchmark modules against this checkout's `src/` only."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import insured_agents

    if Path(insured_agents.__file__).resolve().parents[1] != ROOT / "src":
        raise ImportError(f"insured_agents imported from {insured_agents.__file__}, not {ROOT / 'src'}")
    import workloads

    return workloads


def _ref_work(iterations: int) -> None:
    total = 0
    for i in range(iterations):
        total += i * i % 7


def ref_loop_s(threads: int = 1) -> float:
    """Seconds for a fixed pure-Python loop of REF_ITERATIONS iterations.

    With several threads the iterations are split between them, so that the
    reading runs on the processors a multi-threaded request runs on.
    """
    start = time.perf_counter()
    if threads == 1:
        _ref_work(REF_ITERATIONS)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(_ref_work, [REF_ITERATIONS // threads] * threads))
    return time.perf_counter() - start


def machine_record() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def start_s(cmd: list[str]) -> float:
    """Seconds from spawning `cmd` until it prints its first line, `ready`."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"{cmd} exited {code} with {line!r}")
    return elapsed


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """(set-up seconds of a fresh benchmark process, start seconds of REF_START)."""
    ref = start_s(REF_START)
    setup = start_s([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                     "--seed", str(seed), "--seconds", "0", "--setup-probe"])
    return setup, ref


class Loop:
    """Closed-loop client: serve, time and check one request at a time."""

    def __init__(self, workload, serve=None):
        self.workload = workload
        self.serve = serve or (lambda fn, arg: fn(arg))
        self.latencies: list[float] = []
        self.busy_s = 0.0  # wall time spent inside requests
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = hashlib.sha256()

    def one(self, inp) -> None:
        start = time.perf_counter()
        try:
            output = self.serve(self.workload.request, inp)
        except Exception:  # noqa: BLE001 - a failed request is counted, not fatal
            self._took(time.perf_counter() - start)
            items = self.workload.items(inp)
            self.attempted += items
            self.failed += items
            self.problems.append(traceback.format_exc(limit=3))
            return
        self._took(time.perf_counter() - start)
        outcome = self.workload.check(inp, output)
        self.attempted += outcome.items
        self.failed += outcome.failed
        self.problems += outcome.problems
        self.digest.update(outcome.canonical)

    def _took(self, seconds: float) -> None:
        self.latencies.append(seconds)
        self.busy_s += seconds


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With fewer than twenty samples that percentile would not lie above the
    median, so the maximum stands in for it (reported as percentile 100).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(args, workload) -> tuple[dict, dict, Loop]:
    """The untraced measured phase: end-to-end metrics and printed extras."""
    loop = Loop(workload)
    setup: list[tuple[float, float]] = []
    refs = [ref_loop_s(workload.jobs)]  # reference-loop readings, one between any two requests
    items = []
    while loop.busy_s < args.seconds:
        if len(setup) < SETUP_PROBES and loop.busy_s >= len(setup) * args.seconds / SETUP_PROBES:
            setup.append(setup_probe(args.workload, args.seed))
            refs[-1] = ref_loop_s(workload.jobs)
        inp = workload.next_input()
        items.append(workload.items(inp))
        loop.one(inp)
        refs.append(ref_loop_s(workload.jobs))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(args.workload, args.seed))
    setup_ratio = statistics.median(probe / ref for probe, ref in setup)
    # Each request's items, priced at the mean of the two readings around it.
    ref_item_s = sum(n * (before + after) / 2 for n, before, after in zip(items, refs, refs[1:]))
    p_tail, percentile = tail(loop.latencies)
    metrics = {
        "setup_s": (REF_START_S * setup_ratio, "s"),
        "item_cost_ref": (REF_ITERATIONS * loop.busy_s / ref_item_s, "ref_iter"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "items_per_s": loop.attempted / loop.busy_s,
        "request_ms_p50": 1000 * statistics.median(loop.latencies),
        "request_ms_tail": 1000 * p_tail,
        "tail_percentile": percentile,
        "requests": len(loop.latencies),
        "setup_raw_s": statistics.median(probe for probe, _ in setup),
        "setup_ref_start_s": statistics.median(ref for _, ref in setup),
        "machine.ref_loop_ms_during": 1000 * statistics.median(refs),
    }
    return metrics, info, loop


def measure_traced(args, workload) -> tuple[dict, dict, Loop]:
    """The traced run: per-layer metrics and the tracing overhead."""
    import layertrace

    # Each input is served unwrapped and then traced, back to back, so
    # that drift in host speed affects both sides of the overhead ratio.
    inputs = [workload.next_input() for _ in range(workload.traced_requests)]
    plain = Loop(workload)
    tracer = layertrace.Tracer()
    loop = Loop(workload, tracer.request)
    for inp in inputs:
        plain.one(inp)
        tracer.install()
        try:
            loop.one(inp)
        finally:
            tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace_overhead_ratio"] = (loop.busy_s / plain.busy_s, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
    tracer.write_spans(spans)
    loop.problems += plain.problems
    loop.failed += plain.failed
    return metrics, {"requests": len(inputs), "spans": str(spans.relative_to(ROOT))}, loop


def run(args) -> int:
    workloads = _import_simulator()
    machine = machine_record()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    ref_before = [ref_loop_s() for _ in range(5)]

    checked = Loop(workload)
    for _ in range(workload.checked_requests):
        checked.one(workload.next_input())
    metrics, info, timed = (measure_traced if args.trace else measure)(args, workload)

    ref_after = [ref_loop_s() for _ in range(5)]
    ref_ms = [1000 * s for s in ref_before + ref_after]
    if args.trace:
        metrics["machine.ref_loop_ms"] = (statistics.median(ref_ms), "ms")
    info.update({
        "error_rate": checked.failed / checked.attempted,
        "timed_failed": timed.failed,
        "machine.ref_loop_ms_before": min(ref_ms[:5]),
        "machine.ref_loop_ms_after": min(ref_ms[5:]),
    })

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for name, value in info.items():
        print(f"{args.workload} {name} {value} {EXTRA_UNITS.get(name, '')}".rstrip())
    print(f"{args.workload} outputs_sha256 {checked.digest.hexdigest()}")
    print(f"{args.workload} machine {json.dumps(machine, sort_keys=True)}")
    for problem in checked.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for problem in timed.problems[:20]:
        print(f"CHECK FAILED in the measured phase: {problem}", file=sys.stderr)

    correct = not checked.problems and checked.failed == 0
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine,
        "outputs_sha256": checked.digest.hexdigest(),
        **info,
        "correct": correct,
        "problems": checked.problems[:20],
        "timed_problems": timed.problems[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    print(json.dumps({
        "correct": correct,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["simulate_baseline", "simulate_disputes", "sweep_grid",
                                 "equilibrium_audit"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        workloads = _import_simulator()
        workloads.WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0
    try:
        return run(args)
    except (ImportError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

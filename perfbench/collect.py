"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/collect.py --seeds 101-110 --sets 2 --out perfbench/results/NAME.json

A set runs every workload once untraced per seed, each workload's runs back
to back. With `--sets 2` the whole set is repeated on the same code, and the
summary gives, for each end-to-end metric, how far each later set's median
moved from the first set's, beside the metric's bound in `BENCHMARK.json`.
For each set and workload it gives each end-to-end metric's median,
quartiles and spread (quartile distance / median, judged against the same
bound), and every run with its printed extras: raw set-up seconds, raw items
per second, request latencies and the reference readings that show the
host's speed. Last,
each workload runs once traced at the default seed, for the per-layer
metrics, the output digest and the machine record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED, HELD_OUT_SEED

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# Printed extras kept with every untraced run.
EXTRAS = ("setup_raw_s", "setup_ref_start_s", "items_per_s", "request_ms_p50", "request_ms_tail",
          "requests", "timed_failed", "machine.ref_loop_ms_before", "machine.ref_loop_ms_during",
          "machine.ref_loop_ms_after")


def once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    # Exit 1 is a run whose output checks failed: it still reports its metrics.
    if proc.returncode not in (0, 1):
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    if proc.stderr:
        print(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}", flush=True)
    lines = proc.stdout.strip().splitlines()
    labelled = dict(line.split(" ", 2)[1:] for line in lines[:-1])
    return json.loads(lines[-1]), labelled


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_set(workloads: list[str], seeds: list[int]) -> dict:
    summary = {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            result, labelled = once(workload, seed, 0)
            runs.append({
                "seed": seed,
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                **{k: float(labelled[k].split()[0]) for k in EXTRAS},
            })
            print(seed, workload, {k: round(v, 4) for k, v in runs[-1]["metrics"].items()},
                  flush=True)
        end_to_end = {}
        for name in BOUNDS:
            vals = [r["metrics"][name] for r in runs]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            end_to_end[name] = {"unit": UNITS[name], "median": median, "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / median, "bound": BOUNDS[name]}
            print(f"{workload:18} {name:14} median {median:12.4f} spread {(q3 - q1) / median:.3f}")
        summary[workload] = {"end_to_end": end_to_end, "runs": runs}
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("101-110"))
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    sets = [run_set(args.workloads, args.seeds) for _ in range(args.sets)]
    shifts = {}
    for workload in args.workloads:
        first = sets[0][workload]["end_to_end"]
        shifts[workload] = {
            name: [later[workload]["end_to_end"][name]["median"] / first[name]["median"] - 1
                   for later in sets[1:]]
            for name in BOUNDS
        }
        for name, moved in shifts[workload].items():
            if moved:
                print(f"{workload:18} {name:14} median moved {', '.join(f'{m:+.3f}' for m in moved)}"
                      f" (bound {BOUNDS[name]})")

    traced = {}
    machine = None
    for workload in args.workloads:
        result, labelled = once(workload, DEFAULT_SEED, 1)
        machine = json.loads(labelled["machine"])
        traced[workload] = {
            "outputs_sha256_default_seed": labelled["outputs_sha256"],
            "per_layer_default_seed": {k: v["value"] for k, v in result["metrics"].items()},
        }

    summary = {
        "run_seconds": SPEC["run_seconds"],
        "seeds": args.seeds,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "machine": machine,
        "sets": sets,
        "median_shift_from_first_set": shifts,
        "traced": traced,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()

"""Run the benchmark over several seeds and summarise the spread.

Usage (from the repository root):

    python3 perfbench/sweep.py [--seeds 0-9] [--out FILE]

For every seed and every workload in BENCHMARK.json it runs the benchmark's
command with --trace 0, then --trace 1 on the first TRACED_SEEDS seeds.  It
prints, per workload and end-to-end metric, the median, the quartiles and
the spread (interquartile distance over the median) next to a third of the
metric's bound.  The per-layer table is the median of each metric over the
traced runs.  --out writes the summary as JSON, which is how the recorded
baseline was made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

TRACED_SEEDS = 3


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--out")
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            results[workload].append(_run(bench, workload, seed, 0))
            print(f"ran {workload} seed {seed}", file=sys.stderr, flush=True)
    summary = {"environment": run.environment(), "run_seconds": bench["run_seconds"],
               "seeds": seeds, "traced_seeds": seeds[:TRACED_SEEDS], "workloads": {}}
    for workload in workloads:
        runs = results[workload]
        traced = [_run(bench, workload, seed, 1) for seed in seeds[:TRACED_SEEDS]]
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs + traced),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {name: summarise([r["metrics"][name]["value"] for r in runs])
                           for name in bounds},
            "per_layer": {name: statistics.median(r["metrics"][name]["value"] for r in traced)
                          for name in traced[0]["metrics"]},
        }

    print(f"{'workload':16s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound/3':>7s}  errors")
    for workload, entry in summary["workloads"].items():
        for name, s in entry["end_to_end"].items():
            print(f"{workload:16s} {name:12s} {s['median']:10.4f} {s['q1']:10.4f} "
                  f"{s['q3']:10.4f} {s['spread']:7.4f} {bounds[name] / 3:7.4f}  "
                  f"{entry['failed']}/{entry['attempted']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

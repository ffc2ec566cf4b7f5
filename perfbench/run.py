"""smallfdr CLI benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's seeded inputs under .bench_work/, measures set-up
(fresh interpreters importing smallfdr.cli), then runs the workload's
command sequence through smallfdr.cli.main in one fresh worker process with
BLAS/OpenMP threads pinned to 1, checks every output and prints a table of
metrics.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones
from a traced run, in which every command also runs untraced for the
tracing overhead.  The end-to-end times are scaled to a reference host speed
by a probe kernel timed next to each command and set-up sample (probe.py);
the measured times are printed too.

The program is imported from src/ of the checkout holding this script; the
run fails without printing a result if that source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import checks  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("SMALLFDR_SEED", "PYTHONPATH")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def time_setup(env: dict[str, str], deadline: float) -> list[tuple[float, float]]:
    """Wall time of fresh interpreters that only import smallfdr.cli.

    Each sample is (seconds, probe seconds), the probe timed just before and
    just after the interpreter runs.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        probe_before = probe.measure()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import smallfdr.cli"], env=env, cwd=ROOT,
                       check=True, timeout=max(1.0, deadline - time.monotonic()))
        seconds = time.perf_counter() - start
        samples.append((seconds, 0.5 * (probe_before + probe.measure())))
    return samples


def environment() -> dict[str, str]:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": str(os.cpu_count()), "cpu": cpu}


def scaled(command) -> float:
    """A command's seconds at the reference host speed (see probe.py)."""
    return probe.scale(command["seconds"], command["probe_s"])


def estimator_seconds(iterations, commands) -> dict[str, float]:
    """Median over iterations of the scaled time in each estimator's commands."""
    est_of = {label: est for label, est, _ in commands}
    out = {}
    for est in tracing.ESTIMATORS:
        per_iter = [sum(scaled(c) for c in it["commands"] if est_of[c["label"]] == est)
                    for it in iterations]
        out[f"{est}_s"] = statistics.median(per_iter)
    return out


def wall(iterations) -> float:
    """Median over repetitions of the whole command sequence's scaled seconds."""
    return statistics.median(sum(scaled(c) for c in it["commands"]) for it in iterations)


def raw_wall(iterations) -> float:
    """Median over repetitions of the whole command sequence's measured seconds."""
    return statistics.median(sum(c["seconds"] for c in it["commands"]) for it in iterations)


def tracing_overhead(iterations) -> float:
    """Median over paired repetitions of traced minus untraced scaled seconds."""
    plain = [it for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"]]
    return statistics.median(sum(map(scaled, t["commands"])) - sum(map(scaled, u["commands"]))
                             for u, t in zip(plain, traced))


def probe_ms(iterations) -> float:
    return 1000.0 * statistics.median(c["probe_s"] for it in iterations for c in it["commands"])


def count_failures(result, commands) -> tuple[int, int, list[str]]:
    """Commands attempted and failed; a failed output check fails every attempt."""
    iterations = result["iterations"]
    attempted = failed = 0
    messages = []
    for position, (label, _, argv) in enumerate(commands):
        attempts = [it["commands"][position] for it in iterations]
        errors = [f"exit {a['rc']}: {a['error']}" for a in attempts if a["rc"] != 0][:1]
        if len({a["digest"] for a in attempts}) > 1:
            errors.append("outputs differ between repetitions")
        if not errors:
            errors = checks.check(argv, attempts[-1]["last_stdout"])
        attempted += len(attempts)
        if errors:
            failed += len(attempts)
            messages += [f"{label}: {e}" for e in errors]
    return attempted, failed, messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "smallfdr", "cli.py")):
        print(f"perfbench: no smallfdr source tree at {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    commands = workloads.prepare(args.workload, args.seed, workdir)
    spec = {"commands": commands, "seconds": args.seconds, "trace": bool(args.trace),
            "result": os.path.join(workdir, "result.json"),
            "spans": os.path.join(workdir, "spans.csv")}
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    env = worker_env()
    try:
        setup = [] if args.trace else time_setup(env, deadline)
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                       env=env, cwd=ROOT, check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    with open(spec["result"], encoding="utf-8") as handle:
        result = json.load(handle)
    if not os.path.abspath(result["smallfdr_file"]).startswith(SRC + os.sep):
        print(f"perfbench: smallfdr imported from {result['smallfdr_file']}, not {SRC}",
              file=sys.stderr)
        return 1

    attempted, failed, messages = count_failures(result, commands)
    untraced = [it for it in result["iterations"] if not it["traced"]]
    traced = [it for it in result["iterations"] if it["traced"]]
    if args.trace:
        values = tracing.layer_metrics(spec["spans"], result["trace_counts"], len(traced))
        values["cli.bytes_out"] = statistics.mean(
            sum(c["bytes_out"] for c in it["commands"]) for it in traced)
        values["trace.overhead_s"] = tracing_overhead(result["iterations"])
        values["host.probe_ms"] = probe_ms(result["iterations"])
        values["wall_measured_s"] = raw_wall(untraced)
        values.update(estimator_seconds(untraced, commands))
    else:
        values = {"wall_s": wall(untraced),
                  "setup_s": statistics.median(probe.scale(*sample) for sample in setup),
                  "peak_rss_mb": result["peak_rss_mb"]}
    units = declared_metrics(args.trace)
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations untraced {len(untraced)} traced {len(traced)}")
    for name in units:
        print(f"  {name:32s} {values[name]:14.6f} {units[name]}")
    if not args.trace:
        print("  not gated:")
        for name, value in estimator_seconds(untraced, commands).items():
            print(f"  {name:32s} {value:14.6f} s")
        print(f"  {'wall_measured_s':32s} {raw_wall(untraced):14.6f} s")
        print(f"  {'host.probe_ms':32s} {probe_ms(untraced):14.6f} ms")
        print(f"  setup measured s {' '.join(f'{s:.4f}' for s, _ in setup)}")
        print(f"  setup probe ms   {' '.join(f'{1000 * p:.4f}' for _, p in setup)}")
    print(f"  error_rate {failed}/{attempted}")
    for message in messages:
        print(f"  FAILED {message}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the output checks.

Usage (from the repository root): python3 perfbench/selftest.py

Runs three real smallfdr commands on small seeded inputs (lfdr --estimator
corrected, ttest, simulate --estimators mle), confirms the checks pass on
their outputs, then corrupts one estimate, one p-value and one metrics row in
turn.  Each corrupted file gets a manifest with matching digests, so only the
content check can catch it, and each must be counted as a failed command.
Exits 1 if any expectation is not met.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np

import checks
import run
import workloads

# (what is corrupted, row, column) for each command run in main().
CORRUPTIONS = (("estimate", 3, 3), ("p-value", 7, 1), ("metrics row", 5, 3))


def _cli(*argv: str) -> None:
    subprocess.run([sys.executable, "-m", "smallfdr.cli", *argv], env=run.worker_env(),
                   cwd=run.ROOT, check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)


def _corrupt(path: str, row: int, column: int) -> None:
    """Scale one numeric cell by 1.01 and refresh the manifest's digest."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    rows[row][column] = repr(float(rows[row][column]) * 1.01)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    manifest_path = path + ".manifest.json"
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    with open(path, "rb") as handle:
        manifest["outputs"][path] = "sha256:" + hashlib.sha256(handle.read()).hexdigest()
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)


def _failures(argv: list[str]) -> tuple[int, list[str]]:
    result = {"iterations": [{"traced": False, "commands": [
        {"rc": 0, "error": None, "digest": "-", "last_stdout": ""}]}]}
    _, failed, messages = run.count_failures(result, [(argv[0], None, argv)])
    return failed, messages


def main() -> int:
    workdir = os.path.join(run.ROOT, ".bench_work", "selftest")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    rng = np.random.default_rng(0)
    p_path = os.path.join(workdir, "p_large.csv")
    ab_path = os.path.join(workdir, "abundance.csv")
    workloads.write_pvalues(p_path, workloads.mixture_pvalues(rng, 400))
    workloads.write_abundance(ab_path, workloads.abundance(rng, 300))
    commands = [
        ["lfdr", p_path, "--estimator", "corrected", "--seed", "0",
         "--out", os.path.join(workdir, "lfdr_corrected.csv")],
        ["ttest", ab_path, "--seed", "0", "--out", os.path.join(workdir, "ttest.csv")],
        ["simulate", "--estimators", "mle", "--reps", str(workloads.SIM_REPS), "--seed", "0",
         "--out", os.path.join(workdir, "simulate_mle.csv")],
    ]
    ok = True
    for argv, (what, row, column) in zip(commands, CORRUPTIONS):
        _cli(*argv)
        clean, messages = _failures(argv)
        print(f"{'ok  ' if clean == 0 else 'FAIL'} {argv[0]}: clean output passes"
              + "".join(f"\n       {m}" for m in messages))
        _corrupt(argv[-1], row, column)
        caught, messages = _failures(argv)
        print(f"{'ok  ' if caught == 1 else 'FAIL'} {argv[0]}: corrupted {what} counted as "
              f"{caught} failed command" + "".join(f"\n       {m}" for m in messages))
        ok = ok and clean == 0 and caught == 1
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Workload definitions: seeded input files and the CLI command sequences.

Inputs are written before any timing starts.  The program only ever sees
the generated files (and, for ``simulate``, a seed argument).  Each command
is a tuple ``(label, estimator, argv)``; ``estimator`` is the estimator whose
time the command counts towards, or None.
"""

from __future__ import annotations

import os

import numpy as np
from scipy import special

# p-value mixture: chi-square(1) statistics, a share PI0 of them null and the
# rest shifted to (Z + sqrt(DELTA))**2.
PI0 = 0.9
DELTA = 9.0
# Sizes are chosen so that one repetition of each workload's command
# sequence takes about 2 s, and several fit in one run.
N_LARGE = 20_000
N_MEAN = 500

# Abundance table for the t-test pipeline.
FEATURES = 10_000
SUBJECTS_PER_GROUP = 6
SHIFTED_SHARE = 0.10
CASE_SHIFT = 1.0  # added to the log-abundance of shifted features in cases
CONSTANT_ROWS = 20

# simulate runs the default grid with SIM_REPS replicates per cell and one of
# SIM_SEED_POOL seeds; their outputs were recorded from the seed commit under
# reference/.
SIM_REPS = 10
SIM_SEED_POOL = 8

# The mean coverage-exact command runs on this reduced grid.
COVERAGE_MEAN_ALPHAS = "0.05"
COVERAGE_MEAN_PIS = "0.5"

# Workload names; the reason for each is recorded in BENCHMARK.json.
NAMES = ("lfdr-large", "sim-grid", "ttest-wide", "coverage-exact")


def mixture_pvalues(rng: np.random.Generator, n: int) -> np.ndarray:
    false_null = rng.random(n) < 1.0 - PI0
    t = (rng.standard_normal(n) + np.sqrt(DELTA) * false_null) ** 2
    return special.erfc(np.sqrt(0.5 * t))


def write_pvalues(path: str, p: np.ndarray) -> None:
    width = len(str(p.size))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id,p\n")
        handle.writelines(f"h{i:0{width}d},{float(v)!r}\n" for i, v in enumerate(p))


def abundance(rng: np.random.Generator, features: int = FEATURES) -> np.ndarray:
    """Log-normal values with a case shift on some rows and a few constant rows."""
    logs = rng.normal(3.0, 1.0, size=(features, 2 * SUBJECTS_PER_GROUP))
    rows = rng.permutation(features)
    logs[rows[: int(SHIFTED_SHARE * features)], :SUBJECTS_PER_GROUP] += CASE_SHIFT
    constant = rows[-CONSTANT_ROWS:]
    logs[constant, :] = logs[constant, :1]
    return np.exp(logs)


def write_abundance(path: str, values: np.ndarray) -> None:
    groups = ["case"] * SUBJECTS_PER_GROUP + ["control"] * SUBJECTS_PER_GROUP
    header = ",".join(f"s{j + 1}:{g}" for j, g in enumerate(groups))
    width = len(str(values.shape[0]))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"feature,{header}\n")
        handle.writelines(
            f"f{i:0{width}d}," + ",".join(repr(float(v)) for v in row) + "\n"
            for i, row in enumerate(values)
        )


def prepare(name: str, seed: int, workdir: str) -> list[tuple[str, str | None, list[str]]]:
    """Write the workload's inputs under ``workdir`` and return its commands."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, NAMES.index(name)]))

    def path(fname: str) -> str:
        return os.path.join(workdir, fname)

    if name == "lfdr-large":
        write_pvalues(path("p_large.csv"), mixture_pvalues(rng, N_LARGE))
        write_pvalues(path("p_mean.csv"), mixture_pvalues(rng, N_MEAN))
        s = str(seed)
        return [
            ("lfdr-mle", "mle", ["lfdr", path("p_large.csv"), "--estimator", "mle",
                                 "--seed", s, "--json", "--out", path("lfdr_mle.csv")]),
            ("lfdr-corrected", "corrected", ["lfdr", path("p_large.csv"), "--estimator",
                                             "corrected", "--seed", s,
                                             "--out", path("lfdr_corrected.csv")]),
            ("lfdr-mean", "mean", ["lfdr", path("p_mean.csv"), "--estimator", "mean",
                                   "--seed", s, "--out", path("lfdr_mean.csv")]),
            ("bh", None, ["bh", path("p_large.csv"), "--q", "0.05", "--seed", s,
                          "--out", path("bh.csv")]),
        ]
    if name == "sim-grid":
        s = str(seed % SIM_SEED_POOL)
        return [
            (f"simulate-{est}", est, ["simulate", "--estimators", est, "--reps", str(SIM_REPS),
                                      "--seed", s,
                                      "--out", path(f"simulate_{est}.csv")])
            for est in ("mle", "corrected", "mean")
        ]
    if name == "ttest-wide":
        write_abundance(path("abundance.csv"), abundance(rng))
        return [("ttest", None, ["ttest", path("abundance.csv"), "--seed", str(seed),
                                 "--out", path("ttest.csv")])]
    if name == "coverage-exact":
        commands = [
            (f"coverage-corrected-n{n}", "corrected",
             ["coverage-exact", "--n", str(n), "--estimator", "corrected",
              "--out", path(f"coverage_corrected_n{n}.csv")])
            for n in range(1, 6)
        ]
        commands.append(("coverage-mean-n3", "mean",
                         ["coverage-exact", "--n", "3", "--alpha-grid", COVERAGE_MEAN_ALPHAS,
                          "--pi-grid", COVERAGE_MEAN_PIS, "--estimator", "mean",
                          "--out", path("coverage_mean_n3.csv")]))
        return commands
    raise ValueError(f"unknown workload {name!r}")

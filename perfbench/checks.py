"""Output checks: every command's output against an independent reference.

``check(argv, stdout)`` reads everything it needs (inputs, outputs, seeds)
from the command line the program was given.

- corrected lfdr: the exact Clopper-Pearson median betaincinv(x, N-x+1, 1/2).
- mle lfdr: min(p_(2r) * N / 2r, 1).
- every lfdr table: rows in rank order, raw value 1 where 2r > N, and the
  monotone column equal to the running maximum of the raw column.
- mean-MC lfdr: the seeded uniforms pushed through an independent inverse of
  the weighted significance function (the two-component Beta mixture).
- bh: a plain step-up rule.
- ttest: scipy.stats.ttest_ind on the shift-log table; constant rows give 1.
- simulate and coverage-exact: outputs recorded from the seed commit under
  reference/, compared with a numeric tolerance; corrected coverage >= 1/2.
- every command: the manifest's digests match the files written.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import warnings

import numpy as np
from scipy import special, stats

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")

# The seed's bisection is within 1.2e-8 (relative) of the exact median at
# N = 1e5; outputs carry 12 significant digits.
RTOL_CORRECTED = 1e-7
RTOL_MEAN_MC = 1e-7
RTOL_EXACT = 1e-10
# smallfdr's own Student t tail against scipy's: about 5e-12 apart.
RTOL_TTEST = 1e-9
# Recorded references: 12-significant-digit flips are allowed.
RTOL_REFERENCE = 1e-9
ATOL = 1e-12

SIM_KIND = {short: kind for kind, short in tracing.KIND_SHORT.items()}
MC_DRAWS = 100
MEAN_WEIGHT = 0.5


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def read_pvalues(path: str) -> tuple[list[str], np.ndarray]:
    _, rows = read_csv(path)
    return [r[0] for r in rows], np.array([float(r[1]) for r in rows])


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return "sha256:" + hashlib.sha256(handle.read()).hexdigest()


def _close(name: str, got, want, rtol: float, atol: float = ATOL) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    bad = ~np.isclose(got, want, rtol=rtol, atol=atol)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        return [f"{name}: {int(bad.sum())} values off, first at row {i + 1}: "
                f"{float(got.flat[i])!r} vs {float(want.flat[i])!r}"]
    return []


def check_manifest(out: str) -> list[str]:
    path = out + ".manifest.json"
    if not os.path.exists(path):
        return [f"{path} missing"]
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    errors = []
    for written, digest in manifest.get("outputs", {}).items():
        if not os.path.exists(written) or _sha256(written) != digest:
            errors.append(f"manifest digest mismatch for {written}")
    if out not in manifest.get("outputs", {}):
        errors.append(f"manifest does not list {out}")
    return errors


def check_lfdr_table(out: str, input_path: str, expected_head, rtol: float) -> list[str]:
    """Shared lfdr checks; ``expected_head(n, xs, alphas)`` gives raw values for 2r <= N."""
    header, rows = read_csv(out)
    if header != ["id", "p", "rank", "raw_lfdr", "monotone_lfdr"]:
        return [f"{out}: unexpected header {header}"]
    ids, p_in = read_pvalues(input_path)
    n = len(ids)
    if len(rows) != n:
        return [f"{out}: {len(rows)} rows, expected {n}"]
    by_id = dict(zip(ids, p_in))
    p_sorted = np.sort(p_in)
    out_p = np.array([float(r[1]) for r in rows])
    ranks = np.array([int(r[2]) for r in rows])
    raw = np.array([float(r[3]) for r in rows])
    mono = np.array([float(r[4]) for r in rows])
    errors = []
    if sorted(r[0] for r in rows) != sorted(ids):
        errors.append(f"{out}: ids differ from the input")
    else:
        errors += _close(f"{out} p by id", out_p, [by_id[r[0]] for r in rows], RTOL_EXACT)
    if not np.array_equal(ranks, np.arange(1, n + 1)):
        errors.append(f"{out}: rank column is not 1..N")
    errors += _close(f"{out} p in rank order", out_p, p_sorted, RTOL_EXACT)
    m = n // 2
    if not np.all(raw[m:] == 1.0):
        errors.append(f"{out}: raw estimate is not 1 where 2r > N")
    if not np.array_equal(mono, np.maximum.accumulate(raw)):
        errors.append(f"{out}: monotone column is not the running maximum of raw")
    xs = 2 * np.arange(1, m + 1)
    errors += _close(f"{out} raw", raw[:m], expected_head(n, xs, p_sorted[xs - 1]), rtol)
    return errors


def mle_head(n, xs, alphas):
    return np.minimum(alphas * n / xs, 1.0)


def corrected_head(n, xs, alphas):
    return np.minimum(alphas / special.betaincinv(xs, n - xs + 1.0, 0.5), 1.0)


def inverse_significance(n: int, x: np.ndarray, u: np.ndarray, weight: float) -> np.ndarray:
    """pi with (1 - C) I_pi(x + 1, N - x) + C I_pi(x, N - x + 1) = u, elementwise.

    The significance function is a mixture of two Beta distribution
    functions, so its root lies between their quantiles; Newton steps kept
    inside that bracket converge in a few iterations.  At x = N the function
    is C pi^N, and uniforms above C land on the atom at 1.
    """
    out = np.empty(u.shape)
    inner = x < n
    xi, ui = x[inner], u[inner]
    lo = special.betaincinv(xi, n - xi + 1.0, ui)
    hi = special.betaincinv(xi + 1.0, n - xi, ui)
    log_b0 = special.betaln(xi + 1.0, n - xi)
    log_b1 = special.betaln(xi, n - xi + 1.0)
    pi = 0.5 * (lo + hi)
    for _ in range(6):
        f = ((1.0 - weight) * special.betainc(xi + 1.0, n - xi, pi)
             + weight * special.betainc(xi, n - xi + 1.0, pi) - ui)
        lo, hi = np.where(f < 0, pi, lo), np.where(f < 0, hi, pi)
        lp, l1p = np.log(pi), np.log1p(-pi)
        density = ((1.0 - weight) * np.exp(xi * lp + (n - xi - 1.0) * l1p - log_b0)
                   + weight * np.exp((xi - 1.0) * lp + (n - xi) * l1p - log_b1))
        step = pi - f / density
        pi = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
    out[inner] = pi
    top = u[~inner]
    out[~inner] = np.where(top > weight, 1.0, (top / weight) ** (1.0 / n))
    return out


def mean_mc_head(seed: int):
    """Mean-MC estimates from the documented per-rank streams SeedSequence([seed, r])."""
    def head(n, xs, alphas):
        u = np.vstack([
            np.random.default_rng(np.random.SeedSequence([seed, r])).random(MC_DRAWS)
            for r in range(1, xs.size + 1)
        ])
        x = np.broadcast_to(xs[:, None].astype(float), u.shape)
        pi = inverse_significance(n, x, u, MEAN_WEIGHT)
        ratio = np.divide(alphas[:, None], pi, out=np.full(pi.shape, np.inf), where=pi > 0)
        return np.minimum(ratio, 1.0).mean(axis=1)
    return head


def check_lfdr_json(out: str) -> list[str]:
    mirror = os.path.splitext(out)[0] + ".json"
    if not os.path.exists(mirror):
        return [f"{mirror} missing"]
    with open(mirror, encoding="utf-8") as handle:
        records = json.load(handle)
    _, rows = read_csv(out)
    if [r["id"] for r in records] != [r[0] for r in rows]:
        return [f"{mirror}: ids differ from the CSV"]
    return _close(f"{mirror} monotone", [r["monotone_lfdr"] for r in records],
                  [float(r[4]) for r in rows], RTOL_EXACT)


def step_up(p: np.ndarray, q: float) -> int:
    """Largest k with p_(k) <= k q / N, or 0."""
    n = p.size
    passing = np.flatnonzero(np.sort(p) <= np.arange(1, n + 1) * q / n)
    return int(passing[-1]) + 1 if passing.size else 0


def check_bh(out: str, input_path: str, q: float, stdout: str) -> list[str]:
    ids, p_in = read_pvalues(input_path)
    n = p_in.size
    k = step_up(p_in, q)
    threshold = np.sort(p_in)[k - 1] if k else -1.0
    report = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    errors = []
    if report.get("rejections") != str(k):
        errors.append(f"bh: reported rejections {report.get('rejections')}, expected {k}")
    if k:
        m = (k + 1) // 2
        want = min(np.sort(p_in)[2 * m - 1] * n / (2 * m), 1.0) if 2 * m <= n else 1.0
        got = report.get("mle_lfdr_at_median_rank", "nan")
        errors += _close("bh mle_lfdr_at_median_rank", [float(got)], [want], RTOL_EXACT)
    header, rows = read_csv(out)
    if header != ["id", "p", "rank", "rejected"] or len(rows) != n:
        return errors + [f"{out}: unexpected header or row count"]
    by_id = dict(zip(ids, p_in))
    flags = np.array([int(r[3]) for r in rows])
    want_flags = np.array([int(by_id[r[0]] <= threshold) for r in rows])
    if not np.array_equal(flags, want_flags):
        errors.append(f"{out}: {int((flags != want_flags).sum())} rejection flags differ "
                      "from the step-up rule")
    return errors


def read_abundance(path: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    header, rows = read_csv(path)
    case = np.array([cell.endswith(":case") for cell in header[1:]])
    values = np.array([[float(v) for v in r[1:]] for r in rows])
    return [r[0] for r in rows], values, case


def check_ttest(out: str, input_path: str) -> list[str]:
    features, values, case = read_abundance(input_path)
    q25 = np.percentile(values[:, ~case].ravel(), 25.0)
    logs = np.log(values + q25)
    constant = np.all(logs == logs[:, :1], axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # constant rows
        want = stats.ttest_ind(logs[:, case], logs[:, ~case], axis=1, equal_var=True).pvalue
    want = np.where(constant, 1.0, want)
    header, rows = read_csv(out)
    if header != ["id", "p"] or [r[0] for r in rows] != features:
        return [f"{out}: header or feature order differs from the input"]
    got = np.array([float(r[1]) for r in rows])
    errors = _close(f"{out} p", got, want, RTOL_TTEST)
    if not np.all(got[constant] == 1.0):
        errors.append(f"{out}: a constant row has p != 1")
    return errors


def _numeric_rows(path: str, key_cols: int) -> dict[tuple, list[str]]:
    _, rows = read_csv(path)
    return {tuple(r[:key_cols]): r[key_cols:] for r in rows}


def compare_reference(out: str, reference: str, key_cols: int, keep=None) -> list[str]:
    """Same keys as the reference and every numeric cell within tolerance."""
    got = _numeric_rows(out, key_cols)
    want = {k: v for k, v in _numeric_rows(reference, key_cols).items()
            if keep is None or keep(k)}
    if sorted(got) != sorted(want):
        return [f"{out}: rows differ from {os.path.basename(reference)}"]
    errors = []
    for key in want:
        if [c == "" for c in got[key]] != [c == "" for c in want[key]]:
            errors.append(f"{out}: blank cells differ at {key}")
            continue
        g = [float(c) for c in got[key] if c != ""]
        w = [float(c) for c in want[key] if c != ""]
        errors += _close(f"{out} {key}", g, w, RTOL_REFERENCE)
    return errors


def check_coverage(out: str, reference: str, guarantee: bool) -> list[str]:
    errors = compare_reference(out, reference, 2)
    if guarantee:
        _, rows = read_csv(out)
        low = [r for r in rows if r[2] != "" and float(r[2]) < 0.5]
        if low:
            errors.append(f"{out}: coverage below 1/2 at alpha,pi = {low[0][:2]}")
    return errors


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def check(argv: list[str], stdout: str) -> list[str]:
    """Failure messages for one smallfdr command line; empty when its outputs are correct."""
    command, out = argv[0], _flag(argv, "--out")
    errors = check_manifest(out)
    if command == "lfdr":
        est = _flag(argv, "--estimator")
        head, rtol = {"mle": (mle_head, RTOL_EXACT),
                      "corrected": (corrected_head, RTOL_CORRECTED),
                      "mean": (mean_mc_head(int(_flag(argv, "--seed"))), RTOL_MEAN_MC)}[est]
        errors += check_lfdr_table(out, argv[1], head, rtol)
        if "--json" in argv:
            errors += check_lfdr_json(out)
    elif command == "bh":
        errors += check_bh(out, argv[1], float(_flag(argv, "--q")), stdout)
    elif command == "ttest":
        errors += check_ttest(out, argv[1])
    elif command == "simulate":
        kind = SIM_KIND[_flag(argv, "--estimators")]
        ref = os.path.join(REFERENCE, f"simulate_seed{_flag(argv, '--seed')}.csv")
        errors += compare_reference(out, ref, 3, keep=lambda key: key[2] == kind)
    elif command == "coverage-exact":
        ref = os.path.join(REFERENCE, os.path.basename(out))
        errors += check_coverage(out, ref, _flag(argv, "--estimator") == "corrected")
    else:
        errors.append(f"no check for command {command!r}")
    return errors

"""Command-line interface.

Subcommands cover local FDR estimation from a p-value table, the step-up
control rule, the mixture simulation grid, exact small-N coverage, and the
abundance-table t-test pipeline.  Every file written gets a sidecar
manifest recording parameters, seeds, and input digests, and all numeric
output uses 12 significant digits so reruns are byte-identical.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .ingest import (
    load_abundance_csv,
    load_pvalues_csv,
    shift_log_transform,
    two_sample_t_pvalues,
)
from .lfdr import bh_lfdr_link, lfdr_estimates
from .nfdr import KIND_CORRECTED, KIND_MEAN, KIND_MLE, NumericFailure
from .simulate import (
    POOLING_PER_REPLICATE,
    POOLING_POOLED,
    SimulationConfig,
    exact_small_n_coverage,
    run_grid,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

SEED_ENV_VAR = "SMALLFDR_SEED"

ESTIMATOR_FLAGS = {"mle": KIND_MLE, "corrected": KIND_CORRECTED, "mean": KIND_MEAN}


class UsageError(Exception):
    """Bad flag values discovered after argparse."""


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        seed = args.seed
    else:
        raw = os.environ.get(SEED_ENV_VAR)
        if raw is None:
            return 0
        try:
            seed = int(raw)
        except ValueError:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    if seed < 0:
        raise UsageError(f"seed must be nonnegative, got {seed}")
    return seed


def _parse_float_grid(text: str, flag: str) -> list[float]:
    """Comma-separated values; 'start:stop:step' pieces expand to ranges."""
    values: list[float] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            pieces = part.split(":")
            if len(pieces) != 3:
                raise UsageError(f"{flag}: range syntax is start:stop:step, got {part!r}")
            try:
                start, stop, step = (float(v) for v in pieces)
            except ValueError:
                raise UsageError(f"{flag}: non-numeric range piece in {part!r}") from None
            for piece, value in zip(pieces, (start, stop, step)):
                if not np.isfinite(value):
                    raise UsageError(
                        f"{flag}: non-finite range piece {piece.strip()!r} in {part!r}"
                    )
            if step <= 0.0:
                raise UsageError(f"{flag}: range step must be positive, got {step}")
            v = start
            while v <= stop + 1e-12:
                values.append(round(v, 12))
                v += step
        else:
            try:
                values.append(float(part))
            except ValueError:
                raise UsageError(f"{flag}: non-numeric value {part!r}") from None
    if not values:
        raise UsageError(f"{flag}: empty grid")
    return values


def _parse_int_grid(text: str, flag: str) -> list[int]:
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            values.append(int(part))
        except ValueError:
            raise UsageError(f"{flag}: non-integer value {part!r}") from None
    if not values:
        raise UsageError(f"{flag}: empty grid")
    return values


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return f"sha256:{digest.hexdigest()}"


def _write_manifest(out_path: str, command: str, params: dict, inputs: list[str],
                    outputs: list[str]) -> None:
    manifest = {
        "tool": "smallfdr",
        "version": __version__,
        "command": command,
        "parameters": params,
        "inputs": {p: _sha256(p) for p in inputs},
        "outputs": {p: _sha256(p) for p in outputs},
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


# Cells holding one of these are quoted, as csv.writer quotes a cell holding
# the delimiter, the quote or a line break.  csv.writer with lineterminator
# "\n" leaves a lone CR unquoted, and a reader then splits the row there.
_CSV_SPECIAL = (",", '"', "\r", "\n")
_ROWS_PER_WRITE = 8192


def _kind(column) -> type | None:
    """The one type of every cell of a column (float and int for arrays), or None."""
    if isinstance(column, np.ndarray):
        return {"f": float, "i": int, "u": int}.get(column.dtype.kind)
    kinds = set(map(type, column))
    return kinds.pop() if len(kinds) == 1 else None


def _csv_cell(text: str) -> str:
    """One string cell, quoted with its quotes doubled when it holds a special character."""
    if not any(c in text for c in _CSV_SPECIAL):
        return text
    return '"' + text.replace('"', '""') + '"'


def _csv_column(column) -> tuple[str, object]:
    """The %-spec that writes a column's cells as _fmt and _csv_cell would, and its values."""
    kind = _kind(column)
    if kind is float:
        return "%.12g", column
    if kind is int:
        return "%d", column
    values = column if kind is str else list(map(_fmt, _values(column)))
    text = "".join(values)
    if any(c in text for c in _CSV_SPECIAL):
        values = list(map(_csv_cell, values))
    return "%s", values


def _json_column(column) -> tuple[str, object]:
    """The %-spec that writes a column's cells as json.dump would, "" as null, and its values."""
    kind = _kind(column)
    if kind is int:
        return "%d", column
    if kind is float and np.isfinite(column).all():
        return "%r", column
    values = _values(column)
    if kind is str and "" not in values:
        return "%s", list(map(json.encoder.encode_basestring_ascii, values))
    return "%s", [json.dumps(None if value == "" else value) for value in values]


def _values(column):
    """A column's cells as Python objects."""
    return column.tolist() if isinstance(column, np.ndarray) else column


def _lines(template: str, columns: list):
    """The rows of ``columns`` formatted by ``template``, a few thousand per string."""
    for start in range(0, len(columns[0]), _ROWS_PER_WRITE):
        cells = [_values(c[start:start + _ROWS_PER_WRITE]) for c in columns]
        yield "".join(map(template.__mod__, zip(*cells)))


def _csv_text(header: list[str], columns: list):
    """The table as CSV with 12 significant digits, in pieces."""
    specs, cells = zip(*map(_csv_column, columns))
    yield ",".join(map(_csv_cell, header)) + "\n"
    yield from _lines(",".join(specs) + "\n", cells)


def _json_text(header: list[str], columns: list):
    """The records as json.dump(records, indent=2) writes them, in pieces."""
    specs, cells = zip(*map(_json_column, columns))
    keys = [json.encoder.encode_basestring_ascii(key).replace("%", "%%") for key in header]
    fields = ",\n".join(f"    {key}: {spec}" for key, spec in zip(keys, specs))
    first = True
    # every record opens with its separator, ",\n", which the first one trades for "[\n"
    for chunk in _lines(",\n  {\n" + fields + "\n  }", cells):
        yield ("[\n" + chunk[2:]) if first else chunk
        first = False
    yield "[]\n" if first else "\n]\n"


def _emit_table(header: list[str], columns: list, args, params: dict,
                inputs: list[str]) -> None:
    """Write a CSV table to --out (with manifest, optional JSON mirror) or stdout.

    ``columns`` holds one sequence or array per header name.  Each row is
    one %-formatted line, with the bytes csv.writer would write, except that
    a cell holding a CR is quoted too.
    """
    out = args.out
    if out is None:
        sys.stdout.writelines(_csv_text(header, columns))
        return
    with open(out, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(_csv_text(header, columns))
    outputs = [out]
    if args.json:
        mirror = os.path.splitext(out)[0] + ".json"
        with open(mirror, "w", encoding="utf-8") as handle:
            handle.writelines(_json_text(header, columns))
        outputs.append(mirror)
    _write_manifest(out, args.command, params, inputs, outputs)


def cmd_lfdr(args) -> int:
    seed = _resolve_seed(args)
    if args.mc_draws < 1:
        raise UsageError(f"--mc-draws must be at least 1, got {args.mc_draws}")
    pvals = load_pvalues_csv(args.input, tie_break_seed=seed)
    result = lfdr_estimates(
        pvals, ESTIMATOR_FLAGS[args.estimator], mc_draws=args.mc_draws, seed=seed
    )
    n = len(result.ids)
    columns = [
        result.ids,
        result.p,
        range(1, n + 1),
        result.raw(),
        result.raw() if args.no_monotone else result.monotone(),
    ]
    params = {
        "input": args.input,
        "estimator": args.estimator,
        "mc_draws": args.mc_draws,
        "seed": seed,
        "no_monotone": args.no_monotone,
    }
    _emit_table(
        ["id", "p", "rank", "raw_lfdr", "monotone_lfdr"], columns, args, params, [args.input]
    )
    return EXIT_OK


def cmd_bh(args) -> int:
    seed = _resolve_seed(args)
    if not 0.0 < args.q < 1.0:
        raise UsageError(f"--q must lie in (0, 1), got {args.q}")
    pvals = load_pvalues_csv(args.input, tie_break_seed=seed)
    link = bh_lfdr_link(pvals, args.q)
    rejection = link.rejection
    lines = [
        f"controlled_level_q: {_fmt(args.q)}",
        f"rejections: {rejection.k_star}",
        f"threshold_rank: {rejection.k_star if rejection.k_star else 'none'}",
        f"threshold_p: {_fmt(rejection.threshold_p) if rejection.threshold_p is not None else 'none'}",
        f"rejected_ids: {','.join(rejection.rejected_ids) if rejection.rejected_ids else 'none'}",
    ]
    if link.applicable:
        lines += [
            f"median_rejected_rank: {link.median_rank}",
            f"median_rejected_id: {link.median_id}",
            f"median_rejected_p: {_fmt(link.median_p)}",
            f"mle_lfdr_at_median_rank: {_fmt(link.lfdr_at_median)}",
        ]
    else:
        lines += [
            "median_rejected_rank: not applicable",
            "mle_lfdr_at_median_rank: not applicable",
        ]
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out is not None:
        n, k = pvals.n, len(rejection.rejected_ids)
        columns = [pvals.sorted_ids(), pvals.sorted_p(), range(1, n + 1), [1] * k + [0] * (n - k)]
        params = {"input": args.input, "q": args.q, "seed": seed}
        _emit_table(["id", "p", "rank", "rejected"], columns, args, params, [args.input])
    return EXIT_OK


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    estimator_names = [name.strip() for name in args.estimators.split(",") if name.strip()]
    for name in estimator_names:
        if name not in ESTIMATOR_FLAGS:
            raise UsageError(
                f"--estimators: unknown estimator {name!r}; "
                f"choose from {','.join(ESTIMATOR_FLAGS)}"
            )
    try:
        config = SimulationConfig(
            pi0_grid=tuple(_parse_float_grid(args.pi0_grid, "--pi0-grid")),
            n_grid=tuple(_parse_int_grid(args.n_grid, "--n-grid")),
            delta=args.delta,
            replicates=args.reps,
            seed=seed,
            estimators=tuple(ESTIMATOR_FLAGS[name] for name in estimator_names),
            mc_draws=args.mc_draws,
            pooling=POOLING_PER_REPLICATE if args.per_replicate else POOLING_POOLED,
        )
    except ValueError as err:
        raise UsageError(str(err)) from None
    metrics = run_grid(config)
    metrics.sort(key=lambda row: (row.pi0, row.n, row.estimator))
    fields = ("pi0", "n", "estimator", "rmse", "conservatism_proportion", "bias",
              "replicate_count")
    columns = [[getattr(row, field) for row in metrics] for field in fields]
    _emit_table(list(fields[:-1]) + ["replicates"], columns, args, asdict(config), [])
    return EXIT_OK


def cmd_coverage_exact(args) -> int:
    alphas = _parse_float_grid(args.alpha_grid, "--alpha-grid")
    pis = _parse_float_grid(args.pi_grid, "--pi-grid")
    kind = ESTIMATOR_FLAGS[args.estimator]
    cells = []
    for alpha in alphas:
        if not 0.0 < alpha <= 1.0:
            raise UsageError(f"--alpha-grid values must lie in (0, 1], got {alpha}")
        for pi in pis:
            if not 0.0 <= pi <= 1.0:
                raise UsageError(f"--pi-grid values must lie in [0, 1], got {pi}")
            cells.append((alpha, pi))
    alpha_column, pi_column = map(np.array, zip(*cells))
    defined = pi_column >= alpha_column  # the other cells stay blank
    coverage = np.full(len(cells), "", dtype=object)
    coverage[defined] = exact_small_n_coverage(
        args.n, alpha_column[defined], pi_column[defined], kind
    ).tolist()
    params = {
        "n": args.n,
        "alpha_grid": alphas,
        "pi_grid": pis,
        "estimator": args.estimator,
    }
    columns = [alpha_column, pi_column, coverage.tolist()]
    _emit_table(["alpha", "pi", "coverage"], columns, args, params, [])
    return EXIT_OK


def cmd_ttest(args) -> int:
    seed = _resolve_seed(args)
    matrix = load_abundance_csv(args.input)
    if args.transform == "shift-log":
        matrix = shift_log_transform(matrix)
    pvals = two_sample_t_pvalues(matrix, tie_break_seed=seed)
    params = {"input": args.input, "transform": args.transform, "seed": seed}
    _emit_table(["id", "p"], [pvals.ids, pvals.p_values], args, params, [args.input])
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallfdr",
        description="Conservative false discovery rate estimation from very few p-values.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None,
                        help=f"random seed (default: ${SEED_ENV_VAR} or 0)")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None,
                        help="write the table to this CSV path, with a manifest "
                             "(default: stdout; bh then writes no table)")
    output.add_argument("--json", action="store_true",
                        help="also write a JSON mirror next to --out")

    p_lfdr = sub.add_parser("lfdr", parents=[seeded, output],
                            help="estimate local FDRs from an 'id,p' table")
    p_lfdr.add_argument("input", help="p-value CSV with header 'id,p'")
    p_lfdr.add_argument(
        "--estimator", choices=sorted(ESTIMATOR_FLAGS), default="corrected"
    )
    p_lfdr.add_argument("--mc-draws", type=int, default=100,
                        help="Monte Carlo draws for the mean estimator")
    p_lfdr.add_argument("--no-monotone", action="store_true",
                        help="skip monotonicity enforcement in the output column")
    p_lfdr.set_defaults(func=cmd_lfdr)

    p_bh = sub.add_parser("bh", parents=[seeded, output],
                          help="step-up rejection report at level q")
    p_bh.add_argument("input", help="p-value CSV with header 'id,p'")
    p_bh.add_argument("--q", type=float, required=True, help="control level in (0, 1)")
    p_bh.set_defaults(func=cmd_bh)

    p_sim = sub.add_parser("simulate", parents=[seeded, output],
                           help="mixture-model error metrics over a grid")
    p_sim.add_argument("--pi0-grid", default="0.5,0.75,0.9,1.0")
    p_sim.add_argument("--n-grid", default="2,4,8,16,32")
    p_sim.add_argument("--delta", type=float, default=2.0)
    p_sim.add_argument("--reps", type=int, default=100)
    p_sim.add_argument("--estimators", default="mle,corrected,mean")
    p_sim.add_argument("--mc-draws", type=int, default=100)
    p_sim.add_argument("--per-replicate", action="store_true",
                       help="average metrics per replicate instead of pooling")
    p_sim.set_defaults(func=cmd_simulate)

    p_cov = sub.add_parser(
        "coverage-exact", parents=[output],
        help="exact small-N probability of reaching the bound",
    )
    p_cov.add_argument("--n", type=int, required=True, choices=range(1, 6),
                       help="number of hypotheses (1..5)")
    p_cov.add_argument("--alpha-grid", default="0.01,0.05,0.1,0.2,0.3,0.5")
    p_cov.add_argument("--pi-grid", default="0.05:1.0:0.05")
    p_cov.add_argument(
        "--estimator", choices=sorted(ESTIMATOR_FLAGS), default="corrected"
    )
    p_cov.set_defaults(func=cmd_coverage_exact)

    p_tt = sub.add_parser("ttest", parents=[seeded, output],
                          help="abundance table to p-value table")
    p_tt.add_argument("input", help="abundance CSV with header 'feature,<id>:<group>,...'")
    p_tt.add_argument("--transform", choices=("shift-log", "none"), default="shift-log")
    p_tt.set_defaults(func=cmd_ttest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.json and args.out is None:
            raise UsageError("--json writes its mirror next to --out; give --out as well")
        return args.func(args)
    except UsageError as err:
        print(f"smallfdr: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as err:
        print(f"smallfdr: data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except (NumericFailure, FloatingPointError, MemoryError) as err:
        print(f"smallfdr: numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

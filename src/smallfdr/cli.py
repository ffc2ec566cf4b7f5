"""Command-line interface.

Subcommands cover local FDR estimation from a p-value table, the step-up
control rule, the mixture simulation grid, exact coverage, and the
abundance-table t-test pipeline.  Every file written gets a sidecar
manifest recording parameters, seeds, and input digests.  The CSV tables
and the bh report write numbers with 12 significant digits, and the JSON
mirror writes each one as json.dump does, the shortest text that reads
back to the same float, so reruns are byte-identical.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
``main(argv)`` returns the exit code and may be called repeatedly in one
process: it builds the argparse tree on its first call and reuses it.
argparse's own usage errors, ``--help`` and ``--version`` raise
``SystemExit``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .ingest import _read_bytes, shift_log_transform, two_sample_t_pvalues
# The parsers of a table's bytes, (path, raw), under the names that
# perfbench/tracing.py wraps for its ingest.load span.
from .ingest import _abundance as load_abundance_csv, _pvalues as load_pvalues_csv
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

ESTIMATOR_FLAGS = {"mle": KIND_MLE, "corrected": KIND_CORRECTED, "mean": KIND_MEAN}

# values in one grid flag, and (alpha, pi) cells and estimates (alpha values x (N + 1)) in
# coverage-exact
MAX_GRID_SIZE = 10**6


class UsageError(Exception):
    """Bad flag values discovered after argparse."""


def _fmt(value) -> str:
    """One cell or report value: a float to 12 significant digits, None as blank."""
    if isinstance(value, float):
        return format(value, ".12g")
    return "" if value is None else str(value)


def _seed(text: str) -> int:
    """A --seed value: a nonnegative integer written in decimal digits."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def _check_grid_size(what: str, count, unit: str = "values") -> None:
    if count > MAX_GRID_SIZE:
        raise UsageError(f"{what} has {count:.15g} {unit}, more than {MAX_GRID_SIZE}")


def _parse_grid(text: str, flag: str, convert=float) -> list:
    """Distinct comma-separated values, each read by ``convert``: float, int or a dict of names.

    In a float grid, 'start:stop:step' pieces expand to ranges whose points
    are rounded to 12 decimals, the last one to at most the rounded stop.  A range's points are counted before it expands, so
    that a tiny step is a usage error rather than a loop that runs until memory
    runs out.
    """
    values: list = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part and convert is float:
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
            points = max(np.floor((stop - start) / step) + 1.0, 0.0)
            _check_grid_size(flag, len(values) + points)
            # the next point too when it rounds to at most stop; the check
            # below counts it
            points += round(start + points * step, 12) <= round(stop, 12)
            values += [round(start + k * step, 12) for k in range(int(points))]
        else:
            try:
                values.append(convert[part] if isinstance(convert, dict) else convert(part))
            except (KeyError, ValueError):
                expected = ("one of " + ",".join(convert) if isinstance(convert, dict)
                            else convert.__name__)
                raise UsageError(f"{flag}: expected {expected}, got {part!r}") from None
    if not values:
        raise UsageError(f"{flag}: empty grid")
    if convert is float:
        values = [value + 0.0 for value in values]  # -0 is stored as 0
    _check_grid_size(flag, len(values))
    if len(set(values)) < len(values):
        # a repeated value would write two rows with the same key
        raise UsageError(f"{flag}: values must be distinct, got {text!r}")
    return values


def _load(args, parse) -> tuple[object, dict]:
    """``parse(path, raw)`` of the bytes of the input table, read once, and
    the manifest's inputs: with --out, the SHA-256 of exactly those bytes.
    The bytes are dropped on return."""
    raw = _read_bytes(args.input)
    table = parse(args.input, raw)
    if args.out is None:
        return table, {}
    return table, {args.input: f"sha256:{hashlib.sha256(raw).hexdigest()}"}


def _write(path: str, pieces) -> str:
    """Write the text ``pieces`` to ``path`` as UTF-8 and return the SHA-256 of the bytes."""
    digest = hashlib.sha256()
    with open(path, "wb") as handle:
        for piece in pieces:
            data = piece.encode("utf-8")
            digest.update(data)
            handle.write(data)
    return f"sha256:{digest.hexdigest()}"


# Cells holding one of these are quoted, as csv.writer quotes a cell holding
# the delimiter, the quote or a line break.  csv.writer with lineterminator
# "\n" leaves a lone CR unquoted, and a reader then splits the row there.
_CSV_SPECIAL = (",", '"', "\r", "\n")
_ROWS_PER_WRITE = 8192


def _kind(column) -> str:
    """The numpy kind of a column's dtype, or "U" (text) for a sequence that is not an array."""
    return column.dtype.kind if isinstance(column, np.ndarray) else "U"


def _csv_cell(text: str) -> str:
    """One string cell, quoted with its quotes doubled when it holds a special character."""
    if not any(c in text for c in _CSV_SPECIAL):
        return text
    return '"' + text.replace('"', '""') + '"'


def _report_id(text: str) -> str:
    """One id in the bh report: as it is, or as a JSON string when it holds a comma, a
    quote or an unprintable character such as a line break, so that each key keeps one
    line and a list of ids splits back at its commas."""
    if "," in text or '"' in text or not text.isprintable():
        return json.encoder.encode_basestring_ascii(text)
    return text


def _csv_column(column) -> tuple[str, object]:
    """The %-spec that writes a column's cells as _fmt and _csv_cell would, and its values.

    Floats are written to 12 significant digits, integers with %d and text as
    it is; the cells of any other array, such as an object array, each go
    through _fmt, which writes None as a blank cell.
    """
    kind = _kind(column)
    if kind == "f":
        return "%.12g", column
    if kind in "iu":
        return "%d", column
    values = column if kind == "U" else list(map(_fmt, column.tolist()))
    text = "".join(values)
    if any(c in text for c in _CSV_SPECIAL):
        values = list(map(_csv_cell, values))
    return "%s", values


def _json_column(column) -> tuple[str, object]:
    """The %-spec that writes a column's cells as json.dump would, and its values.

    Text cells, the empty one included, are JSON strings; integer arrays and
    finite float arrays are numbers.  Every other cell goes through
    json.dumps, so a cell is null only when it is None.
    """
    kind = _kind(column)
    if kind in "iu":
        return "%d", column
    if kind == "f" and np.isfinite(column).all():
        return "%r", column
    if kind == "U":
        return "%s", list(map(json.encoder.encode_basestring_ascii, column))
    return "%s", list(map(json.dumps, column.tolist()))


def _lines(template: str, columns: list):
    """The rows of ``columns`` formatted by ``template``, a few thousand per string."""
    for start in range(0, len(columns[0]), _ROWS_PER_WRITE):
        cells = [c[start:start + _ROWS_PER_WRITE] for c in columns]
        cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in cells]
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


def _mirror(out: str) -> str:
    """The path of the JSON mirror of the table written to ``out``."""
    return os.path.splitext(out)[0] + ".json"


# Entries of a parsed namespace that are not parameters: the subcommand, its
# handler and the outputs.
_NOT_PARAMETERS = ("command", "func", "out", "json")


def _emit_table(header: list[str], columns: list, args, params=None, inputs=None) -> None:
    """Write a CSV table to --out (with manifest, optional JSON mirror) or stdout.

    ``columns`` holds one column per header name, and a column's type sets
    how its cells are written: a float or integer array holds numbers, a
    sequence that is not an array (or a string array) holds text, and an
    object array holds cells of any type, None being the blank cell.  Each
    row is one %-formatted line, with the bytes csv.writer would write,
    except that a cell holding a CR is quoted too.  The JSON mirror writes
    the records as json.dump(records, indent=2) would.  The manifest's
    parameters are the dict ``params``, by default the flags as parsed, less
    ``_NOT_PARAMETERS``.  The dict ``inputs`` maps each input to its digest,
    and each output's digest is taken of the bytes as they are written.
    """
    out = args.out
    if out is None:
        sys.stdout.writelines(_csv_text(header, columns))
        return
    outputs = {out: _write(out, _csv_text(header, columns))}
    if args.json:
        outputs[_mirror(out)] = _write(_mirror(out), _json_text(header, columns))
    if params is None:
        params = vars(args)
    manifest = {
        "tool": "smallfdr",
        "version": __version__,
        "command": args.command,
        "parameters": {key: value for key, value in params.items() if key not in _NOT_PARAMETERS},
        "inputs": inputs or {},
        "outputs": outputs,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    _write(out + ".manifest.json", [json.dumps(manifest, indent=2, sort_keys=True), "\n"])


def cmd_lfdr(args) -> int:
    if args.mc_draws < 1:
        raise UsageError(f"--mc-draws must be at least 1, got {args.mc_draws}")
    pvals, inputs = _load(args, load_pvalues_csv)
    result = lfdr_estimates(
        pvals, ESTIMATOR_FLAGS[args.estimator], mc_draws=args.mc_draws, seed=args.seed
    )
    columns = [result.ids, result.p, result.ranks, result.raw(), result.monotone()]
    _emit_table(["id", "p", "rank", "raw_lfdr", "monotone_lfdr"], columns, args, inputs=inputs)
    return EXIT_OK


def cmd_bh(args) -> int:
    if not 0.0 < args.q < 1.0:
        raise UsageError(f"--q must lie in (0, 1), got {args.q}")
    pvals, inputs = _load(args, load_pvalues_csv)
    link = bh_lfdr_link(pvals, args.q)
    rejection = link.rejection
    rejected_ids = ",".join(map(_report_id, rejection.rejected_ids))
    lines = [
        f"controlled_level_q: {_fmt(args.q)}",
        f"rejections: {rejection.k_star}",
        f"threshold_rank: {rejection.k_star if rejection.k_star else 'none'}",
        f"threshold_p: {_fmt(rejection.threshold_p) if rejection.threshold_p is not None else 'none'}",
        f"rejected_ids: {rejected_ids if rejection.rejected_ids else 'none'}",
    ]
    if link.applicable:
        lines += [
            f"median_rejected_rank: {link.median_rank}",
            f"median_rejected_id: {_report_id(link.median_id)}",
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
        # k* ends a tie group, so the rejected p-values are those of count rank <= k*
        ranks = pvals.sorted_ranks()
        columns = [pvals.sorted_ids(), pvals.sorted_p(), ranks, 1 * (ranks <= rejection.k_star)]
        _emit_table(["id", "p", "rank", "rejected"], columns, args, inputs=inputs)
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        config = SimulationConfig(
            pi0_grid=tuple(_parse_grid(args.pi0_grid, "--pi0-grid")),
            n_grid=tuple(_parse_grid(args.n_grid, "--n-grid", int)),
            delta=args.delta,
            replicates=args.reps,
            seed=args.seed,
            estimators=tuple(_parse_grid(args.estimators, "--estimators", ESTIMATOR_FLAGS)),
            mc_draws=args.mc_draws,
            pooling=POOLING_PER_REPLICATE if args.per_replicate else POOLING_POOLED,
        )
    except ValueError as err:
        raise UsageError(str(err)) from None
    metrics = run_grid(config)
    metrics.sort(key=lambda row: (row.pi0, row.n, row.estimator))
    fields = ("pi0", "n", "estimator", "rmse", "conservatism_proportion", "bias",
              "replicate_count")
    columns = [np.array([getattr(row, field) for row in metrics]) for field in fields]
    _emit_table(list(fields[:-1]) + ["replicates"], columns, args, asdict(config))
    return EXIT_OK


def cmd_coverage_exact(args) -> int:
    if args.n < 1:
        raise UsageError(f"--n must be at least 1, got {args.n}")
    alphas = _parse_grid(args.alpha_grid, "--alpha-grid")
    pis = _parse_grid(args.pi_grid, "--pi-grid")
    cells = len(alphas) * len(pis)
    _check_grid_size("--alpha-grid x --pi-grid", cells, "(alpha, pi) cells")
    _check_grid_size(f"--n {args.n} on --alpha-grid", len(alphas) * (args.n + 1), "estimates")
    for alpha in alphas:
        if not 0.0 < alpha <= 1.0:
            raise UsageError(f"--alpha-grid values must lie in (0, 1], got {alpha}")
    for pi in pis:
        if not 0.0 <= pi <= 1.0:
            raise UsageError(f"--pi-grid values must lie in [0, 1], got {pi}")
    alpha_column = np.repeat(alphas, len(pis))
    pi_column = np.tile(pis, len(alphas))
    defined = pi_column >= alpha_column  # the other cells stay None, written blank
    coverage = np.full(len(alpha_column), None, dtype=object)
    coverage[defined] = exact_small_n_coverage(
        args.n, alpha_column[defined], pi_column[defined], ESTIMATOR_FLAGS[args.estimator]
    )
    columns = [alpha_column, pi_column, coverage]
    params = dict(vars(args), alpha_grid=alphas, pi_grid=pis)
    _emit_table(["alpha", "pi", "coverage"], columns, args, params)
    return EXIT_OK


def cmd_ttest(args) -> int:
    matrix, inputs = _load(args, load_abundance_csv)
    if args.transform == "shift-log":
        matrix = shift_log_transform(matrix)
    pvals = two_sample_t_pvalues(matrix)
    _emit_table(["id", "p"], [pvals.ids, np.array(pvals.p_values)], args, inputs=inputs)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by later ones."""
    parser = argparse.ArgumentParser(
        prog="smallfdr",
        description="Conservative false discovery rate estimation from very few p-values.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_seed, default=0,
                        help="random seed (default: 0); bh and ttest draw nothing and ignore it")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None,
                        help="write the table to this CSV path, with a manifest "
                             "(default: stdout; bh then writes no table)")
    output.add_argument("--json", action="store_true",
                        help="also write a JSON mirror next to --out")
    estimating = argparse.ArgumentParser(add_help=False)
    estimating.add_argument("--estimator", choices=sorted(ESTIMATOR_FLAGS), default="corrected")
    pvalue_input = argparse.ArgumentParser(add_help=False)
    pvalue_input.add_argument("input", help="p-value CSV with header 'id,p'")

    p_lfdr = sub.add_parser("lfdr", parents=[seeded, output, pvalue_input, estimating],
                            help="estimate local FDRs from an 'id,p' table")
    p_lfdr.add_argument("--mc-draws", type=int, default=100,
                        help="Monte Carlo draws for the mean estimator")
    p_lfdr.set_defaults(func=cmd_lfdr)

    p_bh = sub.add_parser("bh", parents=[seeded, output, pvalue_input],
                          help="step-up rejection report at level q")
    p_bh.add_argument("--q", type=float, required=True, help="control level in (0, 1)")
    p_bh.set_defaults(func=cmd_bh)

    p_sim = sub.add_parser("simulate", parents=[seeded, output],
                           help="mixture-model error metrics over a grid")
    # the class attributes of SimulationConfig are its field defaults
    flag_of = {kind: flag for flag, kind in ESTIMATOR_FLAGS.items()}
    p_sim.add_argument("--pi0-grid", default=",".join(map(str, SimulationConfig.pi0_grid)))
    p_sim.add_argument("--n-grid", default=",".join(map(str, SimulationConfig.n_grid)))
    p_sim.add_argument("--delta", type=float, default=SimulationConfig.delta)
    p_sim.add_argument("--reps", type=int, default=SimulationConfig.replicates)
    p_sim.add_argument("--estimators",
                       default=",".join(flag_of[kind] for kind in SimulationConfig.estimators))
    p_sim.add_argument("--mc-draws", type=int, default=SimulationConfig.mc_draws)
    p_sim.add_argument("--per-replicate", action="store_true",
                       help="average metrics per replicate instead of pooling")
    p_sim.set_defaults(func=cmd_simulate)

    p_cov = sub.add_parser(
        "coverage-exact", parents=[output, estimating],
        help="exact probability of reaching the bound",
    )
    p_cov.add_argument("--n", type=int, required=True, help="number of hypotheses N >= 1, "
                       f"at most {MAX_GRID_SIZE} --alpha-grid values x (N + 1) estimates")
    p_cov.add_argument("--alpha-grid", default="0.01,0.05,0.1,0.2,0.3,0.5")
    p_cov.add_argument("--pi-grid", default="0.05:1.0:0.05")
    p_cov.set_defaults(func=cmd_coverage_exact)

    p_tt = sub.add_parser("ttest", parents=[seeded, output],
                          help="abundance table to p-value table")
    p_tt.add_argument("input", help="abundance CSV with header 'feature,<id>:<group>,...'")
    p_tt.add_argument("--transform", choices=("shift-log", "none"), default="shift-log")
    p_tt.set_defaults(func=cmd_ttest)

    return parser


def _check_outputs(args) -> None:
    """Refuse an --out that cannot be written or that collides, before any work."""
    if args.json and args.out is None:
        raise UsageError("--json writes its mirror next to --out; give --out as well")
    if args.out is None:
        return
    outputs = [args.out, args.out + ".manifest.json"] + ([_mirror(args.out)] if args.json else [])
    # no output may overwrite the input or another output
    paths = [os.path.realpath(path) for path in [getattr(args, "input", None)] + outputs
             if path is not None]
    if len(set(paths)) < len(paths):
        raise UsageError(f"--out {args.out}: the input, the table, its manifest and "
                         "the JSON mirror must be distinct files")
    if not args.out:
        raise UsageError("--out must name a file, got an empty path")
    folder = os.path.dirname(args.out)
    if not os.path.isdir(folder or "."):
        raise UsageError(f"--out {args.out}: no directory {folder}")
    for path in outputs:
        if os.path.isdir(path):
            raise UsageError(f"--out {args.out}: {path} is a directory")


def main(argv=None) -> int:
    """Run one command on ``argv`` (default: ``sys.argv[1:]``) and return its exit code."""
    args = _build_parser().parse_args(argv)
    try:
        _check_outputs(args)
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

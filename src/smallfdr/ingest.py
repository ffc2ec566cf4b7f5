"""Loading, transforming, and testing feature-by-subject abundance tables.

The abundance table and the 'id,p' table are read by one rule: a leading
UTF-8 byte-order mark and all-blank rows are dropped, row labels are
stripped, and every value cell is parsed in one pass into a float64 grid.
Each file is opened and read once, by ``_read_bytes``; the parsers take its
bytes, which the command line hashes for its manifest.  For a table with a
bad line, the bytes already read are scanned again row by row, up to its
first bad line, which is named by the file's own count: blank rows and the
continuation lines of quoted cells count.  So a table from a pipe is named
as one from a file.  A fault in the header, the subject rules of the
abundance header among them, is named on the header's own line, which blank
rows above it push down.

The shift-log transform adds the 25th percentile of the pooled control
values (one scalar across all features and control subjects) and takes the
natural logarithm; equal-variance t-tests, one array pass over every
feature, then produce the p-values consumed by the rank-based estimators.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import student_t_sf
from .lfdr import PValueSet

GROUP_CASE = "case"
GROUP_CONTROL = "control"
GROUP_LABELS = (GROUP_CASE, GROUP_CONTROL)


class TableFormatError(ValueError):
    """Malformed input table; the message carries the offending location."""


@dataclass(frozen=True)
class Subject:
    id: str
    group: str


@dataclass(frozen=True)
class AbundanceMatrix:
    """Feature-by-subject value grid with case/control group labels."""

    features: tuple[str, ...]
    subjects: tuple[Subject, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (len(self.features), len(self.subjects)):
            raise ValueError(
                f"value grid has shape {values.shape}, expected "
                f"({len(self.features)}, {len(self.subjects)})"
            )
        if len(self.features) < 1:
            raise ValueError("at least one feature is required")
        _check_subjects(self.subjects)
        if not np.all(np.isfinite(values)):
            raise ValueError("abundance values must be finite")

    def columns(self, group: str) -> list[int]:
        return [j for j, s in enumerate(self.subjects) if s.group == group]


def _check_subjects(subjects, fail=lambda k, message: ValueError(message)) -> None:
    """The subject rules: every group is case or control, the ids are distinct and
    each group has at least two subjects.  The first broken rule raises
    ``fail(k, message)``, with k the index of the subject at fault, or None for
    a group's count."""
    seen = set()
    for k, subject in enumerate(subjects):
        if subject.group not in GROUP_LABELS:
            raise fail(k, f"subject {subject.id!r} has group {subject.group!r}; "
                          f"expected one of {GROUP_LABELS}")
        if subject.id in seen:
            raise fail(k, f"duplicate subject id {subject.id!r}")
        seen.add(subject.id)
    for group in GROUP_LABELS:
        count = sum(1 for s in subjects if s.group == group)
        if count < 2:
            raise fail(None, f"at least 2 {group} subjects are required, found {count}")


def shift_log_transform(matrix: AbundanceMatrix) -> AbundanceMatrix:
    """Add the pooled control 25th percentile to every cell, then take log.

    The percentile uses linear interpolation between order statistics at
    position 0.25 * (n - 1) + 1.  Every shifted value must be positive;
    offenders are reported cell by cell.
    """
    pooled = matrix.values[:, matrix.columns(GROUP_CONTROL)].ravel()
    q25 = float(np.percentile(pooled, 25.0))
    shifted = matrix.values + q25
    bad = np.argwhere(shifted <= 0.0)
    if bad.size:
        cells = ", ".join(
            f"({matrix.features[i]}, {matrix.subjects[j].id})" for i, j in bad[:10]
        )
        more = "" if len(bad) <= 10 else f" and {len(bad) - 10} more"
        raise ValueError(
            f"shift by q25={q25:g} leaves nonpositive values at {cells}{more}"
        )
    return AbundanceMatrix(matrix.features, matrix.subjects, np.log(shifted))


def _pooled_t(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Row-wise equal-variance t and df of (features x subjects) blocks.

    t is nan where the pooled variance is zero: where each group is constant,
    tested on the values because the computed variance of equal values can
    round to a tiny positive number, or where it computes as <= 0.
    """
    na, nb = a.shape[1], b.shape[1]
    df = na + nb - 2
    pooled_var = ((na - 1) * a.var(axis=1, ddof=1) + (nb - 1) * b.var(axis=1, ddof=1)) / df
    constant = (a == a[:, :1]).all(axis=1) & (b == b[:, :1]).all(axis=1)
    se = np.sqrt(pooled_var * (1.0 / na + 1.0 / nb))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (a.mean(axis=1) - b.mean(axis=1)) / se
    return np.where(constant | (pooled_var <= 0.0), np.nan, t), df


def pooled_t_statistic(a, b) -> tuple[float, int]:
    """Equal-variance two-sample t and df; ValueError if each group is constant."""
    a = np.asarray(a, dtype=float).reshape(1, -1)
    b = np.asarray(b, dtype=float).reshape(1, -1)
    if a.size < 2 or b.size < 2:
        raise ValueError("each group needs at least two observations")
    t, df = _pooled_t(a, b)
    if np.isnan(t[0]):
        raise ValueError("t statistic undefined: zero or non-finite pooled variance")
    return float(t[0]), df


def two_sample_t_pvalues(matrix: AbundanceMatrix) -> PValueSet:
    """Two-sided pooled-variance t-test p-value for every feature.

    Features with zero pooled variance (each group constant) carry no
    evidence either way and are recorded as p = 1, named in one warning.
    """
    # C-contiguous blocks: row sums over a column slice round differently.
    t, df = _pooled_t(
        np.ascontiguousarray(matrix.values[:, matrix.columns(GROUP_CASE)]),
        np.ascontiguousarray(matrix.values[:, matrix.columns(GROUP_CONTROL)]),
    )
    zero_variance = np.isnan(t)
    p = np.ones(t.size)
    p[~zero_variance] = 2.0 * student_t_sf(np.abs(t[~zero_variance]), df)
    degenerate = [matrix.features[i] for i in np.flatnonzero(zero_variance)]
    if degenerate:
        named = ", ".join(repr(f) for f in degenerate[:5])
        more = "" if len(degenerate) <= 5 else f" and {len(degenerate) - 5} more"
        warnings.warn(
            f"{len(degenerate)} feature(s) have zero pooled variance; recording p = 1 "
            f"for {named}{more}",
            stacklevel=2,
        )
    return PValueSet(matrix.features, p)


def _read_bytes(path) -> bytes:
    """A file's bytes, read by the one ``open`` of an input table."""
    with open(path, "rb") as handle:
        return handle.read()


def _numbered_rows(path, raw: bytes):
    """The line each row of the table ``raw``, read from ``path``, starts on, and
    its cells, for the rows with a nonblank cell; a row that the csv module
    refuses (a quoted cell over its field size limit) raises, naming its line.
    The bytes are decoded as the rows are read, so that a fault near the top
    of the table is named at once.  A missing last line end is supplied, as
    ``_read_table`` supplies it."""
    lines = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="")
    rows = csv.reader(itertools.chain(lines, () if raw.endswith(b"\n") else ["\n"]))
    line = 1
    try:
        for row in rows:
            if any(map(str.strip, row)):
                yield line, row
            line = rows.line_num + 1
    except csv.Error as err:
        raise TableFormatError(f"{path}, line {line}: {err}") from None


# every byte but the comma and the line feed, which bytes.translate deletes
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b",\n")


def _read_table(path, raw: bytes,
                expected: str) -> tuple[int, list[str], tuple[list[str], np.ndarray] | None]:
    """``(line, header, (labels, grid))`` for the csv table ``raw`` read from
    ``path``: the header's line and cells, decoded as UTF-8 less a leading
    byte-order mark, the row labels below them, stripped, and the value
    cells parsed by ``float`` into a C-contiguous float64 grid of one row
    per label.  ``(line, header, None)`` when the row-by-row scan of ``raw``
    must name a fault: rows differ in width, a value cell holds an
    underscore or a non-ASCII character or is not a number, or the csv
    module refuses a row.  A file with no rows, which should start with
    ``expected``, raises.  A plain file (no quote, NUL or lone carriage
    return, as many commas on every line as on the first, no blank label)
    is split at its commas and line ends without per-line work, as the csv
    module would; it holds no blank row, so its header is on line 1.  The
    comma rule is read from the separator bytes alone, which
    ``bytes.translate`` keeps in one pass: the first line's run of commas
    and its line end repeat to the end.  ``raw`` is not copied."""
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as err:
        raise TableFormatError(f"{path}: not UTF-8 text ({err})") from None
    ended = text.endswith("\n")
    # the commas and line ends in order, the last line ended as the csv module ends it
    seps = raw.translate(None, _NOT_SEPARATORS) + (b"" if ended else b"\n")
    width = seps.index(b"\n") + 1
    crlf, line, header = b"\r" in raw, 1, None
    if (
        b'"' not in raw and b"\0" not in raw
        and (not crlf or raw.count(b"\r") == raw.count(b"\r\n"))
        and seps == seps[:width] * (len(seps) // width)
    ):
        cells = (text.replace("\r\n", "\n") if crlf else text).replace("\n", ",").split(",")
        if ended:
            cells.pop()  # the empty cell after the last line end
        labels = list(map(str.strip, cells[width::width]))
        if cells[0].strip() and all(labels):
            header = cells[:width]
    if header is None:
        rows = _numbered_rows(path, raw)
        line, header = next(rows, (None, None))  # a refused first row raises here
        if header is None:
            raise TableFormatError(f"{path}: empty file; expected {expected}")
        cells, width = list(header), len(header)
        try:
            for _, row in rows:
                if len(row) != width:
                    return line, header, None
                cells += row
        except TableFormatError:  # a refused row, which the scan names
            return line, header, None
        labels = list(map(str.strip, cells[width::width]))
    del cells[:width], cells[::width]  # the header, then the labels
    joined = ",".join(cells) if b"_" in raw or not raw.isascii() else ""
    if "_" in joined or not joined.isascii():
        return line, header, None  # a cell that _number refuses
    try:
        grid = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        return line, header, None  # a cell that is not a number
    return line, header, (labels, grid.reshape(len(labels), width - 1))


def _number(cell: str) -> float:
    """``float(cell)``, refusing the digit-group underscores and the
    non-ASCII characters (such as Arabic-Indic digits) that float takes."""
    if "_" in cell or not cell.isascii():
        raise ValueError(f"not a plain ASCII number: {cell!r}")
    return float(cell)


def _first_bad_line(path, raw: bytes, label_name: str, cell_fault) -> TableFormatError | None:
    """The error naming the first bad line of the table ``raw`` read from
    ``path``, scanned row by row up to it: a wrong cell count, a repeated
    stripped label, or what ``cell_fault`` returns as the rest of the message.
    None when no row breaks a rule, which is never so for a table that
    ``_read_table`` could not parse or whose labels or values a loader's
    whole-table check refused."""
    rows = _numbered_rows(path, raw)
    width = len(next(rows)[1])
    seen: set[str] = set()
    for line, row in rows:
        label = row[0].strip()
        if len(row) != width:
            fault = f": expected {width} cells, got {len(row)}"
        elif label in seen:
            fault = f": duplicate {label_name} {label!r}"
        else:
            fault = cell_fault(row)
        if fault is not None:
            return TableFormatError(f"{path}, line {line}{fault}")
        seen.add(label)
    return None


def _abundance_fault(row: list[str]) -> str | None:
    for j, cell in enumerate(row[1:], start=2):
        try:
            value = _number(cell)
        except ValueError:
            return f", column {j}: non-numeric value {cell!r}"
        if not math.isfinite(value):
            return f", column {j}: non-finite value {cell!r}"
    return None


def load_abundance_csv(path) -> AbundanceMatrix:
    """Parse a 'feature,<subject_id>:<group>,...' abundance table."""
    return _abundance(path, _read_bytes(path))


def _abundance(path, raw: bytes) -> AbundanceMatrix:
    """The abundance table ``raw`` read from ``path``."""
    line, header, table = _read_table(path, raw, "a header line")
    at = f"{path}, line {line}"
    if header[0].strip() != "feature":
        raise TableFormatError(f"{at}: first header column must be 'feature', got {header[0]!r}")
    subjects = []
    for j, cell in enumerate(header[1:], start=2):
        sid, sep, group = cell.strip().partition(":")
        if not sep or not sid:
            raise TableFormatError(
                f"{at}, column {j}: expected '<subject_id>:<case|control>', got {cell!r}"
            )
        subjects.append(Subject(sid, group))
    _check_subjects(subjects, lambda k, message: TableFormatError(
        at + ("" if k is None else f", column {k + 2}") + f": {message}"
    ))
    if table is not None and not table[0]:
        raise TableFormatError(f"{path}: header only; no feature rows found")
    if table is not None and len(set(table[0])) == len(table[0]) and np.isfinite(table[1]).all():
        return AbundanceMatrix(tuple(table[0]), tuple(subjects), table[1])
    # a bad cell, an inf or nan or a repeated label, which the row-by-row scan names
    raise _first_bad_line(path, raw, "feature label", _abundance_fault)


def _pvalue_fault(row: list[str]) -> str | None:
    try:
        p = _number(row[1])
    except ValueError:
        return f": non-numeric p-value {row[1]!r}"
    return None if 0.0 <= p <= 1.0 else f": p-value {p} outside [0, 1]"


def load_pvalues_csv(path) -> PValueSet:
    """Parse an 'id,p' table into a p-value set."""
    return _pvalues(path, _read_bytes(path))


def _pvalues(path, raw: bytes) -> PValueSet:
    """The 'id,p' table ``raw`` read from ``path``, as a p-value set."""
    line, header, table = _read_table(path, raw, "an 'id,p' header")
    if [cell.strip() for cell in header] != ["id", "p"]:
        raise TableFormatError(f"{path}, line {line}: expected header 'id,p', got {header!r}")
    if table is not None and not table[0]:
        raise TableFormatError(f"{path}: header only; no p-value rows found")
    if table is not None:
        try:
            return PValueSet(table[0], table[1][:, 0])
        except ValueError:
            pass  # a p-value outside [0, 1] or a repeated id, named row by row below
    raise _first_bad_line(path, raw, "id", _pvalue_fault)

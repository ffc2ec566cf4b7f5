"""Loading, transforming, and testing feature-by-subject abundance tables.

The abundance table and the 'id,p' table are read by one rule: a leading
UTF-8 byte-order mark and all-blank rows are dropped, row labels are
stripped, and the table is built a column at a time.  A file with a bad line
is read again row by row to name its first bad line, counting non-blank rows.

The shift-log transform adds the 25th percentile of the pooled control
values (one scalar across all features and control subjects) and takes the
natural logarithm; equal-variance t-tests, one array pass over every
feature, then produce the p-values consumed by the rank-based estimators.
"""

from __future__ import annotations

import csv
import io
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
        seen = set()
        for subject in self.subjects:
            if subject.group not in GROUP_LABELS:
                raise ValueError(
                    f"subject {subject.id!r} has group {subject.group!r}; "
                    f"expected one of {GROUP_LABELS}"
                )
            if subject.id in seen:
                raise ValueError(f"duplicate subject id {subject.id!r}")
            seen.add(subject.id)
        for group in GROUP_LABELS:
            count = sum(1 for s in self.subjects if s.group == group)
            if count < 2:
                raise ValueError(f"at least 2 {group} subjects are required, found {count}")
        if not np.all(np.isfinite(values)):
            raise ValueError("abundance values must be finite")

    def columns(self, group: str) -> list[int]:
        return [j for j, s in enumerate(self.subjects) if s.group == group]


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


def two_sample_t_pvalues(matrix: AbundanceMatrix, tie_break_seed: int = 0) -> PValueSet:
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
    p = np.where(zero_variance, 1.0, 2.0 * student_t_sf(np.abs(t), df))
    degenerate = [matrix.features[i] for i in np.flatnonzero(zero_variance)]
    if degenerate:
        named = ", ".join(repr(f) for f in degenerate[:5])
        more = "" if len(degenerate) <= 5 else f" and {len(degenerate) - 5} more"
        warnings.warn(
            f"{len(degenerate)} feature(s) have zero pooled variance; recording p = 1 "
            f"for {named}{more}",
            stacklevel=2,
        )
    return PValueSet(matrix.features, p, tie_break_seed)


def _read_text(path) -> tuple[bytes, str]:
    """A file's bytes and its UTF-8 text, less a leading byte-order mark."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        return raw, raw.decode("utf-8-sig")
    except UnicodeDecodeError as err:
        raise TableFormatError(f"{path}: not UTF-8 text ({err})") from None


def _csv_rows(text: str) -> list[list[str]]:
    """The csv rows of ``text``, leaving out rows whose cells are all blank."""
    rows = csv.reader(io.StringIO(text, newline=""))
    return [row for row in rows if any(cell.strip() for cell in row)]


def _read_table(path, expected: str) -> tuple[list[str], list[list[str]] | None]:
    """The header cells of a csv table and the columns below them, the first
    column (the row labels) stripped; the columns are None when rows differ in
    width, and a file with no rows, which should start with ``expected``,
    raises.  A plain file (no quote, NUL or lone carriage return, as many
    commas on every line as on the first, no blank label) is split at its
    commas and line ends without per-line work, as the csv module would."""
    raw, text = _read_text(path)
    if not text.endswith("\n"):  # end the last line, as the csv module does
        raw, text = raw + b"\n", text + "\n"
    codes = np.frombuffer(raw, dtype=np.uint8)
    seps = codes[(codes == ord(",")) | (codes == ord("\n"))]
    width = int(np.argmax(seps == ord("\n"))) + 1
    crlf, header = b"\r" in raw, None
    if (
        b'"' not in raw and b"\0" not in raw
        and (not crlf or raw.count(b"\r") == raw.count(b"\r\n"))
        and seps.size % width == 0 and (seps.reshape(-1, width) == seps[:width]).all()
    ):
        cells = (text.replace("\r\n", "\n") if crlf else text).replace("\n", ",").split(",")
        cells.pop()  # the empty cell after the last line end
        labels = list(map(str.strip, cells[width::width]))
        if cells[0].strip() and all(labels):
            header = cells[:width]
    if header is None:
        rows = _csv_rows(text)
        if not rows:
            raise TableFormatError(f"{path}: empty file; expected {expected}")
        header, width = rows[0], len(rows[0])
        if any(len(row) != width for row in rows):
            return header, None
        cells = [cell for row in rows for cell in row]
        labels = list(map(str.strip, cells[width::width]))
    return header, [labels] + [cells[width + j :: width] for j in range(1, width)]


def _first_bad_line(path, label_name: str, cell_fault) -> TableFormatError:
    """The error naming the first bad line of ``path``, read again row by row:
    a wrong cell count, a repeated stripped label, or what ``cell_fault``
    returns as the rest of the message."""
    rows = _csv_rows(_read_text(path)[1])
    seen: set[str] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        label = row[0].strip()
        if len(row) != len(rows[0]):
            fault = f": expected {len(rows[0])} cells, got {len(row)}"
        elif label in seen:
            fault = f": duplicate {label_name} {label!r}"
        else:
            fault = cell_fault(row)
        if fault is not None:
            return TableFormatError(f"{path}, line {lineno}{fault}")
        seen.add(label)
    return TableFormatError(f"{path}: the file changed while it was read")


def _abundance_fault(row: list[str]) -> str | None:
    for j, cell in enumerate(row[1:], start=2):
        try:
            value = float(cell)
        except ValueError:
            return f", column {j}: non-numeric value {cell!r}"
        if not math.isfinite(value):
            return f", column {j}: non-finite value {cell!r}"
    return None


def load_abundance_csv(path) -> AbundanceMatrix:
    """Parse a 'feature,<subject_id>:<group>,...' abundance table."""
    header, columns = _read_table(path, "a header line")
    if header[0].strip() != "feature":
        raise TableFormatError(
            f"{path}, line 1: first header column must be 'feature', got {header[0]!r}"
        )
    if len(header) < 2:
        raise TableFormatError(f"{path}, line 1: no subject columns found")
    subjects = []
    for j, cell in enumerate(header[1:], start=2):
        sid, sep, group = cell.strip().partition(":")
        if not sep or not sid or group not in GROUP_LABELS:
            raise TableFormatError(
                f"{path}, line 1, column {j}: expected '<subject_id>:<case|control>', "
                f"got {cell!r}"
            )
        if any(subject.id == sid for subject in subjects):
            raise TableFormatError(f"{path}, line 1, column {j}: duplicate subject id {sid!r}")
        subjects.append(Subject(sid, group))
    if columns is not None and not columns[0]:
        raise TableFormatError(f"{path}: header only; no feature rows found")
    if columns is not None and len(set(columns[0])) == len(columns[0]):
        try:
            # C-contiguous, as two_sample_t_pvalues expects of the value grid
            values = np.column_stack([np.fromiter(map(float, c), float) for c in columns[1:]])
        except ValueError:
            pass  # a non-numeric cell, whose line the row-by-row read names
        else:
            if np.isfinite(values).all():  # else the read names the inf or nan cell
                return AbundanceMatrix(tuple(columns[0]), tuple(subjects), values)
    raise _first_bad_line(path, "feature label", _abundance_fault)


def _pvalue_fault(row: list[str]) -> str | None:
    try:
        p = float(row[1])
    except ValueError:
        return f": non-numeric p-value {row[1]!r}"
    return None if 0.0 <= p <= 1.0 else f": p-value {p} outside [0, 1]"


def load_pvalues_csv(path, tie_break_seed: int = 0) -> PValueSet:
    """Parse an 'id,p' table into a tie-broken p-value set."""
    header, columns = _read_table(path, "an 'id,p' header")
    if [cell.strip() for cell in header] != ["id", "p"]:
        raise TableFormatError(f"{path}, line 1: expected header 'id,p', got {header!r}")
    if columns is not None and not columns[0]:
        raise TableFormatError(f"{path}: header only; no p-value rows found")
    if columns is not None:
        try:
            p = np.fromiter(map(float, columns[1]), float, len(columns[1]))
            return PValueSet(columns[0], p, tie_break_seed)
        except ValueError:
            pass  # a bad cell or a repeated id, whose line the row-by-row read names
    raise _first_bad_line(path, "id", _pvalue_fault)

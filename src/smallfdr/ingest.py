"""Loading, transforming, and testing feature-by-subject abundance tables.

The shift-log transform adds the 25th percentile of the pooled control
values (one scalar across all features and control subjects) and takes the
natural logarithm; equal-variance t-tests, one array pass over every
feature, then produce the p-values consumed by the rank-based estimators.
"""

from __future__ import annotations

import csv
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
        for subject in self.subjects:
            if subject.group not in GROUP_LABELS:
                raise ValueError(
                    f"subject {subject.id!r} has group {subject.group!r}; "
                    f"expected one of {GROUP_LABELS}"
                )
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


def _read_rows(path) -> list[list[str]]:
    """The csv rows of a file, leaving out rows whose cells are all blank.

    A leading UTF-8 byte-order mark, as spreadsheet exports write, is dropped.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        rows = [row for row in csv.reader(handle)]
    return [row for row in rows if row and any(cell.strip() for cell in row)]


def load_abundance_csv(path) -> AbundanceMatrix:
    """Parse a 'feature,<subject_id>:<group>,...' abundance table."""
    rows = _read_rows(path)
    if not rows:
        raise TableFormatError(f"{path}: empty file; expected a header line")
    header = rows[0]
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
        subjects.append(Subject(sid, group))
    if len(rows) == 1:
        raise TableFormatError(f"{path}: header only; no feature rows found")
    features: list[str] = []
    seen: set[str] = set()
    grid: list[list[float]] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise TableFormatError(
                f"{path}, line {lineno}: expected {len(header)} cells, got {len(row)}"
            )
        feature = row[0].strip()
        if feature in seen:
            raise TableFormatError(
                f"{path}, line {lineno}: duplicate feature label {feature!r}"
            )
        seen.add(feature)
        try:
            values = list(map(float, row[1:]))
        except ValueError:
            # rescan the row one cell at a time only to name the bad cell
            for j, cell in enumerate(row[1:], start=2):
                try:
                    float(cell)
                except ValueError:
                    raise TableFormatError(
                        f"{path}, line {lineno}, column {j}: non-numeric value {cell!r}"
                    ) from None
        features.append(feature)
        grid.append(values)
    return AbundanceMatrix(tuple(features), tuple(subjects), np.asarray(grid))


def _two_column_cells(path) -> list[str] | None:
    """The cells of a file whose every line is 'a,b', in file order, or None.

    With no quote, NUL or lone carriage return, which the csv module treats
    specially, such a file splits at its commas and line ends exactly as the
    csv module splits it, without per-line work.  Any other file gives None.
    A leading UTF-8 byte-order mark is dropped, as ``_read_rows`` drops it.
    """
    with open(path, "rb") as handle:
        raw = handle.read().replace(b"\r\n", b"\n")
    if not raw.endswith(b"\n"):
        raw += b"\n"
    if b'"' in raw or b"\r" in raw or b"\0" in raw:
        return None
    codes = np.frombuffer(raw, dtype=np.uint8)
    seps = codes[(codes == ord(",")) | (codes == ord("\n"))]
    del codes
    if seps.size % 2 or (seps[0::2] != ord(",")).any() or (seps[1::2] != ord("\n")).any():
        return None
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError:
        return None
    del raw
    cells = text.replace("\n", ",").split(",")
    cells.pop()  # the empty cell after the last line end
    return cells


def _pvalue_rows(path) -> tuple[list[str], list[float]]:
    """Ids and p-values of an 'id,p' table, checked row by row.

    Raises at the first bad row in file order; row numbers count non-blank
    rows.
    """
    rows = _read_rows(path)
    if not rows:
        raise TableFormatError(f"{path}: empty file; expected an 'id,p' header")
    header = [cell.strip() for cell in rows[0]]
    if header != ["id", "p"]:
        raise TableFormatError(f"{path}, line 1: expected header 'id,p', got {rows[0]!r}")
    if len(rows) == 1:
        raise TableFormatError(f"{path}: header only; no p-value rows found")
    ids: list[str] = []
    ps: list[float] = []
    seen: set[str] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise TableFormatError(
                f"{path}, line {lineno}: expected 2 cells, got {len(row)}"
            )
        label = row[0].strip()
        if label in seen:
            raise TableFormatError(f"{path}, line {lineno}: duplicate id {label!r}")
        seen.add(label)
        try:
            p = float(row[1])
        except ValueError:
            raise TableFormatError(
                f"{path}, line {lineno}: non-numeric p-value {row[1]!r}"
            ) from None
        if not 0.0 <= p <= 1.0:
            raise TableFormatError(
                f"{path}, line {lineno}: p-value {p} outside [0, 1]"
            )
        ids.append(label)
        ps.append(p)
    return ids, ps


def load_pvalues_csv(path, tie_break_seed: int = 0) -> PValueSet:
    """Parse an 'id,p' table into a tie-broken p-value set.

    The cells are checked a column at a time: the header, ids all distinct,
    and every p-value numeric and in [0, 1].  A file that fails a check, or
    whose cells need the csv module (quotes, blank lines), is read again row
    by row, which names the first bad line in file order.
    """
    cells = _two_column_cells(path)
    if cells is not None and len(cells) > 2 and [c.strip() for c in cells[:2]] == ["id", "p"]:
        ids = list(map(str.strip, cells[2::2]))
        try:
            p = np.fromiter(map(float, cells[3::2]), dtype=float, count=len(ids))
        except ValueError:
            p = None
        if p is not None and ((p >= 0.0) & (p <= 1.0)).all():
            try:
                return PValueSet(ids, p, tie_break_seed)
            except ValueError:
                pass  # a repeated id, whose line the row-by-row read names
    ids, ps = _pvalue_rows(path)
    return PValueSet(ids, ps, tie_break_seed)

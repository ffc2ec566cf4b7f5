"""Loading, transforming, and testing feature-by-subject abundance tables.

The shift-log transform adds the 25th percentile of the pooled control
values (one scalar across all features and control subjects) and takes the
natural logarithm; per-feature equal-variance t-tests then produce the
p-values consumed by the rank-based estimators.
"""

from __future__ import annotations

import csv
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


def pooled_t_statistic(a, b) -> tuple[float, int]:
    """Equal-variance two-sample t statistic and its degrees of freedom."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("each group needs at least two observations")
    df = a.size + b.size - 2
    pooled_var = ((a.size - 1) * a.var(ddof=1) + (b.size - 1) * b.var(ddof=1)) / df
    if pooled_var <= 0.0:
        raise ValueError("pooled variance is zero; t statistic undefined")
    se = math.sqrt(pooled_var * (1.0 / a.size + 1.0 / b.size))
    return float((a.mean() - b.mean()) / se), int(df)


def two_sample_t_pvalues(matrix: AbundanceMatrix, tie_break_seed: int = 0) -> PValueSet:
    """Two-sided pooled-variance t-test p-value for every feature.

    Features with zero pooled variance carry no evidence either way and are
    recorded as p = 1 with a warning.
    """
    case_cols = matrix.columns(GROUP_CASE)
    control_cols = matrix.columns(GROUP_CONTROL)
    pairs = []
    for i, feature in enumerate(matrix.features):
        a = matrix.values[i, case_cols]
        b = matrix.values[i, control_cols]
        try:
            t, df = pooled_t_statistic(a, b)
        except ValueError:
            warnings.warn(
                f"feature {feature!r} has zero pooled variance; recording p = 1",
                stacklevel=2,
            )
            pairs.append((feature, 1.0))
            continue
        pairs.append((feature, 2.0 * student_t_sf(abs(t), df)))
    return PValueSet.from_pairs(pairs, tie_break_seed=tie_break_seed)


def load_abundance_csv(path) -> AbundanceMatrix:
    """Parse a 'feature,<subject_id>:<group>,...' abundance table."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle)]
    rows = [row for row in rows if row and any(cell.strip() for cell in row)]
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
        values = []
        for j, cell in enumerate(row[1:], start=2):
            try:
                values.append(float(cell))
            except ValueError:
                raise TableFormatError(
                    f"{path}, line {lineno}, column {j}: non-numeric value {cell!r}"
                ) from None
        features.append(feature)
        grid.append(values)
    return AbundanceMatrix(tuple(features), tuple(subjects), np.asarray(grid))


def load_pvalues_csv(path, tie_break_seed: int = 0) -> PValueSet:
    """Parse an 'id,p' table into a tie-broken p-value set."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle)]
    rows = [row for row in rows if row and any(cell.strip() for cell in row)]
    if not rows:
        raise TableFormatError(f"{path}: empty file; expected an 'id,p' header")
    header = [cell.strip() for cell in rows[0]]
    if header != ["id", "p"]:
        raise TableFormatError(f"{path}, line 1: expected header 'id,p', got {rows[0]!r}")
    if len(rows) == 1:
        raise TableFormatError(f"{path}: header only; no p-value rows found")
    pairs = []
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
        pairs.append((label, p))
    return PValueSet.from_pairs(pairs, tie_break_seed=tie_break_seed)

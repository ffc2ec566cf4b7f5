import contextlib
import csv
import hashlib
import itertools
import json
import math
import os
import re
import threading
import types
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from smallfdr import (
    AbundanceMatrix,
    PValueSet,
    Subject,
    TableFormatError,
    load_abundance_csv,
    load_pvalues_csv,
    pooled_t_statistic,
    shift_log_transform,
    two_sample_t_pvalues,
)
from smallfdr import ingest
from smallfdr.cli import main

from oracles import abundance_rows, pvalue_rows

FIXTURE = Path(__file__).parent / "data" / "abundance_20protein.csv"
ABUNDANCE_HEADER = "feature,a:case,b:case,c:control,d:control"


@pytest.fixture
def reads(monkeypatch):
    """Counts of the file opens and csv.reader calls made inside the loaders."""
    counts = {"files": 0, "csv": 0}

    def counting_open(*args, **kwargs):
        counts["files"] += 1
        return open(*args, **kwargs)

    def counting_reader(*args, **kwargs):
        counts["csv"] += 1
        return csv.reader(*args, **kwargs)

    monkeypatch.setattr(ingest, "open", counting_open, raising=False)
    # a row generator closed early still evaluates its ``except csv.Error``
    monkeypatch.setattr(
        ingest, "csv", types.SimpleNamespace(reader=counting_reader, Error=csv.Error)
    )
    return counts


@contextlib.contextmanager
def piped(data: bytes):
    """The path ``/dev/fd/N`` of a pipe's read end, fed ``data`` by a thread, so
    that a table larger than the pipe's buffer does not block the writer."""
    read_end, write_end = os.pipe()

    def feed():
        try:
            with open(write_end, "wb") as sink:
                sink.write(data)
        except BrokenPipeError:
            pass  # the read end was closed before the table was read

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield f"/dev/fd/{read_end}", read_end
    finally:
        os.close(read_end)
        writer.join(timeout=30)
    assert not writer.is_alive()


def tiny_matrix(values, groups=("case", "case", "control", "control")):
    subjects = tuple(Subject(f"s{i}", g) for i, g in enumerate(groups))
    features = tuple(f"f{i}" for i in range(len(values)))
    return AbundanceMatrix(features, subjects, np.asarray(values, dtype=float))


class TestAbundanceMatrix:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            AbundanceMatrix(("f1",), (Subject("a", "case"),), np.zeros((2, 1)))

    def test_requires_a_feature(self):
        with pytest.raises(ValueError, match="^at least one feature is required$"):
            tiny_matrix(np.empty((0, 4)))

    def test_requires_two_per_group(self):
        with pytest.raises(ValueError):
            tiny_matrix([[1.0, 2.0, 3.0]], groups=("case", "case", "control"))

    def test_unknown_group(self):
        with pytest.raises(ValueError):
            tiny_matrix([[1.0, 2.0, 3.0, 4.0]], groups=("case", "case", "ctrl", "control"))

    @pytest.mark.parametrize("groups", [("case", "case", "control", "control"),
                                        ("case", "control", "case", "control")])
    def test_repeated_subject_id(self, groups):
        # two columns of one subject would make two_sample_t_pvalues count it twice
        subjects = tuple(Subject(sid, g) for sid, g in zip("aacc", groups))
        with pytest.raises(ValueError, match="duplicate subject id 'a'"):
            AbundanceMatrix(("f", "g"), subjects, [[1, 2, 3, 4], [1, 5, 3, 4]])

    @pytest.mark.parametrize(
        "groups, message",
        [
            (("case", "case", "ctrl", "control"),
             "subject 's2' has group 'ctrl'; expected one of ('case', 'control')"),
            (("case", "control", "control"), "at least 2 case subjects are required, found 1"),
            (("case", "case", "control"), "at least 2 control subjects are required, found 1"),
        ],
        ids=["unknown-group", "one-case", "one-control"],
    )
    def test_subject_rule_messages(self, groups, message):
        # the loader names the same faults on the header's line; built in code,
        # the message carries no location
        with pytest.raises(ValueError) as err:
            tiny_matrix([[1.0] * len(groups)], groups=groups)
        assert type(err.value) is ValueError
        assert str(err.value) == message

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_value(self, value):
        with pytest.raises(ValueError, match="abundance values must be finite"):
            tiny_matrix([[1.0, value, 3.0, 4.0]])


class TestShiftLog:
    def test_constant_matrix(self):
        m = tiny_matrix([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]])
        out = shift_log_transform(m)
        assert np.allclose(out.values, math.log(2.0))

    def test_quantile_rule(self):
        # pooled control values (1, 2, 3, 4): interpolated 25th percentile 1.75
        m = tiny_matrix([[10.0, 10.0, 1.0, 2.0], [10.0, 10.0, 3.0, 4.0]])
        out = shift_log_transform(m)
        assert out.values[0, 2] == pytest.approx(math.log(1.0 + 1.75))

    def test_monotone_per_cell(self):
        rng = np.random.default_rng(1)
        m = tiny_matrix(rng.uniform(0.5, 3.0, (5, 4)))
        out = shift_log_transform(m)
        flat_in = m.values.ravel()
        flat_out = out.values.ravel()
        order_in = np.argsort(flat_in)
        assert np.array_equal(order_in, np.argsort(flat_out))

    def test_nonpositive_shift_reports_cells(self):
        m = tiny_matrix([[-9.0, 1.0, 1.0, 1.0]])
        with pytest.raises(ValueError, match=r"\(f0, s0\)"):
            shift_log_transform(m)

    def test_rescaling_shifts_by_log_constant(self):
        # scaling raw values scales q25 too, so transformed values shift by
        # log(c) and the t statistics are unchanged
        rng = np.random.default_rng(2)
        m = tiny_matrix(rng.uniform(1.0, 4.0, (6, 4)))
        scaled = tiny_matrix(3.0 * m.values)
        t_base = two_sample_t_pvalues(shift_log_transform(m))
        t_scaled = two_sample_t_pvalues(shift_log_transform(scaled))
        assert np.allclose(
            shift_log_transform(scaled).values,
            shift_log_transform(m).values + math.log(3.0),
        )
        assert np.allclose(t_base.p_values, t_scaled.p_values, atol=1e-12)


class TestTTest:
    def test_hand_computed_statistic(self):
        t, df = pooled_t_statistic([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
        assert t == pytest.approx(-1.224744871391589, abs=1e-9)
        assert df == 4

    def test_pvalue_against_mpmath_oracle(self):
        mpmath.mp.dps = 30
        t, df = pooled_t_statistic([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
        m = tiny_matrix(
            [[1.0, 2.0, 3.0, 2.0, 3.0, 4.0]],
            groups=("case", "case", "case", "control", "control", "control"),
        )
        p = two_sample_t_pvalues(m).p_values[0]
        density = lambda u: mpmath.gamma((df + 1) / 2) / (
            mpmath.sqrt(df * mpmath.pi) * mpmath.gamma(df / 2)
        ) * (1 + u**2 / df) ** (-(df + 1) / 2)
        exact = float(2 * mpmath.quad(density, [abs(t), mpmath.inf]))
        assert p == pytest.approx(exact, abs=1e-6)

    def test_identical_groups_give_p_one(self):
        m = tiny_matrix(
            [[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]],
            groups=("case", "case", "case", "control", "control", "control"),
        )
        assert two_sample_t_pvalues(m).p_values[0] == pytest.approx(1.0)

    def test_swap_groups_leaves_p_unchanged(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(0.0, 1.0, (4, 6))
        m = tiny_matrix(vals, groups=("case",) * 3 + ("control",) * 3)
        swapped = tiny_matrix(
            vals[:, [3, 4, 5, 0, 1, 2]], groups=("case",) * 3 + ("control",) * 3
        )
        assert np.allclose(
            two_sample_t_pvalues(m).p_values, two_sample_t_pvalues(swapped).p_values
        )

    def test_zero_variance_warns_and_records_one(self):
        m = tiny_matrix([[2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ps = two_sample_t_pvalues(m)
        assert ps.p_values[0] == 1.0
        assert any("zero pooled variance" in str(w.message) for w in caught)

    def test_duplicate_features_rejected(self):
        subjects = tuple(Subject(f"s{i}", g) for i, g in
                         enumerate(("case", "case", "control", "control")))
        values = np.random.default_rng(6).normal(0.0, 1.0, (3, 4))
        m = AbundanceMatrix(("f0", "f1", "f0"), subjects, values)
        with pytest.raises(ValueError, match="duplicate id 'f0'"):
            two_sample_t_pvalues(m)

    def test_constant_groups_are_zero_variance(self):
        # six copies of 0.1 have a computed variance of about 2e-34, so groups
        # constant at 0.1 and 0.6 would give an enormous |t| and p ~ 1e-165;
        # every constant feature is recorded as p = 1 and named in one warning
        groups = ("case",) * 6 + ("control",) * 6
        rows = [[0.1] * 12, [0.1] * 6 + [0.6] * 6, [1.0, 2.0, 3.0] * 4]
        rows += [[7.0] * 12] * 5
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ps = two_sample_t_pvalues(tiny_matrix(rows, groups=groups))
        assert ps.p_values[:2] == (1.0, 1.0)
        assert ps.p_values[2] == 1.0  # equal group means, nonzero variance
        assert ps.p_values[3:] == (1.0,) * 5
        messages = [str(w.message) for w in caught]
        messages = [m for m in messages if "zero pooled variance" in m]
        assert len(messages) == 1
        assert messages[0].startswith("7 feature(s) have zero pooled variance")
        assert "'f0', 'f1', 'f3', 'f4', 'f5' and 2 more" in messages[0]

    def test_statistic_rejects_constant_groups(self):
        # six copies of 0.1 have a computed variance of about 2e-34, which
        # must not pass for a nonzero pooled variance
        with pytest.raises(ValueError):
            pooled_t_statistic([0.1] * 6, [0.6] * 6)
        with pytest.raises(ValueError):
            pooled_t_statistic([2.0, 2.0], [2.0, 2.0, 2.0])

    def test_statistic_needs_two_per_group(self):
        with pytest.raises(ValueError, match="^each group needs at least two observations$"):
            pooled_t_statistic([1.0], [2.0, 3.0])

    @pytest.mark.parametrize("n_case,n_control", [(3, 5), (8, 9)])
    def test_matches_scipy_ttest_ind(self, n_case, n_control):
        rng = np.random.default_rng(n_case * 10 + n_control)
        vals = rng.normal(0.0, 1.0, (50, n_case + n_control))
        vals[:10, :n_case] += 1.5
        vals[[3, 20]] = 0.1
        vals[[7, 40], :n_case] = 0.1
        vals[[7, 40], n_case:] = 0.6
        # interleave the groups so that neither block is a contiguous column range
        cols = rng.permutation(n_case + n_control)
        groups = np.asarray(["case"] * n_case + ["control"] * n_control)[cols]
        m = tiny_matrix(vals[:, cols], groups=tuple(groups))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ps = np.asarray(two_sample_t_pvalues(m).p_values)
        constant = [3, 7, 20, 40]
        assert np.all(ps[constant] == 1.0)
        rest = np.setdiff1d(np.arange(50), constant)
        expected = stats.ttest_ind(
            vals[rest, :n_case], vals[rest, n_case:], axis=1, equal_var=True
        ).pvalue
        np.testing.assert_allclose(ps[rest], expected, rtol=1e-10, atol=0.0)

    def test_null_matrix_pvalues_roughly_uniform(self):
        rng = np.random.default_rng(4)
        vals = rng.normal(5.0, 1.0, (1000, 8))
        m = tiny_matrix(vals, groups=("case",) * 4 + ("control",) * 4)
        ps = np.asarray(two_sample_t_pvalues(m).p_values)
        assert stats.kstest(ps, "uniform").statistic < 0.05


class TestLoaders:
    def test_fixture_loads_and_pipeline_runs(self):
        m = load_abundance_csv(FIXTURE)
        assert len(m.features) == 20
        ps = two_sample_t_pvalues(shift_log_transform(m))
        assert ps.n == 20
        assert all(0.0 <= p <= 1.0 for p in ps.p_values)

    def test_abundance_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "feature,a:case,b:case,c:control,d:control\nf1,1,2,3,4\nf2,5,6,7,8\n"
        )
        m = load_abundance_csv(path)
        assert m.features == ("f1", "f2")
        assert [s.group for s in m.subjects] == ["case", "case", "control", "control"]
        assert np.array_equal(m.values, [[1, 2, 3, 4], [5, 6, 7, 8]])

    def test_abundance_byte_order_mark(self, tmp_path, capsys):
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + FIXTURE.read_bytes())
        got, want = load_abundance_csv(marked), load_abundance_csv(FIXTURE)
        assert (got.features, got.subjects) == (want.features, want.subjects)
        assert np.array_equal(got.values, want.values)
        outputs = []
        for path in (FIXTURE, marked):
            assert main(["ttest", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_abundance_errors(self, tmp_path):
        bad_header = tmp_path / "h.csv"
        bad_header.write_text("name,a:case\nf,1\n")
        with pytest.raises(TableFormatError, match="line 1"):
            load_abundance_csv(bad_header)

        bad_group = tmp_path / "g.csv"
        bad_group.write_text("feature,a:case,b:case,c:ctl,d:control\nf,1,2,3,4\n")
        with pytest.raises(TableFormatError, match="column 4"):
            load_abundance_csv(bad_group)

        bad_cell = tmp_path / "c.csv"
        bad_cell.write_text(
            "feature,a:case,b:case,c:control,d:control\nf,1,2,x,4\n"
        )
        with pytest.raises(TableFormatError, match="line 2, column 4"):
            load_abundance_csv(bad_cell)

        header_only = tmp_path / "e.csv"
        header_only.write_text("feature,a:case,b:case,c:control,d:control\n")
        with pytest.raises(TableFormatError, match="no feature rows"):
            load_abundance_csv(header_only)

    @pytest.mark.parametrize(
        "header, column",
        [("feature,a:case,a:case,c:control,d:control", 3),
         ("feature,a:case,b:case,c:control,a:control", 5)],
    )
    def test_abundance_repeated_subject_id(self, tmp_path, header, column):
        path = tmp_path / "m.csv"
        path.write_text(f"{header}\nf,1,2,3,4\ng,1,5,3,4\n")
        with pytest.raises(TableFormatError) as err:
            load_abundance_csv(path)
        assert str(err.value) == f"{path}, line 1, column {column}: duplicate subject id 'a'"

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_abundance_non_finite_cell(self, tmp_path, reads, cell):
        path = tmp_path / "m.csv"
        path.write_text(f"{ABUNDANCE_HEADER}\nf,1,2,3,4\ng,1,{cell},3,4\n")
        with pytest.raises(TableFormatError) as err:
            load_abundance_csv(path)
        assert str(err.value) == f"{path}, line 3, column 3: non-finite value {cell!r}"
        assert reads["files"] == 1

    # Four faults, each with the rest of its message; a duplicate needs the
    # label "f" that the first data line holds.
    ABUNDANCE_FAULTS = {
        "cell-count": ("d,1,2,3", ": expected 5 cells, got 4"),
        "duplicate": ("f,5,6,7,8", ": duplicate feature label 'f'"),
        "non-numeric": ("g,1,x,3,4", ", column 3: non-numeric value 'x'"),
        "non-finite": ("h,1,2,inf,4", ", column 4: non-finite value 'inf'"),
    }

    @pytest.mark.parametrize("faults", list(itertools.permutations(ABUNDANCE_FAULTS)))
    def test_abundance_first_bad_line_wins(self, tmp_path, reads, faults):
        lines = [ABUNDANCE_HEADER, "f,1,2,3,4"]
        for i, fault in enumerate(faults):
            lines += [f"ok{i},1,2,3,{i + 5}", self.ABUNDANCE_FAULTS[fault][0]]
        path = tmp_path / "m.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TableFormatError) as err:
            load_abundance_csv(path)
        # the first fault sits on line 4: header, "f,1,2,3,4", one good line
        assert str(err.value) == f"{path}, line 4{self.ABUNDANCE_FAULTS[faults[0]][1]}"
        assert reads["files"] == 1

    def test_pvalues_round_trip(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,p\na,0.1\nb,0.9\n")
        ps = load_pvalues_csv(path)
        assert ps.ids == ("a", "b")
        assert ps.p_values == (0.1, 0.9)

    def test_pvalues_errors(self, tmp_path):
        out_of_range = tmp_path / "r.csv"
        out_of_range.write_text("id,p\na,1.5\n")
        with pytest.raises(TableFormatError, match="line 2"):
            load_pvalues_csv(out_of_range)

        header_only = tmp_path / "h.csv"
        header_only.write_text("id,p\n")
        with pytest.raises(TableFormatError, match="no p-value rows"):
            load_pvalues_csv(header_only)

        bad_header = tmp_path / "b.csv"
        bad_header.write_text("name,pval\na,0.2\n")
        with pytest.raises(TableFormatError, match="line 1"):
            load_pvalues_csv(bad_header)

    # Four faults, each with its message; a duplicate needs the id "a" that
    # the first data line holds.
    FAULTS = {
        "duplicate": ("a,0.4", "duplicate id 'a'"),
        "non-numeric": ("b,abc", "non-numeric p-value 'abc'"),
        "out-of-range": ("c,1.5", "p-value 1.5 outside [0, 1]"),
        "three-cells": ("d,0.1,x", "expected 2 cells, got 3"),
    }

    @pytest.mark.parametrize("faults", list(itertools.permutations(FAULTS))[::5])
    def test_pvalues_first_bad_line_wins(self, tmp_path, reads, faults):
        lines = ["id,p", "a,0.1"]
        for i, fault in enumerate(faults):
            lines += [f"ok{i},0.{i + 2}", self.FAULTS[fault][0]]
        path = tmp_path / "p.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TableFormatError) as err:
            load_pvalues_csv(path)
        # the first fault sits on line 4: header, "a,0.1", one good line
        assert str(err.value) == f"{path}, line 4: {self.FAULTS[faults[0]][1]}"
        assert reads["files"] == 1

    # Each loader's header, a good row, a row with a bad cell and its fault,
    # and a repeat of the good row's label and its fault.
    LOADERS = {
        "pvalues": (load_pvalues_csv, "id,p", "a,0.1", "b,zz", ": non-numeric p-value 'zz'",
                    "a,0.3", ": duplicate id 'a'"),
        "abundance": (load_abundance_csv, ABUNDANCE_HEADER, "a,1,2,3,4", "b,1,zz,3,4",
                      ", column 3: non-numeric value 'zz'",
                      "a,5,6,7,8", ": duplicate feature label 'a'"),
    }

    @pytest.mark.parametrize("loader", list(LOADERS))
    @pytest.mark.parametrize(
        "lines, line, fault",
        [
            (["{header}", "", "{good}", "{bad}"], 4, "bad"),
            (["{header}", "{good}", '"c', 'd"{rest}', "{bad}"], 5, "bad"),
            (["{header}", "{good}", "", "{other}", "{duplicate}"], 5, "duplicate"),
        ],
        ids=["blank-row", "quoted-two-lines", "duplicate-after-blank"],
    )
    def test_names_the_files_own_line(self, tmp_path, reads, loader, lines, line, fault):
        # blank rows and the continuation line of a quoted cell are lines of the file
        load, header, good, bad, bad_fault, duplicate, duplicate_fault = self.LOADERS[loader]
        fields = {
            "header": header, "good": good, "bad": bad, "duplicate": duplicate,
            "rest": good[1:], "other": "o" + good[1:],
        }
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines).format(**fields) + "\n")
        with pytest.raises(TableFormatError) as err:
            load(path)
        message = bad_fault if fault == "bad" else duplicate_fault
        assert str(err.value) == f"{path}, line {line}{message}"
        assert reads["files"] == 1

    @pytest.mark.parametrize(
        "load, text, fault",
        [
            (load_pvalues_csv, "id,p\n1,0.1,0.2\n0.3\n", ": expected 2 cells, got 3"),
            (load_pvalues_csv, "id,p\r\n1,0.1,0.2\r\n0.3", ": expected 2 cells, got 3"),
            (load_abundance_csv, f"{ABUNDANCE_HEADER}\n1,1,2,3,4,5\n6,7,8,9\n",
             ": expected 5 cells, got 6"),
            (load_abundance_csv, f"{ABUNDANCE_HEADER}\nf,1,2,3\n4,5,6,7,8,9\n",
             ": expected 5 cells, got 4"),
        ],
        ids=["pvalues", "pvalues-crlf-unended", "abundance-long-first", "abundance-short-first"],
    )
    def test_ragged_lines_that_balance_name_the_first(self, tmp_path, reads, load, text, fault):
        # the comma counts of lines 2 and 3 sum to two lines' worth, so a check
        # of the total count alone would split the file into two numeric rows
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(TableFormatError) as err:
            load(path)
        assert str(err.value) == f"{path}, line 2{fault}"
        assert reads["files"] == 1

    @pytest.mark.parametrize(
        "load, text, line, fault",
        [
            (load_pvalues_csv, "name,pval\na,0.1\n", 1,
             ": expected header 'id,p', got ['name', 'pval']"),
            (load_pvalues_csv, "\n\nname,pval\na,0.1\n", 3,
             ": expected header 'id,p', got ['name', 'pval']"),
            (load_pvalues_csv, '\n"na\nme",pval\na,0.1\n', 2,
             ": expected header 'id,p', got ['na\\nme', 'pval']"),
            (load_abundance_csv, "\n\nname,a:case,b:case,c:control,d:control\nf,1,2,3,4\n", 3,
             ": first header column must be 'feature', got 'name'"),
            (load_abundance_csv, '\n"feat\nure",a:case,b:case,c:control,d:control\nf,1,2,3,4\n',
             2, ": first header column must be 'feature', got 'feat\\nure'"),
            (load_abundance_csv, "\nfeature,a:case,b:case,c,d:control\nf,1,2,3,4\n", 2,
             ", column 4: expected '<subject_id>:<case|control>', got 'c'"),
            (load_abundance_csv, "\nfeature,a:case,b:case,c:ctl,d:control\nf,1,2,3,4\n", 2,
             ", column 4: subject 'c' has group 'ctl'; expected one of ('case', 'control')"),
            (load_abundance_csv, "\n\nfeature,a:case,b:case,c:control,a:control\nf,1,2,3,4\n",
             3, ", column 5: duplicate subject id 'a'"),
            (load_abundance_csv, "\n\n\nfeature,a:case,c:control,d:control\nf,1,2,3\n", 4,
             ": at least 2 case subjects are required, found 1"),
            (load_abundance_csv, "feature,a:case,c:control,d:control\nf,1,2,3\n", 1,
             ": at least 2 case subjects are required, found 1"),
            (load_abundance_csv, "feature,a:case,c:control,d:control\nf,1,2,3\ng,1,x,3\n", 1,
             ": at least 2 case subjects are required, found 1"),
            (load_abundance_csv, "feature\nf\n", 1,
             ": at least 2 case subjects are required, found 0"),
        ],
        ids=[
            "pvalues-split", "pvalues-after-blank-lines", "pvalues-quoted-two-lines",
            "abundance-after-blank-lines", "abundance-quoted-two-lines",
            "abundance-subject-column", "abundance-unknown-group", "abundance-repeated-subject",
            "abundance-group-size-after-blank-lines", "abundance-group-size",
            "abundance-group-size-above-bad-row", "abundance-no-subject-columns",
        ],
    )
    def test_header_fault_names_the_headers_line(self, tmp_path, capsys, reads, load, text,
                                                  line, fault):
        # blank lines above the header push it down; a header that spans lines
        # is named by its first; a group too small for the t-test is a header
        # fault, named before any row; the line is found in the bytes already read
        path = tmp_path / "t.csv"
        path.write_text(text)
        expected = f"{path}, line {line}{fault}"
        with pytest.raises(TableFormatError) as err:
            load(path)
        assert str(err.value) == expected
        assert reads["files"] == 1
        assert main(["lfdr" if load is load_pvalues_csv else "ttest", str(path)]) == 3
        assert capsys.readouterr().err == f"smallfdr: data error: {expected}\n"

    @pytest.mark.parametrize(
        "load, text",
        [(load_pvalues_csv, "\n\nid,p\na,0.1\n"),
         (load_abundance_csv, f"\n{ABUNDANCE_HEADER}\nf,1,2,3,4\n")],
        ids=["pvalues", "abundance"],
    )
    def test_header_after_blank_lines_loads(self, tmp_path, reads, load, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        plain = tmp_path / "plain.csv"
        plain.write_text(text.lstrip("\n"))
        got = load(path)
        assert reads == {"files": 1, "csv": 1}
        want = load(plain)
        if load is load_pvalues_csv:
            assert got == want
        else:
            assert (got.features, got.subjects) == (want.features, want.subjects)
            assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("loader", list(LOADERS))
    @pytest.mark.parametrize(
        "lines, line, refused",
        [
            (["{huge}{rest}", "{good}"], 1, True),
            (["{header}", "{good}", "", "{huge}{rest}", "{bad}"], 4, True),
            (["{header}", "{bad}", "{huge}{rest}"], 2, False),
        ],
        ids=["header", "after-blank", "after-bad-line"],
    )
    def test_refused_row_names_its_line(self, tmp_path, capsys, loader, lines, line, refused):
        # a quoted cell over the csv module's field size limit; a bad line
        # above it is named first, as the read stops there
        load, header, good, bad, bad_fault = self.LOADERS[loader][:5]
        huge = '"' + "x" * (csv.field_size_limit() + 1) + '"'
        fields = {"header": header, "good": good, "bad": bad, "huge": huge, "rest": good[1:]}
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines).format(**fields) + "\n")
        message = f": field larger than field limit ({csv.field_size_limit()})"
        expected = f"{path}, line {line}{message if refused else bad_fault}"
        with pytest.raises(TableFormatError) as err:
            load(path)
        assert str(err.value) == expected
        command = "lfdr" if load is load_pvalues_csv else "ttest"
        assert main([command, str(path)]) == 3
        assert capsys.readouterr().err == f"smallfdr: data error: {expected}\n"

    @pytest.mark.parametrize(
        "load, good, bad, fault",
        [
            (load_pvalues_csv, "id,p\nid_1,0.1\n", "b,0.0_5", ": non-numeric p-value '0.0_5'"),
            (load_abundance_csv, "feature,s_1:case,b:case,c:control,d:control\nf_1,1,2,3,4\n",
             "g,1_0.5,2,3,4", ", column 2: non-numeric value '1_0.5'"),
            (load_pvalues_csv, "id,p\n\u00e9,0.1\n", "b,\u0660.\u0665",
             ": non-numeric p-value '\u0660.\u0665'"),
            (load_abundance_csv, "feature,s\u00e9:case,b:case,c:control,d:control\nf\u00e9,1,2,3,4\n",
             "g,1,\u0662,3,4", ", column 3: non-numeric value '\u0662'"),
        ],
        ids=["pvalues", "abundance", "pvalues-non-ascii", "abundance-non-ascii"],
    )
    def test_digit_group_underscore_is_a_bad_cell(self, tmp_path, reads, load, good, bad, fault):
        # float reads 0.0_5 as 0.05, and the Arabic-Indic digits of \u0660.\u0665 as
        # 0.5; ids, feature labels and subject ids may hold an underscore or a
        # non-ASCII character; each file is opened once, the one with a bad cell too
        path = tmp_path / "t.csv"
        path.write_text(good, encoding="utf-8")
        load(path)
        assert reads["files"] == 1
        path.write_text(good + bad + "\n", encoding="utf-8")
        with pytest.raises(TableFormatError) as err:
            load(path)
        assert str(err.value) == f"{path}, line 3{fault}"
        assert reads["files"] == 2

    @pytest.mark.parametrize(
        "text, split_without_csv",
        [("id,p\na,0.1\nb,0.9\n", True), ('id,p\n"x,y",0.1\nb,0.9\n', False)],
        ids=["split", "csv"],
    )
    def test_pvalues_byte_order_mark(self, tmp_path, capsys, reads, text, split_without_csv):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        got = load_pvalues_csv(marked)
        assert reads == {"files": 1, "csv": 0 if split_without_csv else 1}
        assert got == load_pvalues_csv(plain)
        outputs = []
        for path in (plain, marked):
            assert main(["lfdr", str(path), "--estimator", "corrected"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "text, split_without_csv",
        [
            ("id,p\na,0.1\nb,0.9", True),
            ("id,p\r\na,0.1\r\nb,0.9\r\n", True),
            ("id,p\ra,0.1\rb,0.9\r", False),
            ('id,p\n"x,y",0.1\n"q""uote",0.2\n', False),
            ('id,p\n"a b",0.1\n"c",0.2\n', False),
            ("id,p\n\na,0.1\n   \n , \nb,0.9\n\n", False),
            (" id , p \n a ,0.1 \nb, 1e-300\nc,0\nd,1\ne,-0.0\nf,10e-1\n", True),
            ("id,p\n\u00e9t\u00e9,0.5\n\u4e2d,0.25\n", True),
        ],
        ids=[
            "no-final-newline", "crlf", "cr", "quoted", "quoted-no-comma", "blank-rows",
            "spaces", "non-ascii",
        ],
    )
    def test_pvalues_columns_match_row_reader(self, tmp_path, reads, text, split_without_csv):
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode("utf-8"))
        got = load_pvalues_csv(path)
        assert reads == {"files": 1, "csv": 0 if split_without_csv else 1}
        ids, ps = pvalue_rows(path)
        expected = PValueSet(ids, ps)
        assert got == expected
        assert (got.ids, got.p_values, got.ranks) == (
            expected.ids, expected.p_values, expected.ranks
        )

    @pytest.mark.parametrize(
        "text, split_without_csv",
        [
            (f"{ABUNDANCE_HEADER}\nf1,1,2,3,4\nf2,5,6,7,8", True),
            (f"{ABUNDANCE_HEADER}\r\nf1,1,2,3,4\r\nf2,5,6,7,8\r\n", True),
            (f"{ABUNDANCE_HEADER}\rf1,1,2,3,4\rf2,5,6,7,8\r", False),
            (f'{ABUNDANCE_HEADER}\n"x,y",1,2,3,4\n"q""uote",5,"6",7,8\n', False),
            (f'{ABUNDANCE_HEADER}\n"a b",1,2,3,4\n"c",5,6,7,8\n', False),
            (f"{ABUNDANCE_HEADER}\n\nf1,1,2,3,4\n   \n , , , , \nf2,5,6,7,8\n\n", False),
            (
                " feature , a:case , b:case ,c:control, d:control \n"
                " f1 ,1 , 2,1e-300,4\nf2, 5,-0.0,7,10e-1\n",
                True,
            ),
            (
                "feature,\u00e9:case,b:case,\u4e2d:control,d:control\n"
                "\u00e9t\u00e9,1,2,3,4\n\u4e2d,5,6,7,8\n",
                True,
            ),
            (f"\ufeff{ABUNDANCE_HEADER}\nf1,1,2,3,4\nf2,5,6,7,8\n", True),
        ],
        ids=[
            "no-final-newline", "crlf", "cr", "quoted", "quoted-no-comma", "blank-rows",
            "spaces", "non-ascii", "byte-order-mark",
        ],
    )
    def test_abundance_columns_match_row_reader(self, tmp_path, reads, text, split_without_csv):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        got = load_abundance_csv(path)
        assert reads == {"files": 1, "csv": 0 if split_without_csv else 1}
        features, subjects, values = abundance_rows(path)
        assert got.features == tuple(features)
        assert [(s.id, s.group) for s in got.subjects] == subjects
        assert got.values.tolist() == values
        assert got.values.flags.c_contiguous

    @pytest.mark.parametrize(
        "command, load, text",
        [
            ("lfdr", load_pvalues_csv, b"id,p\na,0.1\n\xffb,0.2\n"),
            ("ttest", load_abundance_csv, f"{ABUNDANCE_HEADER}\nf\xff,1,2,3,4\n".encode("cp1252")),
        ],
        ids=["pvalues", "abundance"],
    )
    def test_not_utf8_names_the_file(self, tmp_path, capsys, command, load, text):
        path = tmp_path / "bad.csv"
        path.write_bytes(text)
        with pytest.raises(TableFormatError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            load(path)
        assert main([command, str(path)]) == 3
        assert f"smallfdr: data error: {path}: not UTF-8 text" in capsys.readouterr().err



class TestPipedTables:
    """A table from a pipe, as ``smallfdr lfdr <(...)`` gives it, is read once,
    so each fault is named as it is for the same bytes in a regular file."""

    HUGE = '"' + "x" * (csv.field_size_limit() + 1) + '"'
    # each command's tables: a good one, then bad ones with the line they name
    TABLES = {
        "lfdr": {
            "good": ("id,p\na,0.1\nb,0.5\n", None),
            "bad-row": ("id,p\na,0.1\n\nb,zz\n", 4),
            "bad-header": ("\nname,pval\na,0.1\n", 2),
            "field-limit": (f"id,p\na,0.1\n{HUGE},0.2\n", 3),
        },
        "ttest": {
            "good": (f"{ABUNDANCE_HEADER}\nf,1,2,3,4\ng,2,1,5,3\n", None),
            "bad-row": (f"{ABUNDANCE_HEADER}\nf,1,2,3,4\n\ng,1,zz,3,4\n", 4),
            "bad-header": ("\nfeature,a:case,b:case,c,d:control\nf,1,2,3,4\n", 2),
            "field-limit": (f"{ABUNDANCE_HEADER}\nf,1,2,3,4\n{HUGE},1,2,3,4\n", 3),
        },
    }

    @pytest.mark.parametrize("case", ["good", "bad-row", "bad-header", "field-limit"])
    @pytest.mark.parametrize("command", list(TABLES))
    def test_same_result_as_from_a_file(self, tmp_path, capsys, command, case):
        text, line = self.TABLES[command][case]
        path = tmp_path / "t.csv"
        path.write_text(text)
        file_code = main([command, str(path)])
        from_file = capsys.readouterr()
        with piped(text.encode()) as (name, _):
            code = main([command, name])
        from_pipe = capsys.readouterr()
        assert code == file_code == (0 if line is None else 3)
        assert from_pipe.out == from_file.out
        assert from_pipe.err == from_file.err.replace(str(path), name)
        if line is not None:
            assert from_pipe.err.startswith(f"smallfdr: data error: {name}, line {line}")

    @pytest.mark.parametrize("command", ["lfdr", "bh", "ttest"])
    def test_out_takes_a_piped_input(self, tmp_path, capsys, command):
        # the manifest's digest is of the bytes the command read, so a pipe,
        # which gives them once, is written and recorded as a file would be
        text = self.TABLES["ttest" if command == "ttest" else "lfdr"]["good"][0].encode()
        options = {"lfdr": ["--json"], "bh": ["--q", "0.05"], "ttest": []}[command]
        tables = ["csv", "json"] if command == "lfdr" else ["csv"]
        src = tmp_path / "t.csv"
        src.write_bytes(text)
        assert main([command, str(src), "--out", str(tmp_path / "f.csv")] + options) == 0
        from_file = capsys.readouterr()
        with piped(text) as (name, _):
            code = main([command, name, "--out", str(tmp_path / "p.csv")] + options)
        assert code == 0
        assert capsys.readouterr() == from_file
        for ext in tables:
            assert (tmp_path / f"p.{ext}").read_bytes() == (tmp_path / f"f.{ext}").read_bytes()
        manifest = json.loads((tmp_path / "p.csv.manifest.json").read_text())
        assert manifest["inputs"] == {name: f"sha256:{hashlib.sha256(text).hexdigest()}"}
        written = [tmp_path / f"p.{ext}" for ext in tables]
        assert manifest["outputs"] == {
            str(path): f"sha256:{hashlib.sha256(path.read_bytes()).hexdigest()}" for path in written
        }

    def test_out_keeps_a_regular_file_under_another_name(self, tmp_path):
        # /dev/stdin redirected from a file is such a name; the manifest
        # records the digest of the bytes read from it
        text = self.TABLES["lfdr"]["good"][0].encode()
        src, out = tmp_path / "p.csv", tmp_path / "r.csv"
        src.write_bytes(text)
        handle = os.open(src, os.O_RDONLY)
        try:
            assert main(["lfdr", f"/dev/fd/{handle}", "--out", str(out)]) == 0
        finally:
            os.close(handle)
        manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
        digest = f"sha256:{hashlib.sha256(text).hexdigest()}"
        assert manifest["inputs"] == {f"/dev/fd/{handle}": digest}


@st.composite
def scanned_tables(draw):
    """A small 'id,p' or abundance table, plain or quoted, with blank rows,
    labels that span two lines and the faults of ``TestLoaders``, and the
    loader's label name and cell rule."""
    if draw(st.booleans()):
        load, label_name, cell_fault = load_pvalues_csv, "id", ingest._pvalue_fault
        header, faults = "id,p", TestLoaders.FAULTS
        value = st.floats(0.0, 1.0).map(repr)
        width, blank = 2, st.sampled_from(["", "  ", " , "])
    else:
        load, label_name, cell_fault = load_abundance_csv, "feature label", ingest._abundance_fault
        header, faults = ABUNDANCE_HEADER, TestLoaders.ABUNDANCE_FAULTS
        value = st.floats(-1e3, 1e3).map(repr)
        width, blank = 5, st.sampled_from(["", "  ", " , , , , "])
    # distinct labels, so that a repeat comes from the duplicate fault
    labels = draw(st.lists(st.sampled_from(["a", "f", " b ", "c", "e_1", "\u00e9", "g\nh"]),
                           min_size=1, max_size=6, unique=True))
    kinds = [None, *faults] if draw(st.booleans()) else [None]
    rows = []
    for label in labels:
        fault = draw(st.sampled_from(kinds))
        cells = (faults[fault][0].split(",") if fault is not None
                 else [label] + [draw(value) for _ in range(width - 1)])
        rows.append(cells)
    quoted = draw(st.booleans())
    lines = [draw(blank)] * draw(st.integers(0, 2)) + [header]
    for cells in rows:
        if draw(st.booleans()):
            lines.append(draw(blank))
        # a line break in a cell needs quotes
        cells = [f'"{cell}"' if "\n" in cell or quoted and draw(st.booleans()) else cell
                 for cell in cells]
        lines.append(",".join(cells))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return text, load, label_name, cell_fault


class TestScanAgreesWithLoaders:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(table=scanned_tables())
    def test_loads_exactly_when_the_scan_finds_no_fault(self, tmp_path_factory, table):
        # a refused table is named by the scan's first fault, so the scan never
        # reaches its end for a table that its loader refuses
        text, load, label_name, cell_fault = table
        path = tmp_path_factory.mktemp("scan") / "t.csv"
        path.write_text(text, encoding="utf-8", newline="")
        raw = ingest._read_bytes(path)
        fault = ingest._first_bad_line(path, raw, label_name, cell_fault)
        try:
            load(path)
        except TableFormatError as err:
            assert fault is not None
            assert str(err) == str(fault)
        else:
            assert fault is None

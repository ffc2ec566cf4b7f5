import csv
import itertools
import math
import re
import types
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
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
    """Counts of the file reads and csv.reader calls made inside the loaders."""
    counts = {"files": 0, "csv": 0}
    read_text = ingest._read_text

    def counting_read_text(path):
        counts["files"] += 1
        return read_text(path)

    def counting_reader(*args, **kwargs):
        counts["csv"] += 1
        return csv.reader(*args, **kwargs)

    monkeypatch.setattr(ingest, "_read_text", counting_read_text)
    monkeypatch.setattr(ingest, "csv", types.SimpleNamespace(reader=counting_reader))
    return counts


def tiny_matrix(values, groups=("case", "case", "control", "control")):
    subjects = tuple(Subject(f"s{i}", g) for i, g in enumerate(groups))
    features = tuple(f"f{i}" for i in range(len(values)))
    return AbundanceMatrix(features, subjects, np.asarray(values, dtype=float))


class TestAbundanceMatrix:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            AbundanceMatrix(("f1",), (Subject("a", "case"),), np.zeros((2, 1)))

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
        assert reads["files"] == 2

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
        assert reads["files"] == 2

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
        got = load_pvalues_csv(marked, tie_break_seed=3)
        assert reads == {"files": 1, "csv": 0 if split_without_csv else 1}
        assert got == load_pvalues_csv(plain, 3)
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
            (" id , p \n a ,0.1 \nb, 1e-300\nc,0\nd,1\ne,-0.0\nf,1_0e-1\n", True),
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
        got = load_pvalues_csv(path, tie_break_seed=3)
        assert reads == {"files": 1, "csv": 0 if split_without_csv else 1}
        ids, ps = pvalue_rows(path)
        expected = PValueSet(ids, ps, 3)
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
                " f1 ,1 , 2,1e-300,4\nf2, 5,-0.0,7,1_0e-1\n",
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

import argparse
import csv
import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import smallfdr
from smallfdr.cli import _emit_table, main
from smallfdr.lfdr import _tail_weight
from smallfdr.simulate import SimulationConfig, exact_small_n_coverage

from oracles import coverage_fraction, csv_table_rows, nfdr_scalar, table_text

FIXTURE = Path(__file__).parent / "data" / "abundance_20protein.csv"


def write_pvalues(path, pairs):
    lines = ["id,p"] + [f"{label},{p}" for label, p in pairs]
    path.write_text("\n".join(lines) + "\n")


def run(argv, capsys):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestLfdrCommand:
    def test_hand_trace(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        write_pvalues(src, [("a", 0.01), ("b", 0.04), ("c", 0.2), ("d", 0.5)])
        code, out, _ = run(["lfdr", src, "--estimator", "mle"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "id,p,rank,raw_lfdr,monotone_lfdr"
        assert lines[1] == "a,0.01,1,0.08,0.08"
        assert lines[2] == "b,0.04,2,0.5,0.5"
        assert lines[3] == "c,0.2,3,1,1"
        assert lines[4] == "d,0.5,4,1,1"

    def test_single_row(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        write_pvalues(src, [("only", 0.02)])
        code, out, _ = run(["lfdr", src, "--estimator", "corrected"], capsys)
        assert code == 0
        assert out.strip().splitlines()[1] == "only,0.02,1,1,1"

    def test_no_monotone_flag_is_usage_error(self, tmp_path, capsys):
        # the monotone_lfdr column always holds the monotone estimates
        src = tmp_path / "p.csv"
        write_pvalues(src, [("a", 0.01), ("b", 0.04)])
        with pytest.raises(SystemExit) as exc:
            main(["lfdr", str(src), "--no-monotone"])
        assert exc.value.code == 2
        assert "--no-monotone" in capsys.readouterr().err

    @pytest.mark.parametrize("estimator", ["mle", "corrected", "mean"])
    def test_negative_zero_p_prints_as_zero(self, estimator, tmp_path, capsys):
        # rank 1 doubles to rank 2, so its estimate scales the p-value -0 as well
        tables = []
        for zero in ("-0", "0"):
            src = tmp_path / f"p{zero}.csv"
            write_pvalues(src, [("a", zero), ("b", zero), ("c", 0.5), ("d", 0.7)])
            code, out, _ = run(["lfdr", src, "--estimator", estimator], capsys)
            assert code == 0
            tables.append(out)
        assert tables[0] == tables[1]
        assert "-0" not in tables[0]

    def test_deterministic_bytes(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        write_pvalues(src, [(f"h{i}", p) for i, p in enumerate(
            [0.01, 0.02, 0.04, 0.2, 0.33, 0.5, 0.51, 0.8]
        )])
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            code, _, _ = run(
                ["lfdr", src, "--estimator", "mean", "--seed", "7", "--out", out],
                capsys,
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_manifest_and_json_mirror(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        write_pvalues(src, [("a", 0.01), ("b", 0.4)])
        out = tmp_path / "res.csv"
        code, _, _ = run(["lfdr", src, "--out", out, "--json"], capsys)
        assert code == 0
        manifest = json.loads((tmp_path / "res.csv.manifest.json").read_text())
        assert manifest["command"] == "lfdr"
        assert manifest["parameters"]["estimator"] == "corrected"
        assert str(src) in manifest["inputs"]
        assert manifest["inputs"][str(src)].startswith("sha256:")
        mirror = json.loads((tmp_path / "res.json").read_text())
        assert mirror[0]["id"] == "a"

    @pytest.mark.parametrize(
        "argv", [["lfdr", "--estimator", "mle"], ["bh", "--q", "0.9"]], ids=["lfdr", "bh"]
    )
    def test_json_mirror_writes_an_empty_id_as_a_string(self, tmp_path, capsys, argv):
        src, out = tmp_path / "p.csv", tmp_path / "res.csv"
        src.write_text("id,p\n,0.5\nb,0.2\n")
        code, _, _ = run(argv[:1] + [src] + argv[1:] + ["--out", out, "--json"], capsys)
        assert code == 0
        mirror = json.loads((tmp_path / "res.json").read_text())
        assert [record["id"] for record in mirror] == ["b", ""]
        assert [row[0] for row in csv_table_rows(out)[1:]] == ["b", ""]

    def test_manifest_keeps_the_digest_of_the_bytes_parsed(self, tmp_path, monkeypatch):
        # the input is replaced after it was read; the manifest names the bytes
        # the table was computed from, not what the path holds afterwards
        src, out = tmp_path / "p.csv", tmp_path / "res.csv"
        write_pvalues(src, [("a", 0.01), ("b", 0.4)])
        parsed = src.read_bytes()
        estimate = smallfdr.cli.lfdr_estimates

        def replace_input_then_estimate(*args, **kwargs):
            write_pvalues(src, [("z", 0.9)])
            return estimate(*args, **kwargs)

        monkeypatch.setattr(smallfdr.cli, "lfdr_estimates", replace_input_then_estimate)
        assert main(["lfdr", str(src), "--out", str(out)]) == 0
        assert src.read_bytes() != parsed
        manifest = json.loads((tmp_path / "res.csv.manifest.json").read_text())
        assert manifest["inputs"] == {str(src): f"sha256:{hashlib.sha256(parsed).hexdigest()}"}

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        src.write_text("id,p\na,2.5\n")
        code, _, err = run(["lfdr", src], capsys)
        assert code == 3
        assert "line 2" in err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code, _, err = run(["lfdr", tmp_path / "nope.csv"], capsys)
        assert code == 3

    def test_empty_file_exit_code(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        src.write_bytes(b"")
        code, out, err = run(["lfdr", src], capsys)
        assert (code, out) == (3, "")
        assert err == f"smallfdr: data error: {src}: empty file; expected an 'id,p' header\n"

    def test_no_mc_draws_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        write_pvalues(src, [("a", 0.01), ("b", 0.4)])
        code, out, err = run(["lfdr", src, "--mc-draws", "0"], capsys)
        assert (code, out) == (2, "")
        assert err == "smallfdr: error: --mc-draws must be at least 1, got 0\n"

    def test_digit_group_underscore_exit_code(self, tmp_path, capsys):
        # float would read 0.0_5 as 0.05
        src = tmp_path / "p.csv"
        src.write_text("id,p\na,0.0_5\nb,0.5\n")
        code, out, err = run(["lfdr", src, "--estimator", "mle"], capsys)
        assert code == 3
        assert out == ""
        assert f"{src}, line 2: non-numeric p-value '0.0_5'" in err

    def test_non_ascii_digit_exit_code(self, tmp_path, capsys):
        # float would read the Arabic-Indic digits of \u0660.\u0665 as 0.5
        src = tmp_path / "p.csv"
        src.write_text("id,p\na,\u0660.\u0665\nb,0.5\n", encoding="utf-8")
        code, out, err = run(["lfdr", src, "--estimator", "mle"], capsys)
        assert code == 3
        assert out == ""
        assert f"{src}, line 2: non-numeric p-value '\u0660.\u0665'" in err


class TestBhCommand:
    def test_two_rejections(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        write_pvalues(src, [("a", 0.01), ("b", 0.02), ("c", 0.5)])
        code, out, _ = run(["bh", src, "--q", "0.05"], capsys)
        assert code == 0
        assert "rejections: 2" in out
        assert "rejected_ids: a,b" in out
        assert "mle_lfdr_at_median_rank: 0.03" in out

    def test_empty_rejection_set(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        write_pvalues(src, [("a", 0.99), ("b", 0.99), ("c", 0.99)])
        code, out, _ = run(["bh", src, "--q", "0.05"], capsys)
        assert code == 0
        assert "rejections: 0" in out
        assert "mle_lfdr_at_median_rank: not applicable" in out

    def test_boundary_rejection(self, tmp_path, capsys):
        # p_(1) exactly q / N with N = 2; halving is float-exact
        src = tmp_path / "p.csv"
        write_pvalues(src, [("a", 0.025), ("b", 0.9)])
        code, out, _ = run(["bh", src, "--q", "0.05"], capsys)
        assert code == 0
        assert "rejections: 1" in out
        assert "rejected_ids: a" in out

    def test_out_table(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        write_pvalues(src, [("a", 0.01), ("b", 0.02), ("c", 0.5)])
        out = tmp_path / "rej.csv"
        code, _, _ = run(["bh", src, "--q", "0.05", "--out", out], capsys)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "id,p,rank,rejected"
        assert lines[1].startswith("a,") and lines[1].endswith(",1")
        assert lines[3].endswith(",0")

    def test_out_table_reads_back_with_line_breaks_in_ids(self, tmp_path, capsys):
        # a lone CR in a cell must be quoted, or a reader splits the row there
        ids = ["a\rb", "c\nd", "e\r\nf", 'g,"h"']
        src = tmp_path / "p.csv"
        with open(src, "w", newline="", encoding="utf-8") as handle:
            rows = [[label, 0.01 * (k + 1)] for k, label in enumerate(ids)]
            csv.writer(handle).writerows([["id", "p"]] + rows)
        out = tmp_path / "rej.csv"
        code, _, _ = run(["bh", src, "--q", "0.05", "--out", out], capsys)
        assert code == 0
        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["id", "p", "rank", "rejected"]
        assert [row[0] for row in rows[1:]] == ids
        assert all(len(row) == 4 for row in rows)

    def test_report_ids_with_commas_quotes_and_line_breaks_read_back(self, tmp_path, capsys):
        # such an id is printed as a JSON string, so each key keeps one line
        ids = ["a,b", "c\nrejections: 99", 'e"f', "g\rh", "i\u2028j", "k"]
        src = tmp_path / "p.csv"
        with open(src, "w", newline="", encoding="utf-8") as handle:
            rows = [[label, 0.001 * (k + 1)] for k, label in enumerate(ids)]
            csv.writer(handle).writerows([["id", "p"]] + rows + [["z", 0.9]])
        code, out, _ = run(["bh", src, "--q", "0.05"], capsys)
        assert code == 0
        report = [line.split(": ", 1) for line in out.splitlines()]
        assert [key for key, _ in report] == [
            "controlled_level_q", "rejections", "threshold_rank", "threshold_p",
            "rejected_ids", "median_rejected_rank", "median_rejected_id",
            "median_rejected_p", "mle_lfdr_at_median_rank",
        ]
        report = dict(report)

        def read_ids(text):
            cells = re.findall(r'"(?:[^"\\]|\\.)*"|[^,]+', text)
            return [json.loads(cell) if cell.startswith('"') else cell for cell in cells]

        assert report["rejections"] == "6"
        assert read_ids(report["rejected_ids"]) == ids
        assert read_ids(report["median_rejected_id"]) == ['e"f']

    def test_duplicate_ids_exit_code(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        write_pvalues(src, [("a", 0.001), ("a", 0.9), ("b", 0.5)])
        out = tmp_path / "rej.csv"
        code, _, err = run(["bh", src, "--q", "0.05", "--out", out], capsys)
        assert code == 3
        assert "line 3" in err and "duplicate id 'a'" in err
        assert not out.exists()

    def test_negative_zero_threshold_prints_as_zero(self, tmp_path, capsys):
        reports = []
        for zero in ("-0.0", "0"):
            src = tmp_path / f"p{zero}.csv"
            write_pvalues(src, [("a", zero), ("b", 0.9), ("c", 0.95)])
            code, out, _ = run(["bh", src, "--q", "0.05"], capsys)
            assert code == 0
            reports.append(out)
        assert reports[0] == reports[1]
        assert "threshold_p: 0\n" in reports[0] and "-0" not in reports[0]

    def test_bad_q(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        write_pvalues(src, [("a", 0.5)])
        code, _, err = run(["bh", src, "--q", "1.5"], capsys)
        assert code == 2

    @pytest.mark.parametrize("q", ["0.05", "0.2", "0.5"])
    def test_median_estimate_is_the_mle_raw_lfdr_at_that_rank(self, tmp_path, capsys, q):
        # the control rule read as an LFDR estimate: the line bh prints is the
        # raw plug-in value lfdr --estimator mle writes at the median rank
        rng = np.random.default_rng(17)
        src = tmp_path / "p.csv"
        values = np.concatenate([rng.random(40) * 1e-3, rng.random(60)])
        write_pvalues(src, [(f"h{i}", repr(float(p))) for i, p in enumerate(values)])
        code, out, _ = run(["bh", src, "--q", q], capsys)
        assert code == 0
        report = dict(line.split(": ", 1) for line in out.splitlines())
        rank = int(report["median_rejected_rank"])
        code, table, _ = run(["lfdr", src, "--estimator", "mle"], capsys)
        assert code == 0
        row = dict(zip(["id", "p", "rank", "raw_lfdr", "monotone_lfdr"],
                       table.splitlines()[rank].split(",")))
        assert row["rank"] == str(rank) and row["id"] == report["median_rejected_id"]
        assert report["mle_lfdr_at_median_rank"] == row["raw_lfdr"]


class TestTiedPValues:
    """b, c and d tie: each gets the count rank 4 and one estimate, for every --seed."""

    TIED = [("a", 0.001), ("b", 0.01), ("c", 0.01), ("d", 0.01),
            ("e", 0.5), ("f", 0.6), ("g", 0.7), ("h", 0.8)]

    @pytest.mark.parametrize("estimator", ["mle", "corrected"])
    def test_lfdr_is_the_same_for_every_seed(self, tmp_path, capsys, estimator):
        src = tmp_path / "p.csv"
        write_pvalues(src, self.TIED)
        tables = {run(["lfdr", src, "--estimator", estimator, "--seed", seed], capsys)[1]
                  for seed in ("0", "1", "3")}
        assert len(tables) == 1
        rows = [line.split(",") for line in tables.pop().splitlines()[1:]]
        assert [row[0] for row in rows] == list("abcdefgh")
        assert [row[2] for row in rows] == ["1", "4", "4", "4", "5", "6", "7", "8"]
        assert rows[1][3:] == rows[2][3:] == rows[3][3:]
        if estimator == "mle":
            assert rows[1][3:] == ["0.8", "0.8"]

    def test_bh_is_the_same_for_every_seed(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        write_pvalues(src, self.TIED)
        outputs = []
        for seed in ("0", "3"):
            out = tmp_path / f"bh{seed}.csv"
            code, report, _ = run(["bh", src, "--q", "0.3", "--seed", seed, "--out", out], capsys)
            assert code == 0
            outputs.append((report, out.read_text()))
        assert outputs[0] == outputs[1]
        report, table = outputs[0]
        assert "median_rejected_rank: 4\nmedian_rejected_id: b\n" in report
        assert "mle_lfdr_at_median_rank: 0.8\n" in report
        assert table.splitlines()[1:5] == ["a,0.001,1,1", "b,0.01,4,1", "c,0.01,4,1", "d,0.01,4,1"]


class TestSimulateCommand:
    def test_minimal_run_well_formed(self, tmp_path, capsys):
        code, out, _ = run(
            [
                "simulate",
                "--pi0-grid", "0.9",
                "--n-grid", "2",
                "--reps", "1",
                "--seed", "5",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "pi0,n,estimator,rmse,conservatism_proportion,bias,replicates"
        assert len(lines) == 4  # three estimators
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[0] == "0.9" and cells[1] == "2" and cells[6] == "1"

    def test_identical_seeds_identical_bytes(self, tmp_path, capsys):
        args = [
            "simulate", "--pi0-grid", "0.5,1.0", "--n-grid", "2,4",
            "--reps", "3", "--seed", "11",
        ]
        out1 = tmp_path / "m1.csv"
        out2 = tmp_path / "m2.csv"
        assert run(args + ["--out", out1], capsys)[0] == 0
        assert run(args + ["--out", out2], capsys)[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        manifest = json.loads((tmp_path / "m1.csv.manifest.json").read_text())
        assert manifest["parameters"]["replicates"] == 3

    def test_flag_defaults_are_the_config_defaults(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert run(["simulate", "--reps", "1", "--out", out], capsys)[0] == 0
        manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
        expected = json.loads(json.dumps(asdict(SimulationConfig(replicates=1))))
        assert manifest["parameters"] == expected

    def test_invalid_grid_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(["simulate", "--pi0-grid", "1.7"], capsys)
        assert code == 2
        code, _, err = run(["simulate", "--n-grid", "abc"], capsys)
        assert code == 2
        code, _, err = run(["simulate", "--estimators", "magic"], capsys)
        assert code == 2
        assert "--estimators" in err and "'magic'" in err and "mle,corrected,mean" in err

    @pytest.mark.parametrize("grid, piece", [
        ("0:inf:0.5", "inf"), ("-inf:1:0.5", "-inf"), ("0:1:nan", "nan"),
        ("0.5, 0: NaN :1", "NaN"),
    ])
    def test_nonfinite_range_piece_is_usage_error(self, grid, piece, capsys):
        # an infinite stop would expand the range until memory runs out
        code, out, err = run(["simulate", f"--pi0-grid={grid}", "--n-grid", "2", "--reps", "1"],
                             capsys)
        assert (code, out) == (2, "")
        assert err.startswith("smallfdr: error: --pi0-grid: non-finite range piece ")
        assert repr(piece) in err

    def test_oversized_range_is_usage_error(self, capsys):
        code, out, err = run(["simulate", "--pi0-grid", "0:1:1e-9", "--n-grid", "2"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("smallfdr: error: --pi0-grid has 1000000000 values")

    def test_oversized_n_grid_is_usage_error(self, capsys):
        count = smallfdr.cli.MAX_GRID_SIZE + 1
        grid = ",".join(map(str, range(1, count + 1)))
        code, out, err = run(["simulate", "--n-grid", grid, "--reps", "1"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"smallfdr: error: --n-grid has {count} values")

    @pytest.mark.parametrize("flag, grid", [
        ("--n-grid", "2,2"), ("--pi0-grid", "0.5,0.9,0.5"), ("--estimators", "mle,corrected,mle"),
    ])
    def test_repeated_grid_value_is_usage_error(self, flag, grid, capsys):
        # a repeated value would write two rows with the same key
        code, out, err = run(["simulate", flag, grid, "--reps", "1"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("smallfdr: error: ") and "must be distinct" in err

    def test_invalid_pi0_names_the_value(self, capsys):
        code, out, err = run(["simulate", "--pi0-grid", "0.5,1.7"], capsys)
        assert (code, out) == (2, "")
        assert err == "smallfdr: error: pi0 must lie in [0, 1], got 1.7\n"

    def test_failed_allocation_is_numeric_failure(self, monkeypatch, capsys):
        # the grid below would need 7.28 TiB; the refusal is simulated, not requested
        message = ("Unable to allocate 7.28 TiB for an array with shape "
                   "(1000000, 1000000) and data type float64")

        def refuse(config):
            raise MemoryError(message)

        monkeypatch.setattr("smallfdr.cli.run_grid", refuse)
        code, out, err = run(["simulate", "--reps", "1000000", "--n-grid", "1000000",
                              "--pi0-grid", "0.9", "--estimators", "mle"], capsys)
        assert (code, out) == (4, "")
        assert err == f"smallfdr: numeric failure: {message}\n"

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_nonfinite_delta_is_usage_error(self, delta, capsys):
        code, out, err = run(["simulate", "--n-grid", "2", "--reps", "1", "--delta", delta],
                             capsys)
        assert code == 2 and out == ""
        assert err == f"smallfdr: error: delta must be finite and nonnegative, got {delta}\n"


class TestCoverageExactCommand:
    def test_known_cell(self, tmp_path, capsys):
        code, out, _ = run(
            [
                "coverage-exact", "--n", "1",
                "--alpha-grid", "0.05",
                "--pi-grid", "0.8",
                "--estimator", "mle",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,pi,coverage"
        assert lines[1] == "0.05,0.8,0.2"

    def test_corrected_cells_at_least_half(self, capsys):
        code, out, _ = run(
            ["coverage-exact", "--n", "2", "--estimator", "corrected"], capsys
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            coverage = line.split(",")[2]
            if coverage:
                assert float(coverage) >= 0.5 - 1e-12

    def test_infeasible_cells_left_empty(self, capsys):
        code, out, _ = run(
            [
                "coverage-exact", "--n", "1",
                "--alpha-grid", "0.5",
                "--pi-grid", "0.1,0.9",
                "--estimator", "mle",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "0.5,0.1,"
        assert lines[2].startswith("0.5,0.9,") and lines[2].split(",")[2] != ""

    @pytest.mark.parametrize("grid", ["0.5:inf:1", "0.5:nan:1", "inf:1:0.1", "0.1:1:inf"])
    def test_nonfinite_range_piece_is_usage_error(self, grid, capsys):
        code, out, err = run(["coverage-exact", "--n", "1", "--pi-grid", grid], capsys)
        assert (code, out) == (2, "")
        assert "--pi-grid: non-finite range piece" in err and repr(grid) in err

    @pytest.mark.parametrize("argv, message", [
        (["--pi-grid", "0:1"], "--pi-grid: range syntax is start:stop:step, got '0:1'"),
        (["--pi-grid", "a:1:0.1"], "--pi-grid: non-numeric range piece in 'a:1:0.1'"),
        (["--pi-grid", "0:1:0"], "--pi-grid: range step must be positive, got 0.0"),
        (["--pi-grid", " , "], "--pi-grid: empty grid"),
        (["--alpha-grid", "0"], "--alpha-grid values must lie in (0, 1], got 0.0"),
        (["--alpha-grid", "1.5"], "--alpha-grid values must lie in (0, 1], got 1.5"),
        (["--pi-grid", "1.5"], "--pi-grid values must lie in [0, 1], got 1.5"),
    ])
    def test_bad_grid_is_usage_error(self, argv, message, capsys):
        code, out, err = run(["coverage-exact", "--n", "2"] + argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"smallfdr: error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["--alpha-grid", "0.05,0.1,0.05"],
        ["--pi-grid", "0.5, 0.5"],
        ["--pi-grid", "0.2,0.1:0.3:0.1"],
        # steps below the 1e-12 rounding collapse points onto one value
        ["--pi-grid", "0:1e-12:1e-13"],
    ])
    def test_repeated_grid_value_is_usage_error(self, argv, capsys):
        code, out, err = run(["coverage-exact", "--n", "1"] + argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"smallfdr: error: {argv[0]}: values must be distinct")

    @pytest.mark.parametrize("grid", ["0:0:1e-15", "0:0:1e-19", "0.5:0.5:1e-20"])
    def test_tiny_step_range_exits_at_once(self, grid, capsys):
        # a range loop that ran past its counted points once filled memory here
        def overrun(signum, frame):
            pytest.fail(f"--pi-grid {grid} still running after 1 s")

        previous = signal.signal(signal.SIGALRM, overrun)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            code, out, err = run(["coverage-exact", "--n", "1", "--pi-grid", grid], capsys)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert (code, out) == (2, "")
        assert err.startswith("smallfdr: error: --pi-grid")

    def test_range_stops_at_its_rounded_stop(self, capsys):
        # 6e-13 rounds to 1e-12, past the stop 0, so only 0 is kept
        code, out, _ = run(
            ["coverage-exact", "--n", "1", "--alpha-grid", "0.5", "--pi-grid", "0:0:6e-13"], capsys
        )
        assert (code, out) == (0, "alpha,pi,coverage\n0.5,0,\n")
        assert smallfdr.cli._parse_grid("0.5:0.5:6e-13", "--pi-grid") == [0.5]

    def test_negative_zero_grid_value_is_zero(self, capsys):
        code, out, _ = run(
            ["coverage-exact", "--n", "1", "--alpha-grid", "0.5", "--pi-grid=-0,0.5"], capsys
        )
        assert (code, out) == (0, "alpha,pi,coverage\n0.5,0,\n0.5,0.5,1\n")
        for grid in ("-0", "-0.0,1", "-0:0.5:0.5"):
            first = smallfdr.cli._parse_grid(grid, "--pi-grid")[0]
            assert first == 0.0 and math.copysign(1.0, first) == 1.0

    @pytest.mark.parametrize("grid, values", [
        ("0.05:1.0:0.05", [round(0.05 * k, 12) for k in range(1, 21)]),
        ("0:1:0.5", [0.0, 0.5, 1.0]),
        ("0.1:0.3:0.1,0.9", [0.1, 0.2, 0.3, 0.9]),
        ("1e-3:2e-3:1e-3", [0.001, 0.002]),
    ])
    def test_finite_ranges_keep_their_values(self, grid, values):
        assert smallfdr.cli._parse_grid(grid, "--pi-grid") == values

    @pytest.mark.parametrize("argv, what, count", [
        (["--pi-grid", "0:1:1e-300"], "--pi-grid", "1e+300"),
        (["--pi-grid", "0.5,0:1:1e-6"], "--pi-grid", "1000002"),
        (["--pi-grid", "0:1e308:5e-324"], "--pi-grid", "inf"),
        (["--alpha-grid", "0.01:1:1e-7"], "--alpha-grid", "9900001"),
        (["--alpha-grid", "0.001:1:0.001", "--pi-grid", "0:1:0.0009"],
         "--alpha-grid x --pi-grid", "1112000"),
    ])
    def test_oversized_grid_is_usage_error(self, argv, what, count, capsys):
        # counted before anything expands, so these return at once
        code, out, err = run(["coverage-exact", "--n", "1"] + argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"smallfdr: error: {what} has {count} ")

    def test_grid_size_limit_is_inclusive(self):
        limit = smallfdr.cli.MAX_GRID_SIZE
        assert len(smallfdr.cli._parse_grid(f"1:{limit}:1", "--pi-grid")) == limit
        with pytest.raises(smallfdr.cli.UsageError, match=f"--pi-grid has {limit + 1} values"):
            smallfdr.cli._parse_grid(f"0,1:{limit}:1", "--pi-grid")

    @pytest.mark.parametrize("n", [6, 1000])
    @pytest.mark.parametrize("estimator", ["mle", "corrected", "mean"])
    def test_any_n_equals_library(self, n, estimator, capsys):
        code, out, _ = run(["coverage-exact", "--n", n, "--estimator", estimator], capsys)
        assert code == 0
        alpha, pi, coverage = zip(*(line.split(",") for line in out.splitlines()[1:]))
        alpha, pi = np.array(alpha, dtype=float), np.array(pi, dtype=float)
        assert len(alpha) == 120
        want = np.full(len(alpha), "", dtype=object)
        want[pi >= alpha] = [format(value, ".12g") for value in exact_small_n_coverage(
            n, alpha[pi >= alpha], pi[pi >= alpha], smallfdr.cli.ESTIMATOR_FLAGS[estimator]
        )]
        assert list(coverage) == want.tolist()

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_n_below_one_is_usage_error(self, n, capsys):
        code, out, err = run(["coverage-exact", "--n", n], capsys)
        assert (code, out) == (2, "")
        assert err == f"smallfdr: error: --n must be at least 1, got {n}\n"

    @pytest.mark.parametrize("n, code", [(166665, 0), (166666, 2)])
    def test_estimates_bounded_before_any_estimate(self, n, code, monkeypatch, capsys):
        # the 6 default alpha values times N + 1 estimates, against the one 10^6 bound
        def library(*args):
            assert code == 0, "an estimate was computed"
            return np.zeros(len(args[1]))

        monkeypatch.setattr(smallfdr.cli, "exact_small_n_coverage", library)
        got, out, err = run(["coverage-exact", "--n", n], capsys)
        assert got == code
        if code:
            assert out == ""
            assert err == (f"smallfdr: error: --n {n} on --alpha-grid has {6 * (n + 1)} "
                           "estimates, more than 1000000\n")

    @pytest.mark.parametrize("estimator", ["mle", "corrected", "mean"])
    def test_tables_equal_scalar_loop(self, estimator, capsys):
        kind = smallfdr.cli.ESTIMATOR_FLAGS[estimator]
        weight = _tail_weight(kind, None)
        alphas = [0.01, 0.05, 0.1, 0.2, 0.3, 0.5]
        pis = smallfdr.cli._parse_grid("0.05:1.0:0.05", "--pi-grid")
        for n in range(1, 6):
            code, out, _ = run(
                ["coverage-exact", "--n", n, "--estimator", estimator,
                 "--alpha-grid", ",".join(map(str, alphas)), "--pi-grid", "0.05:1.0:0.05"],
                capsys,
            )
            assert code == 0
            lines = out.splitlines()
            assert lines[0] == "alpha,pi,coverage" and len(lines) == 1 + len(alphas) * len(pis)
            cells = iter(lines[1:])
            for alpha in alphas:
                estimates = [nfdr_scalar(kind, alpha, x, n, weight) for x in range(n + 1)]
                for pi in pis:
                    want = ""
                    if pi >= alpha:
                        value = exact_small_n_coverage(n, alpha, pi, kind)
                        exact = coverage_fraction(n, alpha, pi, estimates.__getitem__)
                        assert value == pytest.approx(exact, rel=1e-13, abs=0.0), (n, alpha, pi)
                        want = "%.12g" % value
                    assert next(cells) == f"{alpha:.12g},{pi:.12g},{want}", (n, alpha, pi)


class TestTtestCommand:
    def test_fixture_pipeline_end_to_end(self, tmp_path, capsys):
        pvals = tmp_path / "p.csv"
        code, _, _ = run(["ttest", FIXTURE, "--out", pvals], capsys)
        assert code == 0
        lines = pvals.read_text().strip().splitlines()
        assert lines[0] == "id,p" and len(lines) == 21
        code, out, _ = run(["lfdr", pvals, "--estimator", "corrected"], capsys)
        assert code == 0
        rows = out.strip().splitlines()[1:]
        monotone = [float(r.split(",")[4]) for r in rows]
        assert len(monotone) == 20
        assert all(0.0 <= v <= 1.0 for v in monotone)
        assert monotone == sorted(monotone)

    def test_identical_groups_all_one(self, tmp_path, capsys):
        src = tmp_path / "a.csv"
        src.write_text(
            "feature,a:case,b:case,c:control,d:control\n"
            "f1,1.0,2.0,1.0,2.0\n"
            "f2,3.0,4.0,3.0,4.0\n"
        )
        pvals = tmp_path / "p.csv"
        code, _, _ = run(["ttest", src, "--out", pvals], capsys)
        assert code == 0
        for line in pvals.read_text().strip().splitlines()[1:]:
            assert line.endswith(",1")
        code, out, _ = run(["lfdr", pvals, "--estimator", "mle"], capsys)
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert line.split(",")[4] == "1"

    def test_repeated_subject_id_fails(self, tmp_path, capsys):
        src = tmp_path / "a.csv"
        src.write_text("feature,a:case,a:case,c:control,c:control\nf1,1,2,3,4\nf2,1,5,3,4\n")
        code, out, err = run(["ttest", src], capsys)
        assert code == 3
        assert out == ""
        assert "line 1, column 3: duplicate subject id 'a'" in err

    def test_missing_group_label_fails(self, tmp_path, capsys):
        src = tmp_path / "a.csv"
        src.write_text("feature,a:case,b:case\nf1,1.0,2.0\n")
        code, _, err = run(["ttest", src], capsys)
        assert code == 3
        assert "control" in err

    def test_transform_none(self, tmp_path, capsys):
        src = tmp_path / "a.csv"
        src.write_text(
            "feature,a:case,b:case,c:control,d:control\nf1,1.0,2.0,3.0,4.0\n"
        )
        code, out, _ = run(["ttest", src, "--transform", "none"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "id,p"


class TestGlobalBehavior:
    def test_import_leaves_out_scipy_integrate(self):
        # scipy.integrate is slow to import and no command needs it.
        src = str(Path(smallfdr.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, smallfdr.cli; print('scipy.integrate' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        assert done.stdout.strip() == "False"

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_seed_comes_from_argv_alone(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "p.csv"
        write_pvalues(src, [("a", 0.2), ("b", 0.2), ("c", 0.4)])
        outputs = []
        for value in (None, "123", "twelve"):
            if value is not None:
                monkeypatch.setenv("SMALLFDR_SEED", value)
            out = tmp_path / f"r{len(outputs)}.csv"
            code, _, _ = run(["lfdr", src, "--estimator", "mean", "--out", out], capsys)
            assert code == 0
            manifest = json.loads(Path(f"{out}.manifest.json").read_text())
            outputs.append((out.read_bytes(), manifest["parameters"]))
        assert outputs[0][1]["seed"] == 0
        assert outputs[1:] == outputs[:1] * 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["lfdr", "{src}"],
            ["bh", "{src}", "--q", "0.05"],
            ["simulate", "--n-grid", "2", "--reps", "1"],
            ["ttest", str(FIXTURE)],
        ],
        ids=["lfdr", "bh", "simulate", "ttest"],
    )
    @pytest.mark.parametrize("seed", ["-1", "x", "1.5"])
    def test_bad_seed_is_usage_error(self, tmp_path, capsys, argv, seed):
        src = tmp_path / "p.csv"
        write_pvalues(src, [("a", 0.01), ("b", 0.4)])
        with pytest.raises(SystemExit) as exc:
            main([a.format(src=src) for a in argv] + ["--seed", seed])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"argument --seed: must be a nonnegative integer, got {seed!r}" in out.err

    def test_twelve_significant_digits(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        write_pvalues(src, [("a", 0.123456789012345), ("b", 0.9)])
        code, out, _ = run(["lfdr", src, "--estimator", "mle"], capsys)
        assert code == 0
        assert "0.123456789012" in out


class TestManifestParameters:
    """Each subcommand records every flag as parsed, less the outputs; coverage-exact its
    grids as the values they expand to, and simulate the SimulationConfig its flags build."""

    # argv after the subcommand, and the whole parameters block; "{p}" and "{abundance}"
    # stand for the input paths
    CASES = {
        "lfdr": (
            ["{p}", "--estimator", "mean", "--mc-draws", "7", "--seed", "5"],
            {"input": "{p}", "estimator": "mean", "mc_draws": 7, "seed": 5},
        ),
        "bh": (["{p}", "--q", "0.2", "--seed", "3"], {"input": "{p}", "q": 0.2, "seed": 3}),
        "ttest": (
            ["{abundance}", "--transform", "none", "--seed", "4"],
            {"input": "{abundance}", "transform": "none", "seed": 4},
        ),
        "coverage-exact": (
            ["--n", "3", "--alpha-grid", "0.05,0.1:0.2:0.05", "--pi-grid", "0.5",
             "--estimator", "mean"],
            {"n": 3, "alpha_grid": [0.05, 0.1, 0.15, 0.2], "pi_grid": [0.5], "estimator": "mean"},
        ),
        "simulate": (
            ["--pi0-grid", "0.9", "--n-grid", "2,3", "--delta", "1.5", "--reps", "2",
             "--seed", "9", "--estimators", "mle,mean", "--mc-draws", "5", "--per-replicate"],
            {"pi0_grid": [0.9], "n_grid": [2, 3], "delta": 1.5, "replicates": 2, "seed": 9,
             "estimators": ["mle", "posterior_mean"], "mc_draws": 5, "pooling": "per_replicate"},
        ),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_parameters_are_the_flags_as_parsed(self, command, tmp_path, capsys):
        pvalues = tmp_path / "p.csv"
        write_pvalues(pvalues, [("a", 0.01), ("b", 0.2), ("c", 0.5), ("d", 0.7)])
        paths = {"{p}": str(pvalues), "{abundance}": str(FIXTURE)}
        argv, expected = self.CASES[command]
        argv = [command] + [paths.get(a, a) for a in argv] + ["--out", tmp_path / "r.csv", "--json"]
        assert run(argv, capsys)[0] == 0
        manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["parameters"] == {
            key: paths.get(value, value) if isinstance(value, str) else value
            for key, value in expected.items()
        }


class TestHelp:
    @pytest.mark.parametrize("command", ["lfdr", "bh", "simulate", "coverage-exact", "ttest"])
    def test_every_subcommand_lists_the_shared_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--out OUT" in out and "--json" in out
        assert ("--seed SEED" in out) == (command != "coverage-exact")


class TestJsonNeedsOut:
    @pytest.mark.parametrize(
        "argv",
        [
            ["lfdr", "{src}"],
            ["bh", "{src}", "--q", "0.05"],
            ["simulate", "--n-grid", "2", "--reps", "1"],
            ["coverage-exact", "--n", "1"],
            ["ttest", str(FIXTURE)],
        ],
        ids=["lfdr", "bh", "simulate", "coverage-exact", "ttest"],
    )
    def test_json_without_out_is_usage_error(self, tmp_path, capsys, argv):
        src = tmp_path / "p.csv"
        write_pvalues(src, [("a", 0.01), ("b", 0.4)])
        code, out, err = run([a.format(src=src) for a in argv] + ["--json"], capsys)
        assert code == 2
        assert "--out" in err
        assert out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv"]


class TestOutputsAreDistinct:
    """No output may overwrite the input or another output; the check runs first."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["lfdr", "{src}"],
            ["bh", "{src}", "--q", "0.05"],
            ["simulate", "--n-grid", "2", "--reps", "1"],
            ["coverage-exact", "--n", "1"],
            ["ttest", str(FIXTURE)],
        ],
        ids=["lfdr", "bh", "simulate", "coverage-exact", "ttest"],
    )
    def test_json_mirror_onto_out_is_usage_error(self, tmp_path, capsys, argv):
        # the mirror of x.json is x.json itself
        src = tmp_path / "p.csv"
        write_pvalues(src, [("a", 0.01), ("b", 0.4)])
        argv = [a.format(src=src) for a in argv] + ["--out", str(tmp_path / "x.json"), "--json"]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert "must be distinct files" in err
        assert out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv"]

    @pytest.mark.parametrize(
        "argv",
        [["lfdr", "{src}"], ["bh", "{src}", "--q", "0.05"], ["ttest", "{src}"]],
        ids=["lfdr", "bh", "ttest"],
    )
    @pytest.mark.parametrize("spelling", ["{src}", "{dir}/sub/../{name}"], ids=["same", "alias"])
    def test_out_onto_input_is_usage_error(self, tmp_path, capsys, argv, spelling):
        src = tmp_path / "in.csv"
        if argv[0] == "ttest":
            src.write_bytes(FIXTURE.read_bytes())
        else:
            write_pvalues(src, [("a", 0.01), ("b", 0.4)])
        before = src.read_bytes()
        out_path = spelling.format(src=src, dir=tmp_path, name=src.name)
        code, out, err = run([a.format(src=src) for a in argv] + ["--out", out_path], capsys)
        assert code == 2
        assert "must be distinct files" in err
        assert out == ""
        assert src.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["lfdr", "p.csv"],
            ["bh", "p.csv", "--q", "0.05"],
            ["simulate", "--n-grid", "2", "--reps", "1"],
            ["coverage-exact", "--n", "1"],
            ["ttest", "t.csv"],
        ],
        ids=["lfdr", "bh", "simulate", "coverage-exact", "ttest"],
    )
    @pytest.mark.parametrize(
        "out, message",
        [("", "empty path"), ("d", "is a directory"), ("d/missing/x.csv", "no directory")],
        ids=["empty", "directory", "missing-parent"],
    )
    def test_out_that_cannot_be_a_file_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                     argv, out, message):
        # refused before the input is read or the command runs
        monkeypatch.chdir(tmp_path)
        write_pvalues(tmp_path / "p.csv", [("a", 0.01), ("b", 0.4)])
        (tmp_path / "t.csv").write_bytes(FIXTURE.read_bytes())
        (tmp_path / "d").mkdir()
        before = {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")}
        code, stdout, err = run(argv + ["--out", out], capsys)
        assert code == 2
        assert err.startswith("smallfdr: error: --out") and message in err
        assert stdout == ""
        assert {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "p.csv", "t.csv"]
        assert list((tmp_path / "d").iterdir()) == []


class TestEmitMatchesRowWriter:
    """The columnar writer gives the bytes of csv.writer and json.dump(indent=2)."""

    # every ASCII character, then some that are not ASCII
    IDS = [f"id{chr(c)}x" for c in range(128)] + [
        "", "a,b", 'say "hi"', "\u00e9t\u00e9", "\u4e2d", "\U0001f600", "\u2028", "\x85",
        "%s %d", " padded ",
    ]

    def emit(self, tmp_path, header, columns):
        out = tmp_path / "t.csv"
        args = argparse.Namespace(out=str(out), json=True, command="test")
        _emit_table(header, columns, args, {}, [])
        return out.read_bytes(), (tmp_path / "t.json").read_bytes()

    def expected(self, header, rows):
        return tuple(text.encode("utf-8") for text in table_text(header, rows))

    def test_lfdr_like_columns(self, tmp_path):
        n = len(self.IDS)
        p = np.random.default_rng(4).random(n)
        p[:8] = [0.0, 1.0, -0.0, 5e-324, 1e-300, 0.1, 1 / 3, 0.123456789012345]
        raw = np.where(np.arange(n) % 3 == 0, np.nan, p * 7)
        raw[1:4] = [np.inf, -np.inf, 1e300]
        flags = np.arange(n) % 2
        columns = [tuple(self.IDS), p, np.arange(1, n + 1), raw, flags]
        header = ["id", "p", "rank", "raw_lfdr", "rejected"]
        rows = list(zip(self.IDS, p.tolist(), range(1, n + 1), raw.tolist(), flags.tolist()))
        assert self.emit(tmp_path, header, columns) == self.expected(header, rows)

    def test_mixed_cells_as_in_coverage_exact(self, tmp_path):
        # None is the blank cell in both files; "" is an empty string, "" in the mirror
        rows = [
            (0.05, 0.01, None),
            (0.05, 0.5, 0.875),
            (0.5, 0.9, np.float64(0.25)),
            (0.5, 1.0, float("nan")),
            (1.0, 1.0, 1),
            (1.0, 0.2, "x,y"),
            (1.0, 0.3, ""),
        ]
        header = ["alpha", "pi", "coverage"]
        alpha, pi, coverage = zip(*rows)
        columns = [np.array(alpha), np.array(pi), np.array(coverage, dtype=object)]
        assert self.emit(tmp_path, header, columns) == self.expected(header, rows)

    def test_ints_strings_and_empty_table(self, tmp_path):
        rows = [(0.9, 2, "mle", 0.1, 1.0, -0.05, 3), (1.0, 32, "mean", 0.0, 0.5, 0.0, 3)]
        header = ["pi0", "n", "estimator", "rmse", "conservatism_proportion", "bias", "reps"]
        columns = [column if isinstance(column[0], str) else np.array(column)
                   for column in zip(*rows)]
        assert self.emit(tmp_path, header, columns) == self.expected(header, rows)
        empty = self.emit(tmp_path, ["id", "p"], [(), np.empty(0)])
        assert empty == self.expected(["id", "p"], [])

    def test_stdout_matches_file(self, tmp_path, capsys):
        columns = [("a", "b,c"), np.array([0.5, 0.25])]
        _emit_table(["id", "p"], columns, argparse.Namespace(out=None), {}, [])
        assert capsys.readouterr().out == table_text(["id", "p"], list(zip(*columns)))[0]

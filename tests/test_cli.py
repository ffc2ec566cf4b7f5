import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smallfdr
from smallfdr.cli import _emit_table, main
from smallfdr.lfdr import _tail_weight

from oracles import coverage_scalar, nfdr_scalar, table_text

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

    def test_no_monotone_column_copies_raw(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        write_pvalues(src, [("a", 0.01), ("b", 0.04), ("c", 0.2), ("d", 0.5)])
        code, out, _ = run(["lfdr", src, "--estimator", "mle", "--no-monotone"], capsys)
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            cells = line.split(",")
            assert cells[3] == cells[4]

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

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        src.write_text("id,p\na,2.5\n")
        code, _, err = run(["lfdr", src], capsys)
        assert code == 3
        assert "line 2" in err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code, _, err = run(["lfdr", tmp_path / "nope.csv"], capsys)
        assert code == 3


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

    def test_duplicate_ids_exit_code(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        write_pvalues(src, [("a", 0.001), ("a", 0.9), ("b", 0.5)])
        out = tmp_path / "rej.csv"
        code, _, err = run(["bh", src, "--q", "0.05", "--out", out], capsys)
        assert code == 3
        assert "line 3" in err and "duplicate id 'a'" in err
        assert not out.exists()

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

    def test_invalid_grid_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(["simulate", "--pi0-grid", "1.7"], capsys)
        assert code == 2
        code, _, err = run(["simulate", "--n-grid", "abc"], capsys)
        assert code == 2
        code, _, err = run(["simulate", "--estimators", "magic"], capsys)
        assert code == 2

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

    @pytest.mark.parametrize("flag, grid", [("--n-grid", "2,2"), ("--pi0-grid", "0.5,0.9,0.5")])
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

    @pytest.mark.parametrize("grid, values", [
        ("0.05:1.0:0.05", [round(0.05 * k, 12) for k in range(1, 21)]),
        ("0:1:0.5", [0.0, 0.5, 1.0]),
        ("0.1:0.3:0.1,0.9", [0.1, 0.2, 0.3, 0.9]),
        ("1e-3:2e-3:1e-3", [0.001, 0.002]),
    ])
    def test_finite_ranges_keep_their_values(self, grid, values):
        assert smallfdr.cli._parse_float_grid(grid, "--pi-grid") == values

    @pytest.mark.parametrize("estimator", ["mle", "corrected", "mean"])
    def test_tables_equal_scalar_loop(self, estimator, capsys):
        kind = smallfdr.cli.ESTIMATOR_FLAGS[estimator]
        weight = _tail_weight(kind, None)
        alphas = [0.01, 0.05, 0.1, 0.2, 0.3, 0.5]
        pis = smallfdr.cli._parse_float_grid("0.05:1.0:0.05", "--pi-grid")
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
                    want = "" if pi < alpha else "%.12g" % coverage_scalar(
                        n, alpha, pi, estimates.__getitem__
                    )
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

    def test_env_var_seed(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "p.csv"
        write_pvalues(src, [("a", 0.2), ("b", 0.4)])
        out = tmp_path / "r.csv"
        monkeypatch.setenv("SMALLFDR_SEED", "123")
        code, _, _ = run(["lfdr", src, "--out", out], capsys)
        assert code == 0
        manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
        assert manifest["parameters"]["seed"] == 123

    def test_bad_env_var_seed(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "p.csv"
        write_pvalues(src, [("a", 0.2)])
        monkeypatch.setenv("SMALLFDR_SEED", "twelve")
        code, _, err = run(["lfdr", src], capsys)
        assert code == 2

    def test_twelve_significant_digits(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        write_pvalues(src, [("a", 0.123456789012345), ("b", 0.9)])
        code, out, _ = run(["lfdr", src, "--estimator", "mle"], capsys)
        assert code == 0
        assert "0.123456789012" in out


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
        columns = [tuple(self.IDS), p, range(1, n + 1), raw, flags]
        header = ["id", "p", "rank", "raw_lfdr", "rejected"]
        rows = list(zip(self.IDS, p.tolist(), range(1, n + 1), raw.tolist(), flags.tolist()))
        assert self.emit(tmp_path, header, columns) == self.expected(header, rows)

    def test_mixed_cells_as_in_coverage_exact(self, tmp_path):
        rows = [
            (0.05, 0.01, ""),
            (0.05, 0.5, 0.875),
            (0.5, 0.9, np.float64(0.25)),
            (0.5, 1.0, float("nan")),
            (1.0, 1.0, 1),
            (1.0, 0.2, "x,y"),
        ]
        header = ["alpha", "pi", "coverage"]
        assert self.emit(tmp_path, header, list(zip(*rows))) == self.expected(header, rows)

    def test_ints_strings_and_empty_table(self, tmp_path):
        rows = [(0.9, 2, "mle", 0.1, 1.0, -0.05, 3), (1.0, 32, "mean", 0.0, 0.5, 0.0, 3)]
        header = ["pi0", "n", "estimator", "rmse", "conservatism_proportion", "bias", "reps"]
        assert self.emit(tmp_path, header, list(zip(*rows))) == self.expected(header, rows)
        empty = self.emit(tmp_path, ["id", "p"], [(), np.empty(0)])
        assert empty == self.expected(["id", "p"], [])

    def test_stdout_matches_file(self, tmp_path, capsys):
        columns = [("a", "b,c"), np.array([0.5, 0.25])]
        _emit_table(["id", "p"], columns, argparse.Namespace(out=None), {}, [])
        assert capsys.readouterr().out == table_text(["id", "p"], list(zip(*columns)))[0]

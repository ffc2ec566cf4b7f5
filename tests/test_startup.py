"""A command's fixed cost: SciPy's special functions and the argparse tree.

SciPy is loaded only by the commands whose kernels call a special function,
and then only ``scipy.special._ufuncs``, without the ``scipy.special``
package.  ``main`` builds its parser on the first call and reuses it.  The
test process has SciPy loaded already, so each check runs in a fresh
interpreter with only the package source on its path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from smallfdr.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURE = Path(__file__).parent / "data" / "abundance_20protein.csv"

# Runs main(argv) for each argv of the spec's "argvs" after importing the CLI,
# and prints one JSON line: each run's [exit code, stdout, stderr, parsers
# built so far], the parsers built by the import, which SciPy modules are
# loaded, and, with "import_special", whether a later `import scipy.special`
# serves the CLI's own function objects.  "thread" keeps a second thread
# alive through the runs; "refuse_ufuncs" makes the first import of
# scipy.special._ufuncs raise.
SCRIPT = """
import argparse, contextlib, io, json, sys, threading
spec = json.loads(sys.argv[1])
built = []
build = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(1)
    build(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
refused = []
class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special._ufuncs" and not refused:
            refused.append(name)
            raise ImportError("refused")
if spec.get("refuse_ufuncs"):
    sys.meta_path.insert(0, Refuse())
done = threading.Event()
if spec.get("thread"):
    threading.Thread(target=done.wait, daemon=True).start()
import smallfdr.cli
result = {"import_built": len(built), "runs": []}
for argv in spec["argvs"]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = smallfdr.cli.main(argv)
        except SystemExit as stop:
            code = stop.code
    result["runs"].append([code, out.getvalue(), err.getvalue(), len(built)])
done.set()
result["refused"] = bool(refused)
result["modules"] = [name in sys.modules
                     for name in ("scipy", "scipy.special", "scipy.special._ufuncs")]
if spec.get("import_special"):
    import scipy.special
    from smallfdr import _special
    result["shared"] = (
        scipy.special._ufuncs is _special._ufuncs
        and all(getattr(scipy.special, name) is getattr(_special, name)
                for name in ("betainc", "betaincinv", "psi", "gammaln", "expit", "ndtri"))
        and float(scipy.special.polygamma(1, 2.0)) == float(_special._zeta(2.0, 2.0))
    )
print(json.dumps(result))
"""


def fresh_run(argvs, cwd, **options):
    """The SCRIPT's result for ``argvs`` run one after another in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(dict(options, argvs=argvs))],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80"),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def outputs(folder):
    """The files in ``folder`` by name, with each manifest's clock left out."""
    files = {}
    for path in sorted(Path(folder).iterdir()):
        data = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            data = json.loads(data)
            del data["created_utc"]
        files[path.name] = data
    return files


@pytest.fixture
def pvalues(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("id,p\na,0.001\nb,0.02\nc,0.03\nd,0.4\ne,0.9\n")
    return str(path)


@pytest.mark.parametrize(
    "argv, code",
    [
        (None, None),
        (["--version"], 0),
        (["bh", "{f}", "--q", "0.05"], 0),
        (["lfdr", "{f}", "--estimator", "mle", "--json", "--out", "{o}"], 0),
        (["lfdr", "missing.csv"], 3),
    ],
    ids=["import", "version", "bh", "lfdr-mle", "missing-file"],
)
def test_scipy_not_loaded(tmp_path, pvalues, argv, code):
    argvs = [] if argv is None else [[a.format(f=pvalues, o=tmp_path / "out.csv") for a in argv]]
    result = fresh_run(argvs, tmp_path)
    assert [run[0] for run in result["runs"]] == ([] if argv is None else [code])
    assert result["modules"] == [False, False, False]
    assert result["import_built"] == 0  # importing the CLI builds no parser


KERNEL_COMMANDS = {
    "lfdr-corrected": ["lfdr", "p.csv", "--estimator", "corrected", "--json", "--out", "c.csv"],
    "lfdr-mean": ["lfdr", "p.csv", "--estimator", "mean", "--out", "m.csv"],
    "coverage-exact": ["coverage-exact", "--n", "3", "--out", "cov.csv"],
    "ttest": ["ttest", "t.csv", "--out", "t-p.csv"],
}


def kernel_inputs(folder):
    folder.mkdir()
    (folder / "p.csv").write_text("id,p\na,0.001\nb,0.02\nc,0.03\nd,0.4\ne,0.9\n")
    (folder / "t.csv").write_bytes(FIXTURE.read_bytes())
    return folder


@pytest.fixture
def here_outputs(tmp_path, monkeypatch):
    """Every kernel command's files, written by this process's ``main``."""
    monkeypatch.chdir(kernel_inputs(tmp_path / "here"))
    assert [main(argv) for argv in KERNEL_COMMANDS.values()] == [0] * len(KERNEL_COMMANDS)
    return outputs(".")


@pytest.mark.parametrize("name", sorted(KERNEL_COMMANDS))
def test_kernels_load_only_ufuncs_with_the_same_bytes(tmp_path, here_outputs, name):
    fresh = kernel_inputs(tmp_path / "fresh")
    result = fresh_run([KERNEL_COMMANDS[name]], fresh, import_special=True)
    assert result["runs"][0][0] == 0
    # scipy.special._ufuncs is loaded, the scipy.special package is not
    assert result["modules"] == [True, False, True]
    assert result["shared"]  # and a later import of the package serves the same functions
    written = outputs(fresh)
    assert written == {key: here_outputs[key] for key in written}


@pytest.mark.parametrize("fallback", ["thread", "refuse_ufuncs"])
def test_fallback_imports_the_package_with_the_same_bytes(tmp_path, here_outputs, fallback):
    fresh = kernel_inputs(tmp_path / "fresh")
    result = fresh_run(list(KERNEL_COMMANDS.values()), fresh, **{fallback: True})
    assert [run[0] for run in result["runs"]] == [0] * len(KERNEL_COMMANDS)
    assert result["modules"] == [True, True, True]
    assert result["refused"] == (fallback == "refuse_ufuncs")
    assert outputs(fresh) == here_outputs


# every step's stdout, stderr, exit code and files must not depend on the steps before it
STEPS = [
    ["lfdr", "p.csv", "--json", "--out", "lfdr.csv"],
    ["lfdr", "p.csv", "--estimator", "mean"],
    ["bh", "p.csv", "--q", "0.05"],
    ["coverage-exact", "--n", "0"],  # UsageError
    ["lfdr", "p.csv", "--seed", "-1"],  # argparse's SystemExit(2)
    ["--version"],
    ["coverage-exact", "--n", "3", "--out", "cov.csv"],
    ["--help"],
    ["lfdr", "--help"],
]


def test_one_parser_serves_every_call(tmp_path, pvalues):
    sequence = tmp_path / "sequence"
    sequence.mkdir()
    (sequence / "p.csv").write_text(Path(pvalues).read_text())
    together = fresh_run(STEPS, sequence)
    assert together["import_built"] == 0
    built = [run.pop() for run in together["runs"]]
    assert built[0] > 0 and set(built) == {built[0]}  # built once, by the first call
    alone_files = {}
    for index, argv in enumerate(STEPS):
        alone = tmp_path / f"alone{index}"
        alone.mkdir()
        (alone / "p.csv").write_text(Path(pvalues).read_text())
        run = fresh_run([argv], alone)["runs"][0][:3]
        assert together["runs"][index] == run, argv
        alone_files.update(outputs(alone))
    assert [run[0] for run in together["runs"]] == [0, 0, 0, 2, 2, 0, 0, 0, 0]
    assert outputs(sequence) == alone_files


def test_reused_parser_in_this_process_matches_a_fresh_one(tmp_path, pvalues, capsys,
                                                           monkeypatch):
    # this process has run many commands through the same parser already
    for folder in ("here", "fresh"):
        (tmp_path / folder).mkdir()
        (tmp_path / folder / "p.csv").write_text(Path(pvalues).read_text())
    monkeypatch.chdir(tmp_path / "here")
    monkeypatch.setenv("COLUMNS", "80")
    here = []
    for argv in STEPS:
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
        captured = capsys.readouterr()
        here.append([code, captured.out, captured.err])
    fresh = fresh_run(STEPS, tmp_path / "fresh")["runs"]
    assert here == [run[:3] for run in fresh]
    assert outputs(tmp_path / "here") == outputs(tmp_path / "fresh")


def test_ufunc_names_match_the_public_ones_bit_for_bit():
    # digamma is psi, and polygamma(1, a) is (-1.0)**2 * gamma(2.0) * _zeta(2, a)
    from smallfdr import _special

    a = np.concatenate([
        np.logspace(-300, 300, 1201),
        [5e-324, 1e-310, 2.2250738585072014e-308, 0.0, -0.0, np.inf],
        np.arange(1.0, 201.0),
        np.arange(0.5, 200.5),
        -np.arange(0.5, 20.5),  # negative half-integers
        np.random.default_rng(0).uniform(0.0, 50.0, 1000),
    ])
    with np.errstate(all="ignore"):
        pairs = [(_special.psi(a), special.digamma(a)),
                 (_special._zeta(2.0, a), special.polygamma(1, a))]
    for ours, public in pairs:
        assert np.array_equal(ours.view(np.uint64), public.view(np.uint64))

"""SciPy is imported only by the commands whose kernels call a special function.

The test process has SciPy loaded already, so each check runs in a fresh
interpreter with only the package source on its path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from smallfdr.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs main(argv), or only imports the CLI when argv is null, and prints
# [exit code, whether scipy is loaded] as the last line of stdout.
SCRIPT = """
import json, sys
argv = json.loads(sys.argv[1])
import smallfdr.cli
try:
    code = None if argv is None else smallfdr.cli.main(argv)
except SystemExit as stop:
    code = stop.code
print(json.dumps([code, "scipy" in sys.modules]))
"""


def fresh_run(argv, cwd):
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(argv)],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


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
    if argv is not None:
        argv = [a.format(f=pvalues, o=tmp_path / "out.csv") for a in argv]
    assert fresh_run(argv, tmp_path) == [code, False]


def test_corrected_loads_scipy_with_the_same_bytes(tmp_path, pvalues):
    fresh_out, here_out = tmp_path / "fresh.csv", tmp_path / "here.csv"
    argv = ["lfdr", pvalues, "--estimator", "corrected", "--out"]
    assert fresh_run(argv + [str(fresh_out)], tmp_path) == [0, True]
    assert main(argv + [str(here_out)]) == 0
    assert fresh_out.read_bytes() == here_out.read_bytes()

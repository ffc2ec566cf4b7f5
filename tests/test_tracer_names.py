"""The benchmark's tracer finds every name it wraps.

``perfbench/tracing.py`` installs its spans by replacing module attributes
of ``smallfdr``; a name that is renamed or deleted there would only show up
when the traced benchmark runs.  This reads ``perfbench/`` without changing
it.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    owners = [tracing._resolve(path) for path, _, _ in tracing.TARGETS]
    before = [vars(owner)[attr] for owner, (_, attr, _) in zip(owners, tracing.TARGETS)]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for owner, (path, attr, _), raw in zip(owners, tracing.TARGETS, before):
            assert vars(owner)[attr] is not raw, f"{path}.{attr} was not wrapped"
    finally:
        tracer.uninstall()
    after = [vars(owner)[attr] for owner, (_, attr, _) in zip(owners, tracing.TARGETS)]
    assert all(a is b for a, b in zip(after, before))


def test_ingest_load_span_times_the_parse(monkeypatch, tmp_path, capsys):
    # the commands parse through the names the tracer wraps, so its
    # ingest.load span and rows_in count see every table they read
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    from smallfdr.cli import main

    pvalues, abundance = tmp_path / "p.csv", tmp_path / "a.csv"
    pvalues.write_text("id,p\na,0.01\nb,0.4\nc,0.9\n")
    abundance.write_text("feature,s1:case,s2:case,s3:control,s4:control\nf,1,2,3,4\ng,4,3,2,1\n")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["lfdr", str(pvalues), "--out", str(tmp_path / "r.csv")]) == 0
        assert main(["ttest", str(abundance)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert [span[2] for span in tracer.spans].count("ingest.load") == 2
    assert tracer.rows_in == 5

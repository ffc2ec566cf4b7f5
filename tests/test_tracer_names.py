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

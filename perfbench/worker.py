"""Runs one workload's CLI commands in a fresh interpreter.

Usage: python3 worker.py SPEC.json

The spec names the commands, the seconds to spend and whether to trace.
Commands run one after another through ``smallfdr.cli.main`` in this one
process: a closed loop with a single client.  Whole command sequences
repeat until the time budget would be exceeded (at least once each).  The
host-speed probe runs just before and just after each command, outside its
timing.  With tracing on, every command runs both untraced and traced within
each repetition.  The result goes to the spec's ``result`` path.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import probe


def _outputs(argv: list[str]) -> list[str]:
    """Files a command writes: --out, its JSON mirror and its manifest."""
    if "--out" not in argv:
        return []
    out = argv[argv.index("--out") + 1]
    files = [out]
    if "--json" in argv:
        files.append(os.path.splitext(out)[0] + ".json")
    return files


def _digest(paths: list[str], stdout: str) -> str:
    """Digest of the command's deterministic outputs (manifests carry a clock)."""
    h = hashlib.sha256(stdout.encode())
    for path in paths:
        try:
            with open(path, "rb") as handle:
                h.update(handle.read())
        except OSError:
            h.update(b"<missing>")
    return h.hexdigest()


def run_command(cli, argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    gc.collect()
    probe_before = probe.measure()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc = None
        error = traceback.format_exc(limit=5)
    seconds = time.perf_counter() - start
    probe_s = 0.5 * (probe_before + probe.measure())
    files = _outputs(argv)
    manifest = [files[0] + ".manifest.json"] if files else []
    bytes_out = len(stdout.getvalue().encode()) + sum(
        os.path.getsize(p) for p in files + manifest if os.path.exists(p)
    )
    return {
        "seconds": seconds,
        "probe_s": probe_s,
        "rc": rc,
        "error": error or (stderr.getvalue()[-2000:] if rc != 0 else None),
        "digest": _digest(files, stdout.getvalue()),
        "bytes_out": bytes_out,
        "stdout": stdout.getvalue(),
    }


def run_phase(cli, commands, budget: float) -> list[dict]:
    """Repeat the whole sequence while another one still fits in ``budget``."""
    iterations = []
    start = time.perf_counter()
    while True:
        results = [dict(label=label, **run_command(cli, argv)) for label, _, argv in commands]
        iterations.append({"traced": False, "commands": results})
        elapsed = time.perf_counter() - start
        longest = max(sum(c["seconds"] for c in it["commands"]) for it in iterations)
        if elapsed + longest > budget:
            return iterations


def run_paired_phase(cli, commands, budget: float, tracer) -> list[dict]:
    """Run each command untraced and traced back to back, in alternating order.

    Pairing keeps both runs of a command in the same stretch of host speed,
    so the traced-minus-untraced difference measures the tracing overhead.
    Each repetition yields one untraced and one traced sequence record.
    """
    iterations = []
    start = time.perf_counter()
    while True:
        plain, traced = [], []
        for position, (label, _, argv) in enumerate(commands):
            order = (False, True) if (len(iterations) // 2 + position) % 2 == 0 else (True, False)
            for use_tracer in order:
                if use_tracer:
                    tracer.install()
                try:
                    result = dict(label=label, **run_command(cli, argv))
                finally:
                    if use_tracer:
                        tracer.uninstall()
                (traced if use_tracer else plain).append(result)
        iterations += [{"traced": False, "commands": plain}, {"traced": True, "commands": traced}]
        elapsed = time.perf_counter() - start
        longest = max(sum(c["seconds"] for c in it["commands"]) for it in iterations)
        if elapsed + 2 * longest > budget:
            return iterations


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    import smallfdr.cli as cli

    commands = spec["commands"]
    counts = {}
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        iterations = run_paired_phase(cli, commands, spec["seconds"], tracer)
        tracer.write(spec["spans"])
        counts = tracer.counts()
    else:
        iterations = run_phase(cli, commands, spec["seconds"])
    # The last iteration's stdout is kept for the output checks.
    for command in iterations[-1]["commands"]:
        command["last_stdout"] = command["stdout"]
    for iteration in iterations:
        for command in iteration["commands"]:
            del command["stdout"]
    result = {
        "smallfdr_file": cli.__file__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "iterations": iterations,
        "trace_counts": counts,
    }
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark phase in a fresh interpreter: issue or recheck.

    python3 bench/worker.py issue|recheck TRACE

The caller sends one JSON line per round on standard input and reads one
JSON line of results back, then sends {"end": true} and reads the closing
line (peak memory, versions, per-layer totals).  The caller alternates the
issue and recheck workers round by round, so only one of them computes at a
time while both phases spread over the whole run.

Issue: `certificates.run`, then `certificates.make_record`, then the JSON text
the command line writes (`json.dumps(record, indent=2, sort_keys=True)`).
Recheck: that JSON text, then `certificates.recheck`.  Round 0 is an untimed
warm-up.  With TRACE = 1 every even timed round runs under the span tracer
and the odd ones run untraced, so the tracing overhead is measured in the
same process on the same mix.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
import traceback

import tracing


def _error() -> str:
    return traceback.format_exc(limit=3).strip().splitlines()[-1]


def issue(op, certificates) -> dict:
    command, config = op["command"], op["config"]
    try:
        t0 = time.perf_counter()
        payload = certificates.run(command, config)
        wall = time.perf_counter() - t0
        record = certificates.make_record(command, config, payload, wall_time_s=wall)
        text = json.dumps(record, indent=2, sort_keys=True) + "\n"
        t1 = time.perf_counter()
    except Exception:  # every failure is counted, the phase keeps going
        return {"ms": None, "text": None, "error": _error()}
    return {"ms": (t1 - t0) * 1e3, "text": text, "error": None}


def recheck(op, certificates) -> dict:
    if op["text"] is None:
        return {"ms": None, "ok": False, "error": "no certificate was issued"}
    try:
        t0 = time.perf_counter()
        report = certificates.recheck(json.loads(op["text"]))
        t1 = time.perf_counter()
    except Exception:
        return {"ms": None, "ok": False, "error": _error()}
    error = None if report.ok else f"{len(report.diffs)} field(s) differ: {report.diffs[:3]}"
    return {"ms": (t1 - t0) * 1e3, "ok": report.ok, "error": error}


def capture_subgroups(groups_mod, captured: dict):
    """Record every subgroup list the package computes (warm-up round only)."""
    original = groups_mod.enumerate_subgroups

    def recording(G):
        result = original(G)
        key = json.dumps(G.spec, sort_keys=True)
        captured[key] = [list(H.elements()) for H in result]
        return result

    return tracing.patch_everywhere(original, recording)


def main(argv) -> int:
    mode, trace = argv[1], argv[2] == "1"
    import numpy
    from smalldoubling import certificates, groups

    step = issue if mode == "issue" else recheck
    tracer = tracing.Tracer() if trace else None
    captured: dict = {}
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        message = json.loads(line)
        if message.get("end"):
            break
        r, ops = message["round"], message["ops"]
        traced = trace and r > 0 and r % 2 == 0
        undo = capture_subgroups(groups, captured) if r == 0 and mode == "issue" else []
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        done = [step(op, certificates) for op in ops]
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()
        tracing.unpatch(undo)
        print(json.dumps({"ops": done, "round_ms": (t1 - t0) * 1e3, "traced": traced}),
              flush=True)
    print(json.dumps({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "subgroups": captured,
        "layers": tracer.totals() if tracer else None,
        "spans": tracer.spans if tracer else None,
    }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

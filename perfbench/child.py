"""Passes over a query list, in a fresh interpreter.

    python3 child.py SPEC.json

SPEC names the package's source directory, the (query id, argv) pairs, the
results file, how many seconds to keep measuring and, for a traced pass, the
spans file. Queries run in-process through ``coset_radon.cli.main(argv)``
with stdout captured, one at a time, in order. After the first full pass
the child starts no new query once the seconds are used up, so the last
pass may be partial. One JSON line per query is appended to the results
file and flushed, so a child cut short still reports the queries it ran.

Each query record also carries its calibrated time (see calibrate.py):
the machine's speed is sampled just before and just after each query and,
except in a traced pass, every 0.2 s while it runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import traceback
from time import perf_counter

import calibrate


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = spec["src"]
    sys.path.insert(0, src)
    import numpy

    import coset_radon
    from coset_radon import cli

    if os.path.dirname(os.path.dirname(os.path.realpath(coset_radon.__file__))) != src:
        raise SystemExit(f"imported coset_radon from {coset_radon.__file__}, not {src}")
    run = cli.main
    tracer = None
    if spec.get("spans"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        run = tracer.wrap(tracing.ROOT, cli.main)
    queries = spec["queries"]
    with open(spec["results"], "w", encoding="utf-8") as out:

        def emit(record: dict) -> None:
            out.write(json.dumps(record) + "\n")
            out.flush()

        emit({"python": sys.version.split()[0], "numpy": numpy.__version__})
        start = perf_counter()
        n_pass = 0
        before = calibrate.bracket()
        while n_pass == 0 or perf_counter() - start < spec["seconds"]:
            for i, (qid, argv) in enumerate(queries):
                if n_pass and perf_counter() - start >= spec["seconds"]:
                    break
                if tracer is not None:
                    tracer.query = i
                buf = io.StringIO()
                error = None
                rc = None
                probe = calibrate.SpeedProbe()
                t0 = perf_counter()
                try:
                    with contextlib.redirect_stdout(buf), probe if tracer is None else contextlib.nullcontext():
                        rc = run(argv)
                except Exception as exc:  # a failed query must not end the pass
                    error = traceback.format_exception_only(exc)[-1].strip()
                seconds = perf_counter() - t0
                after = calibrate.bracket()
                ticks = before + probe.ticks + after
                emit({"pass": n_pass, "index": i, "id": qid, "rc": rc, "error": error,
                      "seconds": seconds,
                      "calibrated_s": calibrate.calibrated(seconds, ticks, sum(probe.ticks)),
                      "tick_s": sum(ticks) / len(ticks), "stdout": buf.getvalue()})
                before = after
            n_pass += 1
        emit({"done": True})
    if tracer is not None:
        from coset_radon import verify

        suites = {key: getattr(fn, "__wrapped__", fn).__name__
                  for key, fn in verify.SUITES.items()}
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump({"suites": suites, "spans": tracer.spans}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

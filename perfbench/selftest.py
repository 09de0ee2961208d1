"""Self-test of the correctness gate.

    python3 perfbench/selftest.py

Run it from the root of a checkout. It runs a few cheap benchmark queries
through the same child process as a benchmark pass, then shows that each
passes against expected.json, that corrupting any one frozen field of a
query turns that query into a failure, and that a query which did not run,
raised, exited nonzero or printed no JSON is a failure too. Exits 0 when the
gate behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys

import check
import run

QUERIES = (
    "radon C60 --kernel",
    "radon Dic15 --kernel",
    "flow constant:7",
    "spectral Dic2 --rep builtin:q8",
    "verify flows",
)


def corrupt(value):
    """A different value of the same shape."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value[::-1] + "0"
    if isinstance(value, list):
        return value + [0]
    return 0


def main() -> int:
    src = os.path.realpath("src")
    expected = check.load_expected()
    workdir = os.path.join(os.getcwd(), ".perfbench_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    queries = [(q, q.split() + ["--json"]) for q in QUERIES]
    try:
        p = run.run_passes(workdir, "selftest", src, queries, run.child_env(src), 0.0, 60.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checked = 0
    problems = []
    if len(p["records"]) != len(queries):
        problems.append(f"the child ran {len(p['records'])} of {len(queries)} queries")
    for result in p["records"]:
        qid = result["id"]
        why = check.failure(result, expected)
        if why is not None:
            problems.append(f"{qid} fails against its true expectation: {why}")
            continue
        for field in expected[qid]:
            bad = copy.deepcopy(expected)
            bad[qid][field] = corrupt(bad[qid][field])
            checked += 1
            if check.failure(result, bad) is None:
                problems.append(f"{qid}: a corrupted {field!r} went unnoticed")
        broken = {
            "an exit code of 2": dict(result, rc=2),
            "an exception": dict(result, rc=None, error="ValueError: boom"),
            "output that is not JSON": dict(result, stdout="Traceback ..."),
        }
        for what, res in broken.items():
            checked += 1
            if check.failure(res, expected) is None:
                problems.append(f"{qid}: {what} went unnoticed")
    checked += 1
    if check.failure(None, expected) is None:
        problems.append("a query that never ran went unnoticed")
    for line in problems:
        print(f"FAIL {line}")
    print(f"{checked} corruptions checked, {len(problems)} unnoticed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

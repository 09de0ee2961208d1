"""Write expected.json: the checked output fields of every benchmark query.

    python3 perfbench/freeze.py

Run it from the root of a checkout of the commit whose outputs are the
reference. Every query must exit 0 and every suite must report no failed
case, or nothing is written.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import check
import run
import workloads


def main() -> int:
    src = os.path.realpath("src")
    workdir = os.path.join(os.getcwd(), ".perfbench_work", f"freeze-{os.getpid()}")
    os.makedirs(workdir)
    expected = {}
    try:
        for name in workloads.WORKLOADS:
            queries = workloads.make_inputs(name, 0, workdir)
            p = run.run_passes(workdir, name, src, queries, run.child_env(src), 0.0,
                               run.PASS_TIMEOUT_S)
            if len(p["records"]) != len(queries):
                print(f"error: {name}: the child exited with {p['exit']}", file=sys.stderr)
                return 1
            for result in p["records"]:
                qid = result["id"]
                if result["error"] or result["rc"] != 0:
                    print(f"error: {name}: {qid} did not run cleanly: {result}", file=sys.stderr)
                    return 1
                expected[qid] = check.observe(qid, result["stdout"])
                if expected[qid].get("failed", 0) != 0:
                    print(f"error: {qid} reports failed cases", file=sys.stderr)
                    return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(check.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(expected)} expectations to {check.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

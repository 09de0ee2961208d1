"""Benchmark of the coset-radon CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ./src.
The run writes the seeded inputs under .perfbench_work/ and times a few
fresh interpreters that only ``import coset_radon.cli`` (setup_s). A fresh
child interpreter then runs the workload's queries: a closed loop, one
client, one query at a time, pass after pass until S seconds are used up.
Each query's time is the median over the passes that ran it; wall_s is
their sum, the time of one pass. The reported times are calibrated to a
reference machine speed (calibrate.py); the times as measured are in the
info line. With --trace 1 the untraced child makes a single pass and a
second child makes one traced pass; the run then reports per-layer metrics
instead of end-to-end ones. Every query the children run is checked against
expected.json. The last line of stdout is the result object; the line
before it carries the seed, the environment, per-query times and any
failures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import signal
import sys
import threading
from time import monotonic, perf_counter

import check
import tracer
import workloads
import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 7
SETUP_BRACKET_TICKS = 32  # a probe is short, so its speed sample is made longer
RUN_BUDGET_S = 165.0  # the whole run, set-up included, ends inside 180 s
PASS_TIMEOUT_S = 150.0
THREAD_LIMITS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

def child_env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_LIMITS)
    env["PYTHONPATH"] = src
    return env


def run_child(argv: list[str], env: dict[str, str], timeout: float) -> tuple[int, int, float, bool]:
    """Run a child to completion, killing it at the timeout.

    Returns (exit code, peak RSS in KiB from the child's own rusage, wall
    seconds from spawn to exit, timed out). The wait blocks rather than
    polls, so the wall time is not rounded to a polling interval.
    """
    timed_out = []

    def kill() -> None:
        timed_out.append(True)
        os.kill(proc.pid, signal.SIGKILL)

    t0 = perf_counter()
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=2, stderr=2)
    killer = threading.Timer(timeout, kill)
    killer.start()
    exited = False
    try:
        # WNOWAIT leaves the child unreaped, so its pid cannot be reused
        # before the timer is stopped
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        exited = True
        elapsed = perf_counter() - t0
    finally:
        killer.cancel()
        killer.join()
        if not exited:  # interrupted: do not leave the child running
            os.kill(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss, elapsed, bool(timed_out)


def measure_setup(env: dict[str, str]) -> tuple[list[float], list[float]]:
    """Spawn-to-exit times of fresh interpreters that only import the CLI,
    as measured and calibrated by the calibrations either side of each."""
    measured, calibrated = [], []
    before = calibrate.bracket(SETUP_BRACKET_TICKS)
    for _ in range(SETUP_PROBES):
        rc, _, elapsed, _ = run_child([sys.executable, "-c", "import coset_radon.cli"], env, 60.0)
        if rc != 0:
            raise RuntimeError(f"importing coset_radon.cli failed with exit code {rc}")
        after = calibrate.bracket(SETUP_BRACKET_TICKS)
        measured.append(elapsed)
        calibrated.append(calibrate.calibrated(elapsed, before + after))
        before = after
    return measured, calibrated


def run_passes(workdir: str, tag: str, src: str, queries, env, seconds: float,
               timeout: float, traced: bool = False) -> dict:
    """Passes over the queries in one fresh child (see child.py).

    "records" holds one entry per query run. When the child died or timed
    out, "missing" lists the indices of the queries it never ran in the pass
    it was in, and "done" is false.
    """
    spec = {
        "src": src,
        "queries": queries,
        "seconds": seconds,
        "results": os.path.join(workdir, f"{tag}.jsonl"),
        "spans": os.path.join(workdir, f"{tag}-spans.json") if traced else None,
    }
    spec_path = os.path.join(workdir, f"{tag}-spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    rc, maxrss_kb, _, timed_out = run_child(
        [sys.executable, os.path.join(HERE, "child.py"), spec_path], env, timeout
    )
    lines = []
    if os.path.exists(spec["results"]):
        with open(spec["results"], encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.endswith("\n")]
    header = lines[0] if lines else {}
    records = [rec for rec in lines if "id" in rec]
    done = rc == 0 and not timed_out and any("done" in rec for rec in lines)
    missing = []
    if not done:
        last = records[-1]["pass"] if records else 0
        ran = {rec["index"] for rec in records if rec["pass"] == last}
        missing = [i for i in range(len(queries)) if i not in ran]
    out = {
        "records": records,
        "done": done,
        "missing": missing,
        "maxrss_kb": maxrss_kb,
        "header": header,
        "exit": "timeout" if timed_out else rc,
    }
    if traced and done:
        with open(spec["spans"], encoding="utf-8") as fh:
            out["spans"] = json.load(fh)
    return out


def pass_estimate(child: dict, calibrated: bool) -> dict[str, float]:
    """Median seconds of each query over the passes that ran it, calibrated
    (see calibrate.py) or as measured."""
    times: dict[str, list[float]] = {}
    for rec in child["records"]:
        times.setdefault(rec["id"], []).append(rec["calibrated_s" if calibrated else "seconds"])
    return {qid: statistics.median(t) for qid, t in times.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = monotonic()
    root = os.getcwd()
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(src, "coset_radon", "cli.py")):
        print(f"error: {src}/coset_radon not found; run from the root of a "
              "checkout of the package", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    expected = check.load_expected()
    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    env = child_env(src)
    try:
        queries = workloads.make_inputs(args.workload, args.seed, workdir)
        setup_measured, setup = measure_setup(env)
        # with --trace 1 the untraced child makes one pass, for the overhead
        untraced = run_passes(workdir, "untraced", src, queries, env,
                              0.0 if args.trace else args.seconds,
                              min(PASS_TIMEOUT_S, start + RUN_BUDGET_S - monotonic()))
        traced = None
        if args.trace:
            traced = run_passes(workdir, "traced", src, queries, env, 0.0,
                                max(1.0, min(PASS_TIMEOUT_S, start + RUN_BUDGET_S - monotonic())),
                                traced=True)
            if "spans" in traced:
                with open(os.path.join(root, ".perfbench_work", f"spans-{args.workload}.json"),
                          "w", encoding="utf-8") as fh:
                    json.dump(traced["spans"], fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = failed = 0
    failures = {}
    for child in [untraced] + ([traced] if traced else []):
        outcomes = [(rec["id"], check.failure(rec, expected)) for rec in child["records"]]
        outcomes += [(queries[i][0], check.failure(None, expected)) for i in child["missing"]]
        if not child["done"] and not child["missing"]:
            outcomes.append(("(child)", f"the child exited with {child['exit']}"))
        for qid, why in outcomes:
            attempted += 1
            if why is not None:
                failed += 1
                failures.setdefault(qid, why)
    for qid, why in failures.items():
        print(f"FAIL {qid}: {why}", file=sys.stderr)

    per_query = pass_estimate(untraced, calibrated=True)
    raw_per_query = pass_estimate(untraced, calibrated=False)
    slowest = max(per_query, key=per_query.get, default=None)
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(per_query.values()),
        "query_max_s": per_query.get(slowest, 0.0),
        "peak_rss_mb": untraced["maxrss_kb"] / 1024,
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": untraced["header"].get("python"),
        "numpy": untraced["header"].get("numpy"),
        "loop": "closed, 1 client, 1 query in flight",
        "queries": len(queries),
        "query_order": [qid for qid, _ in queries],
        "samples": len(untraced["records"]),
        "tick_median_s": statistics.median(
            [rec["tick_s"] for rec in untraced["records"]] or [0.0]),
        "child_exit": untraced["exit"],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": failures,
        "setup_samples_s": setup,
        "measured_setup_samples_s": setup_measured,
        "query_s": per_query,
        "slowest_query": slowest,
        "end_to_end": e2e,
        "measured_query_s": raw_per_query,
        "measured_wall_s": sum(raw_per_query.values()),
    }
    if traced is not None:
        traced_wall = sum(pass_estimate(traced, calibrated=True).values())
        spans = traced.get("spans", {"spans": [], "suites": {}})  # empty if the child failed
        layers = tracer.layer_metrics(spans["spans"], spans["suites"])
        layers["trace.overhead_s"] = traced_wall - e2e["wall_s"]
        info["traced_wall_s"] = traced_wall
        info["traced_child_exit"] = traced["exit"]
        info["per_layer"] = layers
        values, kind = layers, "per_layer"
    else:
        values, kind = e2e, "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(units) != set(values):
        raise RuntimeError(f"BENCHMARK.json {kind} metrics differ from the measured ones: "
                           f"{sorted(set(units) ^ set(values))}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run every workload once and print each end-to-end metric with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S]

Run it from the root of a checkout. Beside the metrics it prints the
query count, the attempted and failed query counts and their ratio
(fail_ratio), and the environment the runs saw. Exits 1 if any query failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        run_seconds = json.load(fh)["run_seconds"]
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    args = parser.parse_args()
    failed_any = False
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        info_line, result_line = proc.stdout.splitlines()[-2:]
        info = json.loads(info_line)["info"]
        result = json.loads(result_line)
        failed_any |= result["failed"] > 0
        print(f"{name}: {info['queries']} queries, {info['samples']} query runs, "
              f"seed {info['seed']}, nproc {info['nproc']}, python {info['python']}, "
              f"numpy {info['numpy']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:32s} {m['value']:14.6g} {m['unit']}")
        print(f"  {'fail_ratio':32s} {info['fail_ratio']:14.6g} ratio "
              f"({result['failed']} of {result['attempted']} attempted)")
    return 1 if failed_any else 0


if __name__ == "__main__":
    sys.exit(main())

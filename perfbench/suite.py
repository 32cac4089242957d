#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json one after another, each in a process
of its own, and print each one's metrics by name with its unit.

    python3 perfbench/suite.py [--trace 0|1]

Each workload runs at its pinned default seed, so the input and output
digests are checked too, for BENCHMARK.json's ``run_seconds``.  Held-out
seeds go through ``run.py --seed``.  Exits with the worst status of the
runs: non-zero when any answer check or pinned digest fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    status = 0
    for workload in benchmark["workloads"]:
        command = [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload["name"],
            "--seconds",
            str(benchmark["run_seconds"]),
            "--trace",
            str(args.trace),
        ]
        print(f"== {workload['name']}: {workload['why']}", flush=True)
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())

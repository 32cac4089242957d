#!/usr/bin/env python3
"""Where a traced run's time went, as a markdown table.

    python3 perfbench/split.py perfbench/out/cycles-acceptance-seed20260809-trace1.json

On the traced cycles-acceptance record at its default seed this is the
criterion-4 split (oracle, Gram matrix, drawing) of ROADMAP's baseline, for
the benchmark's quarter-size batch.  Shares are of the median traced pass plus
one set-up's drawing, the median over set-ups of all its draws, kept or not.
The acceptance test's normal-form sweep at the bound is test code and is
not measured.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    record = json.loads(Path(argv[0]).read_text())
    if not record["trace"]:
        print("error: the record is from an untraced run; rerun with --trace 1", file=sys.stderr)
        return 2
    metrics = record["metrics"]
    draws = [s["end"] - s["start"] for s in record["spans"] if s["name"] == "random_instances.draw"]
    per_setup = len(draws) // len(record["setup_times"])
    drawing = (
        statistics.median(
            sum(draws[first : first + per_setup]) for first in range(0, len(draws), per_setup)
        )
        if draws
        else 0.0
    )
    rows = [
        ("`oracle_dimension`", metrics["cycle_algebra.oracle_dimension_s"]),
        ("of which path enumeration", metrics["cycle_algebra.enumerate_paths_s"]),
        ("of which reduction", metrics["cycle_algebra.oracle_reduction_s"]),
        ("`gram_matrix`", metrics["cycle_algebra.gram_matrix_s"]),
        (f"drawing ({per_setup} draws)", drawing),
    ]
    total = record["traced_pass_median_s"] + drawing
    other = total - rows[0][1] - rows[3][1] - rows[4][1]
    rows.append(("everything else", other))
    env = record["environment"]
    print(
        f"{record['workload']}, seed {env['seed']}, {len(record['instances'])} instances, "
        f"Python {env['python']}, {env['nproc']} CPUs, commit {env['git_sha'][:12]}"
    )
    print()
    print("| layer | time | share |")
    print("|---|---|---|")
    for label, seconds in rows:
        print(f"| {label} | {seconds:.2f}s | {100 * seconds / total:.0f}% |")
    print(f"| total | {total:.2f}s | 100% |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

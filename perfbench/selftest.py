#!/usr/bin/env python3
"""Self-test of the benchmark itself; the library's test suite does not run it.

    python3 perfbench/selftest.py

1. Tiny versions of every workload, untraced and traced, report exactly the
   metrics BENCHMARK.json declares, each printed with its declared unit.
2. An oracle stubbed to answer one more than the true dimension, and one that
   raises, show up as failed operations with their instance index, and the
   run still completes.
3. A failure in the traced run's memory pass is reported with the index of
   the instance it ran.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from multiserial import OracleBudgetError  # noqa: E402

TINY = {
    "cycles-acceptance": workloads.cycle_systems(3, (2_000,), draws=20),
    "mult-ladder": workloads.multiplicity_ladder((2, 3)),
    "wide-presentations": workloads.wide_presentations((10, 20), 1),
}


def tiny(name: str):
    return dataclasses.replace(workloads.WORKLOADS[name], setup=TINY[name])


def main() -> int:
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = []

    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        declared = {m["name"]: m["unit"] for m in benchmark[section]}
        for spec in benchmark["workloads"]:
            workload = tiny(spec["name"])
            record = run.run(workload, 1, 0, trace, None)
            where = f"{spec['name']} trace={int(trace)}"
            if record["units"] != declared:
                problems.append(f"{where}: metrics {record['units']} differ from {declared}")
            text = "\n".join(run.report_lines(record))
            for name, unit in declared.items():
                if not any(name in line.split() and unit in line.split() for line in text.splitlines()):
                    problems.append(f"{where}: {name} [{unit}] is not printed")
            if record["failed"] or record["problems"]:
                problems.append(f"{where}: {record['failures']} {record['problems']}")

    real = workloads.oracle_dimension

    def off_by_one(*args):
        return real(*args) + 1

    def exhausted(*args):
        raise OracleBudgetError("stubbed budget fault")

    for stub, reason in ((off_by_one, "closed-form dimension == oracle"), (exhausted, "OracleBudgetError")):
        with mock.patch.object(workloads, "oracle_dimension", stub):
            record = run.run(tiny("cycles-acceptance"), 1, 0, False, None)
        instances = len(record["instances"])
        text = "\n".join(run.report_lines(record))
        if record["failed"] != instances or "failed_frac 1.0000" not in text:
            problems.append(f"stub {stub.__name__}: {record['failed']} of {instances} failed")
        if not all(reason in f["reason"] for f in record["failures"]):
            problems.append(f"stub {stub.__name__}: failures {record['failures']}")
        if f"FAILED instance {instances - 1}:" not in text:
            problems.append(f"stub {stub.__name__}: failures are not reported by instance")

    # The traced run's memory pass runs only the largest instance, the last
    # rung of the ladder, and must report that instance's own index.
    with mock.patch.object(workloads, "oracle_dimension", exhausted):
        record = run.run(tiny("mult-ladder"), 1, 0, True, None)
    largest = len(record["instances"]) - 1
    if record["failures"][-1]["instance"] != largest:
        problems.append(f"memory pass failure not reported as instance {largest}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

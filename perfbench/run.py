#!/usr/bin/env python3
"""Benchmark of the multiserial pipeline, from document text to checked verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process and one thread runs a closed loop: the next
instance starts only after the previous verdict.  The library's import is
timed in fresh interpreters, and setup (drawing, rendering, round-trip
checks) is repeated and timed before the first pass.  Passes over every
instance repeat until ``--seconds`` have elapsed.  Times are given at the
reference speed: each is divided by the time of a fixed piece of work
(``reference_work``) run next to it and multiplied by REFERENCE_SECONDS.

With ``--trace 0`` the end-to-end metrics are printed.  With ``--trace 1``
untraced and traced passes alternate, then the largest instance runs once
more with ``tracemalloc`` around the oracle and the Gram matrix, and the
per-layer metrics are printed.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
spans included, goes to ``--out`` (default ``perfbench/out/``).

Exit status: 0 when every answer check and pinned digest holds, 1 when one
fails, 2 when the run cannot start (no library, unusable arguments, failed
setup).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracing import AllocTracer, Tracer, Untraced, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
IMPORT_REPEATS = 5

END_TO_END_UNITS = {"batch_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# The reference work: fixed code whose time measures the host's speed.  It
# is timed REFERENCE_SAMPLES times before every instance and after the last,
# SETUP_SAMPLES times before and after every set-up and at most every
# SETUP_SAMPLE_EVERY seconds during one.  Times are reported at
# REFERENCE_SECONDS, its time on a quiet host.
REFERENCE_SECONDS = 0.0004
REFERENCE_SAMPLES = 2
SETUP_SAMPLES = 10
SETUP_SAMPLE_EVERY = 0.02

# Spans whose self time is reported, in pipeline order.
LAYER_SPANS = (
    "random_instances.draw",
    "cli.parse_document",
    "defining_pair.validate",
    "cycle_algebra.CycleAlgebra",
    "defining_pair.generate_relations",
    "cycle_algebra.oracle_dimension",
    "cycle_algebra.enumerate_paths",
    "cycle_algebra.oracle_reduction",
    "cycle_algebra.gram_matrix",
    "cycle_algebra.check_trace_symmetry",
    "cycle_algebra.check_multiserial",
    "presentation.derive_successors",
    "presentation.check_orbit_structure",
    "symmetrize.symmetrize",
    "symmetrize.verify_quotient",
)
# Work counts a change to the library can lower.
COUNTS = (
    "defining_pair.relations.type1",
    "defining_pair.relations.type2",
    "defining_pair.relations.type3",
    "symmetrize.certificate_generators",
)
# Counts fixed by the inputs: printed and checked to repeat, but not metrics,
# since a change in them means different work or a wrong answer, not a gain.
INVARIANTS = (
    "cycle_algebra.truncated_paths",
    "cycle_algebra.basis_dim",
    "cycle_algebra.gram_rank",
)
ALLOC_SPANS = ("cycle_algebra.oracle_dimension", "cycle_algebra.gram_matrix")
GROWTH_SPANS = ("cycle_algebra.gram_matrix", "symmetrize.verify_quotient")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in LAYER_SPANS:
        units[f"{name}_s"] = "s"
        units[f"{name}.share"] = "%"
    units.update(dict.fromkeys(COUNTS, "count"))
    units.update({f"{name}.peak_alloc_mb": "MB" for name in ALLOC_SPANS})
    units.update({f"{name}.growth_exponent": "1" for name in GROWTH_SPANS})
    units["trace.batch_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": seed,
    }


def reference_work() -> int:
    """About half a millisecond of pure-Python work in the library's own mix,
    tuples hashed into a dict, sorted, and exact fractions, timed alongside
    the program so that a run measures the host's speed too.

    Other tenants of a shared host slow a program in stretches of seconds to
    minutes, by up to 1.8 times; code of the same mix slows by nearly the
    same factor, so dividing by its time nearby cancels most of it.
    """
    table: dict[tuple, list] = {}
    for i in range(350):
        key = (i % 17, i % 5, (i * 7) % 11)
        table.setdefault(key, []).append(key + (i,))
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i, i + 1) * Fraction(3, 7)
    return len(sorted(table)) + total.denominator % 7


def time_reference() -> float:
    began = perf_counter()
    reference_work()
    return perf_counter() - began


# Run in a fresh interpreter with the benchmark's and the library's
# directories as arguments: the benchmark's own imports, then the timed import
# of the workloads and through them the library, then the reference work.
IMPORT_PROBE = """
import statistics, sys
from time import perf_counter
sys.path[:0] = sys.argv[1:]
import run
began = perf_counter()
import workloads
took = perf_counter() - began
print(took, statistics.median(run.time_reference() for _ in range(run.SETUP_SAMPLES)))
"""


def import_probes() -> list[tuple[float, float]]:
    """The library's import time in IMPORT_REPEATS fresh interpreters, as a
    user's command pays it, each with the reference work's median time right
    after it."""
    probes = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(HERE), str(ROOT / "src")],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        took, reference = map(float, done.stdout.split())
        probes.append((took, reference))
    return probes


class Calibrated:
    """A set-up's recorder: passes calls through to ``inner`` and, before a
    call, times the reference work if SETUP_SAMPLE_EVERY seconds have passed
    since the last sample.  ``sampling_s`` is the time the samples took,
    which the set-up's time leaves out."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.samples: list[float] = []
        self.sampling_s = 0.0
        self._last = perf_counter()

    def sample(self, n: int = 1) -> None:
        began = perf_counter()
        self.samples.extend(time_reference() for _ in range(n))
        self._last = perf_counter()
        self.sampling_s += self._last - began

    def call(self, name, fn, *args):
        if perf_counter() - self._last >= SETUP_SAMPLE_EVERY:
            self.sample()
        return self.inner.call(name, fn, *args)


class Pass:
    """One sweep over the instances at ``indices`` (all by default): wall
    time, per-instance latency, the reference work's time next to each
    instance, exact outputs and failures (instance index, reason)."""

    def __init__(self, workload, instances, recorder, indices=None) -> None:
        self.latencies: list[float] = []
        samples: list[list[float]] = []
        self.outputs: list = []
        self.failures: list[tuple[int, str]] = []
        start = perf_counter()
        for index in range(len(instances)) if indices is None else indices:
            instance = instances[index]
            recorder.instance = index
            samples.append([time_reference() for _ in range(REFERENCE_SAMPLES)])
            began = perf_counter()
            try:
                outcome = recorder.call(
                    "instance", workload.operate, instance.document, recorder
                )
            except Exception as exc:  # a failed operation is counted, never fatal
                self.outputs.append(None)
                self.failures.append((index, f"raised {type(exc).__name__}: {exc}"))
            else:
                self.outputs.append(outcome.outputs)
                self.failures.extend((index, f"check failed: {c}") for c in outcome.failed)
            self.latencies.append(perf_counter() - began)
        self.wall = perf_counter() - start
        samples.append([time_reference() for _ in range(REFERENCE_SAMPLES)])
        # The median of the samples just before and just after each instance.
        self.reference = [statistics.median(a + b) for a, b in zip(samples, samples[1:])]
        recorder.instance = None

    @property
    def failed(self) -> int:
        return len({index for index, _ in self.failures})


def at_reference_speed(latencies, references) -> list[float]:
    """Each instance's median time over the passes, every time first scaled
    by REFERENCE_SECONDS over the reference work's time next to it; given one
    list of per-instance times and one of reference times per pass."""
    return [
        REFERENCE_SECONDS * statistics.median(t / r for t, r in zip(times, refs))
        for times, refs in zip(zip(*latencies), zip(*references))
    ]


def end_to_end(passes, setup_s: float) -> tuple[dict, dict]:
    values = {
        "batch_s": sum(at_reference_speed([p.latencies for p in passes], [p.reference for p in passes])),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "batch_s": f"sum of each instance's median of {len(passes)} passes, at the reference speed",
        "setup_s": f"median of {IMPORT_REPEATS} imports plus median of {SETUP_REPEATS} setups, "
        "each at the reference speed",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return values, notes


def ungated(instances, passes, wall_setup_s: float) -> dict[str, tuple[float, str, str]]:
    """Figures printed and recorded but not gated, as (value, unit, note).

    Wall times follow the host's speed, the top rung holds too few instances
    for a bound, and latency percentiles need at least 20 instances in a
    pass, which only the cycle-system batch has.
    """
    top = max(inst.rung for inst in instances)
    scaled = at_reference_speed([p.latencies for p in passes], [p.reference for p in passes])
    references = [r for p in passes for r in p.reference]
    out = {
        "wall_batch_s": (
            statistics.median(sum(p.latencies) for p in passes),
            "s",
            "median pass in wall time",
        ),
        "wall_setup_s": (wall_setup_s, "s", "setup_s in wall time"),
        "reference_ms": (
            1e3 * statistics.median(references),
            "ms",
            f"the reference work's median time next to {len(references)} instances",
        ),
        "top_rung_s": (
            sum(t for i, t in zip(instances, scaled) if i.rung == top),
            "s",
            f"rung {top}, {sum(i.rung == top for i in instances)} instance(s), as batch_s",
        )
    }
    if len(instances) >= 20:
        pooled = [t for p in passes for t in p.latencies]
        note = f"{len(pooled)} samples pooled over passes"
        out["instance_p50_ms"] = (1e3 * statistics.median(pooled), "ms", note)
        out["instance_p95_ms"] = (1e3 * statistics.quantiles(pooled, n=20)[18], "ms", note)
    return out


def traced_pass_layers(tracer, first: int, instances, workload) -> dict:
    """Self time by layer, growth exponents and the traced time of each
    instance, probes left out, for the spans recorded from index ``first``
    on."""
    spans = tracer.spans[first:]
    latencies = [0.0] * len(instances)
    for s in spans:
        if s.name == "instance":
            latencies[s.instance] += s.duration
        elif s.probe:
            latencies[s.instance] -= s.duration
    times = self_times(tracer.spans, first)
    times["cycle_algebra.oracle_reduction"] = times.get(
        "cycle_algebra.oracle_dimension", 0.0
    ) - times.get("cycle_algebra.enumerate_paths", 0.0)
    growth = {}
    top = max(inst.rung for inst in instances)
    for name in GROWTH_SPANS:
        exponent = 0.0
        if workload.ladder and top >= 1:
            by_rung = {}
            for s in spans:
                if s.name == name:
                    rung = instances[s.instance].rung
                    by_rung[rung] = by_rung.get(rung, 0.0) + s.duration
            if by_rung.get(top) and by_rung.get(top - 1):
                sizes = [
                    statistics.mean(i.size for i in instances if i.rung == r)
                    for r in (top - 1, top)
                ]
                exponent = math.log(by_rung[top] / by_rung[top - 1]) / math.log(
                    sizes[1] / sizes[0]
                )
        growth[name] = exponent
    return {"times": times, "growth": growth, "latencies": latencies}


def run(workload, seed: int, seconds: float, trace: bool, pins, imports=()) -> dict:
    """Set up, measure and check one workload; ``pins`` holds the digests the
    inputs and outputs must match, or is None when nothing is pinned.
    ``imports`` are the ``import_probes``; set-up leaves import out when
    there are none."""
    tracer = Tracer() if trace else None
    setup_times, setup_references, draw_times, input_digests = [], [], [], []
    for _ in range(SETUP_REPEATS):
        recorder = Calibrated(tracer if trace else Untraced())
        recorder.sample(SETUP_SAMPLES)
        first = len(tracer.spans) if trace else 0
        sampling_s = recorder.sampling_s
        began = perf_counter()
        instances = workload.setup(seed, recorder)
        setup_times.append(perf_counter() - began - (recorder.sampling_s - sampling_s))
        recorder.sample(SETUP_SAMPLES)
        setup_references.append(statistics.median(recorder.samples))
        input_digests.append(digest([i.document for i in instances]))
        if trace:
            draw_times.append(
                sum(s.duration for s in tracer.spans[first:] if s.name == "random_instances.draw")
            )
    problems = []
    if len(set(input_digests)) != 1:
        problems.append("setup is not deterministic: the documents differ between setups")

    untraced, traced, layers, counts = [], [], [], []
    started = perf_counter()
    while not untraced or perf_counter() - started < seconds:
        untraced.append(Pass(workload, instances, Untraced()))
        if trace:
            first = len(tracer.spans)
            tracer.counts = {}
            traced.append(Pass(workload, instances, tracer))
            layers.append(traced_pass_layers(tracer, first, instances, workload))
            counts.append(tracer.counts)
    passes = untraced + traced
    if len({digest(p.outputs) for p in passes}) != 1:
        problems.append("outputs differ between passes")
    peaks = {}
    if trace:
        # tracemalloc slows the oracle's exact arithmetic more than tenfold,
        # so the memory pass covers only the largest instance.
        largest = max(range(len(instances)), key=lambda i: instances[i].size)
        alloc = AllocTracer(ALLOC_SPANS)
        memory = Pass(workload, instances, alloc, [largest])
        if memory.outputs != [passes[0].outputs[largest]]:
            problems.append("outputs of the memory pass differ from the timed passes")
        passes.append(memory)
        peaks = alloc.peaks
    if trace and any(c != counts[0] for c in counts):
        problems.append("work counts differ between traced passes")

    pinned = pins is not None and (
        workload.default_seed is None or seed == workload.default_seed
    )
    if pinned:
        if input_digests[0] != pins["inputs"]:
            problems.append(f"input digest {input_digests[0]} does not match the pin {pins['inputs']}")
        if digest(passes[0].outputs) != pins["outputs"]:
            problems.append(
                f"output digest {digest(passes[0].outputs)} does not match the pin {pins['outputs']}"
            )

    # Each set-up is scaled by the reference work's median time before,
    # during and after it, each import probe by its own.
    import_ratio = statistics.median(t / r for t, r in imports) if imports else 0.0
    setup_s = REFERENCE_SECONDS * (
        import_ratio + statistics.median(t / r for t, r in zip(setup_times, setup_references))
    )
    metrics, notes = end_to_end(untraced, setup_s)
    invariants = {}
    pass_time = None
    if trace:
        pass_time = statistics.median(sum(layer["latencies"]) for layer in layers)
        layer_metrics = {}
        for name in LAYER_SPANS:
            if name == "random_instances.draw":
                value = statistics.median(draw_times)
            else:
                value = statistics.median(layer["times"].get(name, 0.0) for layer in layers)
            layer_metrics[f"{name}_s"] = value
            layer_metrics[f"{name}.share"] = 100 * value / pass_time
        layer_metrics.update({name: counts[0].get(name, 0) for name in COUNTS})
        invariants = {name: counts[0].get(name, 0) for name in INVARIANTS}
        layer_metrics.update(
            {f"{name}.peak_alloc_mb": peaks[name] / 2**20 for name in ALLOC_SPANS}
        )
        layer_metrics.update(
            {
                f"{name}.growth_exponent": statistics.median(
                    layer["growth"][name] for layer in layers
                )
                for name in GROWTH_SPANS
            }
        )
        traced_batch = sum(
            at_reference_speed([layer["latencies"] for layer in layers], [p.reference for p in traced])
        )
        layer_metrics["trace.batch_s"] = traced_batch
        layer_metrics["trace.overhead_s"] = traced_batch - metrics["batch_s"]
        metrics, notes = layer_metrics, {
            "trace.batch_s": f"as batch_s, over {len(traced)} traced passes, probes excluded",
            "trace.overhead_s": f"traced minus untraced batch_s ({metrics['batch_s']:.4f} s)",
        }

    failures = [f for p in passes for f in p.failures]
    return {
        "workload": workload.name,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(seed),
        "pinned": pinned,
        "digests": {"inputs": input_digests[0], "outputs": digest(passes[0].outputs)},
        "instances": [{"rung": i.rung, "size": i.size} for i in instances],
        "passes": {"untraced": len(untraced), "traced": len(traced), "memory": int(trace)},
        "import_probes": list(imports),
        "setup_times": setup_times,
        "setup_references": setup_references,
        "pass_walls": [p.wall for p in untraced],
        "latencies": [p.latencies for p in untraced],
        "reference": [p.reference for p in untraced],
        "traced_pass_median_s": pass_time,
        "ungated": ungated(
            instances,
            untraced,
            (statistics.median(t for t, _ in imports) if imports else 0.0)
            + statistics.median(setup_times),
        ),
        "invariants": invariants,
        "attempted": sum(len(p.latencies) for p in passes),
        "failed": sum(p.failed for p in passes),
        "failures": [{"instance": i, "reason": r} for i, r in failures],
        "problems": problems,
        "metrics": metrics,
        "units": {name: (per_layer_units() if trace else END_TO_END_UNITS)[name] for name in metrics},
        "notes": notes,
        "spans": [dataclasses.asdict(s) for s in tracer.spans] if trace else [],
    }


def report_lines(record: dict) -> list[str]:
    """Every metric by name with its unit, then failures and problems."""
    lines = [f"workload {record['workload']}, seed {record['environment']['seed']}, passes {record['passes']}"]
    for name, value in record["metrics"].items():
        lines.append(f"  {name:44} {value:16.6f} {record['units'][name]:5} {record['notes'].get(name, '')}")
    if not record["trace"]:
        for name, (value, unit, note) in record["ungated"].items():
            lines.append(f"  {name:44} {value:16.6f} {unit:5} {note} (not gated)")
    for name, value in record["invariants"].items():
        lines.append(f"  {name:44} {value:16d} count fixed by the inputs (not a metric)")
    lines.append(
        f"  failed_frac {record['failed'] / record['attempted']:.4f} "
        f"({record['failed']} of {record['attempted']} operations)"
    )
    lines.extend(
        f"  FAILED instance {f['instance']}: {f['reason']}" for f in record["failures"][:20]
    )
    lines.extend(f"  PROBLEM {problem}" for problem in record["problems"])
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "multiserial").is_dir():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    seed = args.seed if args.seed is not None else (workload.default_seed or 0)
    pins = json.loads((HERE / "pins.json").read_text())[workload.name]
    try:
        imports = import_probes()
        record = run(workload, seed, args.seconds, bool(args.trace), pins, imports)
    except (RuntimeError, ValueError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: setup failed: {exc}", file=sys.stderr)
        return 2

    out = args.out or HERE / "out" / f"{workload.name}-seed{seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(report_lines(record)))
    print(f"  record written to {out}")
    correct = record["failed"] == 0 and not record["problems"]
    metrics = {
        name: {"value": value, "unit": record["units"][name]}
        for name, value in record["metrics"].items()
    }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

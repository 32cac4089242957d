"""Acceptance suite: desk-scale fixtures plus randomized stress runs.

Each criterion prints one PASS/FAIL line (run pytest with -s to watch);
every expected value is exact and every suite carries a wall-clock budget.
"""

import random
import time

from multiserial import (
    CycleAlgebra,
    Presentation,
    Quiver,
    check_orbit_structure,
    close_under_rotation,
    derive_successors,
    enumerate_paths,
    generate_relations,
    nilpotency_bound,
    oracle_dimension,
    symmetrize,
    validate,
    verify_quotient,
)
from multiserial.random_instances import (
    radical_square_zero_presentation,
    random_presentation,
    tractable_defining_pair,
)
from test_defining_pair import rotations
from test_quiver import length_two_paths


def _conclude(number: int, label: str, failures: list, started: float, budget: float):
    elapsed = time.perf_counter() - started
    over = elapsed >= budget
    ok = not failures and not over
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label} ({elapsed:.2f}s)")
    assert not failures, failures
    assert not over, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_loop_with_multiplicity_two():
    started = time.perf_counter()
    failures = []
    quiver = Quiver(["v"], [("a", "v", "v")])
    pair = close_under_rotation(quiver, [(quiver.path(["a"]), 2)])
    algebra = CycleAlgebra(pair)
    if algebra.dimension != 3:
        failures.append(f"dimension {algebra.dimension} != 3")
    gram = algebra.gram_matrix()
    if not (gram.dimension == 3 and gram.rank == 3 and gram.is_permutation):
        failures.append(f"gram rank {gram.rank}, permutation {gram.is_permutation}")
    trace = algebra.check_trace_symmetry()
    if not trace.passed or "9 ordered pairs" not in trace.check("trace-symmetry").witness:
        failures.append("trace symmetry did not cover all 9 pairs")
    _conclude(1, "loop with multiplicity two", failures, started, 1.0)


def test_criterion_2_gentle_linear_quiver():
    started = time.perf_counter()
    failures = []
    quiver = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    presentation = Presentation(quiver, (quiver.path(["a", "b"]),), (), 2)

    tables = derive_successors(presentation)
    if [m.arrows for m in tables.maximal_paths] != [("a",), ("b",)]:
        failures.append("maximal paths are not the two single arrows")
    pair = symmetrize(presentation)
    if len(pair.quiver.arrows) - len(quiver.arrows) != 2:
        failures.append("enlarged quiver did not gain exactly 2 arrows")
    if len(rotations(pair)) != 4:
        failures.append(f"cycle count {len(rotations(pair))} != 4")

    closed_form = CycleAlgebra(pair).dimension
    oracle_star = oracle_dimension(
        pair.quiver,
        generate_relations(pair).linear_relations(),
        nilpotency_bound(pair),
    )
    if not (closed_form == oracle_star == 18):
        failures.append(f"cover dimension: closed {closed_form}, oracle {oracle_star}")
    oracle_base = oracle_dimension(
        quiver, presentation.linear_relations(), presentation.nilpotency
    )
    if oracle_base != 5:
        failures.append(f"base dimension {oracle_base} != 5")

    certificate = verify_quotient(presentation)
    if not certificate.complete or certificate.failures():
        failures.append("incomplete quotient certificate")
    _conclude(2, "gentle linear quiver", failures, started, 5.0)


def test_criterion_3_two_cycle_presentation():
    started = time.perf_counter()
    failures = []
    quiver = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    presentation = Presentation(
        quiver, (quiver.path(["a", "b", "a"]), quiver.path(["b", "a", "b"])), (), 3
    )

    tables = derive_successors(presentation)
    if tables.maximal_paths != ():
        failures.append("expected no maximal paths")
    pair = symmetrize(presentation)
    if pair.quiver != quiver:
        failures.append("enlarged quiver should equal the base")
    if [(c.arrows, mu) for c, mu in rotations(pair)] != [(("a", "b"), 3), (("b", "a"), 3)]:
        failures.append("cycle system is not the rotations of (a b) with mult 3")

    certificate = verify_quotient(presentation)
    dim, dim_star = certificate.dimensions()
    if (dim, dim_star) != (6, 14):
        failures.append(f"dimensions {(dim, dim_star)} != (6, 14)")

    type2 = [e for e in certificate.entries if e.relation_kind == "type2"]
    if not certificate.complete:
        failures.append("incomplete certificate")
    if {e.justification.kind for e in type2} != {"LongPath"}:
        failures.append("overrun relations were not certified as long paths")
    _conclude(3, "two-cycle presentation", failures, started, 5.0)


def test_criterion_4_randomized_cycle_systems():
    started = time.perf_counter()
    failures = []
    rng = random.Random(20260809)
    for index in range(200):
        pair = tractable_defining_pair(rng)
        if not validate(pair).passed:
            failures.append(f"pair {index} failed validation")
            break
        algebra = CycleAlgebra(pair)
        bound = nilpotency_bound(pair)
        oracle = oracle_dimension(
            pair.quiver, generate_relations(pair).linear_relations(), bound
        )
        if algebra.dimension != oracle:
            failures.append(
                f"pair {index}: closed form {algebra.dimension} != oracle {oracle}"
            )
            break
        gram = algebra.gram_matrix()
        if not (gram.is_permutation and gram.rank == algebra.dimension):
            failures.append(f"pair {index}: gram is not a full-rank permutation")
            break
        if not algebra.check_trace_symmetry().passed:
            failures.append(f"pair {index}: trace symmetry failed")
            break
        if not algebra.check_multiserial().passed:
            failures.append(f"pair {index}: quotient is not multiserial")
            break
        overlong = [
            p
            for p in enumerate_paths(pair.quiver, bound, 400_000)
            if len(p) == bound and algebra.normal_form(p) is not None
        ]
        if overlong:
            failures.append(f"pair {index}: path at the bound survived: {overlong[0]}")
            break
    _conclude(4, "200 randomized cycle systems", failures, started, 60.0)


def test_criterion_5_randomized_presentations():
    started = time.perf_counter()
    failures = []
    rng = random.Random(20260810)
    for index in range(200):
        presentation = random_presentation(rng)
        pair = symmetrize(presentation)
        if not validate(pair).passed:
            failures.append(f"presentation {index}: symmetrization failed validation")
            break
        certificate = verify_quotient(presentation)
        if not certificate.complete:
            failures.append(f"presentation {index}: incomplete certificate")
            break
        structure = check_orbit_structure(derive_successors(presentation))
        if not structure.passed:
            failures.append(f"presentation {index}: orbit structure check failed")
            break
        # raises on a closed form the oracle disagrees with
        dim, dim_star = certificate.dimensions()
        if dim > dim_star:
            failures.append(f"presentation {index}: {dim} > {dim_star}")
            break
    _conclude(5, "200 randomized presentations", failures, started, 120.0)


def test_criterion_6_radical_square_zero_coverage():
    started = time.perf_counter()
    failures = []
    rng = random.Random(20260811)
    for index in range(25):
        presentation = radical_square_zero_presentation(rng)
        if presentation.nilpotency != 2 or len(presentation.zero_paths) != len(
            length_two_paths(presentation.quiver)
        ):
            failures.append(f"instance {index} is not radical square zero")
            break
        pair = symmetrize(presentation)
        if not validate(pair).passed:
            failures.append(f"instance {index}: symmetrization failed validation")
            break
        certificate = verify_quotient(presentation)
        if not certificate.complete:
            failures.append(f"instance {index}: incomplete certificate")
            break
        dim, dim_star = certificate.dimensions()
        if dim > dim_star:
            failures.append(f"instance {index}: {dim} > {dim_star}")
            break
    _conclude(6, "radical square zero coverage", failures, started, 60.0)

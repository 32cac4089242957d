"""The benchmark's workloads: seeded instances rendered to document text, and
the operation that takes one document to a checked verdict.

The library sees only the rendered documents, never the objects they were
drawn as.  Setup draws the instances, renders them and checks that parsing
each document gives back what was drawn.  An operation calls the library's
public entry points in the order a CLI user's commands would, through a span
recorder (see ``tracing``), and returns its exact outputs together with the
names of the answer checks that failed.  Results are read only through stable
public values (dimensions, ``rank``, ``nondegenerate``, ``is_permutation``,
``passed``, ``complete``, relation counts), never through the dense Gram
entries.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import Callable

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
from multiserial.cli import parse_document, render_pair_document
from multiserial.random_instances import random_presentation, tractable_defining_pair

@dataclass(frozen=True)
class Instance:
    document: str
    rung: int
    """Size class; the highest rung holds the workload's largest instances."""
    size: int
    """Dimension on the multiplicity ladder, arrows on the presentation
    ladder, truncated paths below the bound on the cycle-system batch."""


@dataclass(frozen=True)
class Outcome:
    outputs: list[int]
    failed: list[str]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, object], list[Instance]]
    operate: Callable[[str, object], Outcome]
    default_seed: int | None
    """The seed whose inputs and outputs are pinned; None when the inputs do
    not depend on the seed, so the pins hold for every seed."""
    ladder: bool
    """Whether rungs grow one size parameter, so a growth exponent between
    the top two rungs means something."""


def _failed(checks: dict[str, bool]) -> list[str]:
    return [name for name, ok in checks.items() if not ok]


def operate_cycle_system(text: str, t) -> Outcome:
    """Document to verdict for a cycle system: both routes to the dimension
    must agree, and the trace form must be a symmetric perfect pairing."""
    pair = t.call("cli.parse_document", parse_document, text).pair
    axioms = t.call("defining_pair.validate", validate, pair)
    algebra = t.call("cycle_algebra.CycleAlgebra", CycleAlgebra, pair)
    relations = t.call("defining_pair.generate_relations", generate_relations, pair)
    bound = nilpotency_bound(pair)
    oracle = t.call(
        "cycle_algebra.oracle_dimension",
        oracle_dimension,
        pair.quiver,
        relations.linear_relations(),
        bound,
    )
    # Probes keep only a count, so their results are freed inside their span.
    truncated = t.probe(
        "cycle_algebra.enumerate_paths",
        lambda: len(enumerate_paths(pair.quiver, bound - 1)),
    )
    gram = t.call("cycle_algebra.gram_matrix", algebra.gram_matrix)
    symmetry = t.call("cycle_algebra.check_trace_symmetry", algebra.check_trace_symmetry)
    multiserial = t.call("cycle_algebra.check_multiserial", algebra.check_multiserial)

    dimension = algebra.dimension
    if truncated is not None:
        t.count("cycle_algebra.truncated_paths", truncated)
    t.count("cycle_algebra.basis_dim", dimension)
    t.count("cycle_algebra.gram_rank", gram.rank)
    counts = relations.counts()
    for kind, n in zip(("type1", "type2", "type3"), counts):
        t.count(f"defining_pair.relations.{kind}", n)
    return Outcome(
        [dimension, oracle, gram.rank, *counts],
        _failed(
            {
                "cycle-system axioms": axioms.passed,
                "closed-form dimension == oracle": oracle == dimension,
                "gram is a full-rank permutation": gram.is_permutation
                and gram.nondegenerate
                and gram.rank == dimension,
                "trace symmetry": symmetry.passed,
                "multiserial quotient": multiserial.passed,
            }
        ),
    )


def operate_presentation(text: str, t) -> Outcome:
    """Document to verdict for a presentation, as ``sigma-tau`` followed by
    ``verify-quotient``: sound orbits, a valid cover, a complete certificate
    and a presented dimension the cover dominates."""
    presentation = t.call("cli.parse_document", parse_document, text).presentation
    tables = t.call("presentation.derive_successors", derive_successors, presentation)
    orbits = t.call("presentation.check_orbit_structure", check_orbit_structure, tables)
    cover = t.call("symmetrize.symmetrize", symmetrize, presentation)
    axioms = t.call("defining_pair.validate", validate, cover)
    certificate = t.call("symmetrize.verify_quotient", verify_quotient, presentation)
    dim = t.call(
        "cycle_algebra.oracle_dimension",
        oracle_dimension,
        presentation.quiver,
        presentation.linear_relations(),
        presentation.nilpotency,
    )
    truncated = t.probe(
        "cycle_algebra.enumerate_paths",
        lambda: len(enumerate_paths(presentation.quiver, presentation.nilpotency - 1)),
    )
    # verify_quotient generates the cover's relations internally; this
    # separate call shows how much of its time that takes.
    t.probe("defining_pair.generate_relations", lambda: generate_relations(cover).counts())
    dim_star = t.call("cycle_algebra.CycleAlgebra", CycleAlgebra, cover).dimension

    counts = certificate.counts()
    if truncated is not None:
        t.count("cycle_algebra.truncated_paths", truncated)
    t.count("cycle_algebra.basis_dim", dim_star)
    for kind, n in counts.items():
        t.count(f"defining_pair.relations.{kind}", n)
    t.count("symmetrize.certificate_generators", sum(counts.values()))
    return Outcome(
        [dim, dim_star, counts["type1"], counts["type2"], counts["type3"]],
        _failed(
            {
                "orbit structure": orbits.passed,
                "cover axioms": axioms.passed,
                "certificate complete": certificate.complete,
                "dim <= dim_star": dim <= dim_star,
            }
        ),
    )


def _pair_document(pair) -> str:
    document = render_pair_document(pair)
    if parse_document(document).pair != pair:
        raise RuntimeError("a rendered cycle system does not parse back to itself")
    return document


def render_presentation(presentation: Presentation) -> str:
    """A ``[presentation]`` document for ``presentation``."""
    q = presentation.quiver
    lines = ["[quiver]", "vertices = " + " ".join(q.vertices)]
    lines.extend(f"arrow {a.name} = {a.source} -> {a.target}" for a in q.arrows.values())
    lines += ["", "[presentation]", f"nilpotency = {presentation.nilpotency}"]
    lines.extend("zero = " + " ".join(p.arrows) for p in presentation.zero_paths)
    lines.extend(
        f"equal = {' '.join(p.arrows)} , {' '.join(r.arrows)}"
        for p, r in presentation.equal_pairs
    )
    return "\n".join(lines) + "\n"


def _presentation_document(presentation: Presentation) -> str:
    document = render_presentation(presentation)
    parsed = parse_document(document).presentation
    if (
        parsed is None
        or parsed.quiver != presentation.quiver
        or parsed.zero_paths != presentation.zero_paths
        or parsed.equal_pairs != presentation.equal_pairs
        or parsed.nilpotency != presentation.nilpotency
    ):
        raise RuntimeError("a rendered presentation does not parse back to itself")
    return document


def truncated_path_count(quiver: Quiver, max_length: int) -> int:
    """Number of paths of length 0..max_length, counted without listing them."""
    ending = dict.fromkeys(quiver.vertices, 1)
    total = len(quiver.vertices)
    for _ in range(max_length):
        grown = dict.fromkeys(quiver.vertices, 0)
        for arrow in quiver.arrows.values():
            grown[arrow.target] += ending[arrow.source]
        ending = grown
        total += sum(grown.values())
    return total


def _nearest(candidates, targets) -> list[int]:
    """Indices of ``candidates`` (pairs of size and draw index) matched one
    to one to ``targets``, the largest target first, each to the unused
    candidate whose size is nearest on a log scale; ties go to the earlier
    draw.  The returned indices are in draw order."""
    free = sorted(candidates, key=lambda c: c[1])
    chosen = []
    for target in sorted(targets, reverse=True):
        if not free:
            raise RuntimeError(f"no candidate left for size {target}")
        best = min(free, key=lambda c: abs(math.log(c[0] / target)))
        free.remove(best)
        chosen.append(best[1])
    return sorted(chosen)


# Lower edges of the criterion-4 family's strata 1..5 by truncated paths
# below the bound; a cycle system's rung is its stratum.  Of the family's 200
# systems 144, 20, 16, 8, 4 and 8 fall in strata 0..5.  The benchmark keeps a
# quarter of each, the upper strata's at their middle (17,500 for the top
# one, which ends at 20,000), so one pass is short enough to repeat many
# times in a run.
CYCLE_STRATA = (1_000, 3_000, 6_000, 10_000, 15_000)
CYCLE_TARGETS = (2_000,) * 5 + (4_500,) * 4 + (8_000,) * 2 + (12_500,) + (17_500,) * 2
CYCLE_SMALL = 36
CYCLE_DRAWS = 150


def cycle_systems(
    small: int = CYCLE_SMALL, targets=CYCLE_TARGETS, draws: int = CYCLE_DRAWS
) -> Callable[[int, object], list[Instance]]:
    """A fixed number of draws, from which the first ``small`` systems with
    fewer than 1,000 truncated paths are kept, and for each target the
    system of at least 1,000 paths nearest to it.

    The oracle's time follows the truncated path count, so matching the
    large systems to fixed targets gives every seed nearly the same work,
    while the many small systems average out.  A fixed number of draws,
    rather than drawing until every target is met, keeps set-up from being
    a waiting time for the rarest size."""

    def setup(seed: int, t) -> list[Instance]:
        rng = random.Random(seed)
        drawn = []
        for _ in range(draws):
            pair = t.call("random_instances.draw", tractable_defining_pair, rng)
            drawn.append((pair, truncated_path_count(pair.quiver, nilpotency_bound(pair) - 1)))
        below = [i for i, (_, paths) in enumerate(drawn) if paths < CYCLE_STRATA[0]]
        if len(below) < small:
            raise RuntimeError(f"{len(below)} small systems in {draws} draws, {small} wanted")
        large = [(paths, i) for i, (_, paths) in enumerate(drawn) if paths >= CYCLE_STRATA[0]]
        chosen = sorted(below[:small] + _nearest(large, targets))
        return [
            Instance(_pair_document(pair), bisect.bisect_right(CYCLE_STRATA, paths), paths)
            for pair, paths in (drawn[i] for i in chosen)
        ]

    return setup


def multiplicity_ladder(mults=(3, 6, 9, 12)) -> Callable[[int, object], list[Instance]]:
    """One 4-cycle on 4 vertices at growing multiplicity; no randomness."""

    def setup(seed: int, t) -> list[Instance]:
        quiver = Quiver(
            ["1", "2", "3", "4"],
            [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"), ("d", "4", "1")],
        )
        cycle = quiver.path(["a", "b", "c", "d"])
        return [
            Instance(
                _pair_document(close_under_rotation(quiver, [(cycle, mu)])),
                rung,
                16 * mu + 4,
            )
            for rung, mu in enumerate(mults)
        ]

    return setup


WIDE_NILPOTENCY = 4
WIDE_CANDIDATES = 80
WIDE_DEGREE = 9
"""Arrows per vertex of the wanted presentations: nine tenths of the ten
that ``random_presentation`` draws at most."""


def wide_presentations(
    rungs=(20, 30, 40), per_rung: int = 5
) -> Callable[[int, object], list[Instance]]:
    """Random presentations with about ten arrows per vertex.

    Each rung of ``n`` arrows makes a fixed number of draws from
    ``random_presentation(rng, n // 10, n, 4)``, enough for about 80 with
    exactly ``v = n // 10`` vertices and nilpotency 4, and keeps the
    ``per_rung`` of those whose number of paths of length below 4 is
    nearest to ``v * (1 + d + d**2 + d**3)``, the count for ``d = 9``
    arrows at every vertex, in draw order.  The oracle's and
    ``verify_quotient``'s time follow that path count far more closely than
    the arrow count, so the kept presentations cost nearly the same on
    every seed.  A fixed number of draws, rather than drawing until enough
    are near the target, keeps set-up from being a waiting time that varies
    by half from seed to seed.
    """

    def setup(seed: int, t) -> list[Instance]:
        rng = random.Random(seed)
        instances = []
        for rung, arrows in enumerate(rungs):
            vertices = max(arrows // 10, 1)
            # One draw in vertices * (WIDE_NILPOTENCY - 1) has the wanted
            # vertex count and nilpotency.
            draws = WIDE_CANDIDATES * vertices * (WIDE_NILPOTENCY - 1)
            candidates = []
            for _ in range(draws):
                p = t.call(
                    "random_instances.draw",
                    random_presentation,
                    rng,
                    vertices,
                    arrows,
                    WIDE_NILPOTENCY,
                )
                if len(p.quiver.vertices) == vertices and p.nilpotency == WIDE_NILPOTENCY:
                    candidates.append(p)
            if len(candidates) < per_rung:
                raise RuntimeError(
                    f"{len(candidates)} presentations of the wanted shape in {draws} draws"
                )
            paths = [truncated_path_count(p.quiver, WIDE_NILPOTENCY - 1) for p in candidates]
            target = vertices * sum(WIDE_DEGREE**k for k in range(WIDE_NILPOTENCY))
            kept = _nearest([(n, i) for i, n in enumerate(paths)], [target] * per_rung)
            instances.extend(
                Instance(_presentation_document(candidates[i]), rung, len(candidates[i].quiver.arrows))
                for i in kept
            )
        return instances

    return setup


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cycles-acceptance",
            cycle_systems(),
            operate_cycle_system,
            default_seed=20260809,
            ladder=False,
        ),
        Workload(
            "mult-ladder",
            multiplicity_ladder(),
            operate_cycle_system,
            default_seed=None,
            ladder=True,
        ),
        Workload(
            "wide-presentations",
            wide_presentations(),
            operate_presentation,
            default_seed=20260812,
            ladder=True,
        ),
    )
}

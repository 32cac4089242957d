#!/usr/bin/env python3
"""Randomized stress runs beyond the sizes pinned in the test suite.

Every drawn cycle system is checked for agreement between the closed-form
dimension and the truncation oracle, a full-rank permutation Gram matrix
whose every pairing is a full power when its path is walked, trace
symmetry, and vanishing at the nilpotency bound; every presentation for a
valid symmetrization, a complete quotient certificate with no failures
and one generator entry per counted relation, sound orbit structure, and
dimension domination, with every cover's closed form held
against the oracle.  Any failed check or fault, an exceeded oracle budget
included, ends the run with a nonzero exit.
"""

import argparse
import random
import time

from multiserial import (
    CycleAlgebra,
    Idempotent,
    OnCyclePath,
    Socle,
    check_orbit_structure,
    derive_successors,
    enumerate_paths,
    nilpotency_bound,
    pair_oracle_dimension,
    symmetrize,
    validate,
    verify_quotient,
)
from multiserial.random_instances import (
    random_presentation,
    tractable_defining_pair,
)


def stress_pairs(rng: random.Random, count: int) -> None:
    worst = 0.0
    dims = []
    for index in range(count):
        t0 = time.perf_counter()
        pair = tractable_defining_pair(rng)
        algebra = CycleAlgebra(pair)
        bound = nilpotency_bound(pair)
        oracle = pair_oracle_dimension(pair)
        assert algebra.dimension == oracle, (index, algebra.dimension, oracle)
        gram = algebra.gram_matrix()
        assert gram.is_permutation and gram.rank == algebra.dimension, index
        # each pairing's product, walked along the joined path
        basis = algebra.basis
        for x, y in ((basis[i], basis[j]) for i, j in enumerate(gram.dual)):
            if isinstance(x, OnCyclePath) and isinstance(y, OnCyclePath):
                walked = algebra.normal_form(pair.quiver.path(x.path.arrows + y.path.arrows))
                assert isinstance(walked, Socle), (index, x, y)
            else:
                assert {x, y} == {Idempotent(x.source), Socle(x.source)}, (index, x, y)
        assert algebra.check_trace_symmetry().passed, index
        assert algebra.check_multiserial().passed, index
        for p in enumerate_paths(pair.quiver, bound, 1_000_000):
            if len(p) == bound:
                assert algebra.normal_form(p) is None, (index, p)
        worst = max(worst, time.perf_counter() - t0)
        dims.append(algebra.dimension)
    print(
        f"{count} cycle systems ok; dimensions {min(dims)}..{max(dims)} "
        f"(mean {sum(dims) / len(dims):.1f}), worst instance {worst:.2f}s"
    )


def stress_presentations(rng: random.Random, count: int) -> None:
    worst = 0.0
    covers = []
    for index in range(count):
        t0 = time.perf_counter()
        presentation = random_presentation(rng)
        assert validate(symmetrize(presentation)).passed, index
        certificate = verify_quotient(presentation)
        assert certificate.complete, index
        assert certificate.failures() == [], index
        assert len(certificate.entries) == sum(certificate.counts().values()), index
        assert check_orbit_structure(derive_successors(presentation)).passed, index
        dim, dim_star = certificate.dimensions()
        assert dim <= dim_star, (index, dim, dim_star)
        worst = max(worst, time.perf_counter() - t0)
        covers.append(dim_star)
    print(
        f"{count} presentations ok; cover dimensions {min(covers)}..{max(covers)}, "
        f"all {count} covers cross-checked against the oracle, "
        f"worst instance {worst:.2f}s"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--kind", choices=("pairs", "presentations", "both"), default="both"
    )
    args = parser.parse_args()
    if args.kind in ("pairs", "both"):
        stress_pairs(random.Random(args.seed), args.count)
    if args.kind in ("presentations", "both"):
        stress_presentations(random.Random(args.seed + 1), args.count)


if __name__ == "__main__":
    main()

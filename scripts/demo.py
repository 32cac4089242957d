#!/usr/bin/env python3
"""Walk the bundled fixtures through the whole pipeline and print what
happens at each stage: successor tables, the enlarged quiver, the cycle
system, dimensions from both routes, and the quotient certificate."""

from pathlib import Path

from multiserial import (
    CycleAlgebra,
    derive_successors,
    symmetrize,
    verify_quotient,
)
from multiserial.cli import parse_document, render_pair_document

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def show_presentation(name: str) -> None:
    document = parse_document((FIXTURES / name).read_text())
    presentation = document.presentation
    print(f"=== {name} ===")
    tables = derive_successors(presentation)
    print("successors:", {a: b or "stop" for a, b in sorted(tables.sigma.items())})
    print("maximal paths:", [str(m) for m in tables.maximal_paths] or "none")
    print("cycles:", [str(c) for c in tables.simple_cycles] or "none")

    pair = symmetrize(presentation)
    # the return arrows are the cover's arrows that the base lacks
    added = [a for a in pair.quiver.arrows if a not in presentation.quiver.arrows]
    print("return arrows:", added or "none")

    print("cycle system classes:")
    for cycle, mult in pair.rotation_class_representatives():
        print(f"  ({cycle}) with multiplicity {mult}")

    certificate = verify_quotient(presentation)
    dim, dim_star = certificate.dimensions()
    print(f"dimensions: presented algebra {dim}, symmetric cover {dim_star}")

    counts = certificate.counts()
    print(
        f"certificate: complete={certificate.complete} "
        f"({counts['type1']} binomial, {counts['type2']} overrun, "
        f"{counts['type3']} quadratic generators)"
    )
    print()


def show_pair(name: str) -> None:
    document = parse_document((FIXTURES / name).read_text())
    pair = document.pair
    print(f"=== {name} ===")
    algebra = CycleAlgebra(pair)
    print("dimension:", algebra.dimension)
    print("basis:", ", ".join(str(e) for e in algebra.basis))
    gram = algebra.gram_matrix()
    print(
        f"gram matrix: rank {gram.rank}, permutation={gram.is_permutation}, "
        f"nondegenerate={gram.nondegenerate}"
    )
    print("cartan matrix:", algebra.cartan_matrix().entries)
    print()
    print("round-trippable document for the system:")
    print(render_pair_document(pair))


if __name__ == "__main__":
    show_pair("loop_mu2.alg")
    show_presentation("a3_gentle.alg")
    show_presentation("two_cycle.alg")
    show_presentation("radical_square_zero.alg")

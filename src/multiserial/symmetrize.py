"""Completion of a multiserial presentation to a symmetric quotient source.

The enlarged quiver adds one return arrow per maximal path, turning every
maximal path into a simple cycle.  Together with the cycles already traced
by the successor tables, and with the presentation's nilpotency bound as
the uniform multiplicity, these form a valid cycle system: the cover.  Its
quiver is the enlarged one, so the return arrows are exactly the cover's
arrows that the base lacks.  Collapsing the enlarged quiver onto the base
sends return arrows to zero and fixes everything else;
:func:`verify_quotient` justifies, generator by generator, that each
generated relation collapses into the original ideal, which exhibits the
presented algebra as a quotient of the symmetric one, and
:meth:`QuotientCertificate.dimensions` compares the two dimensions on the
cover it built, the cover's closed form confirmed by the oracle.  The
successor tables and the cover are each derived once per presentation and
kept on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cycle_algebra import (
    DEFAULT_MAX_PATHS,
    CycleAlgebra,
    oracle_dimension,
    pair_oracle_dimension,
)
from .defining_pair import DefiningPair, close_under_rotation
from .presentation import (
    Presentation,
    derive_successors,
    maximal_paths,
    simple_cycles,
)
from .quiver import Path, Quiver
from .report import Report

STAR_PREFIX = "star_"

KILLED_BY_STAR_ARROW = "KilledByStarArrow"
LONG_PATH = "LongPath"
FORBIDDEN_QUADRATIC = "ForbiddenQuadratic"
BINOMIAL_BOTH_TERMS = "BinomialBothTerms"
UNCERTIFIED = "Uncertified"


def symmetrize(presentation: Presentation) -> DefiningPair:
    """The cycle system on the enlarged quiver induced by a presentation.

    The enlarged quiver adds to the base one return arrow from the end to
    the start of each maximal path, in the sorted order of the paths.  Its
    name is the reserved prefix followed by the path's concatenated arrow
    names; a clash with an existing arrow (or between two generated names)
    is a fault, since output files must be reproducible.  The cycles are
    those traced by the successor tables plus, for each maximal path, the
    closure of the path by its return arrow; every class carries the
    presentation's nilpotency bound as multiplicity.  Closed once per
    presentation and kept on it.
    """
    if hasattr(presentation, "_cover"):
        return presentation._cover
    base = presentation.quiver
    tables = derive_successors(presentation)
    closes: dict[str, Path] = {}
    for m in maximal_paths(tables):
        name = STAR_PREFIX + "".join(m.arrows)
        if name in base.arrows:
            raise ValueError(
                f"generated return arrow {name!r} collides with an existing "
                "arrow; rename the quiver's arrows"
            )
        if name in closes:
            raise ValueError(
                f"generated return arrow {name!r} is ambiguous between two "
                "maximal paths; rename the quiver's arrows"
            )
        closes[name] = m
    arrow_triples = [(a.name, a.source, a.target) for a in base.arrows.values()]
    arrow_triples.extend((r, m.target, m.source) for r, m in closes.items())
    enlarged = Quiver(base.vertices, arrow_triples)
    # the tables trace every rotation of a cycle; the closure merges them
    cycles = list(simple_cycles(tables))
    cycles.extend(enlarged.path(m.arrows + (r,)) for r, m in closes.items())
    cover = close_under_rotation(enlarged, [(c, presentation.nilpotency) for c in cycles])
    object.__setattr__(presentation, "_cover", cover)
    return cover


@dataclass(frozen=True)
class Justification:
    kind: str
    detail: str = ""
    parts: tuple["Justification", ...] = ()

    def to_json(self) -> dict:
        out = {"kind": self.kind, "detail": self.detail}
        if self.parts:
            out["parts"] = [p.to_json() for p in self.parts]
        return out


@dataclass(frozen=True)
class CertifiedGenerator:
    relation_kind: str
    relation: str
    justification: Justification
    certified: bool

    def to_json(self) -> dict:
        return {
            "relation_kind": self.relation_kind,
            "relation": self.relation,
            "justification": self.justification.to_json(),
            "certified": self.certified,
        }


@dataclass
class QuotientCertificate:
    """Per-generator evidence that the collapse of the generated ideal
    lands in the presentation's ideal."""

    presentation: Presentation
    pair: DefiningPair
    entries: list[CertifiedGenerator] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return all(e.certified for e in self.entries)

    def failures(self) -> list[CertifiedGenerator]:
        return [e for e in self.entries if not e.certified]

    def counts(self) -> dict[str, int]:
        out = {"type1": 0, "type2": 0, "type3": 0}
        for e in self.entries:
            out[e.relation_kind] += 1
        return out

    def dimensions(self, max_paths: int = DEFAULT_MAX_PATHS) -> tuple[int, int]:
        """(dimension of the presented algebra, dimension of its cover).

        The first is computed by the truncation oracle on the presentation's
        generators, the second is :attr:`CycleAlgebra.dimension`, counted
        from the cover's rotation classes without building its basis, and
        confirmed by the oracle on the cover's relations.  The cover always
        dominates; a disagreement of the two routes, or a presented
        dimension above the cover's, raises :class:`RuntimeError` as an
        engine bug.
        """
        presentation = self.presentation
        dim = oracle_dimension(
            presentation.quiver,
            presentation.linear_relations(),
            presentation.nilpotency,
            max_paths=max_paths,
        )
        dim_star = CycleAlgebra(self.pair, max_paths).dimension
        oracle_star = pair_oracle_dimension(self.pair, max_paths)
        if oracle_star != dim_star:
            raise RuntimeError(
                f"closed-form dimension {dim_star} disagrees with the oracle "
                f"{oracle_star}; this is an engine bug"
            )
        if dim > dim_star:
            raise RuntimeError(
                f"presented dimension {dim} exceeds the cover's {dim_star}; "
                "the collapse map cannot be surjective, this is an engine bug"
            )
        return dim, dim_star

    def to_report(self) -> Report:
        report = Report("quotient-certificate")
        counts = self.counts()
        report.add(
            "certificate-complete",
            self.complete,
            f"{len(self.entries)} generators "
            f"({counts['type1']} binomial, {counts['type2']} overrun, "
            f"{counts['type3']} quadratic)",
        )
        for entry in self.failures():
            report.add(
                f"uncertified({entry.relation})",
                False,
                entry.justification.detail,
            )
        return report


def _certify_monomial_term(path: Path, base: Quiver, nilpotency: int) -> Justification:
    for name in path.arrows:
        if name not in base.arrows:
            return Justification(
                KILLED_BY_STAR_ARROW, f"contains return arrow {name}"
            )
    if len(path) >= nilpotency:
        return Justification(
            LONG_PATH, f"image has length {len(path)} >= bound {nilpotency}"
        )
    return Justification(
        UNCERTIFIED, f"image {path} survives the collapse and is short"
    )


def verify_quotient(presentation: Presentation) -> QuotientCertificate:
    """Certify, generator by generator, that the collapse map descends.

    Quadratic generators either contain a return arrow or map to a
    composition already declared dead; the other generators either contain
    a return arrow or map to paths at least as long as the nilpotency
    bound.  An uncertifiable generator is reported, not raised, but would
    indicate an engine or input-contract bug.
    """
    pair = symmetrize(presentation)
    if not pair.axioms.passed:
        failed = ", ".join(c.name for c in pair.axioms.failures())
        raise RuntimeError(
            f"symmetrized cycle system fails validation ({failed}); "
            "this is an engine bug"
        )
    relations = pair.relations
    certificate = QuotientCertificate(presentation, pair)
    base, N = presentation.quiver, presentation.nilpotency

    for u, w in relations.type1:
        left = _certify_monomial_term(u, base, N)
        right = _certify_monomial_term(w, base, N)
        ok = UNCERTIFIED not in (left.kind, right.kind)
        certificate.entries.append(
            CertifiedGenerator(
                "type1",
                f"{u} - {w}",
                Justification(BINOMIAL_BOTH_TERMS, "", (left, right)),
                ok,
            )
        )

    for p in relations.type2:
        j = _certify_monomial_term(p, base, N)
        certificate.entries.append(
            CertifiedGenerator("type2", str(p), j, j.kind != UNCERTIFIED)
        )

    for p in relations.type3:
        a, b = p.arrows
        if a not in base.arrows or b not in base.arrows:
            which = a if a not in base.arrows else b
            j = Justification(KILLED_BY_STAR_ARROW, f"contains return arrow {which}")
        elif presentation.quadratic_in_ideal(a, b):
            successor = presentation.tables.sigma[a]
            j = Justification(
                FORBIDDEN_QUADRATIC,
                f"successor of {a} is "
                f"{successor if successor is not None else 'the stop marker'}, not {b}",
            )
        else:
            j = Justification(UNCERTIFIED, f"composition {p} survives in the ideal")
        certificate.entries.append(
            CertifiedGenerator("type3", str(p), j, j.kind != UNCERTIFIED)
        )

    return certificate

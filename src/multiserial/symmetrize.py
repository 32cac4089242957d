"""Completion of a multiserial presentation to a symmetric quotient source.

The enlarged quiver adds one return arrow per maximal path, turning every
maximal path into a simple cycle.  Together with the cycles already traced
by the successor tables, and with the presentation's nilpotency bound as
the uniform multiplicity, these form a valid cycle system: the cover.  Its
quiver is the enlarged one, so the return arrows are exactly the cover's
arrows that the base lacks.  Collapsing the enlarged quiver onto the base
sends return arrows to zero and fixes everything else;
:func:`verify_quotient` justifies that each generated relation collapses
into the original ideal, which exhibits the presented algebra as a
quotient of the symmetric one.  It judges each rotation class once, a
vertex of the Brauer configuration, counts each vertex's quadratics
against the declared ones, and judges the cover's relations one by one
only when its entries are read.  :meth:`QuotientCertificate.dimensions`
compares the two dimensions on the cover it built, the cover's closed
form confirmed by the oracle.  The tables and the cover, whose cycles are
not checked again, are each derived once per presentation and kept on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cycle_algebra import (
    DEFAULT_MAX_PATHS,
    CycleAlgebra,
    _presented_dimension,
    pair_oracle_dimension,
)
from .defining_pair import DefiningPair
from .presentation import Presentation, derive_successors
from .quiver import Path, _path, canonical_rotation
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
    the successor tables' cycles, one per rotation class, plus, for each
    maximal path, the closure of the path by its return arrow; every class
    carries the presentation's nilpotency bound as multiplicity.  Every
    return name is new and its ends are base vertices, so the base quiver
    is extended by :meth:`Quiver._extended`; the cycles are built from paths
    already checked, so :meth:`DefiningPair._trusted` builds the cover,
    once per presentation, and it is kept there.
    """
    if hasattr(presentation, "_cover"):
        return presentation._cover
    base = presentation.quiver
    tables = derive_successors(presentation)
    closes: dict[str, Path] = {}
    for m in tables.maximal_paths:
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
    enlarged = base._extended((r, m.target, m.source) for r, m in closes.items())
    cycles = list(tables.simple_cycles)
    cycles.extend(_path(m.arrows + (r,), m.vertices + (m.source,)) for r, m in closes.items())
    classes = [(canonical_rotation(c), presentation.nilpotency) for c in cycles]
    cover = DefiningPair._trusted(enlarged, classes)
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
    """Evidence that the collapse of the generated ideal lands in the
    presentation's ideal, kept by rotation class and by arrow.

    ``power`` and ``overrun`` hold each class's verdict on its full powers
    and on its overruns, in class order: a kind, and the return arrow that
    kills the term or None.  :attr:`complete` and :meth:`counts` build no
    generator; :attr:`entries`, each of the cover's relations judged with
    its witness text, are built on first read and kept.
    """

    presentation: Presentation
    pair: DefiningPair
    power: list[tuple]
    overrun: list[tuple]
    returns: frozenset[str]

    @cached_property
    def complete(self) -> bool:
        """Whether every generator is certified: every overrun verdict, the
        full-power verdict of each class with a rotation at a vertex with two
        or more arrows out, and every composable pair of base arrows off the
        cycles dead.  A dead quadratic is such a pair or one that a cycle
        travels, so the last is decided by counting."""
        if any(kind == UNCERTIFIED for kind, _ in self.overrun):
            return False
        quiver, place, returns = self.pair.quiver, self.pair._place, self.returns
        weak = {k for k, (kind, _) in enumerate(self.power) if kind == UNCERTIFIED}
        if weak and any(
            place[a.name][0] in weak
            for arrows in quiver._out.values() if len(arrows) > 1 for a in arrows
        ):
            return False
        base, dead = self.presentation.quiver, self.presentation._quadratic
        steps = {s for c, _ in self.pair._classes for s in zip(c.arrows, c.arrows[1:] + c.arrows[:1])}
        composable = sum(len(base._in[v]) * len(out) for v, out in base._out.items())
        on_base = sum(a not in returns and b not in returns for a, b in steps)
        return len(dead) - len(dead & steps) == composable - on_base

    def failures(self) -> list[CertifiedGenerator]:
        return [] if self.complete else [e for e in self.entries if not e.certified]

    def counts(self) -> dict[str, int]:
        """The generators by family, in closed form over the cover's quiver:
        a pair of arrows out of each vertex, one overrun per arrow, and each
        arrow followed by an arrow other than its successor on its cycle."""
        quiver = self.pair.quiver
        arrows = len(quiver.arrows)
        return {
            "type1": sum(len(out) * (len(out) - 1) // 2 for out in quiver._out.values()),
            "type2": arrows,
            "type3": sum(len(quiver._in[v]) * len(out) for v, out in quiver._out.items()) - arrows,
        }

    @cached_property
    def entries(self) -> list[CertifiedGenerator]:
        """The cover's relations judged in one walk, in their order, with
        their witness text: a full power or an overrun takes the verdict of
        its first arrow's class, and a quadratic is a dead one, killed by its
        return arrow, or uncertified."""
        rel, place, power, returns = self.pair.relations, self.pair._place, self.power, self.returns
        out: list[CertifiedGenerator] = []
        for u, w in rel.type1:
            left, right = power[place[u.arrows[0]][0]], power[place[w.arrows[0]][0]]
            parts = self._justify("type1", u, left), self._justify("type1", w, right)
            both = Justification(BINOMIAL_BOTH_TERMS, "", parts)
            certified = UNCERTIFIED not in (left[0], right[0])
            out.append(CertifiedGenerator("type1", f"{u} - {w}", both, certified))
        judged = [("type2", p, self.overrun[place[p.arrows[0]][0]]) for p in rel.type2]
        # a dead quadratic is a path of the base, so it holds no return arrow
        dead = self.presentation._quadratic
        for p in rel.type3:
            arrow = next((a for a in p.arrows if a in returns), None)
            kind = (
                FORBIDDEN_QUADRATIC if p.arrows in dead
                else KILLED_BY_STAR_ARROW if arrow else UNCERTIFIED
            )
            judged.append(("type3", p, (kind, arrow)))
        for kind, p, verdict in judged:
            why = self._justify(kind, p, verdict)
            out.append(CertifiedGenerator(kind, str(p), why, verdict[0] != UNCERTIFIED))
        return out

    def _justify(self, relation_kind: str, path: Path, verdict: tuple) -> Justification:
        kind, arrow = verdict
        if kind == KILLED_BY_STAR_ARROW:
            return Justification(kind, f"contains return arrow {arrow}")
        if kind == LONG_PATH:
            bound = self.presentation.nilpotency
            return Justification(kind, f"image has length {len(path)} >= bound {bound}")
        if kind == FORBIDDEN_QUADRATIC:
            a, b = path.arrows
            successor = self.presentation.tables.sigma[a]
            stop = successor if successor is not None else "the stop marker"
            return Justification(kind, f"successor of {a} is {stop}, not {b}")
        if relation_kind == "type3":
            return Justification(kind, f"composition {path} survives in the ideal")
        return Justification(kind, f"image {path} survives the collapse and is short")

    def dimensions(self, max_paths: int = DEFAULT_MAX_PATHS) -> tuple[int, int]:
        """(dimension of the presented algebra, dimension of its cover).

        The first is computed by the truncation oracle on the presentation's
        generators, the second is :attr:`CycleAlgebra.dimension`, counted
        from the cover's rotation classes without building its basis, and
        confirmed by the oracle on the cover's relations; both relation sets
        skip the oracle's border, as they were checked where they entered or
        built by the engine.  A disagreement of the two routes to the
        cover's raises :class:`RuntimeError` as an engine bug; whether the
        cover dominates is the caller's verdict.
        """
        dim = _presented_dimension(self.presentation, max_paths)
        dim_star = CycleAlgebra(self.pair, max_paths).dimension
        oracle_star = pair_oracle_dimension(self.pair, max_paths)
        if oracle_star != dim_star:
            raise RuntimeError(
                f"closed-form dimension {dim_star} disagrees with the oracle "
                f"{oracle_star}; this is an engine bug"
            )
        return dim, dim_star

    def to_report(self) -> Report:
        report = Report("quotient-certificate")
        counts = self.counts()
        detail = f"{sum(counts.values())} generators ({counts['type1']} binomial, "
        detail += f"{counts['type2']} overrun, {counts['type3']} quadratic)"
        report.add("certificate-complete", self.complete, detail)
        for entry in self.failures():
            report.add(f"uncertified({entry.relation})", False, entry.justification.detail)
        return report


def verify_quotient(presentation: Presentation) -> QuotientCertificate:
    """Certify, by rotation class and by arrow, that the collapse map descends.

    Quadratic generators either contain a return arrow or map to a
    composition already declared dead; the other generators either contain
    a return arrow or map to paths at least as long as the nilpotency
    bound.  A class of the cover closes at most one maximal path, so it
    holds at most one return arrow, and the verdicts on its full powers and
    overruns depend only on that arrow and on whether mu*L and mu*L + 1
    reach the bound: both are read from one lookup of the class's return
    arrow, and no generator or relation path is built.  The quadratics are
    judged by counting, per vertex, the composable pairs of base arrows off
    the cycles against the dead quadratics.  :attr:`QuotientCertificate.entries` judges the
    cover's relations, each by its class verdict or as a quadratic, on
    first read.  :meth:`DefiningPair.require_valid` is the gate on the cover's
    axioms, which its construction makes hold.  An uncertifiable generator
    is reported, not raised, but would indicate an engine or input-contract bug.
    """
    pair = symmetrize(presentation)
    pair.require_valid()
    returns = frozenset(pair.quiver.arrows.keys() - presentation.quiver.arrows.keys())

    bound, power, overrun = presentation.nilpotency, [], []
    for c, mu in pair._classes:
        if returns.isdisjoint(c.arrows):
            power.append((LONG_PATH if mu * len(c) >= bound else UNCERTIFIED, None))
            overrun.append((LONG_PATH if mu * len(c) + 1 >= bound else UNCERTIFIED, None))
        else:
            killed = KILLED_BY_STAR_ARROW, next(a for a in c.arrows if a in returns)
            power.append(killed)
            overrun.append(killed)
    return QuotientCertificate(presentation, pair, power, overrun, returns)

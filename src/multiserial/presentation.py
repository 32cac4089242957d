"""Monomial/binomial presentations of path-algebra quotients and their
successor tables, which derive and keep their orbits, maximal paths and cycles.

The ideal of a presentation is generated by its explicit zero paths and
binomial differences together with every path of length at least the
declared nilpotency bound.  Membership of a length-two path is read off
the explicit quadratic generators (plus the degenerate bound-two case);
that convention is what makes the successor and predecessor tables
computable without a general ideal-membership test, and input files are
expected to list all vanishing quadratics explicitly.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Mapping, Optional

from .cycle_algebra import DEFAULT_MAX_PATHS, _check_budget_type
from .quiver import Arrow, MonomialAutomaton, Path, Quiver, _path
from .report import Report


class MultiserialConditionError(ValueError):
    """Raised when an operation needs the at-most-one-successor condition."""


def _check_bound(nilpotency: int) -> None:
    if type(nilpotency) is not int:
        raise ValueError(f"nilpotency bound must be an integer, got {nilpotency!r}")
    if nilpotency < 2:
        raise ValueError("nilpotency bound must be at least 2")


def _check_length(p: Path) -> None:
    if len(p.arrows) < 2:
        raise ValueError(f"generator {p} has length < 2; the ideal must be admissible")


def _check_uniform(p: Path, q: Path) -> None:
    if p.source != q.source or p.target != q.target:
        raise ValueError(
            f"binomial generator is not uniform: {p} and {q} "
            "have different endpoints"
        )


@dataclass(frozen=True, eq=False)
class Presentation:
    """A quotient of a path algebra by an admissible ideal.

    ``zero_paths`` are monomial generators, ``equal_pairs`` binomial
    generators p - q (same endpoints), and ``nilpotency`` the declared
    integer bound N >= 2 with every path of length >= N in the ideal.  A
    caller's presentation is a border, where each generator and the bound
    are checked once.  The parser, which judges each line as it is read,
    and the drawers, whose draws hold every check by construction, build by
    the door :meth:`_judged`.
    """

    quiver: Quiver
    zero_paths: tuple[Path, ...]
    equal_pairs: tuple[tuple[Path, Path], ...]
    nilpotency: int

    def __post_init__(self) -> None:
        _check_bound(self.nilpotency)
        for p in chain(self.zero_paths, *self.equal_pairs):
            if not self.quiver.contains_path(p):
                raise ValueError(f"generator {p} is not a path of the quiver")
            _check_length(p)
        for p, q in self.equal_pairs:
            _check_uniform(p, q)

    @classmethod
    def _judged(cls, *fields) -> Presentation:
        """``Presentation(*fields)`` with no check, for the parser and the
        drawers: each field had every check where it was made."""
        presentation = cls.__new__(cls)
        vars(presentation).update(zip(cls.__dataclass_fields__, fields))
        return presentation

    @cached_property
    def _quadratic(self) -> frozenset[tuple[str, ...]]:
        """The arrow names of the two-arrow paths of the quiver in the ideal."""
        if self.nilpotency > 2:
            return frozenset(p.arrows for p in self.zero_paths if len(p.arrows) == 2)
        q = self.quiver
        return frozenset((a.name, b.name) for a in q._by_name for b in q._out[a.target])

    def linear_relations(self) -> list[tuple[Path, Path | None]]:
        """The generators for the dimension oracle: each zero path p as
        ``(p, None)``, then each difference p - q as ``(p, q)``."""
        return [*((p, None) for p in self.zero_paths), *self.equal_pairs]

    @cached_property
    def tables(self) -> SuccessorTables:
        """The :func:`derive_successors` tables, kept once derived; a fault is not."""
        condition, successors, predecessors = _surviving_compositions(self)
        if not condition.passed:
            failed = ", ".join(c.name for c in condition.failures())
            raise MultiserialConditionError(
                f"presentation violates the multiserial condition: {failed}"
            )
        sigma = {a: after[0].name if after else None for a, after in successors.items()}
        tau = {b: before[0].name if before else None for b, before in predecessors.items()}
        return SuccessorTables(self.quiver, sigma, tau)


@dataclass(frozen=True, eq=False)
class SuccessorTables:
    """Successor (sigma) and predecessor (tau) maps on arrow names.

    ``None`` is the stop marker: no composition with that arrow survives in
    the quotient.  The two maps are mutually inverse wherever defined, and
    a successor is always composable with its arrow.  The tables are the
    one place their orbits, maximal paths and simple cycles are derived,
    by one walk on the first read of any; the maps and these three are
    kept read-only, since every reader of a presentation shares its tables.
    """

    quiver: Quiver
    sigma: Mapping[str, Optional[str]]
    tau: Mapping[str, Optional[str]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", MappingProxyType(dict(self.sigma)))
        object.__setattr__(self, "tau", MappingProxyType(dict(self.tau)))
        arrows = self.quiver._arrows
        if self.sigma.keys() != arrows.keys() or self.tau.keys() != arrows.keys():
            raise ValueError("tables must be defined on exactly the quiver's arrows")
        forward = {(a, b) for a, b in self.sigma.items() if b is not None}
        backward = {(a, b) for b, a in self.tau.items() if a is not None}
        pairs = forward | backward
        try:  # the failing pairs, sorted to name the least; all if one is unknown
            pairs = [(a, b) for a, b in pairs if arrows[a].target != arrows[b].source]
        except KeyError:
            pass
        for a, b in sorted(pairs):
            if self.quiver.arrow(a).target != self.quiver.arrow(b).source:
                raise ValueError(f"the tables pair {a} with {b}, which is not composable")
        if forward != backward:
            a, b = min(forward ^ backward)
            raise ValueError(f"tables are not mutually inverse at {a} {b}")

    @cached_property
    def _walked(self) -> tuple[Mapping[str, OrbitData], tuple[Path, ...], tuple[Path, ...]]:
        """The orbits, maximal paths and cycles, from one walk of each orbit.

        The tables are mutually inverse, so sigma is a partial injection
        with inverse tau.  From the least arrow of an orbit, sigma returns to
        it, closing a cycle whose length is each arrow's period, or stops,
        and tau walks back to the chain's first arrow: its arrow at index i
        of m stops i + 1 steps backwards and m - i forwards.  Every sigma
        pair composes, so each path is built from its arrows' ends."""
        sigma, tau, arrows = self.sigma, self.tau, self.quiver._arrows
        names = [a.name for a in self.quiver._by_name]
        out: dict[str, OrbitData] = {}
        chains, cycles = [], []
        for name in names:
            if name in out:
                continue
            orbit = deque([name])
            while (after := sigma[orbit[-1]]) is not None and after != name:
                orbit.append(after)
            if after is not None:
                out.update(dict.fromkeys(orbit, OrbitData(period=len(orbit))))
                cycles.append(orbit)
                continue
            while (before := tau[orbit[0]]) is not None:
                orbit.appendleft(before)
            m = len(orbit)
            for i, a in enumerate(orbit):
                out[a] = OrbitData(m - i, i + 1)
            chains.append(orbit)

        def along(orbit: deque[str]) -> Path:
            return _path(tuple(orbit), (arrows[orbit[0]].source, *(arrows[a].target for a in orbit)))

        # chains start with distinct arrows, so their first arrows sort them
        maxima = tuple(map(along, sorted(chains)))
        return MappingProxyType({a: out[a] for a in names}), maxima, tuple(map(along, cycles))

    @property
    def orbits(self) -> Mapping[str, OrbitData]:
        """Each arrow by its place on its orbit; a cycle's arrows share one."""
        return self._walked[0]

    @property
    def maximal_paths(self) -> tuple[Path, ...]:
        """The paths that cannot be extended either way, one per chain of
        sigma, sorted by arrow sequence."""
        return self._walked[1]

    @property
    def simple_cycles(self) -> tuple[Path, ...]:
        """One cycle per sigma-cycle, from its least arrow (its canonical
        rotation), sorted by arrow sequence."""
        return self._walked[2]


@dataclass(frozen=True, slots=True)
class OrbitData:
    """Iteration statistics of the successor maps at one arrow, slotted;
    unlike a :class:`Path`, always built by ``OrbitData(...)``.

    Exactly one of two shapes occurs: the forward orbit hits the stop
    marker after ``forward_stop`` steps (and the backward orbit after
    ``backward_stop``), or both orbits are cyclic with the same ``period``.
    """

    forward_stop: Optional[int] = None
    backward_stop: Optional[int] = None
    period: Optional[int] = None


def _surviving_compositions(
    presentation: Presentation,
) -> tuple[Report, dict[str, list[Arrow]], dict[str, list[Arrow]]]:
    """The multiserial-condition report, with each arrow's surviving
    successors and predecessors in name order, from one walk over the
    composable pairs that tests each two-arrow path once."""
    q, dead = presentation.quiver, presentation._quadratic
    successors = {
        a.name: [b for b in q._out[a.target] if (a.name, b.name) not in dead] for a in q._by_name
    }
    predecessors: dict[str, list[Arrow]] = {a.name: [] for a in q._by_name}
    for a in q._by_name:
        for b in successors[a.name]:
            predecessors[b.name].append(a)
    violations = [
        (f"unique-{side}({name})", found)
        for name, after in successors.items()
        for side, found in (("successor", after), ("predecessor", predecessors[name]))
        if len(found) > 1
    ]
    report = Report("multiserial-condition")
    for check, found in violations:
        report.add(check, False, "surviving compositions with " + ", ".join(a.name for a in found))
    report.add(
        "multiserial-condition",
        not violations,
        f"{len(violations)} arrow(s) violate the condition" if violations else "",
    )
    return report, successors, predecessors


def check_multiserial_condition(presentation: Presentation) -> Report:
    """Each arrow must admit at most one composable successor and at most
    one composable predecessor outside the ideal.

    Violations are report content, not faults; every offending arrow is
    listed with its surviving compositions; a disconnected quiver is a warning.
    """
    report = _surviving_compositions(presentation)[0]
    if not presentation.quiver.is_connected():
        report.warn(
            "quiver is disconnected; constructions proceed blockwise but the "
            "algebra is decomposable"
        )
    return report


def derive_successors(presentation: Presentation) -> SuccessorTables:
    """Read the successor and predecessor tables off the quadratic generators.

    Faults when the multiserial condition fails, since the tables would not
    be single-valued.  Returns the cached :attr:`Presentation.tables`.
    """
    return presentation.tables


def check_orbit_structure(tables: SuccessorTables) -> Report:
    """Verify the structural facts tying orbits, maximal paths and cycles.

    All four checks hold for any well-formed tables; a failure indicates
    an engine bug rather than bad input.
    """
    data = tables.orbits
    maxima = tables.maximal_paths
    cycles = tables.simple_cycles
    report = Report("orbit-structure")

    on = Counter(a for p in chain(maxima, cycles) for a in p.arrows)
    bad = [a for a in sorted(tables.quiver.arrows) if on[a] != 1]
    report.expect_none("arrow-partition", bad, "arrows not on exactly one maximal path or cycle")

    # each listed cycle is sigma's own, walked from its least arrow
    sigma, off_sigma = tables.sigma, []
    for c in cycles:
        names = c.arrows
        if names[0] != min(names):
            off_sigma.append(f"{c} starts at {names[0]}, not at its least arrow {min(names)}")
        off_sigma.extend(
            f"{c} at {a}: sigma gives {sigma[a]}, not {b}"
            for a, b in zip(names, names[1:] + names[:1])
            if sigma[a] != b
        )
    report.expect_none("cycle-follows-sigma", off_sigma)

    bad_len = [
        f"{c} at {a}: length {len(c)} != period {data[a].period}"
        for c in cycles
        for a in c.arrows
        if len(c) != data[a].period
    ]
    report.expect_none("cycle-length-is-period", bad_len)

    # The arrow at index i of m lies i + 1 steps from the stop backwards and
    # len(m) - i forwards, so its two orbit halves rebuild exactly m.
    mismatched = [
        f"{a} does not recover {m}"
        for m in maxima
        for i, a in enumerate(m.arrows)
        if (data[a].backward_stop, data[a].forward_stop) != (i + 1, len(m) - i)
    ]
    report.expect_none("maximal-path-determined-by-arrow", mismatched)

    return report


def minimal_monomial_bound(
    presentation: Presentation, budget: int = DEFAULT_MAX_PATHS
) -> Optional[int]:
    """Smallest valid nilpotency bound for a purely monomial presentation.

    Computed as one more than the longest path below the declared bound
    avoiding every zero path as a subword, capped below at 2.  Returns None
    when the presentation has binomial generators (membership is no longer
    a subword test) or when more than ``budget`` paths avoid them.
    """
    _check_budget_type(budget)
    if presentation.equal_pairs:
        return None
    longer = [p for p in presentation.zero_paths if len(p.arrows) != 2]
    automaton = MonomialAutomaton(presentation.quiver, longer, dead=presentation._quadratic)
    alive, longest = automaton.count(presentation.nilpotency - 1, budget)
    return None if alive > budget else max(longest + 1, 2)

"""Systems of weighted simple cycles, kept as their rotation classes, and
the relation sets they generate.

A cycle system is a set of simple cycles, closed under cyclic rotation,
with a multiplicity that is constant on each rotation class.  A class is
one defining cycle up to its start, so a system is given, and kept, as
one representative per class with its multiplicity, and never as its
rotations.  Subject to the axioms checked by :func:`validate`, such a
system presents a finite-dimensional algebra through three families of
relations: full cycle powers based at a common vertex are identified, a
full power followed by its first arrow vanishes, and every two-arrow path
off the cycles vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Mapping

from .quiver import Path, Quiver, _path, canonical_rotation
from .report import Report


class DefiningPair:
    """A rotation-closed set of simple cycles with per-class multiplicities,
    kept as its rotation classes: each class's canonical rotation with its
    multiplicity, and each arrow's class and position on it, in space linear
    in the arrows.  A rotation is a class and a start, ordered by its first
    arrow's name.  A caller gives one or more rotations of each class, each
    with the class's multiplicity, and gets their closure under rotation.
    The representatives are a border: each is checked once to be a simple
    cycle, once per class to be a path of ``quiver``, and a later one of a
    class to walk the same vertices; a multiplicity that is not a positive
    integer, or differs within a class, is refused with :class:`ValueError`.
    :attr:`axioms` reports on the axioms left, so that invalid systems can
    be represented and reported on.
    """

    def __init__(self, quiver: Quiver, representatives: Iterable[tuple[Path, int]]) -> None:
        classes: dict[tuple[str, ...], tuple[Path, int]] = {}
        for cycle, mult in representatives:
            _add_class(classes, quiver, cycle, mult)
        self._build(quiver, classes.values())

    @classmethod
    def _trusted(cls, quiver: Quiver, classes: Iterable[tuple[Path, int]]) -> DefiningPair:
        """A system of the given classes, each a canonical rotation, trusted
        to be a simple cycle of ``quiver``, with its multiplicity."""
        pair = cls.__new__(cls)
        pair._build(quiver, classes)
        return pair

    def _build(self, quiver: Quiver, classes: Iterable[tuple[Path, int]]) -> None:
        self.quiver = quiver
        self._classes = tuple(sorted(classes, key=lambda c: c[0].arrows))
        # each arrow's class and position, by name: every arrow of a valid
        # system starts one rotation, so this is the rotation order; an
        # arrow on two classes, which the axioms refuse, keeps its first
        place: dict[str, tuple[int, int]] = {}
        for k, (cycle, _) in enumerate(self._classes):
            for p, a in enumerate(cycle.arrows):
                place.setdefault(a, (k, p))
        self._place = dict(sorted(place.items()))

    def _start(self, head: str) -> tuple[Path, int, int]:
        """The class of the rotation that starts with arrow ``head``: its
        representative, the position of ``head`` on it, and its multiplicity."""
        k, p = self._place[head]
        cycle, mu = self._classes[k]
        return cycle, p, mu

    @cached_property
    def next_arrow(self) -> Mapping[str, str]:
        """The arrow that follows each arrow on its cycle, read-only, as every
        reader of a cover shares it; complete and single-valued for a
        system passing :func:`validate`."""
        return MappingProxyType({
            a: b for c, _ in self._classes for a, b in zip(c.arrows, c.arrows[1:] + c.arrows[:1])
        })

    @cached_property
    def axioms(self) -> Report:
        """The report on the axioms that construction leaves open, with
        witnesses on failure, made on first use and shared by every reader;
        each reads the classes once."""
        report = Report("cycle-system-axioms")

        bad_loops = [str(c) for c, mu in self._classes if len(c) == 1 and mu == 1]
        report.expect_none("loop-multiplicity", bad_loops, "loops need multiplicity > 1")

        uncovered = sorted(self.quiver.arrows.keys() - self._place.keys())
        report.expect_none("arrow-coverage", uncovered, "arrows on no cycle")

        conflicts = sorted({
            a for k, (c, _) in enumerate(self._classes) for a in c.arrows if self._place[a][0] != k
        })
        report.expect_none("unique-class-per-arrow", conflicts, "arrows on two distinct classes")

        return report

    @cached_property
    def relations(self) -> RelationSet:
        """The full (possibly redundant) generating set of the ideal, rendered
        as paths on first use and shared; requires a system passing
        :func:`validate`.  Type 1 pairs the full powers of every two arrows
        out of a vertex, vertex by vertex; type 2 is one overrun per rotation;
        type 3 is each arrow followed by an arrow other than its successor,
        all in name order.  Two-arrow paths count as on-cycle when they
        travel a cycle cyclically, so the square of a loop with multiplicity
        above one is not a relation."""
        out, following = self.quiver._out, self.next_arrow
        return RelationSet(
            *self._powers,
            # Every arrow lies on exactly one rotation class, so ab travels a
            # cycle exactly when b follows a there.
            tuple(
                _path((a.name, b.name), (a.source, a.target, b.target))
                for a in self.quiver._by_name for b in out[a.target]
                if following[a.name] != b.name
            ),
        )

    def _rings(self) -> list[tuple[tuple[str, ...], tuple[str, ...], int]]:
        """Each class as one ring, its arrows and stops walked mu + 1 times,
        with its full length mu l: the rotation at position p reads its path
        of m <= mu l + 1 arrows as the slices [p : p + m] and [p : p + m + 1]."""
        return [
            (c.arrows * (mu + 1), c.vertices[:-1] * (mu + 1) + c.vertices[:1], mu * len(c))
            for c, mu in self._classes
        ]

    @cached_property
    def _powers(self) -> tuple[tuple[tuple[Path, Path], ...], tuple[Path, ...]]:
        """Types 1 and 2 of :attr:`relations`, rendered on first use and
        shared with it, so the oracle reads them without type 3.  Each
        rotation reads its full power and its overrun, mu l and mu l + 1
        arrows, as slices of its class's ring (:meth:`_rings`)."""
        self.require_valid()
        rings, full, overrun = self._rings(), {}, []
        for head, (k, p) in self._place.items():
            arrows, stops, length = rings[k]
            full[head] = _path(arrows[p : p + length], stops[p : p + length + 1])
            overrun.append(_path(arrows[p : p + length + 1], stops[p : p + length + 2]))
        out = self.quiver._out
        # every arrow starts one rotation, so a vertex's rotations start with its arrows
        return (
            tuple(
                (full[a.name], full[b.name])
                for v in self.quiver.vertices for a, b in combinations(out[v], 2)
            ),
            tuple(overrun),
        )

    def require_valid(self) -> None:
        """Raise :class:`ValueError` naming the failed axioms, if any."""
        if not self.axioms.passed:
            failed = ", ".join(c.name for c in self.axioms.failures())
            raise ValueError(f"cycle system fails validation: {failed}")

    def rotation_class_representatives(self) -> list[tuple[Path, int]]:
        """One canonical (lexicographically least) cycle per rotation class,
        with its multiplicity, in the order of their arrows."""
        return list(self._classes)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DefiningPair)
            and self.quiver == other.quiver
            and self._classes == other._classes
        )

    def __repr__(self) -> str:
        rotations = sum(len(c) for c, _ in self._classes)
        return f"DefiningPair({len(self._classes)} rotation classes, {rotations} cycles)"


def close_under_rotation(
    quiver: Quiver, representatives: Iterable[tuple[Path, int]]
) -> DefiningPair:
    """The cycle system of ``representatives``: :class:`DefiningPair` under
    its former name."""
    return DefiningPair(quiver, representatives)


def _add_class(classes: dict, quiver: Quiver, cycle: Path, mult: int) -> None:
    """:class:`DefiningPair`'s step, which the parser takes line by line:
    check one representative and add its class, keyed by the arrows of its
    canonical rotation, with its multiplicity."""
    canon = canonical_rotation(cycle)
    known = classes.get(canon.arrows)
    if not (known[0] == canon if known is not None else quiver.contains_path(canon)):
        raise ValueError(f"cycle {cycle} is not a path of the quiver")
    if known is None:
        if type(mult) is not int or mult < 1:
            raise ValueError(f"multiplicity of {canon} must be a positive integer")
        classes[canon.arrows] = canon, mult
    elif known[1] != mult:
        raise ValueError(
            f"conflicting multiplicities {known[1]} and {mult} "
            f"for rotations of {canon}"
        )


def validate(pair: DefiningPair) -> Report:
    """Check the axioms of a cycle system, with witnesses on failure: a
    copy of :attr:`DefiningPair.axioms`, derived once per system, that the
    caller may change freely."""
    axioms = pair.axioms
    return Report(axioms.title, list(axioms.checks), list(axioms.warnings))


@dataclass(frozen=True)
class RelationSet:
    """The generated relations: binomial pairs of full cycle powers at a
    shared vertex, full powers extended by their first arrow, and the
    two-arrow paths lying on no cycle."""

    type1: tuple[tuple[Path, Path], ...]
    type2: tuple[Path, ...]
    type3: tuple[Path, ...]

    def counts(self) -> tuple[int, int, int]:
        return len(self.type1), len(self.type2), len(self.type3)

    def linear_relations(self) -> list[tuple[Path, Path | None]]:
        """The generators for the dimension oracle: each type-1 difference
        p - q as ``(p, q)``, then each type-2 and type-3 path p as ``(p, None)``."""
        return [*self.type1, *((p, None) for p in self.type2 + self.type3)]


def generate_relations(pair: DefiningPair) -> RelationSet:
    """The relations of a cycle system passing :func:`validate`: the
    immutable :attr:`DefiningPair.relations`, generated once per system."""
    return pair.relations


def nilpotency_bound(pair: DefiningPair) -> int:
    """One more than the longest full cycle power; every path at least this
    long vanishes in the presented algebra."""
    longest = max((mu * len(c) for c, mu in pair._classes), default=1)
    return longest + 1

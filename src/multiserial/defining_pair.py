"""Systems of weighted simple cycles, kept as their rotation classes, and
the relation sets they generate.

A cycle system is a set of simple cycles, closed under cyclic rotation,
with a multiplicity that is constant on each rotation class.  A class is
one defining cycle up to its start, so the system keeps one representative
per class with its multiplicity, and never a rotation.  Subject to the
axioms checked by :func:`validate`, such a system presents a
finite-dimensional algebra through three families of relations: full cycle
powers based at a common vertex are identified, a full power followed by
its first arrow vanishes, and every two-arrow path off the cycles
vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Mapping

from .quiver import (
    Path,
    Quiver,
    _path,
    _power,
    _rotation,
    canonical_rotation,
    is_simple_cycle,
)
from .report import Report


class DefiningPair:
    """A rotation-closed set of simple cycles with per-class multiplicities,
    kept as its rotation classes: each class's canonical rotation with its
    multiplicity, and each arrow's class and position on it, in space linear
    in the arrows.  A rotation is a class and a start, ordered by its first
    arrow's name.  A caller's list of every rotation is a border: each cycle
    is checked once to be a simple cycle of the quiver, and a list missing
    a rotation, or weighting one class unevenly, is refused with
    :class:`ValueError`.  :attr:`axioms` reports on the axioms left, so that
    invalid systems can be represented and reported on.
    """

    def __init__(
        self,
        quiver: Quiver,
        cycles: Iterable[Path],
        mult: Mapping[tuple[str, ...], int],
    ) -> None:
        unique: dict[tuple[str, ...], Path] = {}
        for c in cycles:
            if not is_simple_cycle(c):
                raise ValueError(f"not a simple cycle: {c}")
            if not quiver.contains_path(c):
                raise ValueError(f"cycle {c} is not a path of the quiver")
            unique[c.arrows] = c
        for key, value in mult.items():
            if key not in unique:
                raise ValueError(f"multiplicity given for unknown cycle {' '.join(key)}")
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"multiplicity of {' '.join(key)} must be a positive integer")
        missing = [k for k in unique if k not in mult]
        if missing:
            raise ValueError(f"cycle {' '.join(missing[0])} has no multiplicity")
        members: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
        for key in sorted(unique):
            members.setdefault(canonical_rotation(unique[key]).arrows, []).append(key)
        # only a refused class enumerates its rotations, for the witnesses
        unclosed, uneven = [], []
        refused = (g for g in members.values() if len(g) != len(g[0]) or len({mult[k] for k in g}) > 1)
        for key in sorted(k for group in refused for k in group):
            for r in (_rotation(unique[key], i) for i in range(len(key))):
                if r.arrows not in unique:
                    unclosed.append(f"{r} (rotation of {unique[key]})")
                elif mult[r.arrows] != mult[key]:
                    uneven.append(f"{unique[key]} has {mult[key]}, rotation {r} has {mult[r.arrows]}")
        if unclosed:
            raise ValueError("cycles not closed under rotation: " + "; ".join(unclosed))
        if uneven:
            raise ValueError("multiplicity not constant on a rotation class: " + "; ".join(uneven))
        # a closed class's least rotation is its canonical one
        self._build(quiver, [(unique[group[0]], mult[group[0]]) for group in members.values()])

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

    def _full_power(self, head: str) -> Path:
        """The full power of the rotation that starts with arrow ``head``."""
        cycle, p, mu = self._start(head)
        return _power(_rotation(cycle, p), mu)

    @cached_property
    def next_arrow(self) -> Mapping[str, str]:
        """The arrow that follows each arrow on its cycle, read-only, as every
        reader of a cover shares it; complete and single-valued for a
        system passing :func:`validate`."""
        return MappingProxyType({
            a: cycle.arrows[(p + 1) % len(cycle)]
            for cycle, _ in self._classes for p, a in enumerate(cycle.arrows)
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
    def _generators(self) -> tuple[list, list]:
        """The generator index, made on first use: type 1 as the pairs of
        first arrows of rotations whose full powers share a source, type 3 as
        the ``Arrow`` pairs off the cycles, both in name order; type 2 is one
        per rotation."""
        self.require_valid()
        out = self.quiver._out
        # every arrow starts one rotation, so a vertex's rotations start with its arrows
        type1 = [
            both for v in self.quiver.vertices for both in combinations([a.name for a in out[v]], 2)
        ]
        # Every arrow lies on exactly one rotation class, so ab travels a cycle
        # exactly when b follows a there.
        following = self.next_arrow
        type3 = [
            (a, b) for a in self.quiver._by_name for b in out[a.target]
            if following[a.name] != b.name
        ]
        return type1, type3

    @cached_property
    def relations(self) -> RelationSet:
        """The full (possibly redundant) generating set of the ideal, rendered
        as paths from :attr:`_generators` on first use and shared; requires a
        system passing :func:`validate`.  Two-arrow paths count as on-cycle
        when they travel a cycle cyclically, so the square of a loop with
        multiplicity above one is not a relation."""
        type1, type3 = self._generators
        full = {head: self._full_power(head) for head in self._place}
        return RelationSet(
            tuple((full[a], full[b]) for a, b in type1),
            tuple(_path(p.arrows + p.arrows[:1], p.vertices + p.vertices[1:2]) for p in full.values()),
            tuple(_path((a.name, b.name), (a.source, a.target, b.target)) for a, b in type3),
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
    """Build a cycle system from one representative per rotation class.

    Rotation closure and constancy of the multiplicity on each class hold
    by construction.  The representatives are a border: each is checked
    once to be a simple cycle, once per rotation class to be a path of
    ``quiver``, and a later one of a class to walk the same vertices.
    Two representatives of one class with different multiplicities are a
    fault.
    """
    classes: dict[tuple[str, ...], tuple[Path, int]] = {}
    for cycle, mult in representatives:
        _add_class(classes, quiver, cycle, mult)
    return DefiningPair._trusted(quiver, classes.values())


def _add_class(classes: dict, quiver: Quiver, cycle: Path, mult: int) -> None:
    """:func:`close_under_rotation`'s step, which the parser takes line by
    line: check one representative and add its class, keyed by the arrows
    of its canonical rotation, with its multiplicity."""
    canon = canonical_rotation(cycle)
    known = classes.get(canon.arrows)
    if not (known[0] == canon if known is not None else quiver.contains_path(canon)):
        raise ValueError(f"cycle {cycle} is not a path of the quiver")
    if known is None:
        if not isinstance(mult, int) or mult < 1:
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

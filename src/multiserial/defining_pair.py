"""Rotation-closed systems of weighted simple cycles and the relation
sets they generate.

A cycle system pairs a set of simple cycles, closed under cyclic rotation,
with a multiplicity that is constant on each rotation class.  Subject to
the axioms checked by :func:`validate`, such a system presents a
finite-dimensional algebra through three families of relations: full cycle
powers based at a common vertex are identified, a full power followed by
its first arrow vanishes, and every two-arrow path off the cycles
vanishes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Mapping

from .quiver import (
    Path,
    Quiver,
    _canonical,
    _path,
    _power,
    _rotation,
    canonical_rotation,
    is_simple_cycle,
)
from .report import Report


class DefiningPair:
    """A rotation-closed set of simple cycles with per-class multiplicities.

    ``cycles`` holds every rotation explicitly; ``mult`` maps each cycle's
    arrow tuple to its multiplicity.  Construction checks only structural
    sanity; :attr:`axioms` reports on the axioms, so that invalid systems
    can be represented and reported on.  A caller's system is a border,
    where each cycle is checked once to be a simple cycle of the quiver;
    :func:`close_under_rotation` builds its rotations by :meth:`_trusted`.
    """

    def __init__(
        self,
        quiver: Quiver,
        cycles: Iterable[Path],
        mult: Mapping[tuple[str, ...], int],
    ) -> None:
        self._build(quiver, cycles, mult, trusted=False)

    @classmethod
    def _trusted(cls, *args) -> DefiningPair:
        """``DefiningPair(*args)``, trusting its cycles to be simple cycles of its quiver."""
        pair = cls.__new__(cls)
        pair._build(*args, trusted=True)
        return pair

    def _build(self, quiver: Quiver, cycles: Iterable[Path], mult: Mapping, trusted: bool) -> None:
        self.quiver = quiver
        unique: dict[tuple[str, ...], Path] = {}
        for c in cycles:
            if not (trusted or is_simple_cycle(c)):
                raise ValueError(f"not a simple cycle: {c}")
            if not (trusted or quiver.contains_path(c)):
                raise ValueError(f"cycle {c} is not a path of the quiver")
            unique[c.arrows] = c
        self.cycles: tuple[Path, ...] = tuple(
            unique[k] for k in sorted(unique)
        )
        self._mult: dict[tuple[str, ...], int] = {}
        for key, value in mult.items():
            if key not in unique:
                raise ValueError(f"multiplicity given for unknown cycle {' '.join(key)}")
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"multiplicity of {' '.join(key)} must be a positive integer")
            self._mult[key] = value
        missing = [k for k in unique if k not in self._mult]
        if missing:
            raise ValueError(f"cycle {' '.join(missing[0])} has no multiplicity")

    def mu(self, cycle: Path) -> int:
        return self._mult[cycle.arrows]

    @cached_property
    def next_arrow(self) -> Mapping[str, str]:
        """The arrow that follows each arrow on its cycle, read-only, as every
        reader of a cover shares it.  Read from the first two arrows of every
        stored rotation, so it is complete and single-valued for a system
        passing :func:`validate`."""
        return MappingProxyType({c.arrows[0]: c.arrows[1 % len(c)] for c in self.cycles})

    @cached_property
    def axioms(self) -> Report:
        """The report on the five axioms, with witnesses on failure, made on
        first use and shared by every reader.  Rotation classes are keyed by
        :func:`canonical_rotation` as integer ids, so the checks cost
        O(sum of cycle lengths); only a failing class enumerates rotations,
        for witnesses."""
        report = Report("cycle-system-axioms")

        bad_loops = [
            str(c) for c in self.cycles if len(c) == 1 and self.mu(c) == 1
        ]
        report.expect_none("loop-multiplicity", bad_loops, "loops need multiplicity > 1")

        ids: dict[tuple[str, ...], int] = {}
        class_of = [ids.setdefault(_canonical(c).arrows, len(ids)) for c in self.cycles]
        members = Counter(class_of)
        unclosed = {k for k, key in enumerate(ids) if members[k] != len(key)}
        mult = {k: self.mu(c) for k, c in zip(class_of, self.cycles)}
        uneven_classes = {k for k, c in zip(class_of, self.cycles) if self.mu(c) != mult[k]}

        present = {c.arrows for c in self.cycles}
        missing_rotations = [
            f"{r} (rotation of {c})"
            for k, c in zip(class_of, self.cycles) if k in unclosed
            for r in (_rotation(c, i) for i in range(len(c))) if r.arrows not in present
        ]
        report.expect_none("rotation-closure", missing_rotations)

        uneven = [
            f"{c} has {self.mu(c)}, rotation {r} has {self.mu(r)}"
            for k, c in zip(class_of, self.cycles) if k in uneven_classes
            for r in (_rotation(c, i) for i in range(len(c)))
            if r.arrows in present and self.mu(r) != self.mu(c)
        ]
        report.expect_none("class-multiplicity", uneven)

        covered = {a for c in self.cycles for a in c.arrows}
        uncovered = sorted(set(self.quiver.arrows) - covered)
        report.expect_none("arrow-coverage", uncovered, "arrows on no cycle")

        first_class: dict[str, int] = {}
        conflicts = sorted({
            a
            for k, c in zip(class_of, self.cycles)
            for a in c.arrows
            if first_class.setdefault(a, k) != k
        })
        report.expect_none("unique-class-per-arrow", conflicts, "arrows on two distinct classes")

        return report

    @cached_property
    def _generators(self) -> tuple[list, list]:
        """The generator index, made on first use: type 1 as the pairs of
        indices into ``cycles`` whose full powers share a source, type 3 as
        the ``Arrow`` pairs off the cycles, in name order; type 2 is one per cycle."""
        self.require_valid()
        at: dict[str, list[int]] = {v: [] for v in self.quiver.vertices}
        for i, c in enumerate(self.cycles):
            at[c.source].append(i)
        type1 = [both for at_v in at.values() for both in combinations(at_v, 2)]
        # Every arrow lies on exactly one rotation class, so ab travels a cycle
        # exactly when b follows a there.
        following, out = self.next_arrow, self.quiver._out
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
        full = [_power(c, self.mu(c)) for c in self.cycles]
        return RelationSet(
            tuple((full[i], full[j]) for i, j in type1),
            tuple(_path(p.arrows + p.arrows[:1], p.vertices + p.vertices[1:2]) for p in full),
            tuple(_path((a.name, b.name), (a.source, a.target, b.target)) for a, b in type3),
        )

    def require_valid(self) -> None:
        """Raise :class:`ValueError` naming the failed axioms, if any."""
        if not self.axioms.passed:
            failed = ", ".join(c.name for c in self.axioms.failures())
            raise ValueError(f"cycle system fails validation: {failed}")

    def rotation_class_representatives(self) -> list[tuple[Path, int]]:
        """One canonical (lexicographically least) cycle per rotation class."""
        reps: dict[tuple[str, ...], tuple[Path, int]] = {}
        for c in self.cycles:
            canon = _canonical(c)
            reps.setdefault(canon.arrows, (canon, self.mu(c)))
        return [reps[k] for k in sorted(reps)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DefiningPair)
            and self.quiver == other.quiver
            and self.cycles == other.cycles
            and self._mult == other._mult
        )

    def __repr__(self) -> str:
        classes = len(self.rotation_class_representatives())
        return f"DefiningPair({classes} rotation classes, {len(self.cycles)} cycles)"


def close_under_rotation(
    quiver: Quiver, representatives: Iterable[tuple[Path, int]]
) -> DefiningPair:
    """Build a cycle system from one representative per rotation class.

    Rotation closure and constancy of the multiplicity on each class hold
    by construction.  The representatives are a border: each is checked
    once to be a simple cycle, once per rotation class to be a path of
    ``quiver``, and a later one of a class to walk the same vertices; their
    rotations are trusted.
    Two representatives of one class with different multiplicities are a
    fault.
    """
    cycles: dict[tuple[str, ...], Path] = {}
    mults: dict[tuple[str, ...], int] = {}
    for cycle, mult in representatives:
        _add_rotations(cycles, mults, quiver, cycle, mult)
    return DefiningPair._trusted(quiver, cycles.values(), mults)


def _add_rotations(cycles: dict, mults: dict, quiver: Quiver, cycle: Path, mult: int) -> None:
    """:func:`close_under_rotation`'s step, which the parser takes line by
    line: check one representative and, for a new class, add its rotations
    and their multiplicity, keyed by their arrows."""
    canon = canonical_rotation(cycle)
    known = cycles.get(canon.arrows)
    if not (known == canon if known is not None else quiver.contains_path(canon)):
        raise ValueError(f"cycle {cycle} is not a path of the quiver")
    if known is None:
        for i in range(len(canon.arrows)):
            rotation = _rotation(canon, i)
            cycles[rotation.arrows] = rotation
            mults[rotation.arrows] = mult
    elif mults[canon.arrows] != mult:
        raise ValueError(
            f"conflicting multiplicities {mults[canon.arrows]} and {mult} "
            f"for rotations of {canon}"
        )


def validate(pair: DefiningPair) -> Report:
    """Check the five axioms of a cycle system, with witnesses on failure:
    a copy of :attr:`DefiningPair.axioms`, derived once per system, that the
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
    longest = max((pair.mu(c) * len(c) for c in pair.cycles), default=1)
    return longest + 1

"""The finite-dimensional algebra presented by a cycle system.

Two independent routes to the same algebra live here.  The closed form
(:class:`CycleAlgebra`) enumerates an explicit basis directly from the
cycle structure and multiplies via normal forms.  The oracle
(:func:`oracle_dimension`) knows nothing of that structure: it performs
exact linear algebra in a truncated path algebra, closing the relation
span under arrow multiplication.  Tests and the acceptance suite hold the
two routes against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

from .defining_pair import DefiningPair, validate
from .fields import RATIONALS
from .quiver import Path, Quiver, compose
from .report import Report

DEFAULT_MAX_PATHS = 200_000


class OracleBudgetError(RuntimeError):
    """Truncated path enumeration exceeded its cap; shrink the instance or
    raise the budget."""


@dataclass(frozen=True)
class Idempotent:
    vertex: str

    @property
    def source(self) -> str:
        return self.vertex

    @property
    def target(self) -> str:
        return self.vertex

    def __str__(self) -> str:
        return f"e({self.vertex})"


@dataclass(frozen=True)
class OnCyclePath:
    """A nonzero proper path along a cycle: shorter than the full power."""

    path: Path

    @property
    def source(self) -> str:
        return self.path.source

    @property
    def target(self) -> str:
        return self.path.target

    def __str__(self) -> str:
        return str(self.path)


@dataclass(frozen=True)
class Socle:
    """The common class of all full cycle powers based at one vertex."""

    vertex: str

    @property
    def source(self) -> str:
        return self.vertex

    @property
    def target(self) -> str:
        return self.vertex

    def __str__(self) -> str:
        return f"socle({self.vertex})"


BasisElement = Union[Idempotent, OnCyclePath, Socle]

# A linear combination is a dict from basis elements to nonzero field
# coefficients; the empty dict is zero.
LinearCombination = dict


@dataclass
class GramMatrix:
    basis: list[BasisElement]
    entries: list[list]
    rank: int
    nondegenerate: bool
    is_permutation: bool
    warnings: list[str]

    @property
    def dimension(self) -> int:
        return len(self.basis)


@dataclass
class CartanMatrix:
    vertices: tuple[str, ...]
    entries: list[list[int]]


class CycleAlgebra:
    """Closed-form model of the algebra presented by a cycle system.

    The basis consists of one idempotent per vertex, every proper path
    along a cycle (shorter than the full power of its class), and one
    socle element per vertex that carries a cycle.  Construction insists
    on a system passing validation.
    """

    def __init__(self, pair: DefiningPair, field=RATIONALS) -> None:
        verdict = validate(pair)
        if not verdict.passed:
            failed = ", ".join(c.name for c in verdict.failures())
            raise ValueError(f"cycle system fails validation: {failed}")
        self.pair = pair
        self.field = field
        self._full_length: dict[str, int] = {}
        for cycle in pair.cycles:
            length = pair.mu(cycle) * len(cycle)
            for name in cycle.arrows:
                self._full_length[name] = length
        socle_vertices = {c.source for c in pair.cycles}
        self._socle_vertices = tuple(
            v for v in pair.quiver.vertices if v in socle_vertices
        )
        self._basis = self._build_basis()
        self._index = {e: i for i, e in enumerate(self._basis)}
        self._products: dict[tuple[BasisElement, BasisElement], dict] = {}
        self._gram_entries: list[list] | None = None

    def _build_basis(self) -> list[BasisElement]:
        elements: list[BasisElement] = [
            Idempotent(v) for v in self.pair.quiver.vertices
        ]
        for cycle in self.pair.cycles:
            length = self.pair.mu(cycle) * len(cycle)
            walk_arrows = cycle.arrows * self.pair.mu(cycle)
            walk_vertices = cycle.vertices[:-1] * self.pair.mu(cycle) + (cycle.source,)
            full = Path(walk_arrows, walk_vertices)
            for cut in range(1, length):
                elements.append(
                    OnCyclePath(Path(full.arrows[:cut], full.vertices[: cut + 1]))
                )
        elements.extend(Socle(v) for v in self._socle_vertices)
        return elements

    @property
    def basis(self) -> list[BasisElement]:
        return list(self._basis)

    @property
    def dimension(self) -> int:
        return len(self._basis)

    def normal_form(self, path: Path) -> dict:
        """The class of a path: a singleton combination or zero.

        A nontrivial path survives exactly when it travels some cycle of
        the system for at most the full power length; at exactly that
        length it is the socle class of its base vertex.
        """
        if not self.pair.quiver.contains_path(path):
            raise ValueError(f"{path} is not a path of the system's quiver")
        if path.is_trivial:
            return {Idempotent(path.source): self.field.one}
        first = path.arrows[0]
        if first not in self._full_length:
            raise ValueError(f"arrow {first!r} lies on no cycle of the system")
        if len(path) > self._full_length[first]:
            return {}
        following = self.pair.next_arrow
        expected = first
        for name in path.arrows:
            if name != expected:
                return {}
            expected = following[name]
        if len(path) == self._full_length[first]:
            return {Socle(path.source): self.field.one}
        return {OnCyclePath(path): self.field.one}

    def _basis_product(self, x: BasisElement, y: BasisElement) -> dict:
        key = (x, y)
        cached = self._products.get(key)
        if cached is not None:
            return cached
        if x.target != y.source:
            result: dict = {}
        elif isinstance(x, Idempotent):
            result = {y: self.field.one}
        elif isinstance(y, Idempotent):
            result = {x: self.field.one}
        elif isinstance(x, Socle) or isinstance(y, Socle):
            # full powers already have maximal surviving length
            result = {}
        else:
            joined = compose(x.path, y.path)
            assert joined is not None
            result = self.normal_form(joined)
        self._products[key] = result
        return result

    def multiply(self, x: Mapping, y: Mapping) -> dict:
        """Bilinear extension of basis concatenation followed by reduction."""
        F = self.field
        out: dict = {}
        for ex, cx in x.items():
            for ey, cy in y.items():
                scale = F.mul(cx, cy)
                for ez, cz in self._basis_product(ex, ey).items():
                    total = F.add(out.get(ez, F.zero), F.mul(scale, cz))
                    if total == F.zero:
                        out.pop(ez, None)
                    else:
                        out[ez] = total
        return out

    def frobenius_form(self, x: Mapping):
        """Sum of the socle coefficients; one on every full cycle power."""
        F = self.field
        total = F.zero
        for element, coeff in x.items():
            if isinstance(element, Socle):
                total = F.add(total, coeff)
        return total

    def _all_gram_entries(self) -> list[list]:
        if self._gram_entries is None:
            self._gram_entries = [
                [
                    self.frobenius_form(self._basis_product(x, y))
                    for y in self._basis
                ]
                for x in self._basis
            ]
        return self._gram_entries

    def gram_matrix(self) -> GramMatrix:
        """The pairing (x, y) -> form(x * y) over the canonical basis.

        Rank is computed by exact elimination; nondegeneracy means full
        rank.  Vertices carrying no arrow make their block degenerate and
        are reported as warnings.
        """
        F = self.field
        entries = self._all_gram_entries()
        reducer = _RowReducer(F)
        for row in entries:
            vec = {j: c for j, c in enumerate(row) if c != F.zero}
            reducer.insert(vec)
        rank = reducer.rank
        dimension = self.dimension

        is_permutation = True
        column_hits = [0] * dimension
        for row in entries:
            hits = [j for j, c in enumerate(row) if c != F.zero]
            if len(hits) != 1 or row[hits[0]] != F.one:
                is_permutation = False
            for j in hits:
                column_hits[j] += 1
        if any(h != 1 for h in column_hits):
            is_permutation = False

        warnings = []
        touched = {a.source for a in self.pair.quiver.arrows.values()}
        touched |= {a.target for a in self.pair.quiver.arrows.values()}
        for v in self.pair.quiver.vertices:
            if v not in touched:
                warnings.append(
                    f"vertex {v} has no incident arrows; the form vanishes on "
                    "its block and the pairing is degenerate there"
                )
        return GramMatrix(
            basis=self.basis,
            entries=[list(row) for row in entries],
            rank=rank,
            nondegenerate=rank == dimension,
            is_permutation=is_permutation,
            warnings=warnings,
        )

    def check_trace_symmetry(self) -> Report:
        """Exhaustively verify form(x * y) = form(y * x) over basis pairs."""
        entries = self._all_gram_entries()
        report = Report("trace-symmetry")
        mismatches = []
        n = self.dimension
        for i in range(n):
            for j in range(n):
                if entries[i][j] != entries[j][i]:
                    mismatches.append(
                        f"form({self._basis[i]} * {self._basis[j]}) = "
                        f"{entries[i][j]} but reversed gives {entries[j][i]}"
                    )
        report.add(
            "trace-symmetry",
            not mismatches,
            mismatches[0] if mismatches else f"{n * n} ordered pairs checked",
        )
        return report

    def cartan_matrix(self) -> CartanMatrix:
        """Counts of basis elements by (source, target) vertex pair."""
        vertices = self.pair.quiver.vertices
        position = {v: i for i, v in enumerate(vertices)}
        entries = [[0] * len(vertices) for _ in vertices]
        for element in self._basis:
            entries[position[element.source]][position[element.target]] += 1
        return CartanMatrix(vertices, entries)

    def check_multiserial(self) -> Report:
        """Re-derive successor data from the quotient semantics.

        Every arrow must admit exactly one surviving composition on each
        side, and it must be the neighbouring arrow on the arrow's cycle.
        """
        q = self.pair.quiver
        following = self.pair.next_arrow
        preceding = {b: a for a, b in following.items()}
        report = Report("multiserial-quotient")
        problems = []
        for arrow in sorted(q.arrows.values(), key=lambda a: a.name):
            succ = [
                b.name
                for b in q.arrows_from(arrow.target)
                if self.normal_form(q.path([arrow.name, b.name]))
            ]
            if succ != [following[arrow.name]]:
                problems.append(
                    f"{arrow.name} has surviving successors {succ}, "
                    f"expected [{following[arrow.name]}]"
                )
            pred = [
                c.name
                for c in q.arrows_into(arrow.source)
                if self.normal_form(q.path([c.name, arrow.name]))
            ]
            if pred != [preceding[arrow.name]]:
                problems.append(
                    f"{arrow.name} has surviving predecessors {pred}, "
                    f"expected [{preceding[arrow.name]}]"
                )
        report.add("multiserial-quotient", not problems, "; ".join(problems))
        return report


class _RowReducer:
    """Incremental sparse Gaussian elimination over an exact field.

    Rows are dicts from column index to coefficient; pivots are normalized
    to leading coefficient one and never modified afterwards, so inserted
    rows can be safely reused as span generators.
    """

    def __init__(self, field) -> None:
        self.field = field
        self.pivots: dict[int, dict] = {}

    def insert(self, vec: dict) -> dict | None:
        """Reduce against current pivots; install and return the new pivot
        row, or None when the vector was already in the span."""
        F = self.field
        vec = dict(vec)
        while vec:
            lead = max(vec)
            pivot = self.pivots.get(lead)
            if pivot is None:
                inv = F.div(F.one, vec[lead])
                normalized = {j: F.mul(inv, c) for j, c in vec.items()}
                self.pivots[lead] = normalized
                return normalized
            factor = vec[lead]
            for j, c in pivot.items():
                updated = F.sub(vec.get(j, F.zero), F.mul(factor, c))
                if updated == F.zero:
                    vec.pop(j, None)
                else:
                    vec[j] = updated
        return None

    @property
    def rank(self) -> int:
        return len(self.pivots)


def enumerate_paths(
    quiver: Quiver, max_length: int, max_paths: int = DEFAULT_MAX_PATHS
) -> list[Path]:
    """All paths of length 0..max_length, shortest first, arrows in name
    order; faults when the count passes ``max_paths``."""
    paths: list[Path] = [quiver.trivial_path(v) for v in quiver.vertices]
    budget_message = (
        f"more than {max_paths} paths below the truncation bound; "
        "shrink the instance or raise the budget"
    )
    if len(paths) > max_paths:
        raise OracleBudgetError(budget_message)
    frontier = list(paths)
    for _ in range(max_length):
        grown = []
        total = len(paths)
        for p in frontier:
            for arrow in quiver.arrows_from(p.target):
                grown.append(
                    Path(p.arrows + (arrow.name,), p.vertices + (arrow.target,))
                )
                total += 1
                if total > max_paths:
                    raise OracleBudgetError(budget_message)
        paths.extend(grown)
        if not grown:
            break
        frontier = grown
    return paths


def oracle_dimension(
    quiver: Quiver,
    relations: Iterable[Sequence[tuple[int, Path]]],
    bound: int,
    field=RATIONALS,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> int:
    """Dimension of the quotient by brute force in a truncated path algebra.

    ``bound`` must satisfy: every path of length >= bound lies in the
    ideal.  The paths shorter than the bound form a linear basis of the
    truncation; the relation images are closed under multiplication by
    arrows on both sides (products overflowing the bound vanish) and the
    dimension is the basis count minus the rank of that span.
    """
    if bound < 2:
        raise ValueError("truncation bound must be at least 2")
    paths = enumerate_paths(quiver, bound - 1, max_paths)
    index = {p: i for i, p in enumerate(paths)}
    F = field
    reducer = _RowReducer(F)
    pending: list[dict] = []

    for relation in relations:
        vec: dict = {}
        for coeff, path in relation:
            if len(path) >= bound:
                continue
            j = index[path]
            total = F.add(vec.get(j, F.zero), F.coerce(coeff))
            if total == F.zero:
                vec.pop(j, None)
            else:
                vec[j] = total
        if vec:
            inserted = reducer.insert(vec)
            if inserted is not None:
                pending.append(inserted)

    arrows = sorted(quiver.arrows.values(), key=lambda a: a.name)
    while pending:
        vec = pending.pop()
        for arrow in arrows:
            left: dict = {}
            right: dict = {}
            for j, c in vec.items():
                p = paths[j]
                if len(p) + 1 < bound:
                    if arrow.target == p.source:
                        grown = Path(
                            (arrow.name,) + p.arrows, (arrow.source,) + p.vertices
                        )
                        left[index[grown]] = c
                    if p.target == arrow.source:
                        grown = Path(
                            p.arrows + (arrow.name,), p.vertices + (arrow.target,)
                        )
                        right[index[grown]] = c
            for vec2 in (left, right):
                if vec2:
                    inserted = reducer.insert(vec2)
                    if inserted is not None:
                        pending.append(inserted)

    return len(paths) - reducer.rank

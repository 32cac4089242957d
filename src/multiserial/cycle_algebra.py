"""The finite-dimensional algebra presented by a cycle system.

Two independent routes to the same algebra live here.  The closed form
(:class:`CycleAlgebra`) counts the basis from the rotation classes and lays
it out by index, a proper path as its cycle and length; two basis elements,
walks along a cycle, multiply at their junction.  A path, and a product of
two basis elements, is one basis element or zero
(:meth:`CycleAlgebra.normal_form` gives the element, or None), so no
coefficient field is needed: the trace form takes the values 0 and 1 on
basis pairs, and it pairs x with y exactly when x y is a full cycle power.
The pairing is therefore listed by index arithmetic from the factorizations
of the full powers and checked against the layout, one pass each, as one
dual index per basis element; a vertex without arrows spans k, its own socle.
A rotation class is one ring, its rotations one cyclic sequence read from
each start: the rings, cached on the system, are the closed form's only
reading of a rotation, whose ends, products, normal forms, Cartan targets and
columns are slices of one list per class, and no dense matrix is built.
The oracle (:func:`oracle_dimension`) knows nothing of that structure: it
closes the relations, each a pair ``(p, None)`` for a path or ``(p, q)``
for a difference of two paths, under multiplication by arrows in a
truncated path algebra, and counts the path classes that do not vanish.
It keeps only the steps that survive.  The two-arrow path relations enter
as each arrow's dead successors, never as trie edges, and an automaton
with the longer path relations in its trie keeps each state's live steps
and counts the paths that avoid them all.  Those paths get ids only once a
binomial or trivial-path relation needs them, each with its surviving
extensions behind, and its surviving extensions in front once the closure
first reaches it.  :func:`pair_oracle_dimension` runs it on a cycle
system's relations, type 1 given as a chain of full powers per vertex and
type 3 as each arrow's one allowed successor, and ``_presented_dimension``
on a presentation's, its dead quadratics given as each arrow's dead
successors.  Tests and the acceptance suite hold the two routes against
each other.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from operator import add, sub
from typing import TYPE_CHECKING, Collection, Iterable, Mapping, Union

from .defining_pair import DefiningPair, nilpotency_bound
from .quiver import MonomialAutomaton, Path, Quiver, _path
from .report import Report

if TYPE_CHECKING:
    from .presentation import Presentation

DEFAULT_MAX_PATHS = 200_000
_BELOW_BOUND = "paths below the truncation bound"
_SURVIVING = f"{_BELOW_BOUND} that avoid every monomial relation"


class OracleBudgetError(RuntimeError):
    """A path count (truncated paths, or the closed-form basis) exceeded its
    cap; shrink the instance or raise the budget."""


@dataclass(frozen=True)
class _AtVertex:
    vertex: str

    @property
    def source(self) -> str:
        return self.vertex

    @property
    def target(self) -> str:
        return self.vertex


@dataclass(frozen=True)
class Idempotent(_AtVertex):
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
class Socle(_AtVertex):
    """The common class of all full cycle powers based at one vertex."""

    def __str__(self) -> str:
        return f"socle({self.vertex})"


BasisElement = Union[Idempotent, OnCyclePath, Socle]


@dataclass
class GramMatrix:
    """The trace form on the canonical basis, by index: entry (i, j) is 1
    exactly when ``dual[i] == j``."""

    dual: list[int | None]
    rank: int
    nondegenerate: bool
    is_permutation: bool

    @property
    def dimension(self) -> int:
        return len(self.dual)


@dataclass
class CartanMatrix:
    vertices: tuple[str, ...]
    entries: list[list[int]]


def closed_form_dimension(pair: DefiningPair) -> int:
    """Dimension of the algebra of a valid cycle system, from its rotation
    classes alone: |V| + |V on a cycle| + the sum over classes of
    l(mu l - 1), for a class of length l and multiplicity mu."""
    classes = pair.rotation_class_representatives()
    carrying = {v for cycle, _ in classes for v in cycle.vertices}
    on_cycles = sum(len(c) * (mu * len(c) - 1) for c, mu in classes)
    return len(pair.quiver.vertices) + len(carrying) + on_cycles


# The basis by index past the |V| idempotents: each proper path as its rotation's
# first arrow and its length, then from first_socle on the socles, in vertex
# order; by a rotation's first arrow, its full power's length and 1-arrow prefix.
_Layout = namedtuple("_Layout", "cycle length full_length start socles socle_at first_socle")


class CycleAlgebra:
    """Closed-form model of the algebra presented by a cycle system.

    The basis consists of one idempotent per vertex, every proper path
    along a cycle (shorter than the full power of its class), and one
    socle element per vertex that carries a cycle, indexed in that order;
    the index layout is built on the first read of the product, the
    pairing, the Cartan count or the basis, the elements on the first read
    of :attr:`basis`.  Construction insists on a system passing validation
    and on a :attr:`dimension`, the :func:`closed_form_dimension`, within
    ``max_paths``, else :class:`OracleBudgetError`.
    """

    def __init__(self, pair: DefiningPair, max_paths: int = DEFAULT_MAX_PATHS) -> None:
        _check_budget_type(max_paths)
        pair.require_valid()
        dimension = closed_form_dimension(pair)
        _check_budget(dimension, max_paths, f"basis elements (dimension {dimension})")
        self.pair = pair
        self.dimension = dimension

    @cached_property
    def _layout(self) -> _Layout:
        pair = self.pair
        full_length: dict[str, int] = {}
        start: dict[str, int] = {}
        heads, lengths = [], []
        size = len(pair.quiver.vertices)
        for head, (k, _) in pair._place.items():
            length = pair._rings[k][2]
            full_length[head] = length
            start[head] = size
            heads.extend([head] * (length - 1))
            lengths.extend(range(1, length))
            size += length - 1
        # every arrow lies on a cycle, so a vertex carries one when an arrow leaves it
        socles = [v for v in pair.quiver.vertices if pair.quiver._out[v]]
        if size + len(socles) != self.dimension:
            raise RuntimeError(
                f"the basis has {size + len(socles)} elements but the closed form "
                f"counts {self.dimension}; this is an engine bug"
            )
        socle_at = {v: s for s, v in enumerate(socles, size)}
        return _Layout(heads, lengths, full_length, start, socles, socle_at, size)

    @cached_property
    def _basis(self) -> list[BasisElement]:
        layout = self._layout
        basis: list[BasisElement] = [Idempotent(v) for v in self.pair.quiver.vertices]
        # each proper path is a slice of its class's ring, in rotation order
        rings = self.pair._rings
        for k, p in self.pair._place.values():
            arrows, stops, full = rings[k]
            basis.extend(
                OnCyclePath(_path(arrows[p : p + m], stops[p : p + m + 1])) for m in range(1, full)
            )
        basis.extend(Socle(v) for v in layout.socles)
        assert len(basis) == self.dimension
        return basis

    @property
    def basis(self) -> list[BasisElement]:
        return list(self._basis)

    def _ends(self, i: int) -> tuple[str, str]:
        """The source and target vertex of basis element i, from the layout;
        a proper one's are its ring's stops at p and p + its length."""
        n, layout = len(self.pair.quiver.vertices), self._layout
        if n <= i < layout.first_socle:
            k, p = self.pair._place[layout.cycle[i - n]]
            stops = self.pair._rings[k][1]
            return stops[p], stops[p + layout.length[i - n]]
        v = self.pair.quiver.vertices[i] if i < n else layout.socles[i - layout.first_socle]
        return v, v

    def normal_form(self, path: Path) -> BasisElement | None:
        """The basis element a path equals, or None when it vanishes."""
        if not self.pair.quiver.contains_path(path):
            raise ValueError(f"{path} is not a path of the system's quiver")
        return self._class_of(path)

    def _class_of(self, path: Path) -> BasisElement | None:
        """The basis element a path of the quiver equals, or None.

        A nontrivial path survives exactly when its arrows are the slice
        of its class's ring that its first arrow's rotation reads, at most
        the full power long; at exactly that length it is the socle class
        of its base vertex.
        """
        if path.is_trivial:
            return Idempotent(path.source)
        # a valid system puts every arrow on a cycle
        k, p = self.pair._place[path.arrows[0]]
        arrows, _, full = self.pair._rings[k]
        m = len(path)
        if m > full or path.arrows != arrows[p : p + m]:
            return None
        if m == full:
            return Socle(path.source)
        return OnCyclePath(path)

    def _product(self, i: int, j: int) -> int | None:
        """The index of x_i x_j, or None when it vanishes.  A proper basis
        element (h, m) walks m arrows along the rotation that starts with h,
        at position p of its class's ring, so (h, m) (h', m') survives only
        when h' is the ring's arrow at p + m, up to the ring's full length,
        where it is the socle at the ring's stop at p."""
        n = len(self.pair.quiver.vertices)
        cycle_of, length_of, _, start, _, socle_at, first_socle = self._layout
        if i < n or j < n:
            return (j if i < n else i) if self._ends(i)[1] == self._ends(j)[0] else None
        if i >= first_socle or j >= first_socle:
            # full powers already have maximal surviving length
            return None
        head, m = cycle_of[i - n], length_of[i - n]
        k, p = self.pair._place[head]
        arrows, stops, full = self.pair._rings[k]
        if cycle_of[j - n] != arrows[p + m]:
            return None
        length = m + length_of[j - n]
        if length == full:
            return socle_at[stops[p]]
        return start[head] + length - 1 if length < full else None

    def _listing(self) -> tuple[list[tuple[int, int]], list[int]]:
        """The index pairs (i, j) with x_i x_j a socle: e(v) with socle(v) both
        ways, or with itself where v has no arrows; and one column per proper
        row: F[:k], for a full power F, pairs with F[k:], the prefix of length
        len(F) - k of the rotation at F's k-th arrow, len(F) - k - 1 past its start.
        The rotation at position p of a ring reads its columns' heads as the
        slice of the ring's arrows one past p, mapped through the layout's starts."""
        layout = self._layout
        vertex_pairs = [(i, layout.socle_at.get(v, i)) for i, v in enumerate(self.pair.quiver.vertices)]
        start, rings, columns = layout.start.__getitem__, self.pair._rings, []
        for k, p in self.pair._place.values():
            arrows, _, full = rings[k]
            columns += map(add, map(start, arrows[p + 1 : p + full]), range(full - 2, -1, -1))
        return vertex_pairs + [(s, i) for i, s in vertex_pairs if s != i], columns

    @cached_property
    def _dual(self) -> list[int | None]:
        """For each basis index i, the j with form(x_i * x_j) = 1, or None.

        No pair outside :meth:`_listing` has a socle product: an idempotent
        leaves the other factor, a socle kills all but idempotents, and x y,
        for proper x, y, is a socle exactly when it is a full power F = x y.
        :meth:`_product` checks the vertex rows.  One pass checks the proper
        block from the layout's cycles and lengths and the class rings, not
        the listing's arithmetic: y's cycle starts with the arrow after x's
        last, the lengths sum to F's, and x's cycle has a socle index.  The
        arrows after a rotation's rows' last ones are the slice of its
        class's cached ring (:attr:`DefiningPair._rings`) one past its start.
        A pair off the socle, or a row hit twice, is raised, naming both.
        """
        n = len(self.pair.quiver.vertices)
        layout = self._layout
        first_socle = layout.first_socle
        pairs, columns = self._listing()
        if len(columns) != first_socle - n:
            raise RuntimeError(f"{len(columns)} columns for {first_socle - n} rows; an engine bug")
        off = []
        for i, j in pairs:
            k = self._product(i, j)
            if k is None or k < first_socle and not i == j == k:
                off.append((i, j))
        # the arrow after each row's last one, the next on its class's ring,
        # or None where the row's rotation starts at a vertex without a socle index
        rings = self.pair._rings
        want_heads: list[str | None] = []
        for k, p in self.pair._place.values():
            arrows, stops, full = rings[k]
            if layout.socle_at.get(stops[p], -1) >= first_socle:
                want_heads += arrows[p + 1 : p + full]
            else:
                want_heads += [None] * (full - 1)
        fulls = map(layout.full_length.__getitem__, layout.cycle)
        want_lengths = list(map(sub, fulls, layout.length))
        # each index's cycle head and length, None off the proper block
        pad = [None] * n
        tail = [None] * len(layout.socles)
        head_at = pad + layout.cycle + tail
        length_at = pad + layout.length + tail
        got_heads = list(map(head_at.__getitem__, columns))
        got_lengths = list(map(length_at.__getitem__, columns))
        if got_heads != want_heads or got_lengths != want_lengths:
            got = zip(got_heads, got_lengths)
            want = zip(want_heads, want_lengths)
            rows = zip(range(n, first_socle), columns, got, want)
            off += [(i, j) for i, j, found, expected in rows if found != expected]
        if off:
            i, j = min(off)
            raise RuntimeError(
                f"{self._basis[i]} * {self._basis[j]} factors a full power but is "
                "not a socle element; this is an engine bug"
            )
        dual: list[int | None] = pad + columns + tail
        for i, j in pairs:
            if dual[i] is not None:
                raise RuntimeError(
                    f"{self._basis[i]} pairs with 2 basis elements, {self._basis[dual[i]]} "
                    f"and {self._basis[j]}, not at most one; this is an engine bug"
                )
            dual[i] = j
        return dual

    def gram_matrix(self) -> GramMatrix:
        """The pairing (x, y) -> form(x * y) over the canonical basis.

        Each row holds at most one 1, so the rank is the number of distinct
        columns hit, over every field.  Full rank means the n rows hit n
        distinct columns, so every row holds a 1: the matrix is a
        permutation exactly when the form is nondegenerate.
        """
        dual = self._dual
        hit = set(dual)
        rank = len(hit) - (None in hit)
        full = rank == self.dimension
        return GramMatrix(
            dual=list(dual),
            rank=rank,
            nondegenerate=full,
            is_permutation=full,
        )

    def check_trace_symmetry(self) -> Report:
        """Verify form(x * y) = form(y * x) over all ordered basis pairs:
        the Gram matrix is symmetric exactly when dual[dual[i]] == i on
        every row hit.  A failure names the first asymmetric entry."""
        dual = self._dual
        broken = [(i, j) for i, j in enumerate(dual) if j is not None and dual[j] != i]
        witness = f"{self.dimension ** 2} ordered pairs checked"
        if broken:
            i, j = min(broken + [(j, i) for i, j in broken])
            witness = (
                f"form({self._basis[i]} * {self._basis[j]}) = {int(dual[i] == j)} "
                f"but reversed gives {int(dual[j] == i)}"
            )
        report = Report("trace-symmetry")
        report.add("trace-symmetry", not broken, witness)
        return report

    def cartan_matrix(self) -> CartanMatrix:
        """Counts of basis elements by (source, target) vertex pair, in one pass
        over the rotations: the proper elements of the rotation at position p
        of a class's ring run from its stop at p to each of its stops
        [p + 1 : p + full], one per length below the full power."""
        vertices = self.pair.quiver.vertices
        position = {v: i for i, v in enumerate(vertices)}
        entries = [[0] * len(vertices) for _ in vertices]
        for v in [*vertices, *self._layout.socles]:
            entries[position[v]][position[v]] += 1
        rings = self.pair._rings
        for k, p in self.pair._place.values():
            _, stops, full = rings[k]
            row = entries[position[stops[p]]]
            for target in map(position.__getitem__, stops[p + 1 : p + full]):
                row[target] += 1
        return CartanMatrix(vertices, entries)

    def check_multiserial(self) -> Report:
        """Re-derive successor data from the quotient semantics.

        Every arrow must admit exactly one surviving composition on each
        side, and it must be the neighbouring arrow on the arrow's cycle.
        One :meth:`Quiver.compositions` walk classifies each two-arrow
        path once.  Survival is read from the class rings (:meth:`_class_of`)
        and the expected neighbour from :attr:`DefiningPair.next_arrow`, so
        a successor map that disagrees with the rings fails, naming its arrows.
        """
        following = self.pair.next_arrow
        preceding = {b: a for a, b in following.items()}
        successors, predecessors = self.pair.quiver.compositions(
            lambda a, b: self._class_of(_path((a.name, b.name), (a.source, a.target, b.target)))
            is not None
        )
        problems = []
        for name in successors:
            for side, found, expected in (
                ("successors", successors[name], following[name]),
                ("predecessors", predecessors[name], preceding[name]),
            ):
                names = [a.name for a in found]
                if names != [expected]:
                    problems.append(
                        f"{name} has surviving {side} {names}, expected [{expected}]"
                    )
        report = Report("multiserial-quotient")
        report.expect_none("multiserial-quotient", problems)
        return report


def count_paths(quiver: Quiver, max_length: int, stop_above: int | None = None) -> int:
    """Number of paths of length 0..max_length, by
    :meth:`MonomialAutomaton.count` with no monomials."""
    if stop_above is not None:
        _check_budget_type(stop_above)
    return MonomialAutomaton(quiver, ()).count(max_length, stop_above)[0]


def _check_budget_type(budget: int) -> None:
    if type(budget) is not int:
        raise ValueError(f"path budget must be an integer, got {budget!r}")


def _check_budget(count: int, max_paths: int, counted: str) -> None:
    if count > max_paths:
        raise OracleBudgetError(
            f"more than {max_paths} {counted}; shrink the instance or raise the budget"
        )


def enumerate_paths(
    quiver: Quiver, max_length: int, max_paths: int = DEFAULT_MAX_PATHS
) -> list[Path]:
    """All paths of length 0..max_length, shortest first, arrows in name
    order; faults when the count passes ``max_paths``."""
    _check_budget_type(max_paths)
    _check_budget(count_paths(quiver, max_length, max_paths), max_paths, _BELOW_BOUND)
    paths: list[Path] = [quiver.trivial_path(v) for v in quiver.vertices]
    frontier = list(paths)
    for _ in range(max_length):
        frontier = [
            _path(p.arrows + (arrow.name,), p.vertices + (arrow.target,))
            for p in frontier
            for arrow in quiver._out[p.target]
        ]
        if not frontier:
            break
        paths.extend(frontier)
    return paths


class _PathTable:
    """The paths below a bound that avoid every monomial of an automaton,
    as integer ids, with their surviving one-arrow extensions.

    The id ``zero``, 0, stands for every product that vanishes or ends
    with a monomial; it has no extensions.  The trivial paths follow in
    vertex order, then the others, shortest first, by ``parent`` (the path
    without its ``last`` arrow) and then by that arrow's place in the
    parent's automaton row.  A one-arrow extension that does not survive
    is zero, so only the surviving ones are kept.  Behind, they are the
    entries of the row of the path's automaton ``state``, numbered from
    ``first[p]`` in row order: ``slots[state[p]]`` gives each arrow's place,
    and ``right(p, a)`` the id of p followed by a, or zero.  ``first[p]``
    is -1 for a path without one, among them every path of length
    ``bound - 1``, whose extensions all reach the bound.  In front,
    ``lefts[p]`` maps each arrow a whose product a p survives to its id;
    it is None until ``left(p)`` first makes it.
    """

    def __init__(self, quiver: Quiver, automaton: MonomialAutomaton, bound: int) -> None:
        self.vertex = vertex = automaton.vertex
        rows = automaton.rows
        # a row of at most one arrow, as most are on a cover, numbers it 0
        self.slots = slots = [
            dict.fromkeys(row, 0) if len(row) < 2 else {name: i for i, name in enumerate(row)}
            for row in rows
        ]

        # zero's state, and the trivial paths' parent and last, are placeholders
        state = [0, *range(len(vertex))]
        parent, last = [0] * len(state), [""] * len(state)
        first = [-1] * len(state)
        level_start, level_end = 1, len(state)
        for _ in range(bound - 1):
            for p in range(level_start, level_end):
                row = rows[state[p]]
                if row:
                    first[p] = len(state)
                    state += row.values()
                    last += row
                    parent += [p] * len(row)
            if level_end == len(state):
                break
            level_start, level_end = level_end, len(state)
            first += [-1] * (level_end - level_start)
        self.count, self.zero = len(state) - 1, 0
        self.state, self.first, self.parent, self.last = state, first, parent, last

        def right(x: int, name: str) -> int:
            i = slots[state[x]].get(name) if first[x] >= 0 else None
            return 0 if i is None else first[x] + i

        # a trivial path's extensions in front are the arrows into its vertex;
        # the longest paths have none, as their extensions are never numbered
        self.lefts = lefts = [None] * len(state)
        lefts[0] = none = {}
        for v, arrows in enumerate(quiver._in.values(), 1):
            extended = ((a.name, right(vertex[a.source] + 1, a.name)) for a in arrows)
            lefts[v] = {name: x for name, x in extended if x}
        lefts[level_start:level_end] = [none] * (level_end - level_start)

        # left(p) makes the map of an unmade p, and first those of its unmade
        # ancestors, oldest first: a(qb) = (aq)b, where aq is one shorter
        # than a(qb), so it is numbered with its extensions behind, and a(qb)
        # survives only where aq does.  A closure, not a method, with
        # ``right`` written out: the oracle calls it for nearly every path
        # it reaches.
        def left(p: int) -> dict[str, int]:
            chain = []
            while lefts[p] is None:
                chain.append(p)
                p = parent[p]
            made = lefts[p]
            for q in reversed(chain):
                name, extended = last[q], {}
                for a, x in made.items():
                    if first[x] >= 0 and (i := slots[state[x]].get(name)) is not None:
                        extended[a] = first[x] + i
                lefts[q] = made = extended
            return made

        self.right, self.left = right, left

    def id_of(self, path: Path) -> int:
        """The id of a path of the quiver, or ``zero`` when it has a
        monomial subword or reaches the bound."""
        first, slots, state = self.first, self.slots, self.state
        p = self.vertex[path.source] + 1
        for name in path.arrows:
            i = slots[state[p]].get(name) if first[p] >= 0 else None
            if i is None:
                return self.zero
            p = first[p] + i
        return p


def _checked_relation(relation: object, quiver: Quiver) -> None:
    """Fault unless a relation is ``(p, None)`` or ``(p, q)`` for paths of the quiver."""
    shape = type(relation) is tuple and len(relation) == 2 and tuple(map(type, relation))
    if shape not in ((Path, Path), (Path, type(None))):
        raise ValueError(
            f"relation {relation!r} is neither (p, None) nor (p, q) for paths p "
            "and q; the oracle takes only relations p and p - q"
        )
    for path in relation:
        if path is not None and not quiver.contains_path(path):
            raise ValueError(f"{path} is not a path of the quiver")


def oracle_dimension(
    quiver: Quiver,
    relations: Iterable[tuple[Path, Path | None]],
    bound: int,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> int:
    """Dimension of the quotient by closing relations in a truncated path
    algebra.

    ``bound``, an integer of at least 2, must satisfy: every path of
    length >= bound lies in the ideal.  Each relation is ``(p, None)`` for
    a path p or ``(p, q)`` for the difference p - q; :class:`ValueError`
    is raised for anything else.
    The quotient is then spanned by classes of paths shorter than the bound:
    two paths are equal in it when a chain of relations, multiplied by
    arrows on both sides, joins them, and zero when the chain reaches a
    path relation or a product that vanishes.  The dimension is the number
    of classes other than zero, the same over every field.  A path with a
    path relation as a subword is zero at once, so only the paths below
    the bound that avoid every monomial relation count against
    ``max_paths``: an automaton counts them before anything is built, and
    with no binomial or trivial-path relation the count is the dimension.
    Else they get ids, and the classes are found by congruence closure: a
    union-find over path ids in which every merge of two classes queues
    its pair once, and a queued pair merges its surviving one-arrow
    extensions on both sides, those in front made on first use.

    This is the oracle's border, and it reads each relation once.  A
    two-arrow monomial below the bound is checked by two arrow lookups and
    joins its first arrow's dead successors, from which the automaton keeps
    only the live ones; a longer one, or a one-arrow one, is checked only
    as the automaton inserts it, as the engine's own are.  Every other
    relation is checked in full.
    """
    if type(bound) is not int:
        raise ValueError(f"truncation bound must be an integer, got {bound!r}")
    arrows = quiver._arrows
    dead: list[tuple[str, ...]] = []
    monomials: list[Path] = []
    seeds: list[tuple[Path, Path | None]] = []
    quadratic = bound > 2
    for r in relations:
        if type(r) is tuple and len(r) == 2 and r[1] is None and type(p := r[0]) is Path:
            names = p.arrows
            if quadratic and len(names) == 2:
                a, b = arrows.get(names[0]), arrows.get(names[1])
                if a is None or b is None or a.target != b.source or p.vertices != (
                    a.source, b.source, b.target
                ):
                    raise ValueError(f"{p} is not a path of the quiver")
                dead.append(names)
                continue
            if 0 < len(names) < bound:
                monomials.append(p)
                continue
        _checked_relation(r, quiver)
        # a monomial at or past the bound is zero anyway
        if r[1] is not None or not r[0].arrows:
            seeds.append(r)
    return _oracle_dimension(quiver, {}, dead, monomials, seeds, bound, max_paths)


def _oracle_dimension(
    quiver: Quiver,
    after: Mapping[str, Collection[str]],
    dead: Iterable[tuple[str, str]],
    monomials: Iterable[Path],
    seeds: Collection[tuple[Path, Path | None]],
    bound: int,
    max_paths: int,
) -> int:
    """The oracle past its border, on the relations in compact form: the
    two-arrow monomials as some arrows' allowed successors (``after``) or
    as dead pairs of arrow names, the other monomials, and the ``seeds``:
    the binomials and the trivial-path relations.  Only the automaton
    checks the monomials."""
    if bound < 2:
        raise ValueError("truncation bound must be at least 2")
    _check_budget_type(max_paths)
    # longer path relations are zero anyway, and would only add states
    below = [p for p in monomials if len(p.arrows) < bound]
    automaton = MonomialAutomaton(quiver, below, after, dead)
    count = automaton.count(bound - 1, max_paths)[0]
    _check_budget(count, max_paths, _SURVIVING)
    if not seeds:
        return count
    table = _PathTable(quiver, automaton, bound)
    zero, left, id_of = table.zero, table.left, table.id_of
    first, slots, state, lefts = table.first, table.slots, table.state, table.lefts
    leader = list(range(table.count + 1))
    pending: list[tuple[int, int]] = []

    def union(x: int, y: int) -> None:
        # x and y are parallel paths, or one of them is zero; their class
        # leaders need not be, so the pair itself is queued.
        rx, ry = x, y
        while leader[rx] != rx:
            leader[rx] = rx = leader[leader[rx]]
        while leader[ry] != ry:
            leader[ry] = ry = leader[leader[ry]]
        if rx != ry:
            leader[ry] = rx
            pending.append((x, y))

    # Only the binomials and trivial-path relations seed the closure: a
    # nontrivial path relation's id is zero (below the bound it ends with
    # itself, at or past it the product vanishes), so it merges nothing.  A
    # cycle system's binomials share one full power per arrow, so each
    # path's id is found once.
    ids: dict[int, int] = {}

    def number(p: Path) -> int:
        x = ids.get(id(p))
        if x is None:
            x = ids[id(p)] = id_of(p)
        return x

    for p, q in seeds:
        if q is not None and (p.source, p.target) != (q.source, q.target):
            # p - q with other end points: multiplying by the idempotents
            # at p's ends leaves p alone, so both are relations.
            union(number(q), zero)
            q = None
        union(number(p), zero if q is None else number(q))

    # each side's extensions are united over the union of the two paths'
    # arrows: one that survives on one side alone meets zero on the other
    merges, none = 0, {}
    while pending:
        x, y = pending.pop()
        merges += 1
        bx = slots[state[x]] if first[x] >= 0 else none
        by = slots[state[y]] if first[y] >= 0 else none
        for name, i in bx.items():
            j = by.get(name)
            union(first[x] + i, zero if j is None else first[y] + j)
        for name, j in by.items():
            if name not in bx:
                union(zero, first[y] + j)
        lx = lefts[x]
        if lx is None:
            lx = left(x)
        ly = lefts[y]
        if ly is None:
            ly = left(y)
        for name, u in lx.items():
            union(u, ly.get(name, zero))
        for name, w in ly.items():
            if name not in lx:
                union(zero, w)
    return count - merges


def pair_oracle_dimension(pair: DefiningPair, max_paths: int = DEFAULT_MAX_PATHS) -> int:
    """The oracle's dimension of a cycle system's algebra: its generated
    relations closed below :func:`nilpotency_bound`, blind to the closed
    form it is held against.  Type 1 is passed as a chain per vertex, each
    two neighbouring arrows' full powers, which span every pair's difference;
    type 3 as each arrow's one allowed successor, so no type-3 path is built.
    The full powers and overruns, the engine's own, skip the border and are
    rendered before the budget count, so bound the basis first."""
    full, overruns = pair._slices()
    out = pair.quiver._out.values()
    chain = [(full[a.name], full[b.name]) for arrows in out for a, b in zip(arrows, arrows[1:])]
    after = {a: (b,) for a, b in pair.next_arrow.items()}
    bound = nilpotency_bound(pair)
    return _oracle_dimension(pair.quiver, after, (), overruns, chain, bound, max_paths)


def _presented_dimension(presentation: Presentation, max_paths: int) -> int:
    """The oracle's dimension of a presentation's algebra: its generators,
    checked where they entered, closed below its nilpotency bound.  Its
    dead quadratics are passed as each arrow's dead successors, whether or
    not the presentation is multiserial."""
    p = presentation
    longer = [z for z in p.zero_paths if len(z.arrows) != 2]
    dead, bound = p._quadratic, p.nilpotency
    return _oracle_dimension(p.quiver, {}, dead, longer, p.equal_pairs, bound, max_paths)

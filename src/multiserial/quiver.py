"""Quivers, paths, simple cycles, and paths that avoid a set of monomials.

Arrows are identified by name, so parallel arrows and loops are allowed.
Paths record their full vertex itinerary alongside the arrow names, which
makes them self-contained immutable values: rotations and powers never
have to consult the quiver again.  Arrows and paths are slotted frozen
values.  A path is the one value the engine builds through its slots'
member descriptors, by ``_path``, past the dataclass ``__init__`` and its
length check, which a caller's ``Path(...)`` still runs: building every
path by ``Path(...)`` took the wide-presentations benchmark (2-CPU Xeon)
``setup_s`` from 0.404 to 0.523 s and ``batch_s`` from 0.0183 to 0.0195 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Collection, Iterable, Mapping, Sequence


@dataclass(frozen=True, slots=True)
class Arrow:
    """An arrow, slotted; unlike a :class:`Path`, always built by ``Arrow(...)``."""

    name: str
    source: str
    target: str

    def __str__(self) -> str:
        return f"{self.name}: {self.source} -> {self.target}"


@dataclass(frozen=True, slots=True)
class Path:
    """A path in a quiver, slotted; the engine builds its own by ``_path``.

    ``vertices`` has exactly one more entry than ``arrows``, which a caller's
    ``Path(...)`` checks; a trivial path at v is ``Path((), (v,))``.
    """

    arrows: tuple[str, ...]
    vertices: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) != len(self.arrows) + 1:
            raise ValueError("a path visits exactly len(arrows) + 1 vertices")

    @property
    def source(self) -> str:
        return self.vertices[0]

    @property
    def target(self) -> str:
        return self.vertices[-1]

    @property
    def is_trivial(self) -> bool:
        return not self.arrows

    def __len__(self) -> int:
        return len(self.arrows)

    def __str__(self) -> str:
        if self.is_trivial:
            return f"e({self.source})"
        return " ".join(self.arrows)


_set_arrows, _set_vertices = Path.arrows.__set__, Path.vertices.__set__


def _path(arrows: tuple[str, ...], vertices: tuple[str, ...]) -> Path:
    """``Path(arrows, vertices)`` without its length check, for engine-built itineraries."""
    path = object.__new__(Path)
    _set_arrows(path, arrows)
    _set_vertices(path, vertices)
    return path


class Quiver:
    """A finite directed multigraph with uniquely named vertices and arrows.

    Construction indexes the arrows out of and into each vertex in name
    order, in O(A log A); its readers return copies, linear in their length.
    ``arrows`` is a read-only view, since every reader of a presentation
    shares its quivers.
    """

    def __init__(
        self,
        vertices: Iterable[str],
        arrows: Iterable[tuple[str, str, str]] = (),
    ) -> None:
        self.vertices: tuple[str, ...] = tuple(vertices)
        seen: set[str] = set()
        for v in self.vertices:
            if v in seen:
                raise ValueError(f"duplicate vertex {v!r}")
            seen.add(v)
        self._vertex_set = frozenset(self.vertices)
        self._arrows: dict[str, Arrow] = {}
        for name, source, target in arrows:
            if name in self._arrows:
                raise ValueError(f"duplicate arrow name {name!r}")
            if source not in self._vertex_set:
                raise ValueError(f"arrow {name!r} starts at undeclared vertex {source!r}")
            if target not in self._vertex_set:
                raise ValueError(f"arrow {name!r} ends at undeclared vertex {target!r}")
            self._arrows[name] = Arrow(name, source, target)
        self._index(self._arrows.values())

    def _index(self, arrows: Iterable[Arrow]) -> None:
        """Sort this quiver's ``arrows`` by name and index them by their ends."""
        self.arrows: Mapping[str, Arrow] = MappingProxyType(self._arrows)
        self._by_name = sorted(arrows, key=lambda a: a.name)
        self._out: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        self._in: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for arrow in self._by_name:
            self._out[arrow.source].append(arrow)
            self._in[arrow.target].append(arrow)

    def _extended(self, arrows: Iterable[tuple[str, str, str]]) -> Quiver:
        """``Quiver(self.vertices, self's triples + arrows)`` for new names
        between this quiver's vertices, unchecked, sharing the vertices and
        :class:`Arrow` values; only the name order and the index are rebuilt."""
        quiver = object.__new__(Quiver)
        quiver.vertices, quiver._vertex_set = self.vertices, self._vertex_set
        added = [Arrow(*triple) for triple in arrows]
        quiver._arrows = {**self._arrows, **{a.name: a for a in added}}
        quiver._index(self._by_name + added)
        return quiver

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    def __repr__(self) -> str:
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"

    def arrow(self, name: str) -> Arrow:
        try:
            return self._arrows[name]
        except KeyError:
            raise ValueError(f"unknown arrow {name!r}") from None

    def trivial_path(self, vertex: str) -> Path:
        if vertex not in self._vertex_set:
            raise ValueError(f"unknown vertex {vertex!r}")
        return _path((), (vertex,))

    def path(self, names: Sequence[str]) -> Path:
        """Build the nontrivial path given by ``names``."""
        names = tuple(names)
        if not names:
            raise ValueError("a path needs at least one arrow; use trivial_path for e(v)")
        # one lookup per arrow, in order; the first arrow composes trivially
        arrows = self._arrows
        try:
            itinerary = [arrows[names[0]].source]
            for name in names:
                arrow = arrows[name]
                if arrow.source != itinerary[-1]:
                    raise ValueError(
                        f"arrows do not compose: {name!r} starts at {arrow.source!r}, "
                        f"previous arrow ends at {itinerary[-1]!r}"
                    )
                itinerary.append(arrow.target)
        except KeyError as unknown:
            raise ValueError(f"unknown arrow {unknown.args[0]!r}") from None
        return _path(names, tuple(itinerary))

    def contains_path(self, p: Path) -> bool:
        """Whether ``p`` is a valid path of this quiver, itinerary included:
        the check a path from outside the engine gets once, where it enters."""
        if not p.arrows:
            return p.source in self._vertex_set
        for i, name in enumerate(p.arrows):
            arrow = self._arrows.get(name)
            if arrow is None:
                return False
            if arrow.source != p.vertices[i] or arrow.target != p.vertices[i + 1]:
                return False
        return True

    def arrows_from(self, vertex: str) -> list[Arrow]:
        return list(self._out.get(vertex, ()))

    def arrows_into(self, vertex: str) -> list[Arrow]:
        return list(self._in.get(vertex, ()))

    def compositions(
        self, survives: Callable[[Arrow, Arrow], bool]
    ) -> tuple[dict[str, list[Arrow]], dict[str, list[Arrow]]]:
        """By each arrow's name, the arrows b after it and c before it whose
        composition survives: ``survives(a, b)``, ``survives(c, a)``.  One
        walk over the composable pairs in name order asks ``survives`` once
        per pair, so both lists are in name order, as :meth:`arrows_from`
        and :meth:`arrows_into` give them."""
        after: dict[str, list[Arrow]] = {a.name: [] for a in self._by_name}
        before: dict[str, list[Arrow]] = {a.name: [] for a in self._by_name}
        for a in self._by_name:
            kept = after[a.name]
            for b in self._out[a.target]:
                if survives(a, b):
                    kept.append(b)
                    before[b.name].append(a)
        return after, before

    def is_connected(self) -> bool:
        """Connectivity of the underlying undirected graph, searched along
        the adjacency index."""
        if len(self.vertices) <= 1:
            return True
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            v = stack.pop()
            for w in [a.target for a in self._out[v]] + [a.source for a in self._in[v]]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)


def is_simple_cycle(p: Path) -> bool:
    """A closed nontrivial path with no repeated arrows (vertices may repeat)."""
    return (
        not p.is_trivial
        and p.source == p.target
        and len(set(p.arrows)) == len(p.arrows)
    )


def _rotation(cycle: Path, i: int) -> Path:
    """The rebasing of a cycle that starts with its i-th arrow."""
    starts = cycle.vertices[:-1]
    return _path(cycle.arrows[i:] + cycle.arrows[:i], starts[i:] + starts[:i] + (starts[i],))


def canonical_rotation(cycle: Path) -> Path:
    """The lexicographically smallest rotation; canonical class representative.

    The arrows of a simple cycle are distinct, so this is the rotation that
    starts with the least arrow name, found in O(L) for a cycle of length L.
    """
    if not is_simple_cycle(cycle):
        raise ValueError(f"not a simple cycle: {cycle}")
    return _rotation(cycle, cycle.arrows.index(min(cycle.arrows)))


class MonomialAutomaton:
    """The Aho–Corasick automaton (CACM 1975) of nontrivial monomials, paths
    of one quiver, over its arrow names, kept on its live steps alone.

    Two-arrow monomials may come as sets per arrow, never as trie edges:
    ``after`` gives some arrows the names of the arrows that may follow
    them, and ``dead`` gives two-arrow monomials by their arrow names, each
    arrow's set of names those that may not follow it.  State i <
    len(quiver.vertices) is the i-th vertex's trivial path; the others are
    the arrows with such a set and the proper prefixes of the monomials,
    each ending at vertex ``end[s]``; a monomial's last arrow is a trie edge
    to no state.  ``rows[s]`` maps each arrow whose step from s survives to
    the longest suffix of the extended path that is a state, and has no
    entry for a step that ends with a monomial.  A root's row holds the
    arrows out of its vertex.  Any other state's row is its suffix link's
    (its longest proper suffix that is a state), cut down by an arrow's set,
    with its own trie children applied.  The paths that stay on the rows are
    the normal words of the monomial algebra (Ufnarovski 1982); where every
    arrow allows at most one successor, a row off the roots has at most one
    entry.  Insertion makes one pass over each monomial's arrows, checking
    each against the quiver before it steps the trie, the rest of one whose
    prefix is already dead included; the first monomial that is not a path
    of the quiver raises :class:`ValueError`.  The sets are trusted: each
    names arrows of the quiver that compose, and no arrow is in both.
    """

    def __init__(
        self,
        quiver: Quiver,
        monomials: Iterable[Path],
        after: Mapping[str, Collection[str]] | None = None,
        dead: Iterable[tuple[str, str]] = (),
    ) -> None:
        self.vertex = vertex = {v: i for i, v in enumerate(quiver.vertices)}
        outgoing = [{a.name: a.target for a in out} for out in quiver._out.values()]
        roots = len(outgoing)
        children: list[dict[str, int]] = [{} for _ in range(roots)]
        self.end = end = list(range(roots))
        killed: dict[str, set[str]] = {}
        for a, b in dead:
            names = killed.get(a)
            if names is None:
                killed[a] = {b}
            else:
                names.add(b)
        # an arrow with a set is its source's child, whatever the monomials,
        # and keeps the steps its set allows (True) or does not kill (False)
        cut: dict[int, tuple[Collection[str], bool]] = {}
        for sets, allows in ((after or {}, True), (killed, False)):
            for name, names in sets.items():
                arrow = quiver._arrows[name]
                children[vertex[arrow.source]][name] = len(end)
                cut[len(end)] = names, allows
                children.append({})
                end.append(vertex[arrow.target])
        for path in monomials:
            vertices = path.vertices
            s = at = vertex.get(vertices[0], -1)
            last = len(vertices) - 1
            # each arrow is checked, then stepped: the last is an edge to -1,
            # and past a dead prefix (s < 0) the rest is only checked
            for i, name in enumerate(path.arrows, 1):
                v = vertices[i]
                if at < 0 or outgoing[at].get(name, outgoing) != v:  # default: no vertex
                    raise ValueError(f"{path} is not a path of the quiver")
                at = vertex[v]
                if s >= 0:
                    if i == last:
                        children[s][name] = -1
                    else:
                        s = children[s].setdefault(name, len(end))
                        if s == len(end):
                            children.append({})
                            end.append(at)
        # Breadth first, so the suffix link of a state (its longest proper
        # suffix that is a state, at the same end vertex) has its row.  Each
        # state reached gets a row of its own; one no row reaches, under a
        # killed prefix, keeps the shared empty row.
        self.rows = rows = [{}] * len(end)
        link = [0] * len(end)
        queue = list(range(roots))
        for s in queue:
            if s < roots:
                row = {name: vertex[head] for name, head in outgoing[s].items()}
            elif s in cut:
                # the link is the root at the arrow's target
                base, (names, allows) = rows[link[s]], cut[s]
                if allows:
                    row = {b: base[b] for b in names if b in base}
                else:
                    row = {b: t for b, t in base.items() if b not in names}
            else:
                row = dict(rows[link[s]])
            for name, child in children[s].items():
                if name in row:
                    if child < 0:
                        del row[name]
                    else:
                        link[child], row[name] = row[name], child
                        queue.append(child)
            rows[s] = row

    def count(self, max_length: int, stop_above: int | None = None) -> tuple[int, int]:
        """How many paths of length 0..max_length avoid every monomial, and
        the longest length among them, by dynamic programming over states
        along the rows' entries.  Past ``stop_above`` it stops with a
        partial total above that cap, so a huge ``max_length`` costs at most
        ``stop_above`` rounds.  Once a length repeats the previous length's
        per-state counts, every later length adds the same, so the rounds
        the loop would still run are added in one step."""
        edges = [(s, t) for s, row in enumerate(self.rows) for t in row.values()]
        roots = len(self.vertex)
        ending = [1] * roots + [0] * (len(self.rows) - roots)
        total, longest = roots, 0
        while longest < max_length and (stop_above is None or total <= stop_above):
            grown = [0] * len(ending)
            for s, t in edges:
                grown[t] += ending[s]
            added = sum(grown)
            if not added:
                break
            total += added
            longest += 1
            if grown == ending:
                rounds = max_length - longest
                if stop_above is not None:
                    rounds = min(rounds, (stop_above - total) // added + 1)
                return total + rounds * added, longest + rounds
            ending = grown
        return total, longest

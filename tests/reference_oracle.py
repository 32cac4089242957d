"""The truncation oracle on dense tables: the reference the engine's oracle
on live edges is held against.

This is the oracle as it stood before its automaton rows and path table
kept only the steps that survive.  Every monomial, two-arrow ones
included, is a trie edge; ``DenseAutomaton.step[s][i]`` follows the i-th
arrow out of a state's end vertex, -1 where the step ends with a monomial;
``DensePathTable`` numbers each surviving path with one entry per arrow out
of its target, zero or not, and makes its block in front on first use; the
closure unites the two paths' blocks slot by slot.
"""

from __future__ import annotations

from typing import Iterable

from multiserial.cycle_algebra import _SURVIVING, DEFAULT_MAX_PATHS, _check_budget
from multiserial.quiver import Path, Quiver


class DenseAutomaton:
    """The Aho–Corasick automaton (CACM 1975) of nontrivial monomials, paths
    of one quiver, over its arrow names.

    State i < len(quiver.vertices) is the i-th vertex's trivial path, the
    others are proper prefixes of monomials, ending at vertex ``end[s]``; a
    monomial's last arrow is a trie edge to -1, not a state of its own.
    ``outgoing[i]`` maps the arrows out of vertex i, in name order, to their
    targets, and ``step[s][i]`` follows the i-th arrow out of ``end[s]`` to
    the longest suffix of the extended path that is a state, or is -1 when
    that path ends with a monomial; the paths that never reach -1 are the
    normal words of the monomial algebra (Ufnarovski 1982).  Insertion
    makes one pass over each monomial's arrows, checking each against
    ``outgoing`` before it steps the trie, the rest of one whose prefix is
    already dead included; the first monomial that is not a path of the
    quiver raises :class:`ValueError`.
    """

    def __init__(self, quiver: Quiver, monomials: Iterable[Path]) -> None:
        self.vertex = vertex = {v: i for i, v in enumerate(quiver.vertices)}
        self.outgoing = outgoing = [{a.name: a.target for a in out} for out in quiver._out.values()]
        roots = len(outgoing)
        children: list[dict[str, int]] = [{} for _ in range(roots)]
        self.end = end = list(range(roots))
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
        # suffix that is a state, at the same end vertex) has its steps.
        self.step = step = [[] for _ in end]
        link = [0] * len(end)
        queue = list(range(roots))
        for s in queue:
            for i, (name, head) in enumerate(outgoing[end[s]].items()):
                down = step[link[s]][i] if s >= roots else vertex[head]
                child = children[s].get(name)
                if child is not None:
                    if child < 0 or down < 0:
                        down = -1
                    else:
                        link[child], down = down, child
                        queue.append(child)
                step[s].append(down)

    def count(self, max_length: int, stop_above: int | None = None) -> tuple[int, int]:
        """How many paths of length 0..max_length avoid every monomial, and
        the longest length among them, by dynamic programming over states.
        Past ``stop_above`` it stops with a partial total above that cap,
        so a huge ``max_length`` costs at most ``stop_above`` rounds.  Once a
        length repeats the previous length's per-state counts, every later
        length adds the same, so the rounds the loop would still run are
        added in one step."""
        edges = [(s, t) for s, row in enumerate(self.step) for t in row if t >= 0]
        ending = [1] * len(self.outgoing) + [0] * (len(self.step) - len(self.outgoing))
        total, longest = len(self.outgoing), 0
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


class DensePathTable:
    """The paths below a bound that avoid every monomial of an automaton,
    as integer ids, with one-arrow extension tables.

    The id ``zero``, 0, stands for every product that vanishes or ends
    with a monomial; it has no extensions.  The trivial paths follow in
    vertex order, then the others, shortest first, by ``parent`` (the path
    without its last arrow) and then the ``last`` arrow's slot.
    ``right[first[p] + i]`` is the path with the ``i``-th arrow out of its
    target (name order) put behind, and ``lefts[left_at[p] + i]`` the one
    with the ``i``-th arrow into its source put in front; both offsets are
    -1 for paths of length ``bound - 1``, whose extensions all reach the
    bound.  ``left_at[p]`` is None until ``left(p)`` first makes the block.
    """

    def __init__(self, quiver: Quiver, automaton: DenseAutomaton, bound: int) -> None:
        self.vertex = automaton.vertex
        incoming = [quiver.arrows_into(v) for v in quiver.vertices]
        self.out_degree = [len(heads) for heads in automaton.outgoing]
        self.in_degree = in_degree = [len(arrows) for arrows in incoming]
        self.slot = {name: i for heads in automaton.outgoing for i, name in enumerate(heads)}

        # zero's entries, and the trivial paths' parent and last, are placeholders
        step = automaton.step
        state = [0, *range(len(incoming))]
        source = list(state)
        parent, last = [0] * len(state), [0] * len(state)
        first = [-1]
        right: list[int] = []
        level_start, level_end = 1, len(state)
        for _ in range(bound - 1):
            for p in range(level_start, level_end):
                first.append(len(right))
                s = source[p]
                for j, t in enumerate(step[state[p]]):
                    if t < 0:
                        right.append(0)
                    else:
                        right.append(len(state))
                        state.append(t)
                        source.append(s)
                        parent.append(p)
                        last.append(j)
            if level_end == len(state):
                break
            level_start, level_end = level_end, len(state)
        first.extend([-1] * (len(state) - len(first)))
        self.count, self.zero = len(state) - 1, 0
        self.source, self.target = source, [automaton.end[s] for s in state]
        self.first, self.right, self.parent, self.last = first, right, parent, last

        # a trivial path's left extensions are the arrows into its vertex
        self.lefts = lefts = []
        self.left_at = left_at = [-1 if f < 0 else None for f in first]
        for v, arrows in enumerate(incoming, 1):
            left_at[v] = len(lefts)
            lefts.extend(right[first[self.vertex[a.source] + 1] + self.slot[a.name]] for a in arrows)

        # left(p) makes the block of an unmade p, and first those of its unmade
        # ancestors (one source, one block length), oldest first: a(qb) =
        # (aq)b, where aq is one shorter than a(qb), so its right extensions
        # exist, and a(qb) is zero when aq is (``x and ...`` keeps the id 0).
        # A closure, not a method, and the chain reversed only when it is
        # longer than p: the oracle calls it for nearly every path it reaches.
        def left(p: int) -> int:
            chain, up = [p], parent[p]
            if left_at[up] is None:
                while left_at[up] is None:
                    chain.append(up)
                    up = parent[up]
                chain.reverse()
            block, degree = left_at[up], in_degree[source[p]]
            for q in chain:
                j, left_at[q] = last[q], len(lefts)
                lefts.extend([x and right[first[x] + j] for x in lefts[block : block + degree]])
                block = left_at[q]
            return block

        self.left = left

    def id_of(self, path: Path) -> int:
        """The id of a path of the quiver, or ``zero`` when it has a
        monomial subword or reaches the bound."""
        p = self.vertex[path.source] + 1
        for name in path.arrows:
            if self.first[p] < 0:
                return self.zero
            p = self.right[self.first[p] + self.slot[name]]
        return p


def dense_oracle_dimension(
    quiver: Quiver, pairs: list, bound: int, max_paths: int = DEFAULT_MAX_PATHS
) -> int:
    """The closure on dense tables, on relations ``(p, None)`` and ``(p, q)``
    trusted to be paths of the quiver."""
    if bound < 2:
        raise ValueError("truncation bound must be at least 2")
    # longer path relations are zero anyway, and would only add states
    monomials = [p for p, q in pairs if q is None and 0 < len(p.arrows) < bound]
    automaton = DenseAutomaton(quiver, monomials)
    count = automaton.count(bound - 1, max_paths)[0]
    _check_budget(count, max_paths, _SURVIVING)
    # A nontrivial path relation's id is zero: below the bound it ends with
    # itself, at or past it the product vanishes; it merges nothing.
    seeds = [(p, q) for p, q in pairs if q is not None or not p.arrows]
    if not seeds:
        return count
    table = DensePathTable(quiver, automaton, bound)
    zero, left = table.zero, table.left
    first, right, left_at, lefts = table.first, table.right, table.left_at, table.lefts
    source, target = table.source, table.target
    out_degree, in_degree = table.out_degree, table.in_degree
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

    for p, q in seeds:
        if q is not None and (p.source, p.target) != (q.source, q.target):
            # p - q with other end points: multiplying by the idempotents
            # at p's ends leaves p alone, so both are relations.
            union(table.id_of(q), zero)
            q = None
        union(table.id_of(p), zero if q is None else table.id_of(q))

    merges = 0
    while pending:
        x, y = pending.pop()
        merges += 1
        live = y if x == zero else x
        fx, fy = first[x], first[y]
        if fx >= 0 or fy >= 0:
            for i in range(out_degree[target[live]]):
                union(
                    right[fx + i] if fx >= 0 else zero,
                    right[fy + i] if fy >= 0 else zero,
                )
        lx, ly = left_at[x], left_at[y]
        if lx is None:
            lx = left(x)
        if ly is None:
            ly = left(y)
        if lx >= 0 or ly >= 0:
            for i in range(in_degree[source[live]]):
                union(
                    lefts[lx + i] if lx >= 0 else zero,
                    lefts[ly + i] if ly >= 0 else zero,
                )
    return count - merges

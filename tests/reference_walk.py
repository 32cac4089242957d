"""The orbits, maximal paths and simple cycles of successor tables, each from
a walk of its own: the reference the tables' one walk is held against.

These are the three walks as they stood before one walk gave all three:
the orbits walk tau back from each arrow not yet placed and sigma forward
from where it stops, a maximal path is walked by sigma from each arrow that
tau stops at, and a cycle from the least arrow of each sigma-cycle, each
path built by :meth:`Quiver.path`.
"""

from __future__ import annotations

from typing import Optional

from multiserial import OrbitData, Path, SuccessorTables


def reference_orbit_data(tables: SuccessorTables) -> dict[str, OrbitData]:
    """Every orbit walked once, by arrow name: a cycle's arrows share their
    period, and the arrow at index i of a chain of m arrows stops i + 1
    steps backwards and m - i forwards."""
    out: dict[str, OrbitData] = {}
    for name in sorted(tables.quiver.arrows):
        if name in out:
            continue
        first = name
        while (before := tables.tau[first]) is not None and before != name:
            first = before
        orbit = [first]
        while (after := tables.sigma[orbit[-1]]) is not None and after != first:
            orbit.append(after)
        m = len(orbit)
        if before is not None:
            out.update(dict.fromkeys(orbit, OrbitData(period=m)))
        else:
            for i, a in enumerate(orbit):
                out[a] = OrbitData(m - i, i + 1)
    return {a: out[a] for a in sorted(tables.quiver.arrows)}


def _walk(tables: SuccessorTables, start: str, end: Optional[str]) -> Path:
    """The path from ``start`` along the successor map up to ``end``, not
    included."""
    chain = [start]
    while (current := tables.sigma[chain[-1]]) != end:
        chain.append(current)
    return tables.quiver.path(chain)


def reference_maximal_paths(tables: SuccessorTables) -> tuple[Path, ...]:
    """One path from each arrow with no predecessor, in name order."""
    starts = [a for a in sorted(tables.quiver.arrows) if tables.tau[a] is None]
    return tuple(_walk(tables, a, None) for a in starts)


def reference_simple_cycles(tables: SuccessorTables) -> tuple[Path, ...]:
    """One cycle per sigma-cycle, walked from its least arrow, in name order."""
    orbits = reference_orbit_data(tables)
    seen: set[str] = set()
    cycles: list[Path] = []
    for a in sorted(tables.quiver.arrows):
        if a not in seen and orbits[a].period:
            cycles.append(_walk(tables, a, a))
            seen.update(cycles[-1].arrows)
    return tuple(cycles)

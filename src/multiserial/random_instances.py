"""Seeded random instances for stress testing and experiments.

Cycle systems are built from arrow-disjoint random cycles, so apart from
loops drawing multiplicity one they validate by construction; callers
filter on the validation verdict.  Presentations are built from a random
partial successor matching, so they satisfy the multiserial condition, and
may carry extra long monomial and binomial generators that exercise the
oracle without touching the quadratic structure.  Every draw holds its
checks by construction, so it is built by the engine's doors:
:meth:`DefiningPair._trusted` and :meth:`Presentation._judged`.
"""

from __future__ import annotations

import random

from .cycle_algebra import count_paths
from .defining_pair import DefiningPair, nilpotency_bound
from .presentation import Presentation
from .quiver import Path, Quiver, _path, canonical_rotation


def random_defining_pair(
    rng: random.Random,
    max_vertices: int = 5,
    max_arrows: int = 8,
    max_mult: int = 3,
) -> DefiningPair:
    pool = [f"v{i}" for i in range(1, rng.randint(1, max_vertices) + 1)]
    budget = max_arrows
    counter = 0
    arrow_triples: list[tuple[str, str, str]] = []
    raw_cycles: list[tuple[list[str], int]] = []
    for _ in range(rng.randint(1, 3)):
        if budget == 0:
            break
        length = rng.randint(1, min(4, budget))
        budget -= length
        stops = [rng.choice(pool) for _ in range(length)]
        names = [f"a{counter + i}" for i in range(length)]
        counter += length
        for i in range(length):
            arrow_triples.append((names[i], stops[i], stops[(i + 1) % length]))
        raw_cycles.append((names, rng.randint(1, max_mult)))
    used: list[str] = []
    for _, source, target in arrow_triples:
        for v in (source, target):
            if v not in used:
                used.append(v)
    quiver = Quiver(used, arrow_triples)
    classes = [(canonical_rotation(quiver.path(names)), mult) for names, mult in raw_cycles]
    return DefiningPair._trusted(quiver, classes)


def tractable_defining_pair(
    rng: random.Random,
    max_paths: int = 20_000,
    max_vertices: int = 5,
    max_arrows: int = 8,
    max_mult: int = 3,
) -> DefiningPair:
    """Resample until the system validates and its truncated path algebra
    fits the given budget, so that the dimension oracle stays desk-scale."""
    while True:
        pair = random_defining_pair(rng, max_vertices, max_arrows, max_mult)
        if not pair.axioms.passed:
            continue
        if count_paths(pair.quiver, nilpotency_bound(pair) - 1, max_paths) > max_paths:
            continue
        return pair


def _random_quiver(rng: random.Random, max_vertices: int, max_arrows: int) -> Quiver:
    """Vertices v1..vk and arrows a0, a1, ... with uniformly drawn ends."""
    vertices = [f"v{i}" for i in range(1, rng.randint(1, max_vertices) + 1)]
    arrow_triples = [
        (f"a{i}", rng.choice(vertices), rng.choice(vertices))
        for i in range(rng.randint(1, max_arrows))
    ]
    return Quiver(vertices, arrow_triples)


def _random_walk(rng: random.Random, quiver: Quiver, length: int) -> Path | None:
    arrows = list(quiver.arrows.values())
    if not arrows:
        return None
    walk = [rng.choice(arrows)]
    for _ in range(length - 1):
        options = quiver.arrows_from(walk[-1].target)
        if not options:
            return None
        walk.append(rng.choice(options))
    return _path(tuple(a.name for a in walk), (walk[0].source, *(a.target for a in walk)))


def random_presentation(
    rng: random.Random,
    max_vertices: int = 5,
    max_arrows: int = 8,
    max_nilpotency: int = 4,
) -> Presentation:
    quiver = _random_quiver(rng, max_vertices, max_arrows)
    nilpotency = rng.randint(2, max_nilpotency)

    zero_paths = _two_arrow_paths(quiver, _random_matching(rng, quiver))

    extras: list[Path] = []
    if nilpotency >= 3 and rng.random() < 0.4:
        for _ in range(rng.randint(1, 2)):
            walk = _random_walk(rng, quiver, rng.randint(3, nilpotency))
            if walk is not None:
                extras.append(walk)

    pairs: list[tuple[Path, Path]] = []
    if nilpotency >= 4 and rng.random() < 0.3:
        for _ in range(4):
            first = _random_walk(rng, quiver, 3)
            second = _random_walk(rng, quiver, 3)
            if (
                first is not None
                and second is not None
                and first.arrows != second.arrows
                and first.source == second.source
                and first.target == second.target
            ):
                pairs.append((first, second))
                break

    return Presentation._judged(
        quiver, tuple(zero_paths) + tuple(extras), tuple(pairs), nilpotency
    )


def radical_square_zero_presentation(
    rng: random.Random, max_vertices: int = 5, max_arrows: int = 8
) -> Presentation:
    """Every composition of two arrows vanishes, declared explicitly."""
    quiver = _random_quiver(rng, max_vertices, max_arrows)
    return Presentation._judged(quiver, tuple(_two_arrow_paths(quiver, {})), (), 2)


def _two_arrow_paths(quiver: Quiver, matched: dict[str, str]) -> list[Path]:
    """The two-arrow paths ab with b not ``matched[a]``, by arrow names."""
    paths: list[Path] = []
    for a in quiver._by_name:
        name, skip, source, middle = a.name, matched.get(a.name), a.source, a.target
        for b in quiver._out[middle]:
            if b.name != skip:
                paths.append(_path((name, b.name), (source, middle, b.target)))
    return paths


def _random_matching(rng: random.Random, quiver: Quiver) -> dict[str, str]:
    """A random partial injective successor assignment along composable pairs."""
    matched: dict[str, str] = {}
    taken: set[str] = set()
    names = list(quiver.arrows)
    rng.shuffle(names)
    for name in names:
        arrow = quiver.arrow(name)
        options = [
            b.name
            for b in quiver.arrows_from(arrow.target)
            if b.name not in taken
        ]
        if options and rng.random() < 0.75:
            choice = rng.choice(options)
            matched[name] = choice
            taken.add(choice)
    return matched


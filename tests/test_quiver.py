import random
import re
from dataclasses import FrozenInstanceError, asdict, fields
from pathlib import Path as FilePath
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiserial import (
    Arrow,
    CycleAlgebra,
    OracleBudgetError,
    OrbitData,
    Path,
    Presentation,
    Quiver,
    canonical_rotation,
    close_under_rotation,
    closed_form_dimension,
    derive_successors,
    enumerate_paths,
    is_simple_cycle,
    pair_oracle_dimension,
    verify_quotient,
)
from multiserial.cli import parse_document
from multiserial.quiver import MonomialAutomaton, _path, _rotation
from multiserial.random_instances import random_presentation

FIXTURES = FilePath(__file__).resolve().parent.parent / "fixtures"


def lies_in(p: Path, cycle: Path) -> bool:
    """Whether ``p`` travels along ``cycle`` cyclically: the reference for
    the on-cycle two-arrow paths that ``generate_relations`` reads off the
    next-arrow map.

    True exactly when p occurs as a consecutive subword of a power of the
    cycle; enough powers are taken to cover every starting offset.
    """
    if p.is_trivial:
        raise ValueError("cyclic membership is undefined for trivial paths")
    if not is_simple_cycle(cycle):
        raise ValueError(f"not a simple cycle: {cycle}")
    reps = -(-len(p) // len(cycle)) + 1
    word = cycle.arrows * reps
    return any(word[i : i + len(p)] == p.arrows for i in range(len(cycle)))


def length_two_paths(q: Quiver) -> list[Path]:
    """All composable two-arrow paths of ``q``, ordered by their arrow
    names: the reference enumerator for the two-arrow paths that the engine
    walks with :meth:`Quiver.compositions` or draws as generators."""
    by_name = sorted(q.arrows.values(), key=lambda a: a.name)
    return [
        Path((a.name, b.name), (a.source, a.target, b.target))
        for a in by_name
        for b in by_name
        if b.source == a.target
    ]


def compose(p: Path, q: Path) -> Path | None:
    """The concatenation pq, or None when p does not end where q starts:
    the reference join of two paths, built by the checked constructor."""
    if p.target != q.source:
        return None
    return Path(p.arrows + q.arrows, p.vertices + q.vertices[1:])


def rotations(cycle: Path) -> list[Path]:
    """Every rebasing of a simple cycle, one per arrow in place order, read
    off the cycle walked twice: the reference for ``_rotation`` and
    :func:`canonical_rotation`."""
    if not is_simple_cycle(cycle):
        raise ValueError(f"not a simple cycle: {cycle}")
    twice = compose(cycle, cycle)
    length = len(cycle)
    return [
        Path(twice.arrows[i : i + length], twice.vertices[i : i + length + 1])
        for i in range(length)
    ]


def cycle_power(cycle: Path, exponent: int) -> Path:
    """The closed path walking a simple cycle ``exponent`` >= 1 times, joined
    one copy at a time: the reference for a system's full powers."""
    if not is_simple_cycle(cycle):
        raise ValueError(f"not a simple cycle: {cycle}")
    if exponent < 1:
        raise ValueError("exponent must be positive")
    walk = cycle
    for _ in range(exponent - 1):
        walk = compose(walk, cycle)
    return walk


def quadratic_in_ideal(presentation: Presentation, a: str, b: str) -> bool:
    """Whether the two-arrow path ab lies in the ideal, read from the
    nilpotency and the declared zero paths: the reference for the set
    ``Presentation._quadratic`` that the engine tests membership in."""
    return presentation.nilpotency == 2 or any(
        p.arrows == (a, b) for p in presentation.zero_paths
    )


def make_cycle(length: int, seed: int) -> Path:
    """A random simple cycle with fresh arrows over a small vertex pool."""
    rng = random.Random(seed)
    stops = [f"v{rng.randint(1, 4)}" for _ in range(length)]
    vertices = []
    for v in stops:
        if v not in vertices:
            vertices.append(v)
    arrows = [
        (f"a{i}", stops[i], stops[(i + 1) % length]) for i in range(length)
    ]
    quiver = Quiver(vertices, arrows)
    return quiver.path([name for name, _, _ in arrows])


def random_quiver(seed: int) -> Quiver:
    """Arrows declared out of name order, with loops, parallel arrows and
    isolated vertices all likely."""
    rng = random.Random(seed)
    vertices = [f"v{i}" for i in range(rng.randint(1, 6))]
    names = rng.sample([f"{letter}{i}" for letter in "abc" for i in range(5)], rng.randint(0, 12))
    return Quiver(vertices, [(n, rng.choice(vertices), rng.choice(vertices)) for n in names])


def random_simple_cycle(seed: int) -> Path:
    """A simple cycle with randomly drawn, distinct arrow names."""
    rng = random.Random(seed)
    length = rng.randint(1, 7)
    stops = [f"v{rng.randint(1, 3)}" for _ in range(length)]
    names = rng.sample([f"x{i}" for i in range(20)], length)
    arrows = [(names[i], stops[i], stops[(i + 1) % length]) for i in range(length)]
    return Quiver(sorted(set(stops)), arrows).path(names)


class TestQuiverConstruction:
    def test_arrows_refuse_writes(self):
        q = Quiver(["1", "2"], [("a", "1", "2")])
        with pytest.raises(TypeError):
            q.arrows["b"] = q.arrows["a"]
        with pytest.raises(TypeError):
            del q.arrows["a"]
        assert list(q.arrows) == ["a"]
        assert q == Quiver(["1", "2"], [("a", "1", "2")])
        assert q != Quiver(["1", "2"], [("a", "2", "1")])

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ValueError, match="duplicate vertex"):
            Quiver(["1", "1"])

    def test_duplicate_arrow_rejected(self):
        with pytest.raises(ValueError, match="duplicate arrow"):
            Quiver(["1"], [("a", "1", "1"), ("a", "1", "1")])

    def test_undeclared_endpoint_rejected(self):
        with pytest.raises(ValueError, match="undeclared vertex '9'"):
            Quiver(["1"], [("a", "1", "9")])

    def test_parallel_arrows_allowed(self):
        q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
        assert len(q.arrows) == 2

    def test_path_construction_checks_composability(self):
        q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
        assert q.path(["a", "b"]).vertices == ("1", "2", "3")
        with pytest.raises(ValueError, match="do not compose"):
            q.path(["b", "a"])

    @pytest.mark.parametrize(
        "names, message",
        [
            (["z"], "unknown arrow 'z'"),
            (["a", "z"], "unknown arrow 'z'"),
            (["b", "a", "z"], "arrows do not compose: 'a' starts at '1', previous arrow ends at '3'"),
            ([], "a path needs at least one arrow; use trivial_path for e(v)"),
        ],
    )
    def test_path_construction_names_the_first_fault(self, names, message):
        # one walk over the names, each looked up once: the first fault wins
        q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            q.path(names)

    def test_connectivity(self):
        connected = Quiver(["1", "2"], [("a", "1", "2")])
        assert connected.is_connected()
        split = Quiver(["1", "2", "3"], [("a", "1", "2")])
        assert not split.is_connected()


def _orbit_of(arrow: str, arrows: list[tuple[str, str, str]]) -> OrbitData:
    """The orbit data that a quiver's tables, at bound 3 with no generators, give ``arrow``."""
    quiver = Quiver(sorted({v for _, s, t in arrows for v in (s, t)}), arrows)
    return derive_successors(Presentation(quiver, (), (), 3)).orbits[arrow]


# Each slotted value by its public constructor, and as the engine builds it:
# a path by _path, through the slots' member descriptors; an arrow by its
# quiver and orbit data by the tables' orbits (a on the line a b, and a on
# the two-cycle a b), each through its public constructor.
SLOTTED = {
    "path-trivial": (lambda: Path((), ("1",)), lambda: _path((), ("1",))),
    "path-one-arrow": (lambda: Path(("a",), ("1", "2")), lambda: _path(("a",), ("1", "2"))),
    "path-two-arrows": (
        lambda: Path(("a", "b"), ("1", "2", "1")),
        lambda: _path(("a", "b"), ("1", "2", "1")),
    ),
    "arrow": (
        lambda: Arrow("a", "1", "2"),
        lambda: Quiver(["1", "2"], [("a", "1", "2")]).arrow("a"),
    ),
    "orbit-on-a-chain": (
        lambda: OrbitData(2, 1),
        lambda: _orbit_of("a", [("a", "1", "2"), ("b", "2", "3")]),
    ),
    "orbit-on-a-cycle": (
        lambda: OrbitData(period=2),
        lambda: _orbit_of("a", [("a", "1", "2"), ("b", "2", "1")]),
    ),
}


class TestPathConstructors:
    """A caller's ``Path(...)`` checks the itinerary's length; the engine's
    ``_path`` builds the same slotted value without that check.  ``Path`` is
    the one value built through its slots; a quiver's arrows and the tables'
    orbit data, built by their public constructors, are held to the same
    value here too."""

    @pytest.mark.parametrize("vertices", [("1",), ("1", "2", "3")])
    def test_caller_paths_check_their_length(self, vertices):
        with pytest.raises(ValueError, match=r"visits exactly len\(arrows\) \+ 1 vertices"):
            Path(("a",), vertices)

    @pytest.mark.parametrize("public, built", SLOTTED.values(), ids=SLOTTED.keys())
    def test_both_constructors_build_one_value(self, public, built):
        checked, made = public(), built()
        assert type(made) is type(checked)
        assert made == checked and hash(made) == hash(checked)
        # sigma-tau prints orbit data by asdict
        assert asdict(made) == asdict(checked)

    @pytest.mark.parametrize("public, built", SLOTTED.values(), ids=SLOTTED.keys())
    def test_paths_are_slotted_and_frozen(self, public, built):
        for value in (public(), built()):
            assert not hasattr(value, "__dict__")
            for field in fields(value):
                with pytest.raises(FrozenInstanceError):
                    setattr(value, field.name, None)
            assert value == public()

    def test_only_a_callers_path_runs_the_length_check(self):
        # the parser, the generators, the cover's cycles and relations, both
        # dimensions, the cover's basis and path enumeration build every path
        # through _path
        with mock.patch.object(
            Path, "__post_init__", autospec=True, side_effect=Path.__post_init__
        ) as spy:
            document = parse_document((FIXTURES / "two_cycle.alg").read_text())
            rng = random.Random(0)
            drawn = [random_presentation(rng) for _ in range(20)]
            for presentation in (document.presentation, *drawn):
                certificate = verify_quotient(presentation)
                dim, dim_star = certificate.dimensions()
                assert certificate.complete and dim <= dim_star
            cover = CycleAlgebra(certificate.pair)
            assert len(cover.basis) == dim_star and cover.check_multiserial().passed
            assert len(enumerate_paths(document.presentation.quiver, 3)) == 2 + 2 + 2 + 2
            assert spy.call_count == 0
            Path(("a",), ("1", "2"))
        assert spy.call_count == 1


class TestCompose:
    def test_composable(self):
        q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
        result = compose(q.path(["a"]), q.path(["b"]))
        assert result == q.path(["a", "b"])
        assert len(result) == 2

    def test_endpoint_mismatch_is_none(self):
        q = Quiver(["1", "2"], [("a", "1", "2")])
        assert compose(q.path(["a"]), q.path(["a"])) is None

    def test_trivial_paths_are_identities(self):
        q = Quiver(["1", "2"], [("a", "1", "2")])
        a = q.path(["a"])
        assert compose(q.trivial_path("1"), a) == a
        assert compose(a, q.trivial_path("2")) == a
        assert compose(q.trivial_path("2"), a) is None


class TestRotations:
    """The engine's unchecked ``_rotation`` against the literal rebasings and
    the reference :func:`rotations`."""

    def test_two_cycle(self):
        q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
        cycle = q.path(["a", "b"])
        rots = [_rotation(cycle, i) for i in range(2)]
        assert rots == rotations(cycle)
        assert [r.arrows for r in rots] == [("a", "b"), ("b", "a")]
        assert rots[1].source == "2"

    def test_loop(self):
        q = Quiver(["v"], [("a", "v", "v")])
        loop = q.path(["a"])
        assert _rotation(loop, 0) == loop == rotations(loop)[0]

    def test_three_cycle(self):
        q = Quiver(
            ["1", "2", "3"],
            [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")],
        )
        cycle = q.path(["a", "b", "c"])
        rots = [_rotation(cycle, i) for i in range(3)]
        assert rots == rotations(cycle)
        assert [r.arrows for r in rots] == [
            ("a", "b", "c"),
            ("b", "c", "a"),
            ("c", "a", "b"),
        ]

    def test_rejects_non_cycles(self):
        # the public route checks; so does the reference it is held against
        q = Quiver(["1", "2"], [("a", "1", "2")])
        for check in (canonical_rotation, rotations):
            with pytest.raises(ValueError, match="not a simple cycle"):
                check(q.path(["a"]))


class TestLiesIn:
    def test_cycle_lies_in_itself(self):
        q = Quiver(["1", "2"], [("a", "1", "2"), ("abar", "2", "1")])
        c = q.path(["a", "abar"])
        assert lies_in(q.path(["a", "abar"]), c)

    def test_wrap_around_needs_a_power(self):
        q = Quiver(["1", "2"], [("a", "1", "2"), ("abar", "2", "1")])
        c = q.path(["a", "abar"])
        assert lies_in(q.path(["a", "abar", "a"]), c)

    def test_foreign_arrow_fails(self):
        q = Quiver(
            ["1", "2"],
            [("a", "1", "2"), ("abar", "2", "1"), ("b", "2", "1")],
        )
        c = q.path(["a", "abar"])
        assert not lies_in(q.path(["a", "b"]), c)

    def test_trivial_path_rejected(self):
        q = Quiver(["v"], [("a", "v", "v")])
        with pytest.raises(ValueError, match="trivial"):
            lies_in(q.trivial_path("v"), q.path(["a"]))

    def test_deviating_path_fails(self):
        q = Quiver(["v"], [("a", "v", "v"), ("b", "v", "v")])
        c = q.path(["a", "b"])
        assert lies_in(q.path(["b", "a"]), c)
        assert not lies_in(q.path(["a", "a"]), c)


class TestIsSimpleCycle:
    def test_examples(self):
        q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
        assert is_simple_cycle(q.path(["a", "b"]))
        assert not is_simple_cycle(q.path(["a", "b", "a", "b"]))
        assert not is_simple_cycle(q.path(["a"]))
        assert not is_simple_cycle(q.trivial_path("1"))

    def test_repeated_vertices_allowed(self):
        q = Quiver(["v"], [("a", "v", "v"), ("b", "v", "v")])
        assert is_simple_cycle(q.path(["a", "b"]))


@given(st.integers(1, 6), st.integers(0, 10**6))
def test_rotation_count_and_closure(length, seed):
    cycle = make_cycle(length, seed)
    rots = [_rotation(cycle, i) for i in range(length)]
    assert rots == rotations(cycle)
    assert len({r.arrows for r in rots}) == length
    all_rotations = {r.arrows for r in rots}
    for r in rots:
        assert is_simple_cycle(r)
        for i in range(length):
            assert _rotation(r, i).arrows in all_rotations


@given(st.integers(1, 5), st.integers(0, 10**6), st.integers(1, 12))
def test_lies_in_is_rotation_invariant(length, seed, cut):
    cycle = make_cycle(length, seed)
    walk = cycle_power(cycle, -(-cut // length) + 1)
    p = Path(walk.arrows[:cut], walk.vertices[: cut + 1])
    values = {lies_in(p, r) for r in rotations(cycle)}
    assert values == {True}


@given(st.integers(2, 6), st.integers(0, 10**6))
def test_compose_associative_and_additive(length, seed):
    cycle = make_cycle(length, seed)
    for i in range(1, length):
        for j in range(i + 1, length):
            p = Path(cycle.arrows[:i], cycle.vertices[: i + 1])
            q = Path(cycle.arrows[i:j], cycle.vertices[i : j + 1])
            r = Path(cycle.arrows[j:], cycle.vertices[j:])
            assert compose(compose(p, q), r) == compose(p, compose(q, r)) == cycle
            assert len(compose(p, q)) == len(p) + len(q)


@given(st.integers(0, 10**9))
def test_adjacency_index_matches_brute_force(seed):
    q = random_quiver(seed)
    by_name = sorted(q.arrows.values(), key=lambda a: a.name)
    for v in q.vertices:
        assert q.arrows_from(v) == [a for a in by_name if a.source == v]
        assert q.arrows_into(v) == [a for a in by_name if a.target == v]
    after, _ = q.compositions(lambda a, b: True)
    assert [
        Path((a.name, b.name), (a.source, a.target, b.target))
        for a in by_name
        for b in after[a.name]
    ] == length_two_paths(q)


@given(st.integers(0, 10**9))
def test_compositions_ask_once_per_pair_and_match_both_sides(seed):
    q = random_quiver(seed)
    asked = []

    def survives(a, b):
        asked.append((a.name, b.name))
        return (seed + sum(map(ord, a.name + b.name))) % 3 > 0

    after, before = q.compositions(survives)
    assert asked == [p.arrows for p in length_two_paths(q)]
    for a in sorted(q.arrows.values(), key=lambda a: a.name):
        assert after[a.name] == [b for b in q.arrows_from(a.target) if survives(a, b)]
        assert before[a.name] == [c for c in q.arrows_into(a.source) if survives(c, a)]


@given(st.integers(0, 10**9))
def test_connectivity_matches_merging_the_arrow_ends(seed):
    q = random_quiver(seed)
    component = {v: {v} for v in q.vertices}
    for arrow in q.arrows.values():
        merged = component[arrow.source] | component[arrow.target]
        for v in merged:
            component[v] = merged
    assert q.is_connected() == (len(component[q.vertices[0]]) == len(q.vertices))


def test_adjacency_readers_return_fresh_lists():
    q = Quiver(["1", "2", "3"], [("b", "1", "2"), ("a", "1", "2"), ("c", "2", "2")])
    assert q.arrows_from("9") == [] and q.arrows_into("9") == []
    assert q.arrows_from("3") == [] and q.arrows_into("1") == []
    outgoing = q.arrows_from("1")
    assert [a.name for a in outgoing] == ["a", "b"]
    outgoing.clear()
    q.arrows_into("2").append(q.arrow("a"))
    assert [a.name for a in q.arrows_from("1")] == ["a", "b"]
    assert [a.name for a in q.arrows_into("2")] == ["a", "b", "c"]


@given(st.integers(0, 10**9))
def test_canonical_rotation_is_the_least_rotation(seed):
    cycle = random_simple_cycle(seed)
    for r in rotations(cycle):
        assert canonical_rotation(r) == min(rotations(cycle), key=lambda c: c.arrows)


def test_canonical_rotation_rejects_non_cycles():
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    for p in (q.path(["a"]), q.path(["a", "b", "a", "b"]), q.trivial_path("1")):
        with pytest.raises(ValueError, match="not a simple cycle"):
            canonical_rotation(p)


def test_canonical_rotation_is_least():
    q = Quiver(["1", "2"], [("b", "1", "2"), ("a", "2", "1")])
    c = q.path(["b", "a"])
    assert canonical_rotation(c).arrows == ("a", "b")


def test_cycle_power_rejects_non_cycles_and_exponents_below_one():
    # the reference's own contract; the engine's rings trust their system
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    for p in (q.path(["a"]), q.path(["a", "b", "a", "b"]), q.trivial_path("1")):
        with pytest.raises(ValueError, match="not a simple cycle"):
            cycle_power(p, 2)
    with pytest.raises(ValueError, match="exponent must be positive"):
        cycle_power(q.path(["a", "b"]), 0)


def test_cycle_power_stitches_vertices():
    # a system's overruns are sliced from one ring per class: each is its
    # rotation's full power, stitched across the copies, and one arrow more
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    cycle = q.path(["a", "b"])
    overrun_a, overrun_b = close_under_rotation(q, [(cycle, 2)])._powers[1]
    assert overrun_a.arrows == ("a", "b", "a", "b", "a")
    assert overrun_a.vertices == ("1", "2", "1", "2", "1", "2")
    assert overrun_b.vertices == ("2", "1", "2", "1", "2", "1")
    assert q.contains_path(overrun_a) and q.contains_path(overrun_b)
    for exponent in range(1, 5):
        overruns = close_under_rotation(q, [(cycle, exponent)])._powers[1]
        expected = [cycle_power(r, exponent) for r in rotations(cycle)]
        assert [Path(o.arrows[:-1], o.vertices[:-1]) for o in overruns] == expected


def all_paths(q: Quiver, max_length: int) -> list[Path]:
    """Every path of length 0..max_length, grown arrow by arrow from the
    adjacency readers: the brute-force reference for the automaton."""
    level = [q.trivial_path(v) for v in q.vertices]
    paths = list(level)
    for _ in range(max_length):
        level = [
            Path(p.arrows + (a.name,), p.vertices + (a.target,))
            for p in level
            for a in q.arrows_from(p.target)
        ]
        paths += level
    return paths


def brute_force_count(q: Quiver, monomials, max_length: int) -> tuple[int, int]:
    """How many paths of length 0..max_length have no monomial as a subword,
    and the longest among them, by slicing every path."""
    lengths = [
        len(p.arrows)
        for p in all_paths(q, max_length)
        if not any(
            p.arrows[i : i + len(m.arrows)] == m.arrows
            for m in monomials
            for i in range(len(p.arrows))
        )
    ]
    return len(lengths), max(lengths)


@st.composite
def automaton_inputs(draw):
    """A quiver of at most 3 vertices and 5 arrows, a length L, and up to
    five monomials of length 1 to L + 2, so some are at or past the bound
    L + 1, as :func:`minimal_monomial_bound` passes them; a monomial drawn
    twice is a duplicate."""
    n = draw(st.integers(1, 3))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    q = Quiver(
        [str(v) for v in range(n)],
        [(f"x{k}", str(s), str(t)) for k, (s, t) in enumerate(draw(st.lists(ends, max_size=5)))],
    )
    max_length = draw(st.integers(0, 3))
    candidates = [p for p in all_paths(q, max_length + 2) if p.arrows]
    monomials = draw(st.lists(st.sampled_from(candidates), max_size=5)) if candidates else []
    return q, max_length, monomials


@given(automaton_inputs(), st.data())
@settings(max_examples=200, deadline=None)
def test_automaton_count_matches_brute_force(drawn, data):
    q, max_length, monomials = drawn
    expected = brute_force_count(q, monomials, max_length)
    for inserted in (monomials, monomials[::-1], monomials + monomials):
        assert MonomialAutomaton(q, inserted).count(max_length) == expected
    if not monomials:
        return
    # a prefix of the first monomial, inserted before it and after it
    m = monomials[0]
    k = data.draw(st.integers(1, len(m.arrows)))
    prefix = Path(m.arrows[:k], m.vertices[: k + 1])
    expected = brute_force_count(q, [prefix, *monomials], max_length)
    for inserted in ([prefix, *monomials], [*monomials, prefix]):
        assert MonomialAutomaton(q, inserted).count(max_length) == expected


@given(automaton_inputs(), st.data())
@settings(max_examples=200, deadline=None)
def test_allowed_successors_match_brute_force(drawn, data):
    # an arrow listed with its allowed successors makes every other
    # two-arrow path through it a monomial, with the trie's monomials or not
    q, max_length, monomials = drawn
    after = {}
    for a in q._by_name:
        if data.draw(st.booleans()):
            after[a.name] = [b.name for b in q._out[a.target] if data.draw(st.booleans())]
    dead = [
        Path((a, b.name), (q.arrow(a).source, q.arrow(a).target, b.target))
        for a, allowed in after.items() for b in q._out[q.arrow(a).target] if b.name not in allowed
    ]
    expected = brute_force_count(q, monomials + dead, max_length)
    automaton = MonomialAutomaton(q, monomials, after)
    assert automaton.count(max_length) == expected
    assert MonomialAutomaton(q, monomials + dead).count(max_length) == expected
    # the same monomials given as dead pairs of arrow names
    as_pairs = MonomialAutomaton(q, monomials, dead=[p.arrows for p in dead])
    assert as_pairs.count(max_length) == expected
    # rows hold live steps alone: a listed arrow's state steps only to its
    # allowed successors
    for name, allowed in after.items():
        s = automaton.rows[automaton.vertex[q.arrow(name).source]].get(name)
        if s is not None:
            assert set(automaton.rows[s]) <= set(allowed)


def dense_count(automaton: MonomialAutomaton, max_length: int, stop_above=None) -> tuple[int, int]:
    """The count one round per length to the end, never skipping a round
    whose per-state counts repeat the last: the reference for the count."""
    edges = [(s, t) for s, row in enumerate(automaton.rows) for t in row.values()]
    roots = len(automaton.vertex)
    ending = [1] * roots + [0] * (len(automaton.rows) - roots)
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
        ending = grown
    return total, longest


@st.composite
def disjoint_cycles(draw):
    """One to three vertex-disjoint oriented cycles of 1 to 4 arrows, whose
    per-state counts repeat from the first length on, and up to three
    monomials along them, after which they repeat later or die out; shaped
    as :func:`automaton_inputs`, with a length the count test replaces."""
    vertices, arrows = [], []
    for c, length in enumerate(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))):
        names = [f"{c}.{i}" for i in range(length)]
        vertices += names
        arrows += [(f"x{c}{i}", names[i], names[(i + 1) % length]) for i in range(length)]
    q = Quiver(vertices, arrows)
    candidates = [p for p in all_paths(q, 5) if p.arrows]
    return q, 0, draw(st.lists(st.sampled_from(candidates), max_size=3))


@given(st.one_of(automaton_inputs(), disjoint_cycles()), st.integers(0, 40), st.data())
@settings(max_examples=300, deadline=None)
def test_count_matches_the_dense_count(drawn, max_length, data):
    q, _, monomials = drawn
    automaton = MonomialAutomaton(q, monomials)
    expected = dense_count(automaton, max_length)
    assert automaton.count(max_length) == expected
    # a cap below, at and above the total, and one drawn anywhere up to it
    total = expected[0]
    drawn_cap = data.draw(st.integers(0, total + 1))
    for stop_above in (total - 1, total, total + 1, drawn_cap):
        assert automaton.count(max_length, stop_above) == dense_count(automaton, max_length, stop_above)


def test_count_of_a_cycle_reaches_a_length_no_round_could():
    # every length adds one path per vertex, from the first on
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")])
    automaton = MonomialAutomaton(q, ())
    assert automaton.count(10**9) == (3 + 3 * 10**9, 10**9)
    # past the cap it stops where the rounds would: the first total above it
    assert automaton.count(10**9, 100) == dense_count(automaton, 10**9, 100) == (102, 33)


def test_oracle_of_a_four_cycle_near_the_default_budget():
    # 16·mu + 4 paths survive below the bound 16·mu + 1, so the default
    # budget of 200,000 admits mu up to 12,499
    q = Quiver(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"), ("d", "4", "1")],
    )
    cycle = q.path(["a", "b", "c", "d"])
    pair = close_under_rotation(q, [(cycle, 12_000)])
    assert pair_oracle_dimension(pair) == closed_form_dimension(pair) == 192_004
    with pytest.raises(OracleBudgetError, match="avoid every monomial relation"):
        pair_oracle_dimension(close_under_rotation(q, [(cycle, 12_500)]))


def test_automaton_states_are_proper_prefixes():
    # every two-arrow path is a monomial: one state per vertex and per arrow
    # that starts one, and none for a whole monomial; given as trie edges, as
    # arrows with no allowed successor or as dead pairs, the rows hold no
    # step past an arrow
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1"), ("c", "1", "1")])
    for automaton in (
        MonomialAutomaton(q, length_two_paths(q)),
        MonomialAutomaton(q, (), dict.fromkeys(q.arrows, ())),
        MonomialAutomaton(q, (), dead=[p.arrows for p in length_two_paths(q)]),
    ):
        assert len(automaton.end) == 2 + 3
        assert automaton.count(5) == (5, 1)
        assert [len(row) for row in automaton.rows] == [2, 1, 0, 0, 0]


@pytest.mark.parametrize("order", [1, -1])
def test_automaton_prefix_kills_in_either_order(order):
    # ab kills aba; inserted after it, its last edge replaces a state
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    monomials = [q.path(["a", "b", "a"]), q.path(["a", "b"])][::order]
    # e(1), e(2), a, b and ba
    assert MonomialAutomaton(q, monomials).count(6) == (5, 2)


@pytest.mark.parametrize(
    "dead, arrows, vertices",
    [
        (["a"], ("a", "b", "x"), ("1", "2", "1", "2")),
        (["a", "b"], ("a", "b", "a", "x"), ("1", "2", "1", "2", "1")),
        (["a"], ("a", "b", "a"), ("1", "2", "1", "1")),
    ],
)
def test_automaton_checks_the_rest_of_a_dead_monomial(dead, arrows, vertices):
    # a foreign arrow, or a wrong target, past a prefix that is already a
    # monomial raises as it would anywhere else
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    bad = Path(arrows, vertices)
    message = f"^{' '.join(arrows)} is not a path of the quiver$"
    for monomials in ([q.path(dead), bad], [bad]):
        with pytest.raises(ValueError, match=message):
            MonomialAutomaton(q, monomials)

import contextlib
import random
from functools import cached_property
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiserial import (
    CycleAlgebra,
    DefiningPair,
    Path,
    Quiver,
    Report,
    canonical_rotation,
    close_under_rotation,
    generate_relations,
    nilpotency_bound,
    symmetrize,
    validate,
)
from multiserial import defining_pair as defining_pair_module
from multiserial import quiver as quiver_module
from multiserial.random_instances import random_defining_pair, random_presentation
from test_quiver import length_two_paths, lies_in
from test_quiver import rotations as cycle_rotations


@contextlib.contextmanager
def spy_on_derivation(name: str):
    """Count the runs of the body of ``DefiningPair.<name>``, a cached
    property, over every system; cached reads do not run it."""
    spy = mock.Mock(wraps=DefiningPair.__dict__[name].func)
    counted = cached_property(spy)
    counted.__set_name__(DefiningPair, name)
    with mock.patch.object(DefiningPair, name, counted):
        yield spy


def rotations(pair: DefiningPair) -> list[tuple[Path, int]]:
    """Every rotation of every class with its multiplicity, by arrows: the
    cycles a system storing all its rotations would hold, and, for a valid
    system, its rotation order, which the relations and the basis follow."""
    return sorted(
        ((r, mu) for c, mu in pair.rotation_class_representatives() for r in cycle_rotations(c)),
        key=lambda rotation: rotation[0].arrows,
    )


def reference_closure(listed: list[tuple[Path, int]]) -> list[tuple[Path, int]] | str:
    """What a list of cycles with multiplicities closes to, by enumerating
    rotations: every rotation of every listed cycle with its multiplicity,
    by arrows; or the refusal of the first cycle, in list order, weighted
    unlike an earlier rotation of its class."""
    closure: dict[tuple[str, ...], tuple[Path, int]] = {}
    for c, mu in listed:
        turns = cycle_rotations(c)
        known = closure.get(c.arrows)
        if known is not None and known[1] != mu:
            least = min(turns, key=lambda r: r.arrows)
            return f"conflicting multiplicities {known[1]} and {mu} for rotations of {least}"
        closure.update((r.arrows, (r, mu)) for r in turns)
    return [closure[k] for k in sorted(closure)]


def reference_validate(pair: DefiningPair) -> Report:
    """The rotation-enumerating form of :func:`validate`, kept as the
    reference its class-keyed report must equal, witnesses and order
    included."""
    report = Report("cycle-system-axioms")
    stored = rotations(pair)

    bad_loops = [str(c) for c, mu in stored if len(c) == 1 and mu == 1]
    report.add(
        "loop-multiplicity",
        not bad_loops,
        "" if not bad_loops else "loops need multiplicity > 1: " + ", ".join(bad_loops),
    )

    covered = {a for c, _ in stored for a in c.arrows}
    uncovered = sorted(set(pair.quiver.arrows) - covered)
    report.add(
        "arrow-coverage",
        not uncovered,
        "" if not uncovered else "arrows on no cycle: " + ", ".join(uncovered),
    )

    conflicts = []
    class_of: dict[str, frozenset[tuple[str, ...]]] = {}
    for c, _ in stored:
        rotation_set = frozenset(r.arrows for r in cycle_rotations(c))
        for a in c.arrows:
            seen = class_of.setdefault(a, rotation_set)
            if seen != rotation_set:
                conflicts.append(a)
    conflicts = sorted(set(conflicts))
    report.add(
        "unique-class-per-arrow",
        not conflicts,
        "" if not conflicts else "arrows on two distinct classes: " + ", ".join(conflicts),
    )

    return report


CORRUPTIONS = ("drop-rotation", "change-multiplicity", "second-class", "loop-multiplicity-one")


def corrupt(
    pair: DefiningPair, rng: random.Random, kinds
) -> tuple[Quiver, list[tuple[Path, int]], tuple[Path, int] | None]:
    """The quiver of ``pair`` and every rotation of it with its
    multiplicity, by arrows, with the named corruptions applied in
    ``CORRUPTIONS`` order; and the rotation dropped, if any."""
    vertices = list(pair.quiver.vertices)
    arrows = [(a.name, a.source, a.target) for a in pair.quiver.arrows.values()]
    cycles = {c.arrows: c for c, _ in rotations(pair)}
    mult = {c.arrows: mu for c, mu in rotations(pair)}
    dropped = None
    if "drop-rotation" in kinds:
        key = rng.choice(sorted(cycles))
        dropped = cycles.pop(key), mult.pop(key)
    if "change-multiplicity" in kinds and cycles:
        mult[rng.choice(sorted(cycles))] += rng.randint(1, 2)
    if "second-class" in kinds:
        # fresh arrows z0, z1 close a cycle through one or two existing
        # arrows; some of its rotations are stored
        picked = rng.sample(arrows, rng.randint(1, min(2, len(arrows))))
        names, stops = [], []
        for i, (name, source, target) in enumerate(picked):
            arrows.append((f"z{i}", target, picked[(i + 1) % len(picked)][1]))
            names += [name, f"z{i}"]
            stops += [source, target]
        cycle = Path(tuple(names), tuple(stops) + (stops[0],))
        for c in cycle_rotations(cycle)[: rng.randint(1, len(names))]:
            cycles[c.arrows], mult[c.arrows] = c, 2
    if "loop-multiplicity-one" in kinds:
        loops = sorted(k for k in cycles if len(k) == 1)
        if loops:
            mult[rng.choice(loops)] = 1
        else:
            v = rng.choice(vertices)
            arrows.append(("y", v, v))
            cycles[("y",)], mult[("y",)] = Path(("y",), (v, v)), 1
    return Quiver(vertices, arrows), [(cycles[k], mult[k]) for k in sorted(cycles)], dropped


def kronecker_pair():
    """Two back-and-forth classes through a shared middle vertex."""
    q = Quiver(
        ["1", "2", "3"],
        [("a", "1", "2"), ("abar", "2", "1"), ("b", "2", "3"), ("bbar", "3", "2")],
    )
    return close_under_rotation(
        q, [(q.path(["a", "abar"]), 2), (q.path(["b", "bbar"]), 2)]
    )


class TestValidate:
    def test_loop_with_multiplicity_one_fails(self, loop_quiver):
        pair = DefiningPair(loop_quiver, [(loop_quiver.path(["a"]), 1)])
        report = validate(pair)
        assert not report.check("loop-multiplicity").passed

    def test_shared_arrow_between_classes_fails(self):
        q = Quiver(
            ["1", "2", "3"],
            [("a", "1", "2"), ("b", "2", "1"), ("c", "2", "1")],
        )
        pair = close_under_rotation(
            q, [(q.path(["a", "b"]), 2), (q.path(["a", "c"]), 2)]
        )
        report = validate(pair)
        verdict = report.check("unique-class-per-arrow")
        assert not verdict.passed
        assert "a" in verdict.witness

    def test_uncovered_arrow_fails(self):
        q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1"), ("c", "1", "1")])
        pair = close_under_rotation(q, [(q.path(["a", "b"]), 2)])
        verdict = validate(pair).check("arrow-coverage")
        assert not verdict.passed and "c" in verdict.witness

    def test_uneven_multiplicity_fails(self, two_cycle_quiver):
        q = two_cycle_quiver
        with pytest.raises(
            ValueError, match=r"^conflicting multiplicities 2 and 3 for rotations of a b$"
        ):
            DefiningPair(q, [(q.path(["a", "b"]), 2), (q.path(["b", "a"]), 3)])

    def test_valid_pair_passes(self, loop_mu2_pair):
        # validating a built system reads its classes and enumerates no
        # rotation: it rotates no cycle and slices no full power off a ring
        kronecker = kronecker_pair()
        with contextlib.ExitStack() as stack:
            spies = [
                stack.enter_context(mock.patch.object(module, name, wraps=getattr(module, name)))
                for module, name in ((quiver_module, "_rotation"), (defining_pair_module, "_path"))
            ]
            assert validate(loop_mu2_pair).passed
            assert validate(kronecker).passed
        assert [spy.call_count for spy in spies] == [0, 0]

    def test_empty_system_on_arrowless_quiver_passes(self):
        pair = DefiningPair(Quiver(["v"]), [])
        assert validate(pair).passed

    def test_axioms_are_derived_once_per_system(self, loop_mu2_pair):
        with spy_on_derivation("axioms") as spy:
            first, second = validate(loop_mu2_pair), validate(loop_mu2_pair)
            loop_mu2_pair.require_valid()
        assert spy.call_count == 1
        assert first == second == loop_mu2_pair.axioms

    def test_returned_report_is_the_callers_own(self, loop_mu2_pair):
        report = validate(loop_mu2_pair)
        report.add("planted", False, "written by a caller")
        report.checks[0] = report.checks[-1]
        report.warn("planted")
        again = validate(loop_mu2_pair)
        assert again.passed and not again.warnings
        assert [c.name for c in again.checks] == [
            "loop-multiplicity",
            "arrow-coverage",
            "unique-class-per-arrow",
        ]
        assert CycleAlgebra(loop_mu2_pair).dimension == 3

    def test_next_arrow_refuses_writes(self, two_cycle_mu3_pair):
        with pytest.raises(TypeError):
            two_cycle_mu3_pair.next_arrow["a"] = "a"
        assert two_cycle_mu3_pair.next_arrow == {"a": "b", "b": "a"}


def three_classes_of_four_rotations() -> tuple[Quiver, list[Path]]:
    """3 classes of 4 arrows between two vertices, each given by its 4 rotations."""
    quiver = Quiver(
        ["1", "2"],
        [(f"{x}{i}", "12"[i % 2], "12"[(i + 1) % 2]) for x in "abc" for i in range(4)],
    )
    cycles = [
        quiver.path([f"{x}{(i + k) % 4}" for k in range(4)]) for x in "abc" for i in range(4)
    ]
    return quiver, cycles


class TestCloseUnderRotation:
    def test_generates_all_rotations(self, two_cycle_quiver):
        q = two_cycle_quiver
        pair = close_under_rotation(q, [(q.path(["a", "b"]), 2)])
        assert [(c.arrows, mu) for c, mu in rotations(pair)] == [(("a", "b"), 2), (("b", "a"), 2)]

    def test_loop(self, loop_quiver):
        pair = close_under_rotation(loop_quiver, [(loop_quiver.path(["a"]), 3)])
        assert [(c.arrows, mu) for c, mu in rotations(pair)] == [(("a",), 3)]

    def test_conflicting_multiplicities_fault(self, two_cycle_quiver):
        q = two_cycle_quiver
        with pytest.raises(ValueError, match="conflicting multiplicities"):
            close_under_rotation(
                q, [(q.path(["a", "b"]), 2), (q.path(["b", "a"]), 3)]
            )

    def test_foreign_representative_is_named(self, two_cycle_quiver, loop_quiver):
        q = two_cycle_quiver
        foreign = loop_quiver.path(["a"])
        with pytest.raises(ValueError, match=r"^cycle a is not a path of the quiver$"):
            close_under_rotation(q, [(foreign, 2)])
        # the arrows of a checked class on other vertices: the later one is foreign
        moved = Path(("b", "a"), ("1", "2", "1"))
        with pytest.raises(ValueError, match=r"^cycle b a is not a path of the quiver$"):
            close_under_rotation(q, [(q.path(["a", "b"]), 2), (moved, 2)])

    def test_checks_each_rotation_class_once(self):
        quiver, cycles = three_classes_of_four_rotations()
        with mock.patch.object(
            Quiver, "contains_path", autospec=True, side_effect=Quiver.contains_path
        ) as spy:
            pair = close_under_rotation(quiver, [(c, 2) for c in cycles])
        assert spy.call_count == 3
        assert len(pair.rotation_class_representatives()) == 3
        assert len(rotations(pair)) == 12

    def test_a_callers_rotation_list_is_checked_for_simplicity_once(self):
        # each of the 12 rotations is checked at the border, then keyed by
        # its canonical rotation without a second check
        quiver, cycles = three_classes_of_four_rotations()
        spy = mock.Mock(wraps=quiver_module.is_simple_cycle)
        with mock.patch.object(quiver_module, "is_simple_cycle", spy):
            pair = DefiningPair(quiver, [(c, 2) for c in cycles])
        assert spy.call_count == 12
        assert pair == close_under_rotation(quiver, [(c, 2) for c in cycles])

    @pytest.mark.parametrize("seed", range(4))
    def test_checks_each_representative_for_simplicity_once(self, seed):
        # a cover's cycles hand several representatives to most classes; the
        # rotations built from them are trusted
        presentation = random_presentation(random.Random(seed), 4, 40, 4)
        cover = symmetrize(presentation)
        representatives = list(reversed(rotations(cover)))
        spy = mock.Mock(wraps=quiver_module.is_simple_cycle)
        with mock.patch.object(quiver_module, "is_simple_cycle", spy):
            assert close_under_rotation(cover.quiver, representatives) == cover
        assert spy.call_count == len(representatives)

    def test_public_routes_still_reject_a_non_simple_cycle(self, two_cycle_quiver):
        q = two_cycle_quiver
        twice = q.path(["a", "b", "a", "b"])
        with pytest.raises(ValueError, match=r"^not a simple cycle: a b a b$"):
            DefiningPair(q, [(twice, 2)])
        with pytest.raises(ValueError, match=r"^not a simple cycle: a b a b$"):
            close_under_rotation(q, [(twice, 2)])
        with pytest.raises(ValueError, match=r"^not a simple cycle: a b a b$"):
            canonical_rotation(twice)

    def test_representative_choice_is_irrelevant(self, two_cycle_quiver):
        q = two_cycle_quiver
        one = close_under_rotation(q, [(q.path(["a", "b"]), 3)])
        other = close_under_rotation(q, [(q.path(["b", "a"]), 3)])
        assert one == other
        assert generate_relations(one) == generate_relations(other)


class TestGenerateRelations:
    def test_loop_mu2(self, loop_mu2_pair):
        relations = generate_relations(loop_mu2_pair)
        assert relations.type1 == ()
        assert [p.arrows for p in relations.type2] == [("a", "a", "a")]
        assert relations.type3 == ()

    def test_shared_vertex_produces_binomial(self):
        relations = generate_relations(kronecker_pair())
        assert len(relations.type1) == 1
        left, right = relations.type1[0]
        assert {left.arrows, right.arrows} == {
            ("abar", "a", "abar", "a"),
            ("b", "bbar", "b", "bbar"),
        }
        assert left.source == right.source == "2"

    def test_off_cycle_quadratic_is_type3(self):
        q = Quiver(
            ["1", "2"],
            [("a", "1", "2"), ("b", "2", "1"), ("c", "1", "1")],
        )
        pair = close_under_rotation(
            q, [(q.path(["a", "b"]), 2), (q.path(["c"]), 2)]
        )
        relations = generate_relations(pair)
        # junctions between the two classes die; cc survives on its loop
        assert {p.arrows for p in relations.type3} == {("b", "c"), ("c", "a")}

    def test_type2_has_full_power_plus_first_arrow_length(self, two_cycle_mu3_pair):
        relations = generate_relations(two_cycle_mu3_pair)
        assert sorted(p.arrows for p in relations.type2) == [
            ("a", "b", "a", "b", "a", "b", "a"),
            ("b", "a", "b", "a", "b", "a", "b"),
        ]

    def test_invalid_system_is_rejected(self, loop_quiver):
        pair = DefiningPair(loop_quiver, [(loop_quiver.path(["a"]), 1)])
        with pytest.raises(ValueError, match="fails validation"):
            generate_relations(pair)

    def test_relations_are_generated_once_per_system(self, two_cycle_mu3_pair):
        pair = two_cycle_mu3_pair
        with spy_on_derivation("relations") as spy:
            assert generate_relations(pair) is generate_relations(pair) is pair.relations
        assert spy.call_count == 1

    def test_invalid_system_is_rejected_on_every_call(self, loop_quiver):
        pair = DefiningPair(loop_quiver, [(loop_quiver.path(["a"]), 1)])
        with spy_on_derivation("relations") as spy:
            for _ in range(2):
                with pytest.raises(ValueError, match="fails validation"):
                    generate_relations(pair)
        assert spy.call_count == 2


class TestNilpotencyBound:
    def test_examples(self, loop_mu2_pair, two_cycle_mu3_pair):
        assert nilpotency_bound(loop_mu2_pair) == 3
        assert nilpotency_bound(two_cycle_mu3_pair) == 7

    def test_maximum_over_classes(self):
        q = Quiver(
            ["1", "2", "3", "4"],
            [
                ("a", "1", "2"), ("b", "2", "1"),
                ("c", "3", "4"), ("d", "4", "3"),
            ],
        )
        pair = close_under_rotation(
            q, [(q.path(["a", "b"]), 2), (q.path(["c", "d"]), 3)]
        )
        # full power lengths are 4 and 6
        assert nilpotency_bound(pair) == 7

    def test_empty_system(self):
        pair = DefiningPair(Quiver(["v"]), [])
        assert nilpotency_bound(pair) == 2


@given(st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_every_arrow_starts_exactly_one_type2_relation(seed):
    pair = random_defining_pair(random.Random(seed))
    if not validate(pair).passed:
        return
    firsts = [p.arrows[0] for p in generate_relations(pair).type2]
    assert sorted(firsts) == sorted(pair.quiver.arrows)


@given(st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_quadratics_split_into_on_cycle_and_type3(seed):
    # Symmetrized presentations add covers that share vertices and carry
    # return arrows, which random_defining_pair never draws.
    rng = random.Random(seed)
    for pair in (random_defining_pair(rng), symmetrize(random_presentation(rng))):
        if not validate(pair).passed:
            continue
        relations = generate_relations(pair)
        type3 = {p.arrows for p in relations.type3}
        on_cycle = {
            p.arrows
            for p in length_two_paths(pair.quiver)
            if any(lies_in(p, c) for c, _ in rotations(pair))
        }
        everything = {p.arrows for p in length_two_paths(pair.quiver)}
        assert type3 | on_cycle == everything
        assert not (type3 & on_cycle)
        assert list(relations.type3) == [
            p for p in length_two_paths(pair.quiver) if p.arrows not in on_cycle
        ]


@given(st.integers(0, 10**9), st.sets(st.sampled_from(CORRUPTIONS)))
@settings(max_examples=300, deadline=None)
def test_validate_matches_the_rotation_enumerating_reference(seed, kinds):
    # a list closes to every rotation of each class it names; one weighting
    # a class unevenly is refused where it enters, with the reference's text
    rng = random.Random(seed)
    quiver, listed, dropped = corrupt(random_defining_pair(rng), rng, kinds)
    expected = reference_closure(listed)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as refused:
            DefiningPair(quiver, listed)
        assert str(refused.value) == expected
        assert "change-multiplicity" in kinds
        return
    pair = DefiningPair(quiver, listed)
    assert rotations(pair) == expected
    assert close_under_rotation(quiver, listed) == pair
    if dropped is not None and "change-multiplicity" not in kinds:
        # a dropped rotation is restored by the closure while its class is listed
        kept = dropped[0].arrows in {c.arrows for c, _ in expected}
        assert (DefiningPair(quiver, [*listed, dropped]) == pair) == kept
    report = validate(pair)
    assert report == reference_validate(pair)
    if "second-class" in kinds and "drop-rotation" not in kinds:
        assert not report.check("unique-class-per-arrow").passed
    if "loop-multiplicity-one" in kinds:
        assert not report.check("loop-multiplicity").passed


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_any_listing_of_the_classes_closes_to_the_same_system(seed):
    # shuffled, repeated or re-rotated, the representatives of a drawn
    # system or a cover close to that system, by either name
    rng = random.Random(seed)
    for pair in (random_defining_pair(rng), symmetrize(random_presentation(rng))):
        listed = [
            (rng.choice(cycle_rotations(c)), mu)
            for c, mu in pair.rotation_class_representatives()
            for _ in range(rng.randint(1, 3))
        ]
        rng.shuffle(listed)
        built = DefiningPair(pair.quiver, listed)
        assert built == pair
        assert close_under_rotation(pair.quiver, listed) == built


@given(st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_generated_systems_validate(seed):
    pair = random_defining_pair(random.Random(seed))
    report = validate(pair)
    loops_ok = all(len(c) > 1 or mu > 1 for c, mu in pair.rotation_class_representatives())
    assert report.passed == loops_ok


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_rotation_closure_is_rotation_invariant(seed):
    pair = random_defining_pair(random.Random(seed))
    rng = random.Random(seed + 1)
    representatives = [
        (rng.choice(cycle_rotations(c)), mult)
        for c, mult in pair.rotation_class_representatives()
    ]
    assert close_under_rotation(pair.quiver, representatives) == pair

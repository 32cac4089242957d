import contextlib
import hashlib
import random
import re
import time
from dataclasses import FrozenInstanceError
from functools import cached_property
from pathlib import Path as FilePath
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiserial import (
    MultiserialConditionError,
    OrbitData,
    Path,
    Presentation,
    Quiver,
    SuccessorTables,
    check_multiserial_condition,
    check_orbit_structure,
    derive_successors,
    enumerate_paths,
    minimal_monomial_bound,
)
from multiserial import presentation as presentation_module
from multiserial import random_instances
from multiserial.cli import parse_document
from multiserial.random_instances import (
    _random_matching,
    _random_quiver,
    _two_arrow_paths,
    radical_square_zero_presentation,
    random_presentation,
)
from multiserial.report import Check, Report
from reference_walk import reference_maximal_paths, reference_orbit_data, reference_simple_cycles
from test_quiver import length_two_paths, quadratic_in_ideal

FIXTURES = FilePath(__file__).resolve().parent.parent / "fixtures"


def reference_orbit(table, start: str) -> tuple[int | None, int | None]:
    """Follow a table from ``start``, one arrow at a time: (steps to the
    stop, None) or (None, period); the per-arrow walk the orbits are held
    against."""
    current = table[start]
    step = 1
    while current is not None and current != start:
        current = table[current]
        step += 1
    return (step, None) if current is None else (None, step)


def reference_orbits(tables: SuccessorTables) -> dict[str, OrbitData]:
    """Both maps walked from every arrow."""
    return {
        a: OrbitData(reference_orbit(tables.sigma, a)[0], *reference_orbit(tables.tau, a))
        for a in sorted(tables.quiver.arrows)
    }


def reference_walks(tables: SuccessorTables) -> tuple[list[Path], list[Path]]:
    """The maximal paths and cycles from the per-arrow walks: one path per
    chain, from each arrow that tau stops at after one step, as long as
    sigma's walk from it; and one cycle per sigma-cycle, its rotation
    starting at its least arrow; both in name order."""

    def along_sigma(start: str, length: int) -> Path:
        arrows = [start]
        while len(arrows) < length:
            arrows.append(tables.sigma[arrows[-1]])
        return tables.quiver.path(arrows)

    chains, cycles = [], []
    for a in sorted(tables.quiver.arrows):
        stop, period = reference_orbit(tables.sigma, a)
        if period is None and reference_orbit(tables.tau, a) == (1, None):
            chains.append(along_sigma(a, stop))
        elif period is not None and min(along_sigma(a, period).arrows) == a:
            cycles.append(along_sigma(a, period))
    return chains, cycles


@contextlib.contextmanager
def spy_on_the_walk():
    """Count the runs of the body of ``SuccessorTables._walked``, the cached
    walk that gives the orbits, maximal paths and cycles, over every set of
    tables; cached reads do not run it."""
    spy = mock.Mock(wraps=SuccessorTables.__dict__["_walked"].func)
    counted = cached_property(spy)
    counted.__set_name__(SuccessorTables, "_walked")
    with mock.patch.object(SuccessorTables, "_walked", counted):
        yield spy


# the values of the one walk, in its order
WALKED = ("orbits", "maximal_paths", "simple_cycles")


def corrupt_the_walk(tables: SuccessorTables, attribute: str, value) -> None:
    """Make ``tables`` give ``value`` as ``attribute``, one of :data:`WALKED`,
    by replacing its one walk past the read-only cache."""
    walked = dict(zip(WALKED, tables._walked), **{attribute: value})
    object.__setattr__(tables, "_walked", tuple(walked[name] for name in WALKED))


ORBIT_CHECKS = [
    "arrow-partition",
    "cycle-follows-sigma",
    "cycle-length-is-period",
    "maximal-path-determined-by-arrow",
]
# the label of an arrow-partition witness
PARTITION = "arrows not on exactly one maximal path or cycle"


def random_successor_tables(
    rng: random.Random, max_vertices: int = 5, max_arrows: int = 8
) -> SuccessorTables:
    """Tables read off a random partial successor matching on a random
    quiver, with no presentation behind them."""
    quiver = _random_quiver(rng, max_vertices, max_arrows)
    matched = _random_matching(rng, quiver)
    sigma = {name: matched.get(name) for name in quiver.arrows}
    tau: dict[str, str | None] = {name: None for name in quiver.arrows}
    for a, b in matched.items():
        tau[b] = a
    return SuccessorTables(quiver, sigma, tau)


def reference_surviving_compositions(
    presentation: Presentation,
) -> tuple[Report, dict[str, list[str]], dict[str, list[str]]]:
    """The two-sided form of the multiserial-condition scan, kept as the
    reference the one-walk scan must equal: it tests each two-arrow path
    twice, once from each of its arrows."""
    q = presentation.quiver
    report = Report("multiserial-condition")
    if not q.is_connected():
        report.warn(
            "quiver is disconnected; constructions proceed blockwise but the "
            "algebra is decomposable"
        )
    successors: dict[str, list[str]] = {}
    predecessors: dict[str, list[str]] = {}
    violations = 0
    for arrow in sorted(q.arrows.values(), key=lambda a: a.name):
        after = successors[arrow.name] = [
            b.name
            for b in q.arrows_from(arrow.target)
            if not quadratic_in_ideal(presentation, arrow.name, b.name)
        ]
        if len(after) > 1:
            violations += 1
            report.add(
                f"unique-successor({arrow.name})",
                False,
                "surviving compositions with " + ", ".join(after),
            )
        before = predecessors[arrow.name] = [
            c.name
            for c in q.arrows_into(arrow.source)
            if not quadratic_in_ideal(presentation, c.name, arrow.name)
        ]
        if len(before) > 1:
            violations += 1
            report.add(
                f"unique-predecessor({arrow.name})",
                False,
                "surviving compositions with " + ", ".join(before),
            )
    report.add(
        "multiserial-condition",
        violations == 0,
        "" if violations == 0 else f"{violations} arrow(s) violate the condition",
    )
    return report, successors, predecessors


class TestPresentationConstruction:
    def test_rejects_small_nilpotency(self, linear_quiver):
        with pytest.raises(ValueError, match="at least 2"):
            Presentation(linear_quiver, (), (), 1)

    def test_rejects_short_generators(self, linear_quiver):
        with pytest.raises(ValueError, match="length < 2"):
            Presentation(linear_quiver, (linear_quiver.path(["a"]),), (), 2)

    def test_rejects_non_uniform_binomials(self, linear_quiver):
        q = Quiver(
            ["1", "2", "3"],
            [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "2"), ("d", "2", "2")],
        )
        with pytest.raises(ValueError, match="not uniform"):
            Presentation(q, (), ((q.path(["a", "b"]), q.path(["c", "d"])),), 3)

    def test_rejects_foreign_paths(self, linear_quiver, loop_quiver):
        with pytest.raises(ValueError, match="not a path of the quiver"):
            Presentation(linear_quiver, (loop_quiver.path(["a", "a"]),), (), 2)

    @given(
        st.integers(0, 10**9),
        st.sampled_from(["random", "random-4-40-4", "radical-square-zero"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_draw_is_accepted_unchanged_by_the_public_constructor(self, seed, name):
        # the drawers build by the door Presentation._judged, past every
        # check; each draw must hold them all, as a caller's would
        drawn = GENERATORS[name](random.Random(seed))
        fields = [getattr(drawn, f) for f in Presentation.__dataclass_fields__]
        assert vars(Presentation(*fields)) == vars(drawn)

    def test_quadratic_membership(self, linear_presentation):
        assert ("a", "b") in linear_presentation._quadratic
        assert quadratic_in_ideal(linear_presentation, "a", "b")

    def test_bound_two_makes_every_quadratic_vanish(self, two_cycle_quiver):
        p = Presentation(two_cycle_quiver, (), (), 2)
        assert p._quadratic == {("a", "b"), ("b", "a")}
        assert quadratic_in_ideal(p, "a", "b") and quadratic_in_ideal(p, "b", "a")


class TestMultiserialCondition:
    def test_linear_presentation_passes(self, linear_presentation):
        assert check_multiserial_condition(linear_presentation).passed

    def test_branching_fails_with_witness(self):
        q = Quiver(
            ["1", "2", "3", "4"],
            [("a", "1", "2"), ("b", "2", "3"), ("c", "2", "4")],
        )
        report = check_multiserial_condition(Presentation(q, (), (), 3))
        assert not report.passed
        violation = report.check("unique-successor(a)")
        assert "b" in violation.witness and "c" in violation.witness

    def test_loop_passes(self, loop_quiver):
        p = Presentation(loop_quiver, (), (), 3)
        assert check_multiserial_condition(p).passed

    def test_disconnected_quiver_warns_but_passes(self):
        q = Quiver(["1", "2", "3"], [("a", "1", "2")])
        report = check_multiserial_condition(Presentation(q, (), (), 2))
        assert report.passed
        assert any("disconnected" in w for w in report.warnings)

    def test_each_composition_is_tested_once(self):
        # a branching quiver, so both sides see several candidates
        q = Quiver(
            ["1", "2", "3"],
            [("a", "1", "2"), ("b", "2", "3"), ("c", "2", "2"), ("d", "3", "2")],
        )
        p = Presentation(q, (), (), 3)
        # record each membership test against the dead quadratics
        asked = []

        class Recording(frozenset):
            def __contains__(self, pair):
                asked.append(pair)
                return super().__contains__(pair)

        vars(p)["_quadratic"] = Recording(p._quadratic)
        report = check_multiserial_condition(p)
        assert asked == [path.arrows for path in length_two_paths(q)]
        assert report == reference_surviving_compositions(p)[0]
        assert report.check("unique-predecessor(c)").witness == (
            "surviving compositions with a, c, d"
        )


class TestDeriveSuccessors:
    def test_bound_two_gives_all_stops(self, linear_presentation):
        tables = derive_successors(linear_presentation)
        assert tables.sigma == {"a": None, "b": None}
        assert tables.tau == {"a": None, "b": None}

    def test_two_cycle_without_quadratics(self, two_cycle_quiver):
        p = Presentation(two_cycle_quiver, (), (), 3)
        tables = derive_successors(p)
        assert tables.sigma == {"a": "b", "b": "a"}
        assert tables.tau == {"a": "b", "b": "a"}

    def test_loop_with_dead_square(self, loop_quiver):
        p = Presentation(loop_quiver, (loop_quiver.path(["a", "a"]),), (), 2)
        tables = derive_successors(p)
        assert tables.sigma == {"a": None}
        assert tables.tau == {"a": None}

    def test_faults_on_condition_violation(self):
        q = Quiver(
            ["1", "2", "3", "4"],
            [("a", "1", "2"), ("b", "2", "3"), ("c", "2", "4")],
        )
        with pytest.raises(MultiserialConditionError):
            derive_successors(Presentation(q, (), (), 3))

    def test_tables_are_derived_once_and_shared(self, two_cycle_quiver):
        p = Presentation(two_cycle_quiver, (), (), 3)
        with mock.patch.object(
            presentation_module,
            "_surviving_compositions",
            wraps=presentation_module._surviving_compositions,
        ) as spy:
            assert derive_successors(p) is derive_successors(p) is p.tables
        assert spy.call_count == 1
        with pytest.raises(FrozenInstanceError):
            p.tables.sigma = {}

    def test_connectivity_is_searched_only_for_the_condition_report(self, two_cycle_quiver):
        # only check_multiserial_condition shows the disconnected warning
        p = Presentation(two_cycle_quiver, (), (), 3)
        with mock.patch.object(
            Quiver, "is_connected", autospec=True, side_effect=Quiver.is_connected
        ) as spy:
            derive_successors(p)
            assert spy.call_count == 0
            assert check_multiserial_condition(p).passed
        assert spy.call_count == 1

    def test_shared_tables_refuse_writes(self, linear_quiver):
        tables = derive_successors(Presentation(linear_quiver, (), (), 3))
        for table in (tables.sigma, tables.tau, tables.orbits):
            with pytest.raises(TypeError):
                table["a"] = None
        for name in ("orbits", "maximal_paths", "simple_cycles"):
            with pytest.raises(FrozenInstanceError):
                setattr(tables, name, ())
        assert tables.sigma == {"a": "b", "b": None}
        assert type(tables.maximal_paths) is type(tables.simple_cycles) is tuple

    def test_tables_copy_their_input(self, linear_quiver):
        sigma, tau = {"a": "b", "b": None}, {"a": None, "b": "a"}
        tables = SuccessorTables(linear_quiver, sigma, tau)
        sigma["b"] = "a"
        assert tables.sigma["b"] is None

    def test_condition_violation_is_raised_on_every_call(self):
        q = Quiver(
            ["1", "2", "3", "4"],
            [("a", "1", "2"), ("b", "2", "3"), ("c", "2", "4")],
        )
        p = Presentation(q, (), (), 3)
        with mock.patch.object(
            presentation_module,
            "_surviving_compositions",
            wraps=presentation_module._surviving_compositions,
        ) as spy:
            for _ in range(2):
                with pytest.raises(MultiserialConditionError, match="unique-successor"):
                    derive_successors(p)
        assert spy.call_count == 2


class TestSuccessorTables:
    def test_rejects_non_inverse_tables(self, two_cycle_quiver):
        with pytest.raises(ValueError, match="mutually inverse"):
            SuccessorTables(
                two_cycle_quiver,
                {"a": "b", "b": "a"},
                {"a": None, "b": None},
            )

    def test_rejects_non_composable_successor(self):
        q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
        with pytest.raises(ValueError, match="not composable"):
            SuccessorTables(q, {"a": "b", "b": None}, {"a": None, "b": "a"})

    # Three arrows 1 -> 2 and d: 2 -> 1, so only a d, b d, c d, d a, d b and
    # d c compose.  Each table lists each arrow; the fault named is the least
    # pair that fails, whether unknown or not composable, from either table.
    NAMES = dict.fromkeys("abcd")

    @pytest.mark.parametrize(
        "sigma, tau, message",
        [
            ({"c": "x"}, {}, "unknown arrow 'x'"),
            ({}, {"a": "y"}, "unknown arrow 'y'"),
            ({"c": "a", "b": "x"}, {}, "unknown arrow 'x'"),
            ({"c": "x"}, {"b": "a"}, "the tables pair a with b, which is not composable"),
            ({"c": "a", "b": "c"}, {"a": "c"}, "the tables pair b with c, which is not composable"),
            ({"c": "b"}, {"b": "c", "a": "b"}, "the tables pair b with a, which is not composable"),
            ({"a": "d", "d": "b"}, {"d": "a"}, "tables are not mutually inverse at d b"),
            ({"a": "d"}, {"d": "c"}, "tables are not mutually inverse at a d"),
        ],
    )
    def test_border_names_the_least_fault(self, sigma, tau, message):
        q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "2"), ("d", "2", "1")])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SuccessorTables(q, {**self.NAMES, **sigma}, {**self.NAMES, **tau})


class TestOrbitData:
    def test_period_two(self, two_cycle_quiver):
        tables = derive_successors(Presentation(two_cycle_quiver, (), (), 3))
        data = tables.orbits
        assert data["a"].period == 2
        assert data["a"].forward_stop is None

    def test_stops_at_one(self, linear_presentation):
        data = derive_successors(linear_presentation).orbits
        assert data["a"].forward_stop == 1
        assert data["a"].backward_stop == 1

    def test_fixed_loop(self, loop_quiver):
        tables = derive_successors(Presentation(loop_quiver, (), (), 3))
        assert tables.orbits["a"].period == 1

    @given(st.permutations(range(8)), st.lists(st.booleans(), min_size=8, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_inverse_tables_stop_together_with_one_period(self, image, kept):
        # sigma, a permutation restricted to the kept arrows, is a partial
        # injection, and every one arises so; tau is its inverse.  Arrow i
        # starts at s<i> and ends where its successor starts, else at t<i>.
        names = [f"a{i}" for i in range(len(image))]
        sigma = {a: names[j] if keep else None for a, j, keep in zip(names, image, kept)}
        tau = dict.fromkeys(names)
        tau.update({b: a for a, b in sigma.items() if b is not None})
        arrows = [
            (a, f"s{i}", f"s{image[i]}" if kept[i] else f"t{i}") for i, a in enumerate(names)
        ]
        vertices = sorted({v for _, source, target in arrows for v in (source, target)})
        tables = SuccessorTables(Quiver(vertices, arrows), sigma, tau)
        for a in names:
            forward_stop, forward_period = reference_orbit(tables.sigma, a)
            backward_stop, backward_period = reference_orbit(tables.tau, a)
            assert (forward_stop is None) == (backward_stop is None)
            assert forward_period == backward_period
            # the orbit through a holds forward_stop + backward_stop - 1 arrows,
            # or period many: within the arrow count either way
            if forward_period is None:
                assert forward_stop + backward_stop - 1 <= len(names)
            else:
                assert forward_period <= len(names)
            assert tables.orbits[a] == OrbitData(forward_stop, backward_stop, forward_period)


class TestMaximalPathsAndCycles:
    def test_all_stops_give_singletons(self, linear_presentation):
        tables = derive_successors(linear_presentation)
        assert [m.arrows for m in tables.maximal_paths] == [("a",), ("b",)]

    def test_surviving_composition_joins(self, linear_quiver):
        p = Presentation(linear_quiver, (), (), 3)
        tables = derive_successors(p)
        assert [m.arrows for m in tables.maximal_paths] == [("a", "b")]
        assert tables.simple_cycles == ()

    def test_cycles_of_two_cycle(self, two_cycle_quiver):
        tables = derive_successors(Presentation(two_cycle_quiver, (), (), 3))
        assert tables.maximal_paths == ()
        # one cycle per rotation class: its canonical rotation
        assert [c.arrows for c in tables.simple_cycles] == [("a", "b")]

    def test_loop_cycle(self, loop_quiver):
        tables = derive_successors(Presentation(loop_quiver, (), (), 3))
        assert [c.arrows for c in tables.simple_cycles] == [("a",)]

    def test_results_do_not_depend_on_declaration_order(self):
        triples = [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")]
        forward = Quiver(["1", "2", "3"], triples)
        backward = Quiver(["1", "2", "3"], list(reversed(triples)))
        zero_f = (forward.path(["c", "a"]),)
        zero_b = (backward.path(["c", "a"]),)
        tf = derive_successors(Presentation(forward, zero_f, (), 3))
        tb = derive_successors(Presentation(backward, zero_b, (), 3))
        assert [m.arrows for m in tf.maximal_paths] == [
            m.arrows for m in tb.maximal_paths
        ]
        assert [c.arrows for c in tf.simple_cycles] == [
            c.arrows for c in tb.simple_cycles
        ]


@pytest.fixture
def two_two_cycles_presentation() -> Presentation:
    """Two 2-cycles a b and c d between vertices 1 and 2: the two-arrow
    paths that cross from one to the other vanish."""
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1"), ("c", "1", "2"), ("d", "2", "1")])
    zeros = tuple(q.path(p) for p in (["a", "d"], ["d", "a"], ["b", "c"], ["c", "b"]))
    return Presentation(q, zeros, (), 3)


class TestOrbitStructure:
    def test_maximal_length_formula(self, linear_quiver):
        p = Presentation(linear_quiver, (), (), 3)
        tables = derive_successors(p)
        data = tables.orbits
        assert data["a"].forward_stop == 2 and data["a"].backward_stop == 1
        # (len - i) + (i + 1) - 1 = len at every index i, so the check that
        # each arrow's orbit halves rebuild its maximal path implies the formula
        report = check_orbit_structure(tables)
        assert report.check("maximal-path-determined-by-arrow").passed

    def test_cycle_length_is_period(self, two_cycle_quiver):
        tables = derive_successors(Presentation(two_cycle_quiver, (), (), 3))
        report = check_orbit_structure(tables)
        assert report.check("cycle-length-is-period").passed
        assert report.passed

    def test_orbit_data_is_computed_once(self, linear_quiver, two_cycle_quiver):
        # one walk per set of tables, however often the orbits, maximal
        # paths and cycles are read, its orbits equal to walking both maps
        # from every arrow
        presentations = [
            Presentation(linear_quiver, (), (), 3),
            Presentation(two_cycle_quiver, (), (), 3),
            random_presentation(random.Random(3), 4, 40, 4),
        ]
        for presentation in presentations:
            tables = derive_successors(presentation)
            with spy_on_the_walk() as spy:
                assert check_orbit_structure(tables).passed
                assert check_orbit_structure(tables).passed
                assert len(tables.maximal_paths) + len(tables.simple_cycles) > 0
            assert spy.call_count == 1
            assert tables.orbits == reference_orbits(tables)

    @pytest.mark.parametrize(
        "fixture", ["a3_gentle.alg", "two_cycle.alg", "radical_square_zero.alg"]
    )
    def test_three_checks_pass_on_fixtures(self, fixture):
        document = parse_document((FIXTURES / fixture).read_text())
        report = check_orbit_structure(derive_successors(document.presentation))
        assert [c.name for c in report.checks] == ORBIT_CHECKS
        assert report.passed

    def test_maximal_path_is_determined_by_the_orbits(self, linear_quiver):
        shared = derive_successors(Presentation(linear_quiver, (), (), 3))
        # a b is the one maximal path; a private copy of the tables claims b
        # stops one step too late, past the read-only cached walk
        tables = SuccessorTables(shared.quiver, shared.sigma, shared.tau)
        corrupt = {**tables.orbits, "b": OrbitData(forward_stop=2, backward_stop=2)}
        corrupt_the_walk(tables, "orbits", corrupt)
        check = check_orbit_structure(tables).check("maximal-path-determined-by-arrow")
        assert not check.passed and check.witness == "b does not recover a b"
        assert check_orbit_structure(shared).passed

    @pytest.mark.parametrize(
        "given, attribute, corrupt, name, witness",
        [
            (
                "linear_quiver", "maximal_paths", lambda q: (),
                "arrow-partition", f"{PARTITION}: a, b",
            ),
            (
                "linear_quiver", "maximal_paths", lambda q: (q.path(["a", "b"]),) * 2,
                "arrow-partition", f"{PARTITION}: a, b",
            ),
            (
                # two rotations of one class: a and b each lie on two cycles
                "two_cycle_quiver", "simple_cycles",
                lambda q: (q.path(["a", "b"]), q.path(["b", "a"])),
                "arrow-partition", f"{PARTITION}: a, b",
            ),
            (
                # the class's other rotation: it does not start at its least arrow
                "two_cycle_quiver", "simple_cycles", lambda q: (q.path(["b", "a"]),),
                "cycle-follows-sigma", "b a starts at b, not at its least arrow a",
            ),
            (
                # two cycles sigma never traces, over the arrows of a b and c d
                "two_two_cycles_presentation", "simple_cycles",
                lambda q: (q.path(["a", "d"]), q.path(["b", "c"])),
                "cycle-follows-sigma",
                "a d at a: sigma gives b, not d; a d at d: sigma gives c, not a; "
                "b c at b: sigma gives a, not c; b c at c: sigma gives d, not b",
            ),
            (
                "two_cycle_quiver", "orbits",
                lambda q: {"a": OrbitData(period=3), "b": OrbitData(period=2)},
                "cycle-length-is-period", "a b at a: length 2 != period 3",
            ),
            (
                # a wrong period past the cycle's first arrow
                "two_cycle_quiver", "orbits",
                lambda q: {"a": OrbitData(period=2), "b": OrbitData(period=3)},
                "cycle-length-is-period", "a b at b: length 2 != period 3",
            ),
            (
                # a twice on one maximal path: its two places need two backward stops
                "two_cycle_quiver", "maximal_paths", lambda q: (q.path(["a", "b", "a"]),),
                "maximal-path-determined-by-arrow",
                "a does not recover a b a; b does not recover a b a; a does not recover a b a",
            ),
            (
                "linear_quiver", "orbits", lambda q: {"a": OrbitData(3, 1), "b": OrbitData(1, 2)},
                "maximal-path-determined-by-arrow", "a does not recover a b",
            ),
        ],
    )
    def test_failing_check_names_its_offenders(
        self, request, given, attribute, corrupt, name, witness
    ):
        # a quiver stands for its presentation with no generators
        presentation = request.getfixturevalue(given)
        if isinstance(presentation, Quiver):
            presentation = Presentation(presentation, (), (), 3)
        # a private copy of the tables, corrupted past its read-only walk
        shared = derive_successors(presentation)
        tables = SuccessorTables(shared.quiver, shared.sigma, shared.tau)
        corrupt_the_walk(tables, attribute, corrupt(tables.quiver))
        assert check_orbit_structure(tables).check(name) == Check(name, False, witness)
        assert check_orbit_structure(shared).passed

    def test_long_single_cycle_is_checked_in_subcubic_time(self):
        # one sigma-cycle through 600 arrows, traced once as its canonical
        # rotation; building every rotation of every stored cycle took about 15s
        n = 600
        quiver = Quiver(
            [str(i) for i in range(n)],
            [(f"a{i}", str(i), str((i + 1) % n)) for i in range(n)],
        )
        tables = derive_successors(Presentation(quiver, (), (), 3))
        started = time.perf_counter()
        report = check_orbit_structure(tables)
        assert report.passed
        assert len(tables.simple_cycles) == 1
        assert time.perf_counter() - started < 5.0


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_orbit_structure_on_presentations(seed):
    tables = derive_successors(random_presentation(random.Random(seed)))
    report = check_orbit_structure(tables)
    assert [c.name for c in report.checks] == ORBIT_CHECKS
    assert report.passed


# The generators at their default sizes and at four vertices, 40 arrows and
# nilpotency 4, the largest shape the benchmark draws.
GENERATORS = {
    "random": random_presentation,
    "random-4-40-4": lambda rng: random_presentation(rng, 4, 40, 4),
    "radical-square-zero": radical_square_zero_presentation,
    "radical-square-zero-4-40": lambda rng: radical_square_zero_presentation(rng, 4, 40),
}
# Three draws from random.Random(seed) for each seed 0..49, digested one by
# one and then together.  The benchmark's pinned input digests rest on these
# draws, so a change to the generators' RNG calls or output order fails here.
DRAW_DIGESTS = {
    "random": "5f62237329677f2c",
    "random-4-40-4": "a59cc1ab13fa73e5",
    "radical-square-zero": "a1a5936add8f4f37",
    "radical-square-zero-4-40": "ad3c8c74a1a5b60e",
}


def draw_digest(p: Presentation) -> str:
    """A digest of a presentation's vertices, arrows, generators with their
    itineraries, and nilpotency."""
    q = p.quiver
    text = repr((
        q.vertices,
        [(a.name, a.source, a.target) for a in q.arrows.values()],
        [(z.arrows, z.vertices) for z in p.zero_paths],
        [((l.arrows, l.vertices), (r.arrows, r.vertices)) for l, r in p.equal_pairs],
        p.nilpotency,
    ))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def assert_generators_on_quiver(p: Presentation) -> None:
    for path in (*p.zero_paths, *(t for pair in p.equal_pairs for t in pair)):
        assert p.quiver.contains_path(path), path


@pytest.mark.parametrize("name", GENERATORS)
def test_random_generators_draw_paths_of_their_quiver_as_pinned(name):
    # the generators check no generator against its quiver, so this test does
    combined = hashlib.sha256()
    for seed in range(50):
        rng = random.Random(seed)
        for _ in range(3):
            p = GENERATORS[name](rng)
            assert_generators_on_quiver(p)
            combined.update(draw_digest(p).encode())
    assert combined.hexdigest()[:16] == DRAW_DIGESTS[name]


@given(st.integers(0, 10**9), st.sampled_from(sorted(GENERATORS)))
@settings(max_examples=60, deadline=None)
def test_random_generators_check_no_path(seed, name):
    with mock.patch.object(
        Quiver, "contains_path", autospec=True, side_effect=Quiver.contains_path
    ) as spy:
        p = GENERATORS[name](random.Random(seed))
    assert spy.call_count == 0
    assert_generators_on_quiver(p)


def reference_two_arrow_paths(quiver: Quiver, matched: dict[str, str]) -> list[Path]:
    """The two-arrow zero paths as the generators first drew them: the
    reference for the loop over the quiver's adjacency index."""
    return [
        Path((a.name, b.name), (a.source, a.target, b.target))
        for a in sorted(quiver.arrows.values(), key=lambda a: a.name)
        for b in quiver.arrows_from(a.target)
        if b.name != matched.get(a.name)
    ]


@pytest.mark.parametrize("name", GENERATORS)
def test_two_arrow_paths_match_the_reference(name):
    sizes = []

    def checked(quiver, matched):
        paths = _two_arrow_paths(quiver, matched)
        assert paths == reference_two_arrow_paths(quiver, matched)
        sizes.append(len(paths))
        return paths

    rng = random.Random(2026)
    with mock.patch.object(random_instances, "_two_arrow_paths", side_effect=checked):
        for _ in range(300):
            GENERATORS[name](rng)
    assert len(sizes) == 300 and sum(sizes) > 300


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_orbit_structure_on_random_tables(seed):
    tables = random_successor_tables(random.Random(seed))
    assert check_orbit_structure(tables).passed


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_derived_tables_are_mutually_inverse(seed):
    presentation = random_presentation(random.Random(seed))
    tables = derive_successors(presentation)
    for a, b in tables.sigma.items():
        if b is not None:
            assert tables.tau[b] == a
    for b, a in tables.tau.items():
        if a is not None:
            assert tables.sigma[a] == b


@given(st.integers(0, 10**9), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_surviving_compositions_match_the_two_sided_reference(seed, keep_every):
    # Keeping only every k-th zero path lets compositions survive that the
    # drawn matching killed, so many draws break the multiserial condition.
    drawn = random_presentation(random.Random(seed))
    zero_paths = drawn.zero_paths[::keep_every] if keep_every else ()
    p = Presentation(drawn.quiver, zero_paths, drawn.equal_pairs, drawn.nilpotency)
    _, successors, predecessors = presentation_module._surviving_compositions(p)
    expected = reference_surviving_compositions(p)
    # the connectivity warning is added by the public entry point alone
    assert check_multiserial_condition(p) == expected[0]
    assert {a: [b.name for b in after] for a, after in successors.items()} == expected[1]
    assert {b: [a.name for a in before] for b, before in predecessors.items()} == expected[2]


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_arrows_partition_into_maximal_and_cyclic(seed):
    tables = random_successor_tables(random.Random(seed))
    on_maximal = {a for m in tables.maximal_paths for a in m.arrows}
    on_cycle = {a for c in tables.simple_cycles for a in c.arrows}
    assert on_maximal | on_cycle == set(tables.quiver.arrows)
    assert not (on_maximal & on_cycle)
    assert (list(tables.maximal_paths), list(tables.simple_cycles)) == reference_walks(tables)


# Draws of the one-walk reference test that hold, between them, sigma-cycles,
# chains, loops and vertices without arrows.
WALK_EXAMPLES = [
    ("random", 58), ("random-4-40-4", 1), ("random-4-40-4", 15), ("radical-square-zero", 6)
]
WALK_DRAWERS = ["random", "random-4-40-4", "radical-square-zero"]


def test_the_walk_examples_hold_cycles_chains_loops_and_arrowless_vertices():
    shapes = set()
    for name, seed in WALK_EXAMPLES:
        tables = derive_successors(GENERATORS[name](random.Random(seed)))
        q = tables.quiver
        held = {
            "cycle": bool(tables.simple_cycles),
            "chain": bool(tables.maximal_paths),
            "loop": any(a.source == a.target for a in q._by_name),
            "arrowless": any(not q._out[v] and not q._in[v] for v in q.vertices),
        }
        shapes |= {shape for shape, found in held.items() if found}
    assert shapes == {"cycle", "chain", "loop", "arrowless"}


def with_walk_examples(test):
    for name, seed in WALK_EXAMPLES:
        test = example(name, seed)(test)
    return test


@given(st.sampled_from(WALK_DRAWERS), st.integers(0, 10**9))
@with_walk_examples
@settings(max_examples=150, deadline=None)
def test_the_one_walk_matches_the_three_walks(name, seed):
    tables = derive_successors(GENERATORS[name](random.Random(seed)))
    orbits = reference_orbit_data(tables)
    assert tables.orbits == orbits and list(tables.orbits) == list(orbits)
    assert tables.maximal_paths == reference_maximal_paths(tables)
    assert tables.simple_cycles == reference_simple_cycles(tables)


class TestMinimalMonomialBound:
    def test_reports_smaller_bound(self, linear_quiver):
        p = Presentation(linear_quiver, (linear_quiver.path(["a", "b"]),), (), 4)
        assert minimal_monomial_bound(p) == 2

    def test_minimal_declaration_confirmed(self, two_cycle_presentation):
        assert minimal_monomial_bound(two_cycle_presentation) == 3

    def test_generator_longer_than_three_on_a_loop(self, loop_quiver):
        # the search must keep three arrows of each alive path to see a^4
        a4 = loop_quiver.path(["a"] * 4)
        p = Presentation(loop_quiver, (a4,), (), 6)
        assert minimal_monomial_bound(p) == 4

    def test_binomials_disable_the_check(self, two_cycle_quiver):
        q = two_cycle_quiver
        p = Presentation(
            q, (), ((q.path(["a", "b", "a"]), q.path(["a", "b", "a"])),), 4
        )
        assert minimal_monomial_bound(p) is None


def brute_force_bound(presentation: Presentation, budget: int):
    """minimal_monomial_bound from the listed paths below the bound: a path
    is alive when no zero path is a subword of it."""
    words = [p.arrows for p in presentation.zero_paths]
    q, bound = presentation.quiver, presentation.nilpotency
    alive_by_length = [0] * bound
    for path in enumerate_paths(q, bound - 1):
        arrows = path.arrows
        if not any(
            arrows[i : i + len(w)] == w for w in words for i in range(len(arrows))
        ):
            alive_by_length[len(path)] += 1
    visited, longest = alive_by_length[0], 0
    for length in range(1, bound):
        visited += alive_by_length[length]
        if visited > budget:
            return None
        if not alive_by_length[length]:
            break
        longest = length
    return max(longest + 1, 2)


@given(st.integers(0, 10**9), st.sampled_from([5, 40, 200_000]))
@settings(max_examples=80, deadline=None)
def test_minimal_bound_agrees_with_brute_force(seed, budget):
    # zero paths of mixed lengths, so that a search keeping too short a
    # tail of each alive path misses some of them
    rng = random.Random(seed)
    drawn = random_presentation(rng, max_vertices=3, max_arrows=4, max_nilpotency=6)
    q, bound = drawn.quiver, drawn.nilpotency
    candidates = [p for p in enumerate_paths(q, bound) if len(p) >= 2]
    zeros = tuple(rng.sample(candidates, min(len(candidates), rng.randint(0, 4))))
    presentation = Presentation(q, zeros, (), bound)
    assert minimal_monomial_bound(presentation, budget) == brute_force_bound(
        presentation, budget
    )

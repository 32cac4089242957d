import contextlib
import functools
import importlib
import random
import re
from dataclasses import FrozenInstanceError
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiserial import (
    CertifiedGenerator,
    CycleAlgebra,
    Justification,
    MultiserialConditionError,
    Path,
    Presentation,
    Quiver,
    check_orbit_structure,
    close_under_rotation,
    closed_form_dimension,
    derive_successors,
    enumerate_paths,
    generate_relations,
    symmetrize,
    validate,
    verify_quotient,
)
from multiserial import cli
from multiserial import cycle_algebra as cycle_algebra_module
from multiserial import defining_pair as defining_pair_module
from multiserial import presentation as presentation_module
from multiserial import quiver as quiver_module
from multiserial.random_instances import (
    radical_square_zero_presentation,
    random_presentation,
)
from multiserial.symmetrize import (
    BINOMIAL_BOTH_TERMS,
    FORBIDDEN_QUADRATIC,
    KILLED_BY_STAR_ARROW,
    LONG_PATH,
    STAR_PREFIX,
    UNCERTIFIED,
)
from test_defining_pair import rotations, spy_on_derivation
from test_quiver import quadratic_in_ideal
from test_quiver import rotations as cycle_rotations

# The package exports the function ``symmetrize`` under the module's name.
symmetrize_module = importlib.import_module("multiserial.symmetrize")


def reference_certificate(presentation):
    """The certificate's generators by the eager walk: every term of every
    generator judged from its own arrows and given its text at once."""
    pair = symmetrize(presentation)
    base, bound = presentation.quiver, presentation.nilpotency

    def term(path):
        for name in path.arrows:
            if name not in base.arrows:
                return Justification(KILLED_BY_STAR_ARROW, f"contains return arrow {name}")
        if len(path) >= bound:
            return Justification(LONG_PATH, f"image has length {len(path)} >= bound {bound}")
        return Justification(UNCERTIFIED, f"image {path} survives the collapse and is short")

    entries = []
    relations = pair.relations
    for u, w in relations.type1:
        left, right = term(u), term(w)
        ok = UNCERTIFIED not in (left.kind, right.kind)
        both = Justification(BINOMIAL_BOTH_TERMS, "", (left, right))
        entries.append(CertifiedGenerator("type1", f"{u} - {w}", both, ok))
    for p in relations.type2:
        j = term(p)
        entries.append(CertifiedGenerator("type2", str(p), j, j.kind != UNCERTIFIED))
    for p in relations.type3:
        a, b = p.arrows
        if a not in base.arrows or b not in base.arrows:
            which = a if a not in base.arrows else b
            j = Justification(KILLED_BY_STAR_ARROW, f"contains return arrow {which}")
        elif quadratic_in_ideal(presentation, a, b):
            successor = presentation.tables.sigma[a]
            j = Justification(
                FORBIDDEN_QUADRATIC,
                f"successor of {a} is "
                f"{successor if successor is not None else 'the stop marker'}, not {b}",
            )
        else:
            j = Justification(UNCERTIFIED, f"composition {p} survives in the ideal")
        entries.append(CertifiedGenerator("type3", str(p), j, j.kind != UNCERTIFIED))
    return entries


def undersized_loop_cover():
    """A loop a with nilpotency bound 5, given in its cover slot the
    hand-built cover a^2: the overrun a a a is shorter than the bound and
    has no return arrow, so it survives the collapse."""
    q = Quiver(["v"], [("a", "v", "v")])
    p = Presentation(q, (), (), 5)
    object.__setattr__(p, "_cover", close_under_rotation(q, [(q.path(["a"]), 2)]))
    return p


def two_loop_cover(mu: int) -> Presentation:
    """Loops a and b at one vertex, whose compositions a b and b a are dead,
    under nilpotency bound 5, given in its cover slot the hand-built cover
    of the two loops at multiplicity ``mu``: below 5, the binomial
    a^mu - b^mu is short on both sides and survives the collapse."""
    q = Quiver(["v"], [("a", "v", "v"), ("b", "v", "v")])
    p = Presentation(q, (q.path(["a", "b"]), q.path(["b", "a"])), (), 5)
    cover = close_under_rotation(q, [(q.path(["a"]), mu), (q.path(["b"]), mu)])
    object.__setattr__(p, "_cover", cover)
    return p


class TestBuildStarQuiver:
    """The enlarged quiver: the quiver of the cover that symmetrize builds."""

    def test_linear_presentation_gains_two_arrows(self, linear_presentation):
        enlarged = symmetrize(linear_presentation).quiver
        added = set(enlarged.arrows) - set(linear_presentation.quiver.arrows)
        assert added == {"star_a", "star_b"}
        assert enlarged.arrow("star_a").source == "2"
        assert enlarged.arrow("star_a").target == "1"
        assert enlarged.arrow("star_b").source == "3"
        assert enlarged.arrow("star_b").target == "2"

    def test_cycle_complete_presentation_is_unchanged(self, two_cycle_presentation):
        assert derive_successors(two_cycle_presentation).maximal_paths == ()
        assert symmetrize(two_cycle_presentation).quiver == two_cycle_presentation.quiver

    def test_dead_loop_gains_a_return_loop(self, loop_quiver):
        p = Presentation(loop_quiver, (loop_quiver.path(["a", "a"]),), (), 2)
        arrow = symmetrize(p).quiver.arrow("star_a")
        assert (arrow.source, arrow.target) == ("v", "v")

    def test_faults_on_condition_violation(self):
        q = Quiver(
            ["1", "2", "3", "4"],
            [("a", "1", "2"), ("b", "2", "3"), ("c", "2", "4")],
        )
        with pytest.raises(MultiserialConditionError):
            symmetrize(Presentation(q, (), (), 3))

    def test_only_return_arrows_are_star_arrows(self, linear_presentation):
        # the base arrows come first, then one return arrow per maximal path
        # in the sorted order of the paths
        enlarged = symmetrize(linear_presentation).quiver
        assert list(enlarged.arrows) == ["a", "b", "star_a", "star_b"]
        assert all(
            (name in linear_presentation.quiver.arrows) != name.startswith(STAR_PREFIX)
            for name in enlarged.arrows
        )

    def test_star_is_shared_and_frozen(self, linear_presentation):
        cover = symmetrize(linear_presentation)
        assert symmetrize(linear_presentation) is cover
        with pytest.raises(FrozenInstanceError):
            linear_presentation._cover = None

    def test_shared_cover_refuses_writes(self, linear_presentation):
        cover = symmetrize(linear_presentation)
        with pytest.raises(TypeError):
            del cover.quiver.arrows["star_b"]
        with pytest.raises(TypeError):
            cover.quiver.arrows["star_c"] = cover.quiver.arrows["star_b"]
        with pytest.raises(TypeError):
            cover.next_arrow["star_b"] = "a"
        again = symmetrize(linear_presentation)
        assert list(again.quiver.arrows) == ["a", "b", "star_a", "star_b"]
        assert again.next_arrow == {"a": "star_a", "star_a": "a", "b": "star_b", "star_b": "b"}

    def test_reserved_name_collision_faults(self):
        q = Quiver(["1", "2"], [("a", "1", "2"), ("star_a", "2", "1")])
        p = Presentation(q, (q.path(["a", "star_a"]), q.path(["star_a", "a"])), (), 3)
        with pytest.raises(ValueError, match="collides"):
            symmetrize(p)

    def test_both_clashes_keep_their_texts(self):
        collides = Quiver(["1", "2"], [("a", "1", "2"), ("star_a", "2", "1")])
        # the maximal paths a bc and ab c both name their return arrow star_abc
        ambiguous = Quiver(
            ["1", "2", "3", "4", "5", "6"],
            [("a", "1", "2"), ("bc", "2", "3"), ("ab", "4", "5"), ("c", "5", "6")],
        )
        cases = [
            (
                Presentation(
                    collides, (collides.path(["a", "star_a"]), collides.path(["star_a", "a"])), (), 3
                ),
                "generated return arrow 'star_a' collides with an existing arrow; "
                "rename the quiver's arrows",
            ),
            (
                Presentation(ambiguous, (), (), 3),
                "generated return arrow 'star_abc' is ambiguous between two maximal "
                "paths; rename the quiver's arrows",
            ),
        ]
        for presentation, message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                symmetrize(presentation)

    def test_generated_name_ambiguity_faults(self):
        # the maximal paths a bc and ab c both name their return arrow star_abc
        q = Quiver(
            ["1", "2", "3", "4", "5", "6"],
            [("a", "1", "2"), ("bc", "2", "3"), ("ab", "4", "5"), ("c", "5", "6")],
        )
        p = Presentation(q, (), (), 3)
        for _ in range(2):
            with pytest.raises(ValueError, match="'star_abc' is ambiguous"):
                symmetrize(p)


def public_enlarged_quiver(presentation: Presentation) -> Quiver:
    """The enlarged quiver built by the public constructor: the base's
    triples, then one return triple per maximal path in their order."""
    base = presentation.quiver
    triples = [(a.name, a.source, a.target) for a in base.arrows.values()]
    triples += [
        (STAR_PREFIX + "".join(m.arrows), m.target, m.source)
        for m in derive_successors(presentation).maximal_paths
    ]
    return Quiver(base.vertices, triples)


@given(
    st.integers(0, 10**9),
    st.sampled_from(
        [
            random_presentation,
            lambda rng: random_presentation(rng, 4, 40, 4),
            radical_square_zero_presentation,
        ]
    ),
)
@settings(max_examples=60, deadline=None)
def test_enlarged_quiver_extends_the_base(seed, draw):
    presentation = draw(random.Random(seed))
    base = presentation.quiver
    indexed = base._by_name[:], {v: out[:] for v, out in base._out.items()}
    enlarged, public = symmetrize(presentation).quiver, public_enlarged_quiver(presentation)
    assert enlarged == public and list(enlarged.arrows) == list(public.arrows)
    for index in ("_by_name", "_out", "_in"):
        assert getattr(enlarged, index) == getattr(public, index), index
    # the base's vertices and arrows are shared, and its own index is untouched
    assert enlarged.vertices is base.vertices
    assert all(enlarged.arrows[name] is arrow for name, arrow in base.arrows.items())
    assert (base._by_name, base._out) == indexed


class TestSymmetrize:
    def test_linear_presentation(self, linear_presentation):
        pair = symmetrize(linear_presentation)
        assert len(rotations(pair)) == 4
        classes = {c.arrows for c, _ in pair.rotation_class_representatives()}
        assert classes == {("a", "star_a"), ("b", "star_b")}
        assert all(m == 2 for _, m in pair.rotation_class_representatives())
        assert validate(pair).passed

    def test_two_cycle_presentation(self, two_cycle_presentation):
        pair = symmetrize(two_cycle_presentation)
        assert pair.quiver == two_cycle_presentation.quiver
        assert [(c.arrows, mu) for c, mu in rotations(pair)] == [(("a", "b"), 3), (("b", "a"), 3)]

    def test_live_loop_keeps_its_cycle(self, loop_quiver):
        p = Presentation(loop_quiver, (), (), 3)
        pair = symmetrize(p)
        assert [(c.arrows, mu) for c, mu in rotations(pair)] == [(("a",), 3)]
        assert validate(pair).passed

    @pytest.mark.parametrize("seed", range(4))
    def test_checks_no_cycle_of_its_own(self, seed):
        # the cover's cycles were traced by the successor tables or close
        # their maximal paths, so none is checked against the enlarged quiver
        presentation = random_presentation(random.Random(seed), 4, 40, 4)
        with mock.patch.object(
            Quiver, "contains_path", autospec=True, side_effect=Quiver.contains_path
        ) as spy:
            cover = symmetrize(presentation)
        assert spy.call_count == 0
        assert validate(cover).passed

    def test_base_arrows_occur_on_exactly_one_class(self, linear_presentation):
        pair = symmetrize(linear_presentation)
        base = linear_presentation.quiver
        for name in base.arrows:
            classes = {
                frozenset(r.arrows for r in cycle_rotations(c))
                for c, _ in rotations(pair)
                if name in c.arrows
            }
            assert len(classes) == 1
        for name in set(pair.quiver.arrows) - set(base.arrows):
            for c, _ in rotations(pair):
                if name in c.arrows:
                    assert set(c.arrows) - set(base.arrows) == {name}


class TestVerifyQuotient:
    def test_linear_presentation_certificate(self, linear_presentation):
        certificate = verify_quotient(linear_presentation)
        assert certificate.complete
        assert certificate.counts() == {"type1": 1, "type2": 4, "type3": 2}
        kinds = {
            e.justification.kind
            for e in certificate.entries
            if e.relation_kind == "type1"
        }
        assert kinds == {BINOMIAL_BOTH_TERMS}

    def test_two_cycle_type2_images_are_long(self, two_cycle_presentation):
        certificate = verify_quotient(two_cycle_presentation)
        assert certificate.complete
        type2 = [e for e in certificate.entries if e.relation_kind == "type2"]
        assert len(type2) == 2
        assert {e.justification.kind for e in type2} == {LONG_PATH}

    def test_dead_loop_quadratic_is_forbidden(self, loop_quiver):
        p = Presentation(loop_quiver, (loop_quiver.path(["a", "a"]),), (), 2)
        certificate = verify_quotient(p)
        assert certificate.complete
        quadratics = {
            e.relation: e.justification.kind
            for e in certificate.entries
            if e.relation_kind == "type3"
        }
        assert quadratics["a a"] == FORBIDDEN_QUADRATIC
        assert quadratics["star_a star_a"] == KILLED_BY_STAR_ARROW

    def test_return_arrows_kill_exactly_their_generators(self, linear_presentation):
        base = linear_presentation.quiver
        certificate = verify_quotient(linear_presentation)
        for entry in certificate.entries:
            terms = entry.justification.parts or (entry.justification,)
            words = entry.relation.split(" - ")
            for word, term in zip(words, terms):
                crosses = any(a not in base.arrows for a in word.split())
                assert (term.kind == KILLED_BY_STAR_ARROW) == crosses, entry

    def test_successor_tables_are_derived_once(self, linear_presentation):
        with mock.patch.object(
            symmetrize_module, "derive_successors", wraps=derive_successors
        ) as spy:
            assert verify_quotient(linear_presentation).complete
        assert spy.call_count == 1

    def test_cover_relations_are_generated_once(self, linear_presentation):
        # the cover's oracle slices its own full powers and overruns, without
        # the relations; the certificate's entries then build them once
        with spy_on_derivation("relations") as spy:
            certificate = verify_quotient(linear_presentation)
            assert certificate.dimensions() == (5, 18)
            assert spy.call_count == 0
            assert certificate.entries and certificate.entries
        assert spy.call_count == 1

    def test_verdicts_build_no_relation_path(self):
        # with the cover and its axioms built, every generator is judged from
        # the cover's generator index and cycles
        presentation = random_presentation(random.Random(3), 4, 40, 4)
        pair = symmetrize(presentation)
        assert pair.axioms.passed
        paths = mock.Mock(wraps=quiver_module._path)
        with contextlib.ExitStack() as stack:
            for module in (quiver_module, defining_pair_module, symmetrize_module):
                stack.enter_context(mock.patch.object(module, "_path", paths))
            derived = stack.enter_context(spy_on_derivation("relations"))
            certificate = verify_quotient(presentation)
            assert certificate.complete
            counts = certificate.counts()
        assert (derived.call_count, paths.call_count) == (0, 0)
        assert counts == dict(zip(("type1", "type2", "type3"), pair.relations.counts()))
        assert min(counts.values()) > 0

    def test_summary_builds_nothing_per_generator(self):
        # complete, counts() and the report read the class verdicts and the
        # cover's quiver; the relations and their judged entries wait for
        # the first read of the entries
        presentation = random_presentation(random.Random(3), 4, 40, 4)
        pair = symmetrize(presentation)
        assert pair.axioms.passed
        paths = mock.Mock(wraps=quiver_module._path)
        with contextlib.ExitStack() as stack:
            for module in (quiver_module, defining_pair_module, symmetrize_module):
                stack.enter_context(mock.patch.object(module, "_path", paths))
            certificate = verify_quotient(presentation)
            assert certificate.complete
            assert min(certificate.counts().values()) > 0
            assert certificate.to_report().passed
            assert certificate.failures() == []
            assert "relations" not in vars(pair)
            assert "entries" not in vars(certificate)
            assert paths.call_count == 0
            assert certificate.entries
        assert "relations" in vars(pair) and "entries" in vars(certificate)

    @pytest.mark.parametrize("reader", ["entries", "failures", "dimensions"])
    def test_relations_are_derived_by_the_first_reader_of_paths(
        self, reader, linear_presentation
    ):
        # failures() reads the entries only on an incomplete certificate;
        # dimensions() slices the full powers and overruns the oracle reads
        # and leaves the relations unbuilt
        presentation = undersized_loop_cover() if reader == "failures" else linear_presentation
        with spy_on_derivation("relations") as spy:
            certificate = verify_quotient(presentation)
            certificate.counts()
            if certificate.complete:
                assert certificate.failures() == []
                assert certificate.to_report().passed
            assert spy.call_count == 0
            for _ in range(2):
                read = getattr(certificate, reader)
                if callable(read):
                    read()
            assert spy.call_count == (reader != "dimensions")
            if certificate.complete:
                assert certificate.entries and certificate.dimensions() == (5, 18)
        assert spy.call_count == 1

    def test_cycle_system_is_validated_once(self, linear_presentation):
        # as the CLI's verify-quotient and oracle commands use the cover
        with spy_on_derivation("axioms") as spy:
            pair = verify_quotient(linear_presentation).pair
            assert validate(pair).passed
            CycleAlgebra(pair)
            generate_relations(pair)
        assert spy.call_count == 1

    def test_undersized_cover_is_reported_not_raised(self):
        certificate = verify_quotient(undersized_loop_cover())
        assert not certificate.complete
        assert certificate.failures() == [
            CertifiedGenerator(
                "type2",
                "a a a",
                Justification(UNCERTIFIED, "image a a a survives the collapse and is short"),
                False,
            )
        ]
        failed = [c for c in certificate.to_report().checks if not c.passed]
        assert [(c.name, c.witness) for c in failed] == [
            ("certificate-complete", "1 generators (0 binomial, 1 overrun, 0 quadratic)"),
            ("uncertified(a a a)", "image a a a survives the collapse and is short"),
        ]

    def test_forgotten_dead_quadratic_is_reported_not_raised(self, linear_presentation):
        # the cover is built while a b is dead, then the presentation forgets it
        symmetrize(linear_presentation)
        dead = linear_presentation._quadratic - {("a", "b")}
        object.__setattr__(linear_presentation, "_quadratic", dead)
        certificate = verify_quotient(linear_presentation)
        assert not certificate.complete
        assert certificate.failures() == [
            CertifiedGenerator(
                "type3",
                "a b",
                Justification(UNCERTIFIED, "composition a b survives in the ideal"),
                False,
            )
        ]

    def test_undersized_cover_fails_the_command(self, tmp_path, capsys):
        # the command parses its own presentation, so symmetrize hands it the
        # undersized cover; that cover's dimension 3 is below the presented 5,
        # which fails the dimension comparison as well (exit 1), and a budget
        # of one path skips that comparison with a warning
        document = tmp_path / "loop.alg"
        document.write_text(
            "[quiver]\nvertices = v\narrow a = v -> v\n\n[presentation]\nnilpotency = 5\n"
        )
        cover = undersized_loop_cover()._cover
        with mock.patch.object(symmetrize_module, "symmetrize", return_value=cover):
            assert cli.main(["verify-quotient", str(document), "--max-paths", "1"]) == 1
            assert "[FAIL] uncertified(a a a)" in capsys.readouterr().out
            assert cli.main(["verify-quotient", str(document)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "[FAIL] uncertified(a a a)" in " ".join(out)
        assert "[FAIL] dimension-dominates: 5 > 3" in out

    def test_verdicts_build_no_text(self):
        presentation = random_presentation(random.Random(1), 4, 40, 4)
        with mock.patch.object(
            symmetrize_module, "CertifiedGenerator", wraps=CertifiedGenerator
        ) as built, mock.patch.object(
            Path, "__str__", autospec=True, side_effect=Path.__str__
        ) as printed:
            certificate = verify_quotient(presentation)
            assert certificate.complete
            total = sum(certificate.counts().values())
            assert total > 1000
            assert built.call_count == 0 and printed.call_count == 0
            entries = certificate.entries
            assert certificate.entries is entries
        assert built.call_count == len(entries) == total
        assert printed.call_count > 0

    def test_arrowless_quiver_has_empty_certificate(self):
        p = Presentation(Quiver(["v"]), (), (), 2)
        certificate = verify_quotient(p)
        assert certificate.complete and certificate.entries == []


def line_presentation(n: int) -> Presentation:
    """n arrows in a line, nilpotency 3, no zero paths: the cover is one
    rotation class of length n + 1 and multiplicity 3."""
    quiver = Quiver(
        [str(i) for i in range(n + 1)],
        [(f"a{i}", str(i), str(i + 1)) for i in range(n)],
    )
    return Presentation(quiver, (), (), 3)


def test_long_linear_presentation_scales():
    # 1,000 arrows in a line: rotation-enumerating validation is O(L^4) on
    # its cover and took 8.6s already at 200 arrows
    n = 1000
    started = time.perf_counter()
    certificate = verify_quotient(line_presentation(n))
    assert certificate.complete
    assert sum(e.relation_kind == "type2" for e in certificate.entries) == n + 1
    assert validate(certificate.pair).passed
    assert time.perf_counter() - started < 10.0


def cycle_presentation(n: int) -> Presentation:
    """The n-cycle quiver, nilpotency 3, no zero paths: sigma closes one
    cycle through all n arrows, and the cover is that one rotation class
    with multiplicity 3, on the same quiver."""
    quiver = Quiver(
        [str(i) for i in range(n)],
        [(f"a{i}", str(i), str((i + 1) % n)) for i in range(n)],
    )
    return Presentation(quiver, (), (), 3)


# each shape with the closed-form dimension of its n-arrow cover
COVER_SHAPES = {
    "line": (line_presentation, lambda n: 2 * (n + 1) + (n + 1) * (3 * n + 2)),
    "cycle": (cycle_presentation, lambda n: n + n + n * (3 * n - 1)),
}


def traced_cover_peak(shape: str, n: int) -> int:
    """Peak traced bytes of deriving an n-arrow presentation's successor
    tables, checking their orbits, building its cover and running the
    cover's verdict stages: the axioms, the certificate's verdicts (not its
    text) and the closed-form dimension."""
    make, dimension = COVER_SHAPES[shape]
    presentation = make(n)
    tracemalloc.start()
    try:
        assert check_orbit_structure(derive_successors(presentation)).passed
        cover = symmetrize(presentation)
        assert cover.axioms.passed
        assert verify_quotient(presentation).complete
        assert closed_form_dimension(cover) == dimension(n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", COVER_SHAPES)
def test_line_cover_takes_linear_memory(shape):
    # a cover keeps one representative per rotation class, never a rotation,
    # and the tables trace one cycle per class: storing the 2,561 rotations
    # of the line's cover took 109 MB, and tracing the 2,560 rotations of
    # the cycle's sigma-cycle 107 MB
    small, large = traced_cover_peak(shape, 1280), traced_cover_peak(shape, 2560)
    assert large <= 10 * 10**6
    assert large <= 2.3 * small


class TestDimensionComparison:
    def test_linear_presentation(self, linear_presentation):
        certificate = verify_quotient(linear_presentation)
        assert certificate.dimensions() == (5, 18)

    def test_two_cycle_presentation(self, two_cycle_presentation):
        certificate = verify_quotient(two_cycle_presentation)
        assert certificate.dimensions() == (6, 14)

    def test_dead_loop(self, loop_quiver):
        p = Presentation(loop_quiver, (loop_quiver.path(["a", "a"]),), (), 2)
        assert verify_quotient(p).dimensions() == (2, 8)

    def test_oracle_disagreeing_with_closed_form_is_an_engine_bug(
        self, linear_presentation
    ):
        certificate = verify_quotient(linear_presentation)
        with mock.patch.object(
            symmetrize_module, "pair_oracle_dimension", return_value=19
        ), pytest.raises(
            RuntimeError,
            match="closed-form dimension 18 disagrees with the oracle 19; "
            "this is an engine bug",
        ):
            certificate.dimensions()

    def test_presented_dimension_above_the_cover_is_returned(self, linear_presentation):
        # only the presented route is patched, so the cover's cross-check
        # with pair_oracle_dimension still passes; whether the cover
        # dominates is the caller's verdict, not a fault
        certificate = verify_quotient(linear_presentation)
        with mock.patch.object(symmetrize_module, "_presented_dimension", return_value=19):
            assert certificate.dimensions() == (19, 18)

    def test_cover_dimension_builds_no_layout(self):
        # the 200-arrow line's cover has dimension 121,404; reading it lays
        # out no basis index, which the pairing or the Cartan count would
        n = 200
        quiver = Quiver(
            [str(i) for i in range(n + 1)],
            [(f"a{i}", str(i), str(i + 1)) for i in range(n)],
        )
        algebra = CycleAlgebra(symmetrize(Presentation(quiver, (), (), 3)))
        assert algebra.dimension == 121404
        assert "_layout" not in vars(algebra)
        assert len(algebra.cartan_matrix().entries) == n + 1
        assert len(vars(algebra)["_layout"].cycle) == 121404 - 2 * (n + 1)

    @given(st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_paths_are_checked_once_per_rotation_class(self, seed):
        # the cover's cycles, traced by the successor tables, are not checked
        # again; its relations and the presentation's generators reach the
        # oracle unchecked
        presentation = random_presentation(random.Random(seed))
        with mock.patch.object(
            Quiver, "contains_path", autospec=True, side_effect=Quiver.contains_path
        ) as spy:
            certificate = verify_quotient(presentation)
            assert spy.call_count == 0
            dim, dim_star = certificate.dimensions()
        assert spy.call_count == 0
        assert dim <= dim_star

    def test_cover_dimension_builds_no_basis(self):
        # 200 arrows in a line, no zero paths: the cover's one rotation class
        # has length 201 and multiplicity 3, so its basis would hold 121,002
        # on-cycle paths of up to 602 arrows each
        n = 200
        quiver = Quiver(
            [str(i) for i in range(n + 1)],
            [(f"a{i}", str(i), str(i + 1)) for i in range(n)],
        )
        certificate = verify_quotient(Presentation(quiver, (), (), 3))
        # nor, with no binomial and no trivial-path relation, a path table
        spy = mock.Mock(wraps=cycle_algebra_module.OnCyclePath)
        table = mock.Mock(side_effect=AssertionError)
        with mock.patch.object(cycle_algebra_module, "OnCyclePath", spy), mock.patch.object(
            cycle_algebra_module, "_PathTable", table
        ):
            assert certificate.dimensions() == (600, 121404)
        assert (spy.call_count, table.call_count) == (0, 0)

    def test_benchmark_sequence_derives_each_fact_once(self, linear_presentation):
        # sigma-tau then verify-quotient on one presentation, in the order the
        # wide-presentations benchmark calls them
        p = linear_presentation
        spies = {
            (presentation_module, "_surviving_compositions"): 1,
            (symmetrize_module.DefiningPair, "_trusted"): 1,
        }
        with contextlib.ExitStack() as stack:
            mocks = {
                (module, name): stack.enter_context(
                    mock.patch.object(module, name, wraps=getattr(module, name))
                )
                for module, name in spies
            }
            axioms = stack.enter_context(spy_on_derivation("axioms"))
            tables = derive_successors(p)
            cover = symmetrize(p)
            assert validate(cover).passed
            certificate = verify_quotient(p)
            assert CycleAlgebra(cover).dimension == 18
        assert {key: spy.call_count for key, spy in mocks.items()} == spies
        # the explicit validate and verify_quotient read one report
        assert axioms.call_count == 1
        assert symmetrize(p) is certificate.pair is cover
        assert certificate.presentation.tables is tables

    def test_cover_is_built_and_validated_once(self, linear_presentation):
        # one cover serves the certificate and both dimensions; the cycle
        # system's door counts builds, past symmetrize's cached reads
        build = mock.Mock(wraps=symmetrize_module.DefiningPair._trusted)
        with mock.patch.object(
            symmetrize_module.DefiningPair, "_trusted", build
        ), spy_on_derivation("axioms") as check:
            assert verify_quotient(linear_presentation).dimensions() == (5, 18)
        assert build.call_count == 1
        assert check.call_count == 1


@given(st.integers(0, 10**9))
@settings(max_examples=50, deadline=None)
def test_symmetrized_systems_validate(seed):
    presentation = random_presentation(random.Random(seed))
    assert validate(symmetrize(presentation)).passed


@given(
    st.integers(0, 10**9),
    st.sampled_from([random_presentation, radical_square_zero_presentation]),
)
@settings(max_examples=60, deadline=None)
def test_cover_is_the_public_closure_of_its_classes(seed, draw):
    # the cover is built past the public border, which stays its reference
    cover = symmetrize(draw(random.Random(seed)))
    assert close_under_rotation(cover.quiver, cover.rotation_class_representatives()) == cover


@given(st.integers(0, 10**9))
@settings(max_examples=50, deadline=None)
def test_certificates_are_complete(seed):
    presentation = random_presentation(random.Random(seed))
    assert verify_quotient(presentation).complete


@pytest.mark.parametrize("seed", range(300))
def test_certificate_matches_the_eager_walk(seed):
    rng = random.Random(seed)
    draw = radical_square_zero_presentation if seed % 3 == 0 else random_presentation
    presentation = draw(rng)
    certificate = verify_quotient(presentation)
    assert certificate.entries == reference_certificate(presentation)
    assert certificate.complete == all(e.certified for e in certificate.entries)
    assert certificate.complete


def test_entries_zip_with_the_rendered_relations():
    # the certificate judges the relations the cover renders, one entry each
    for seed in range(300):
        rng = random.Random(seed)
        draw = radical_square_zero_presentation if seed % 3 == 0 else random_presentation
        certificate = verify_quotient(draw(rng))
        relations, entries = certificate.pair.relations, certificate.entries
        kinds = [e.relation_kind for e in entries]
        assert tuple(map(kinds.count, ("type1", "type2", "type3"))) == relations.counts(), seed
        rendered = [f"{u} - {w}" for u, w in relations.type1]
        rendered += map(str, relations.type2 + relations.type3)
        assert [e.relation for e in entries] == rendered, seed
        for entry in entries:
            terms = entry.justification.parts or (entry.justification,)
            for word, term in zip(entry.relation.split(" - "), terms):
                if term.kind == KILLED_BY_STAR_ARROW:
                    arrow = term.detail.removeprefix("contains return arrow ")
                    assert arrow in word.split(), (seed, entry)


def assert_summary_agrees_with_the_listing(certificate):
    """The class-level summary against the per-generator listing."""
    assert tuple(certificate.counts().values()) == certificate.pair.relations.counts()
    assert certificate.complete == all(e.certified for e in certificate.entries)


@pytest.mark.parametrize("seed", range(300))
def test_class_verdict_agrees_with_the_generator_listing(seed):
    rng = random.Random(seed)
    draw = radical_square_zero_presentation if seed % 3 == 0 else random_presentation
    presentation = draw(rng)
    assert_summary_agrees_with_the_listing(verify_quotient(presentation))
    # the cover is built from every declared quadratic, then one is forgotten
    dead = sorted(presentation._quadratic)
    if not dead:
        return
    forgotten = dead[seed % len(dead)]
    object.__setattr__(presentation, "_quadratic", frozenset(dead) - {forgotten})
    certificate = verify_quotient(presentation)
    assert_summary_agrees_with_the_listing(certificate)
    assert not certificate.complete
    assert [(e.relation_kind, e.relation) for e in certificate.failures()] == [
        ("type3", " ".join(forgotten))
    ]


@pytest.mark.parametrize(
    "corrupted, broken",
    [
        (undersized_loop_cover, [("type2", "a a a")]),
        (
            functools.partial(two_loop_cover, 2),
            [("type1", "a a - b b"), ("type2", "a a a"), ("type2", "b b b")],
        ),
        # at multiplicity 4 the overruns reach the bound: the binomial alone fails
        (functools.partial(two_loop_cover, 4), [("type1", "a a a a - b b b b")]),
    ],
    ids=["undersized-loop", "two-loops-mu2", "two-loops-mu4"],
)
def test_corrupted_cover_fails_exactly_its_broken_generators(corrupted, broken):
    certificate = verify_quotient(corrupted())
    assert_summary_agrees_with_the_listing(certificate)
    assert not certificate.complete
    assert [(e.relation_kind, e.relation) for e in certificate.failures()] == broken


def test_cycle_through_a_dead_quadratic_judges_no_generator():
    # a hand-built cover whose loop travels the dead quadratic a a: that
    # composition lies on a cycle, so it is no generator and is not counted
    q = Quiver(["v"], [("a", "v", "v")])
    presentation = Presentation(q, (q.path(["a", "a"]),), (), 5)
    object.__setattr__(presentation, "_cover", close_under_rotation(q, [(q.path(["a"]), 5)]))
    certificate = verify_quotient(presentation)
    assert_summary_agrees_with_the_listing(certificate)
    assert certificate.complete
    assert certificate.counts() == {"type1": 0, "type2": 1, "type3": 0}


def test_undersized_certificate_matches_the_eager_walk():
    presentation = undersized_loop_cover()
    certificate = verify_quotient(presentation)
    assert certificate.entries == reference_certificate(presentation)
    assert certificate.complete == all(e.certified for e in certificate.entries)
    assert not certificate.complete


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_cover_dimension_dominates(seed):
    presentation = random_presentation(random.Random(seed))
    dim, dim_star = verify_quotient(presentation).dimensions()
    assert dim <= dim_star


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_cycle_complete_presentations_stay_put(seed):
    presentation = random_presentation(random.Random(seed))
    if derive_successors(presentation).maximal_paths:
        return
    pair = symmetrize(presentation)
    assert pair.quiver == presentation.quiver
    tables = derive_successors(presentation)
    assert [c for c, _ in pair.rotation_class_representatives()] == list(tables.simple_cycles)


@given(st.integers(0, 10**9))
@settings(max_examples=25, deadline=None)
def test_radical_square_zero_pipeline(seed):
    presentation = radical_square_zero_presentation(random.Random(seed))
    pair = symmetrize(presentation)
    assert validate(pair).passed
    certificate = verify_quotient(presentation)
    assert certificate.complete
    dim, dim_star = certificate.dimensions()
    assert dim <= dim_star
    assert CycleAlgebra(pair).check_trace_symmetry().passed


def with_long_binomials(rng, presentation):
    """The presentation with up to three more parallel equal pairs whose
    sides have length at least 3, so no two-arrow path joins the ideal and
    the quadratic contract still holds."""
    q, bound = presentation.quiver, presentation.nilpotency
    long_paths = [p for p in enumerate_paths(q, bound) if len(p) >= 3]
    pairs = list(presentation.equal_pairs)
    for _ in range(rng.randint(1, 3)):
        if not long_paths:
            break
        p = rng.choice(long_paths)
        parallel = [
            r
            for r in long_paths
            if (r.source, r.target) == (p.source, p.target) and r.arrows != p.arrows
        ]
        if parallel:
            pairs.append((p, rng.choice(parallel)))
    return Presentation(q, presentation.zero_paths, tuple(pairs), bound)


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_binomial_presentations_through_the_cover(seed):
    # random_presentation rarely draws an equal pair, so add some
    rng = random.Random(seed)
    presentation = with_long_binomials(rng, random_presentation(rng))
    certificate = verify_quotient(presentation)
    assert certificate.complete
    dim, dim_star = certificate.dimensions()
    assert dim <= dim_star

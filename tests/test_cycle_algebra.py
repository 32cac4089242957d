import contextlib
import random
import time
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiserial import (
    CycleAlgebra,
    DefiningPair,
    Idempotent,
    MultiserialConditionError,
    OnCyclePath,
    OracleBudgetError,
    Path,
    Presentation,
    Quiver,
    Socle,
    canonical_rotation,
    check_multiserial_condition,
    close_under_rotation,
    closed_form_dimension,
    count_paths,
    enumerate_paths,
    generate_relations,
    nilpotency_bound,
    oracle_dimension,
    pair_oracle_dimension,
    symmetrize,
    validate,
)
from multiserial import cycle_algebra
from multiserial import defining_pair as defining_pair_module
from multiserial import quiver as quiver_module
from multiserial.cli import render_pair_document
from multiserial.quiver import MonomialAutomaton, _path
from multiserial.report import Report
from reference_oracle import dense_oracle_dimension
from test_defining_pair import rotations, spy_on_derivation
from test_quiver import compose, cycle_power, length_two_paths
from multiserial.random_instances import (
    radical_square_zero_presentation,
    random_defining_pair,
    random_presentation,
    tractable_defining_pair,
)

ONE = Fraction(1)
# the index of socle(v) in the basis e(v), a, socle(v) of the loop at multiplicity 2
SOCLE_V = 2


def reference_product(alg: CycleAlgebra, x, y):
    """The basis element x * y equals, or None, by walking the joined path:
    the reference :meth:`CycleAlgebra._product` is held against, which reads
    the junction of two walks from the index layout instead."""
    if x.target != y.source:
        return None
    if isinstance(x, Idempotent):
        return y
    if isinstance(y, Idempotent):
        return x
    if isinstance(x, Socle) or isinstance(y, Socle):
        # full powers already have maximal surviving length
        return None
    return alg.normal_form(compose(x.path, y.path))


def multiply(alg: CycleAlgebra, x: dict, y: dict) -> dict:
    """Bilinear extension of :func:`reference_product` to linear
    combinations, dicts from basis elements to nonzero coefficients of
    the caller's number type; the empty dict is zero."""
    out: dict = {}
    for ex, cx in x.items():
        for ey, cy in y.items():
            ez = reference_product(alg, ex, ey)
            if ez is None:
                continue
            total = out.get(ez, 0) + cx * cy
            if total:
                out[ez] = total
            else:
                out.pop(ez, None)
    return out


def frobenius_form(x: dict):
    """Sum of the socle coefficients; one on every full cycle power."""
    return sum(c for element, c in x.items() if isinstance(element, Socle))


def reference_check_multiserial(alg: CycleAlgebra) -> Report:
    """The two-sided form of :meth:`CycleAlgebra.check_multiserial`, kept as
    the reference the one-walk scan must equal: it builds and reduces each
    two-arrow path twice, once from each of its arrows."""
    q = alg.pair.quiver
    following = alg.pair.next_arrow
    preceding = {b: a for a, b in following.items()}
    report = Report("multiserial-quotient")
    problems = []
    for arrow in sorted(q.arrows.values(), key=lambda a: a.name):
        succ = [
            b.name
            for b in q.arrows_from(arrow.target)
            if alg.normal_form(q.path([arrow.name, b.name])) is not None
        ]
        if succ != [following[arrow.name]]:
            problems.append(
                f"{arrow.name} has surviving successors {succ}, "
                f"expected [{following[arrow.name]}]"
            )
        pred = [
            c.name
            for c in q.arrows_into(arrow.source)
            if alg.normal_form(q.path([c.name, arrow.name])) is not None
        ]
        if pred != [preceding[arrow.name]]:
            problems.append(
                f"{arrow.name} has surviving predecessors {pred}, "
                f"expected [{preceding[arrow.name]}]"
            )
    report.add("multiserial-quotient", not problems, "; ".join(problems))
    return report


def kronecker_pair():
    q = Quiver(
        ["1", "2", "3"],
        [("a", "1", "2"), ("abar", "2", "1"), ("b", "2", "3"), ("bbar", "3", "2")],
    )
    return close_under_rotation(
        q, [(q.path(["a", "abar"]), 2), (q.path(["b", "bbar"]), 2)]
    )


def valid_random_pair(seed):
    return tractable_defining_pair(random.Random(seed))


def four_cycle_pair(mu):
    q = Quiver(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"), ("d", "4", "1")],
    )
    return close_under_rotation(q, [(q.path(["a", "b", "c", "d"]), mu)])


def dense(gram):
    """The dense 0/1 matrix of a pairing: entry (i, j) is 1 exactly when
    ``gram.dual[i] == j``."""
    n = len(gram.dual)
    return [[int(j == k) for k in range(n)] for j in gram.dual]


def reference_gram(alg):
    """form(x * y) over every ordered basis pair by the walked product: the
    dense scan the sparse pairing is held against.  The form is one on the
    socle elements, and on e(v) at a vertex v without arrows, which spans k."""
    q = alg.pair.quiver
    lone = {Idempotent(v) for v in q.vertices if not q.arrows_from(v) + q.arrows_into(v)}
    products = [[reference_product(alg, x, y) for y in alg.basis] for x in alg.basis]
    return [[int(isinstance(z, Socle) or z in lone) for z in row] for row in products]


def reference_dual(alg: CycleAlgebra) -> list:
    """The pairing by the per-pair route :meth:`CycleAlgebra._dual` is held
    against: every factorization of a socle listed one pair at a time, e(v)
    with socle(v) both ways round, e(v) with itself at a vertex without
    arrows, and F[:k] with F[k:] for the full power F of each cycle, each
    pair checked by its own :meth:`CycleAlgebra._product` call."""
    layout, vertices = alg._layout, alg.pair.quiver.vertices
    listed = []
    for i, v in enumerate(vertices):
        s = layout.socle_at.get(v, i)
        listed += [(i, s), (s, i)] if s != i else [(i, i)]
    for cycle, _ in rotations(alg.pair):
        length = layout.full_length[cycle.arrows[0]]
        start = layout.start[cycle.arrows[0]]
        for k in range(1, length):
            rest = layout.start[cycle.arrows[k % len(cycle)]]
            listed.append((start + k - 1, rest + length - k - 1))
    dual = [None] * alg.dimension
    for i, j in listed:
        k = alg._product(i, j)
        assert k is not None and (k >= layout.first_socle or i == j == k), (i, j)
        assert dual[i] is None, i
        dual[i] = j
    return dual


def multi_class_pair(variant):
    """One of three fixed systems of several classes, each class with a
    multiplicity of its own and a loop among them, whose arrow names
    interleave across classes, so that the rotation order, by name, jumps
    between classes: 0, a 2-cycle (mu 3), a 3-cycle (mu 1) and a loop (mu 2)
    on three vertices; 1, a loop (mu 5) and a 2-cycle (mu 1) beside a vertex
    without arrows; 2, a 2-cycle (mu 2), a 3-cycle (mu 1) and a loop (mu 4)
    all through one vertex."""
    if variant == 0:
        q = Quiver(
            ["1", "2", "3"],
            [("a", "1", "2"), ("b", "2", "3"), ("c", "2", "1"), ("d", "3", "1"),
             ("e", "1", "2"), ("l", "3", "3")],
        )
        classes = [(["a", "c"], 3), (["b", "d", "e"], 1), (["l"], 2)]
    elif variant == 1:
        q = Quiver(["u", "w", "x"], [("a", "u", "w"), ("m", "u", "u"), ("z", "w", "u")])
        classes = [(["m"], 5), (["z", "a"], 1)]
    else:
        q = Quiver(
            ["v", "w", "x", "y"],
            [("a", "v", "w"), ("b", "v", "x"), ("c", "v", "v"), ("d", "w", "v"),
             ("e", "x", "y"), ("g", "y", "v")],
        )
        classes = [(["a", "d"], 2), (["e", "g", "b"], 1), (["c"], 4)]
    return close_under_rotation(q, [(q.path(names), mu) for names, mu in classes])


def draw_cover(kind, seed):
    """A valid cycle system of one of five kinds; the four-cycle's
    multiplicity runs through 1..12 with the seed, and the seed picks one
    of the three fixed multi-class systems."""
    if kind == "multi-class":
        return multi_class_pair(seed % 3)
    rng = random.Random(seed)
    if kind == "tractable":
        return tractable_defining_pair(rng, max_paths=2_000)
    if kind == "presentation":
        return symmetrize(random_presentation(rng))
    if kind == "radical-square-zero":
        return symmetrize(radical_square_zero_presentation(rng))
    return four_cycle_pair(seed % 12 + 1)


def with_listing(alg, pairs=None, columns=None):
    """Patch :meth:`CycleAlgebra._listing` to hand ``alg`` the given vertex
    pairs or proper columns, each defaulting to the engine's own."""
    real_pairs, real_columns = CycleAlgebra._listing(alg)
    listing = (real_pairs if pairs is None else pairs, real_columns if columns is None else columns)
    return mock.patch.object(CycleAlgebra, "_listing", lambda self: listing)


class ExactField:
    """Exact arithmetic over Q (``prime`` None) or over F_p; every value
    passes through :meth:`coerce`."""

    def __init__(self, prime=None):
        self.prime = prime

    def coerce(self, n):
        return Fraction(n) if self.prime is None else n % self.prime

    def inverse(self, a):
        return 1 / a if self.prime is None else pow(a, -1, self.prime)


ELIMINATION_FIELDS = (ExactField(), ExactField(2))


class RowReducer:
    """Incremental sparse Gaussian elimination over an exact field: the
    reference the field-free oracle and Gram rank are held against.

    Rows are dicts from column index to coefficient; pivots are normalized
    to leading coefficient one and never modified afterwards, so inserted
    rows can be safely reused as span generators.
    """

    def __init__(self, field):
        self.field = field
        self.pivots = {}

    def insert(self, vec):
        """Reduce against current pivots; install and return the new pivot
        row, or None when the vector was already in the span."""
        F = self.field
        vec = dict(vec)
        while vec:
            lead = max(vec)
            pivot = self.pivots.get(lead)
            if pivot is None:
                inv = F.inverse(vec[lead])
                normalized = {j: F.coerce(inv * c) for j, c in vec.items()}
                self.pivots[lead] = normalized
                return normalized
            factor = vec[lead]
            for j, c in pivot.items():
                updated = F.coerce(vec.get(j, 0) - factor * c)
                if updated:
                    vec[j] = updated
                else:
                    vec.pop(j, None)
        return None

    @property
    def rank(self):
        return len(self.pivots)


def elimination_dimension(quiver, relations, bound, field):
    """The oracle's answer by exact linear algebra over ``field``: the span
    of the relations, each pair ``(p, None)`` or ``(p, q)`` taken as the
    row p or p - q, closed under arrow multiplication on both sides in the
    truncated path algebra, its rank taken from the path count."""
    paths = enumerate_paths(quiver, bound - 1)
    index = {p: i for i, p in enumerate(paths)}
    reducer = RowReducer(field)
    pending = []

    def insert(terms):
        vec = {}
        for coeff, path in terms:
            if len(path) < bound:
                j = index[path]
                vec[j] = field.coerce(vec.get(j, 0) + coeff)
        vec = {j: c for j, c in vec.items() if c}
        if vec:
            row = reducer.insert(vec)
            if row is not None:
                pending.append(row)

    for p, q in relations:
        insert([(1, p)] if q is None else [(1, p), (-1, q)])
    arrows = list(quiver.arrows.values())
    while pending:
        row = pending.pop()
        for arrow in arrows:
            step = quiver.path([arrow.name])
            for joined in (lambda p: compose(step, p), lambda p: compose(p, step)):
                insert(
                    (c, grown)
                    for j, c in row.items()
                    if (grown := joined(paths[j])) is not None
                )
    return len(paths) - reducer.rank


class TestNormalForm:
    def test_trivial_path(self, loop_mu2_pair, loop_quiver):
        alg = CycleAlgebra(loop_mu2_pair)
        assert alg.normal_form(loop_quiver.trivial_path("v")) == Idempotent("v")

    def test_full_power_is_socle(self, loop_mu2_pair, loop_quiver):
        alg = CycleAlgebra(loop_mu2_pair)
        assert alg.normal_form(loop_quiver.path(["a", "a"])) == Socle("v")

    def test_overlong_path_vanishes(self, loop_mu2_pair, loop_quiver):
        alg = CycleAlgebra(loop_mu2_pair)
        assert alg.normal_form(loop_quiver.path(["a", "a", "a"])) is None

    def test_proper_on_cycle_path_survives(self):
        pair = kronecker_pair()
        alg = CycleAlgebra(pair)
        p = pair.quiver.path(["a", "abar", "a"])
        assert alg.normal_form(p) == OnCyclePath(p)

    def test_deviating_path_vanishes(self):
        pair = kronecker_pair()
        alg = CycleAlgebra(pair)
        assert alg.normal_form(pair.quiver.path(["abar", "a", "abar", "a"])) == Socle("2")
        assert alg.normal_form(pair.quiver.path(["a", "b"])) is None

    def test_foreign_path_faults(self, loop_mu2_pair):
        other = Quiver(["w"], [("z", "w", "w")])
        alg = CycleAlgebra(loop_mu2_pair)
        with pytest.raises(ValueError, match="not a path"):
            alg.normal_form(other.path(["z"]))


class TestBasis:
    def test_loop_mu2(self, loop_mu2_pair):
        alg = CycleAlgebra(loop_mu2_pair)
        assert alg.dimension == 3
        kinds = [type(e).__name__ for e in alg.basis]
        assert kinds == ["Idempotent", "OnCyclePath", "Socle"]

    def test_two_cycle_mu3(self, two_cycle_mu3_pair):
        assert CycleAlgebra(two_cycle_mu3_pair).dimension == 14

    def test_kronecker_star(self):
        assert CycleAlgebra(kronecker_pair()).dimension == 18

    def test_basis_is_duplicate_free(self, two_cycle_mu3_pair):
        basis = CycleAlgebra(two_cycle_mu3_pair).basis
        assert len(set(basis)) == len(basis)

    def test_one_socle_per_carrying_vertex(self):
        alg = CycleAlgebra(kronecker_pair())
        socles = [e for e in alg.basis if isinstance(e, Socle)]
        assert [s.vertex for s in socles] == ["1", "2", "3"]

    def test_many_loop_star_basis_renders_no_type_one_pair(self):
        # d loops at one vertex pair d(d-1)/2 full powers in type 1; the
        # basis slices one proper path per loop from the rings and renders
        # neither the relations nor any full power
        names = [f"a{i}" for i in range(300)]
        q = Quiver(["v"], [(a, "v", "v") for a in names])
        pair = close_under_rotation(q, [(q.path([a]), 2) for a in names])
        paths = mock.Mock(wraps=_path)
        with contextlib.ExitStack() as stack:
            for module in (defining_pair_module, cycle_algebra):
                stack.enter_context(mock.patch.object(module, "_path", paths))
            basis = CycleAlgebra(pair).basis
        assert len(basis) == 2 + len(names)
        assert paths.call_count == len(names)
        assert "relations" not in vars(pair)


class TestMultiply:
    def test_on_cycle_concatenation(self):
        pair = kronecker_pair()
        alg = CycleAlgebra(pair)
        q = pair.quiver
        a = {OnCyclePath(q.path(["a"])): ONE}
        abar = {OnCyclePath(q.path(["abar"])): ONE}
        assert multiply(alg, a, abar) == {OnCyclePath(q.path(["a", "abar"])): ONE}

    def test_socle_annihilates_radical(self, loop_mu2_pair, loop_quiver):
        alg = CycleAlgebra(loop_mu2_pair)
        socle = {Socle("v"): ONE}
        a = {OnCyclePath(loop_quiver.path(["a"])): ONE}
        assert multiply(alg, socle, a) == {}
        assert multiply(alg, a, socle) == {}

    def test_idempotents_act_as_identities(self, loop_mu2_pair):
        alg = CycleAlgebra(loop_mu2_pair)
        socle = {Socle("v"): ONE}
        e = {Idempotent("v"): ONE}
        assert multiply(alg, e, socle) == socle
        assert multiply(alg, socle, e) == socle

    def test_bilinearity_collects_terms(self, loop_mu2_pair, loop_quiver):
        alg = CycleAlgebra(loop_mu2_pair)
        a = OnCyclePath(loop_quiver.path(["a"]))
        x = {a: Fraction(2), Idempotent("v"): Fraction(1)}
        y = {a: Fraction(1)}
        assert multiply(alg, x, y) == {Socle("v"): Fraction(2), a: Fraction(1)}

    @pytest.mark.parametrize("seed", [3, 14, 159])
    def test_associative_on_sampled_triples(self, seed):
        pair = valid_random_pair(seed)
        alg = CycleAlgebra(pair)
        rng = random.Random(seed)
        basis = alg.basis
        for _ in range(60):
            x, y, z = ({rng.choice(basis): ONE} for _ in range(3))
            assert multiply(alg, multiply(alg, x, y), z) == multiply(
                alg, x, multiply(alg, y, z)
            )

    @pytest.mark.parametrize("maker", ["loop", "kronecker"])
    def test_associative_exhaustively_at_small_scale(self, maker, loop_mu2_pair):
        pair = loop_mu2_pair if maker == "loop" else kronecker_pair()
        alg = CycleAlgebra(pair)
        singletons = [{e: ONE} for e in alg.basis]
        for x, y, z in product(singletons, repeat=3):
            assert multiply(alg, multiply(alg, x, y), z) == multiply(
                alg, x, multiply(alg, y, z)
            )


def assert_products_equal_the_reference(alg):
    basis = alg.basis
    for (i, x), (j, y) in product(enumerate(basis), repeat=2):
        k = alg._product(i, j)
        assert (None if k is None else basis[k]) == reference_product(alg, x, y), (x, y)


class TestBasisProduct:
    @given(st.integers(0, 10**9), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_equals_the_walk_on_random_systems(self, seed, from_presentation):
        rng = random.Random(seed)
        if from_presentation:
            pair = symmetrize(random_presentation(rng))
        else:
            pair = tractable_defining_pair(rng, max_paths=2_000)
        assert_products_equal_the_reference(CycleAlgebra(pair))

    @pytest.mark.parametrize("mu", [1, 2, 3, 4])
    def test_equals_the_walk_on_the_four_cycle(self, mu):
        assert_products_equal_the_reference(CycleAlgebra(four_cycle_pair(mu)))

    def test_equals_the_walk_on_the_loop(self, loop_mu2_pair):
        assert_products_equal_the_reference(CycleAlgebra(loop_mu2_pair))


class TestFrobeniusForm:
    def test_socle_maps_to_one(self):
        assert frobenius_form({Socle("v"): ONE}) == 1

    def test_idempotent_maps_to_zero(self):
        assert frobenius_form({Idempotent("v"): ONE}) == 0

    def test_linearity_over_socles(self):
        x = {Socle("1"): Fraction(3), Socle("2"): Fraction(-2)}
        assert frobenius_form(x) == 1


class TestGramMatrix:
    def test_loop_mu2_is_a_permutation(self, loop_mu2_pair):
        gram = CycleAlgebra(loop_mu2_pair).gram_matrix()
        assert gram.rank == 3
        assert gram.is_permutation and gram.nondegenerate
        # pairing: idempotent with socle, the arrow with itself
        entries = dense(gram)
        assert entries[0][2] == 1 and entries[1][1] == 1

    def test_two_cycle_mu3_full_rank(self, two_cycle_mu3_pair):
        gram = CycleAlgebra(two_cycle_mu3_pair).gram_matrix()
        assert gram.dimension == 14
        assert gram.rank == 14
        assert gram.is_permutation

    def test_isolated_vertex_is_its_own_socle(self):
        # w spans k: e(w) pairs with itself, e(v) with socle(v), a with a
        q = Quiver(["v", "w"], [("a", "v", "v")])
        pair = close_under_rotation(q, [(q.path(["a"]), 2)])
        alg = CycleAlgebra(pair)
        gram = alg.gram_matrix()
        assert gram.dual == [3, 1, 2, 0]
        assert gram.rank == 4 and gram.nondegenerate and gram.is_permutation
        assert alg.check_trace_symmetry().passed

    @given(st.integers(0, 10**9), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_rank_and_permutation_agree_with_elimination(self, seed, from_presentation):
        rng = random.Random(seed)
        if from_presentation:
            pair = symmetrize(random_presentation(rng))
        else:
            pair = tractable_defining_pair(rng, max_paths=2_000)
        gram = CycleAlgebra(pair).gram_matrix()
        for field in ELIMINATION_FIELDS:
            reducer = RowReducer(field)
            for row in dense(gram):
                reducer.insert({j: field.coerce(c) for j, c in enumerate(row) if c})
            assert gram.rank == reducer.rank
        # a permutation matrix: a single one in every row and every column
        def single_one(line):
            return sorted(line) == [0] * (len(line) - 1) + [1]

        entries = dense(gram)
        assert gram.is_permutation == (
            all(map(single_one, entries)) and all(map(single_one, zip(*entries)))
        )

    @given(st.integers(0, 10**9), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_entries_equal_the_reference_scan(self, seed, from_presentation):
        rng = random.Random(seed)
        if from_presentation:
            pair = symmetrize(random_presentation(rng))
        else:
            pair = tractable_defining_pair(rng, max_paths=2_000)
        alg = CycleAlgebra(pair)
        scan = reference_gram(alg)
        assert dense(alg.gram_matrix()) == scan
        assert scan == [list(column) for column in zip(*scan)]
        assert alg.check_trace_symmetry().passed

    def test_row_with_two_duals_is_an_engine_bug(self, loop_mu2_pair):
        alg = CycleAlgebra(loop_mu2_pair)
        # a second hit on the row of e(v): e(v) e(v) = e(v) passes the product
        # check, as it would at a vertex without arrows
        with with_listing(alg, pairs=[(0, SOCLE_V), (SOCLE_V, 0), (0, 0)]):
            with pytest.raises(
                RuntimeError, match=r"e\(v\) pairs with 2 basis elements, socle\(v\) and e\(v\)"
            ):
                alg.gram_matrix()

    def test_factorization_off_the_socle_is_an_engine_bug(self, loop_mu2_pair):
        # the vertex rows keep the index product: a product off the socle is
        # raised, whether the product errs or the listing does (e(v) a = a)
        alg = CycleAlgebra(loop_mu2_pair)
        with mock.patch.object(CycleAlgebra, "_product", lambda self, i, j: None):
            with pytest.raises(RuntimeError, match=r"e\(v\) \* socle\(v\) factors"):
                alg.gram_matrix()
        alg = CycleAlgebra(loop_mu2_pair)
        with with_listing(alg, pairs=[(0, 1), (SOCLE_V, 0)]):
            with pytest.raises(
                RuntimeError,
                match=r"^e\(v\) \* a factors a full power but is not a socle element",
            ):
                alg.gram_matrix()

    def test_pairing_walks_no_path(self):
        alg = CycleAlgebra(four_cycle_pair(50))
        with mock.patch.object(
            CycleAlgebra, "_class_of", autospec=True, side_effect=CycleAlgebra._class_of
        ) as walks:
            assert alg.gram_matrix().is_permutation
            assert alg.check_trace_symmetry().passed
        assert walks.call_count == 0

    def test_factorization_with_the_wrong_rotation_is_an_engine_bug(self):
        # a abar a abar = a * (abar a abar); b bbar b starts at the same
        # vertex and has the right length, but b does not follow a
        alg = CycleAlgebra(kronecker_pair())
        index = {str(x): i for i, x in enumerate(alg.basis)}
        n = len(alg.pair.quiver.vertices)
        columns = CycleAlgebra._listing(alg)[1]
        columns[index["a"] - n] = index["b bbar b"]
        with with_listing(alg, columns=columns):
            with pytest.raises(
                RuntimeError,
                match=r"^a \* b bbar b factors a full power but is not a socle element",
            ):
                alg.gram_matrix()

    def test_factorization_with_the_wrong_length_is_an_engine_bug(self):
        # b c starts with the arrow after a, but a b c is no full power
        alg = CycleAlgebra(four_cycle_pair(3))
        index = {str(x): i for i, x in enumerate(alg.basis)}
        columns = CycleAlgebra._listing(alg)[1]
        columns[index["a"] - len(alg.pair.quiver.vertices)] = index["b c"]
        with with_listing(alg, columns=columns):
            with pytest.raises(
                RuntimeError, match=r"^a \* b c factors a full power but is not a socle element"
            ):
                alg.gram_matrix()

    def test_corrupt_length_names_the_row(self):
        # the check reads the layout, not the listing's arithmetic: a wrong
        # length on the row of a is raised with a and its dual b c d a b c d a b c d
        alg = CycleAlgebra(four_cycle_pair(3))
        basis, dual = alg.basis, reference_dual(alg)
        row = basis.index(OnCyclePath(alg.pair.quiver.path(["a"])))
        alg._layout.length[row - len(alg.pair.quiver.vertices)] += 1
        with pytest.raises(
            RuntimeError,
            match=rf"^{basis[row]} \* {basis[dual[row]]} factors a full power but is not a socle",
        ):
            alg.gram_matrix()

    def test_cycle_without_socle_index_names_its_first_row(self):
        # socle(1) is moved onto an index of the proper block after the
        # listing: the cycle based at 1 has no socle index, and its first
        # row, a, is raised
        alg = CycleAlgebra(four_cycle_pair(3))
        basis, dual = alg.basis, reference_dual(alg)
        with with_listing(alg):
            alg._layout.socle_at["1"] = 5
            with pytest.raises(RuntimeError, match=rf"^a \* {basis[dual[4]]} factors"):
                alg.gram_matrix()

    def test_listing_one_column_short_is_an_engine_bug(self, two_cycle_mu3_pair):
        alg = CycleAlgebra(two_cycle_mu3_pair)
        with with_listing(alg, columns=CycleAlgebra._listing(alg)[1][:-1]):
            with pytest.raises(RuntimeError, match="9 columns for 10 rows; an engine bug"):
                alg.gram_matrix()

    @given(
        st.sampled_from(["tractable", "presentation", "radical-square-zero", "four-cycle"]),
        st.integers(0, 10**9),
    )
    @example("presentation", 6)
    @example("radical-square-zero", 6)
    @example("multi-class", 0)
    @example("multi-class", 1)
    @example("multi-class", 2)
    @settings(max_examples=80, deadline=None)
    def test_dual_equals_the_per_pair_route(self, kind, seed):
        # seed 6 draws covers with a vertex without arrows; four_cycle_pair
        # runs through mu = 1..12; the multi-class systems give each class a
        # multiplicity and a ring of its own, one of them a loop's
        alg = CycleAlgebra(draw_cover(kind, seed))
        assert alg._dual == reference_dual(alg)

    def test_per_pair_route_meets_a_vertex_without_arrows(self):
        for kind in ("presentation", "radical-square-zero"):
            q = draw_cover(kind, 6).quiver
            assert any(not q.arrows_from(v) + q.arrows_into(v) for v in q.vertices)

    def test_pairing_builds_no_basis_element(self):
        alg = CycleAlgebra(four_cycle_pair(200))
        with contextlib.ExitStack() as stack:
            spies = [
                stack.enter_context(
                    mock.patch.object(cycle_algebra, name, mock.Mock(wraps=made))
                )
                for name, made in (
                    ("Path", Path),
                    ("_path", _path),
                    ("Idempotent", Idempotent),
                    ("OnCyclePath", OnCyclePath),
                    ("Socle", Socle),
                )
            ]
            assert alg.gram_matrix().is_permutation
            assert alg.check_trace_symmetry().passed
        assert "_basis" not in vars(alg)
        assert [spy.call_count for spy in spies] == [0, 0, 0, 0, 0]

    @staticmethod
    def assert_pairs_in_linear_work(mu, dimension):
        start = time.perf_counter()
        alg = CycleAlgebra(four_cycle_pair(mu))
        gram = alg.gram_matrix()
        symmetry = alg.check_trace_symmetry()
        elapsed = time.perf_counter() - start
        assert alg.dimension == gram.rank == dimension
        assert gram.is_permutation
        assert symmetry.passed
        witness = symmetry.check("trace-symmetry").witness
        assert f"{dimension * dimension} ordered pairs" in witness
        assert elapsed < 20.0

    def test_dimension_3204_in_linear_work(self):
        self.assert_pairs_in_linear_work(200, 3204)

    def test_dimension_12804_in_linear_work(self):
        self.assert_pairs_in_linear_work(800, 12804)


class TestTraceSymmetry:
    def test_loop_mu2(self, loop_mu2_pair):
        report = CycleAlgebra(loop_mu2_pair).check_trace_symmetry()
        assert report.passed
        assert "9 ordered pairs" in report.check("trace-symmetry").witness

    def test_kronecker_star(self):
        assert CycleAlgebra(kronecker_pair()).check_trace_symmetry().passed

    # every product is taken for socle(v), so each listed vertex pair passes.
    # dual [2, 1, 1]: socle(v) also pairs with the arrow, and the first of
    # two asymmetric entries, (0, 2), lies in a row that is hit; dual
    # [None, 1, 0]: it lies in a row that hits nothing
    @pytest.mark.parametrize(
        "pairs, dual",
        [([(0, SOCLE_V), (SOCLE_V, 1)], [2, 1, 1]), ([(SOCLE_V, 0)], [None, 1, 0])],
        ids=["row-hit", "row-missed"],
    )
    def test_witness_is_the_first_asymmetric_entry(self, loop_mu2_pair, pairs, dual):
        alg = CycleAlgebra(loop_mu2_pair)
        with with_listing(alg, pairs=pairs), mock.patch.object(
            CycleAlgebra, "_product", lambda self, i, j: SOCLE_V
        ):
            assert alg.gram_matrix().dual == dual
            report = alg.check_trace_symmetry()
            entries = dense(alg.gram_matrix())
        assert not report.passed
        i, j = next(
            (i, j) for i in range(3) for j in range(3) if entries[i][j] != entries[j][i]
        )
        basis = alg.basis
        assert report.check("trace-symmetry").witness == (
            f"form({basis[i]} * {basis[j]}) = {entries[i][j]} "
            f"but reversed gives {entries[j][i]}"
        )


class TestClosedFormDimension:
    @pytest.mark.parametrize(
        "make, expected",
        [(kronecker_pair, 18), (lambda: four_cycle_pair(200), 3204)],
        ids=["kronecker", "four-cycle"],
    )
    def test_known_dimensions(self, make, expected):
        assert closed_form_dimension(make()) == expected

    def test_is_counted_before_the_basis_is_built(self, loop_quiver):
        pair = close_under_rotation(loop_quiver, [(loop_quiver.path(["a"]), 10**11)])
        assert closed_form_dimension(pair) == 10**11 + 1
        with pytest.raises(OracleBudgetError, match=r"\(dimension 100000000001\)"):
            CycleAlgebra(pair)

    def test_budget_is_the_basis_size(self, two_cycle_mu3_pair):
        assert CycleAlgebra(two_cycle_mu3_pair, max_paths=14).dimension == 14
        budget = r"more than 13 basis elements \(dimension 14\)"
        with pytest.raises(OracleBudgetError, match=budget):
            CycleAlgebra(two_cycle_mu3_pair, max_paths=13)

    def test_mismatched_basis_is_an_engine_bug(self, two_cycle_mu3_pair):
        # the layout is held against the closed form where it is built: on
        # the first read of the basis, the pairing or the Cartan count
        readers = [
            lambda alg: alg.basis,
            lambda alg: alg.gram_matrix(),
            lambda alg: alg.check_trace_symmetry(),
            lambda alg: alg.cartan_matrix(),
        ]
        with mock.patch.object(cycle_algebra, "closed_form_dimension", return_value=15):
            for read in readers:
                alg = CycleAlgebra(two_cycle_mu3_pair)
                with pytest.raises(RuntimeError, match="counts 15; this is an engine bug"):
                    read(alg)


class TestCartanMatrix:
    def test_loop_mu2(self, loop_mu2_pair):
        cartan = CycleAlgebra(loop_mu2_pair).cartan_matrix()
        assert cartan.entries == [[3]]

    def test_two_cycle_mu3(self, two_cycle_mu3_pair):
        cartan = CycleAlgebra(two_cycle_mu3_pair).cartan_matrix()
        assert cartan.entries == [[4, 3], [3, 4]]

    def test_arrowless_vertex_counts_its_idempotent(self):
        pair = DefiningPair(Quiver(["v"]), [])
        assert CycleAlgebra(pair).cartan_matrix().entries == [[1]]

    @pytest.mark.parametrize(
        "make",
        [kronecker_pair, lambda: four_cycle_pair(3), lambda: valid_random_pair(21)],
        ids=["kronecker", "four-cycle", "random"],
    )
    def test_counts_the_layout_without_the_basis(self, make):
        alg = CycleAlgebra(make())
        cartan = alg.cartan_matrix()
        assert "_basis" not in vars(alg)
        position = {v: i for i, v in enumerate(cartan.vertices)}
        counted = [[0] * len(position) for _ in position]
        for element in alg.basis:
            counted[position[element.source]][position[element.target]] += 1
        assert cartan.entries == counted


class TestCheckMultiserial:
    def test_loop(self, loop_mu2_pair):
        assert CycleAlgebra(loop_mu2_pair).check_multiserial().passed

    def test_kronecker_star(self):
        assert CycleAlgebra(kronecker_pair()).check_multiserial().passed

    def test_each_composition_is_classified_once(self):
        alg = CycleAlgebra(kronecker_pair())
        with mock.patch.object(
            CycleAlgebra, "_class_of", autospec=True, side_effect=CycleAlgebra._class_of
        ) as spy:
            assert alg.check_multiserial().passed
        asked = [call.args[1].arrows for call in spy.call_args_list]
        assert asked == [p.arrows for p in length_two_paths(alg.pair.quiver)]

    def test_failure_names_every_wrong_side(self):
        # a b survives besides a abar, and abar a vanishes: a gains a second
        # successor and b a second predecessor, a and abar lose theirs
        alg = CycleAlgebra(kronecker_pair())
        original = CycleAlgebra._class_of

        def misread(self, path):
            if path.arrows == ("a", "b"):
                return OnCyclePath(path)
            if path.arrows == ("abar", "a"):
                return None
            return original(self, path)

        with mock.patch.object(CycleAlgebra, "_class_of", misread):
            report = alg.check_multiserial()
            assert report == reference_check_multiserial(alg)
        assert report.check("multiserial-quotient").witness == (
            "a has surviving successors ['abar', 'b'], expected [abar]; "
            "a has surviving predecessors [], expected [abar]; "
            "abar has surviving successors [], expected [a]; "
            "b has surviving predecessors ['a', 'bbar'], expected [bbar]"
        )

    def test_a_corrupted_successor_map_fails(self):
        # survival is read from the class rings and the expectation from
        # next_arrow: two loops at one vertex with their successors swapped
        # disagree with the rings on both sides of both loops
        q = Quiver(["v"], [("a", "v", "v"), ("b", "v", "v")])
        pair = DefiningPair(q, [(q.path(["a"]), 2), (q.path(["b"]), 2)])
        alg = CycleAlgebra(pair)
        assert alg.check_multiserial().passed
        vars(pair)["next_arrow"] = {"a": "b", "b": "a"}
        report = alg.check_multiserial()
        assert not report.passed
        assert report.check("multiserial-quotient").witness == (
            "a has surviving successors ['a'], expected [b]; "
            "a has surviving predecessors ['a'], expected [b]; "
            "b has surviving successors ['b'], expected [a]; "
            "b has surviving predecessors ['b'], expected [a]"
        )


class TestOracle:
    def test_truncated_loop(self, loop_quiver):
        relations = [(loop_quiver.path(["a", "a", "a"]), None)]
        assert oracle_dimension(loop_quiver, relations, 3) == 3

    def test_linear_quiver_with_dead_composition(self, linear_quiver):
        relations = [(linear_quiver.path(["a", "b"]), None)]
        assert oracle_dimension(linear_quiver, relations, 2) == 5

    def test_two_cycle_mu3_relations(self, two_cycle_mu3_pair):
        relations = generate_relations(two_cycle_mu3_pair).linear_relations()
        assert oracle_dimension(two_cycle_mu3_pair.quiver, relations, 7) == 14

    def test_binomial_identification_lowers_dimension(self):
        pair = kronecker_pair()
        relations = generate_relations(pair).linear_relations()
        assert oracle_dimension(pair.quiver, relations, 5) == 18

    def test_binomial_closure_cascade(self, loop_quiver):
        # identifying a power with a longer one collapses both to zero
        relations = [(loop_quiver.path(["a", "a"]), loop_quiver.path(["a", "a", "a"]))]
        assert oracle_dimension(loop_quiver, relations, 5) == 2

    def test_commutative_square(self):
        q = Quiver(
            ["1", "2", "3", "4"],
            [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")],
        )
        relations = [(q.path(["a", "b"]), q.path(["c", "d"]))]
        assert oracle_dimension(q, relations, 3) == 9

    # The closure reaches almost every path below the bound in these three,
    # each with a closed-form answer.
    def test_commuting_loops_count_the_monomials_below_the_bound(self):
        # xy = yx makes the classes the commutative monomials of degree < 15
        q = Quiver(["v"], [("x", "v", "v"), ("y", "v", "v")])
        relations = [(q.path(["x", "y"]), q.path(["y", "x"]))]
        assert oracle_dimension(q, relations, 15) == 15 * 16 // 2

    def test_idempotent_power_far_below_the_bound(self, loop_quiver):
        # aa = aaa = ... = a^20000, which reaches the bound, so only e(v) and a survive
        relations = [(loop_quiver.path(["a", "a"]), loop_quiver.path(["a", "a", "a"]))]
        assert oracle_dimension(loop_quiver, relations, 20_000) == 2

    def test_trivial_path_relation_kills_every_path_through_it(self):
        # every nontrivial path between 1 and 2 meets vertex 1; e(2) survives
        q = Quiver(
            ["1", "2"], [("a", "1", "2"), ("b", "2", "1"), ("c", "1", "2"), ("d", "2", "1")]
        )
        assert oracle_dimension(q, [(q.trivial_path("1"), None)], 14) == 1

    def test_budget_fault(self, two_cycle_mu3_pair):
        relations = generate_relations(two_cycle_mu3_pair).linear_relations()
        with pytest.raises(OracleBudgetError):
            oracle_dimension(two_cycle_mu3_pair.quiver, relations, 7, max_paths=5)

    def test_enumerate_paths_counts(self, two_cycle_quiver):
        paths = enumerate_paths(two_cycle_quiver, 2)
        assert [p.arrows for p in paths] == [
            (), (), ("a",), ("b",), ("a", "b"), ("b", "a")
        ]

    def test_non_parallel_binomial_kills_both_paths(self, linear_quiver):
        # (a - ab) e(2) = a, so a and ab both lie in the ideal
        q = linear_quiver
        a, ab = q.path(["a"]), q.path(["a", "b"])
        binomial = [(a, ab)]
        monomials = [(a, None), (ab, None)]
        assert oracle_dimension(q, binomial, 3) == oracle_dimension(q, monomials, 3) == 4

    def test_signs_and_long_terms(self, loop_quiver):
        q = loop_quiver
        aa, aaa = q.path(["a", "a"]), q.path(["a", "a", "a"])
        assert oracle_dimension(q, [(aa, None)], 4) == 2
        # aa - aa is zero, so it kills nothing
        assert oracle_dimension(q, [(aa, aa)], 4) == 4
        # a term at the bound is already zero, so a - a^3 kills a
        assert oracle_dimension(q, [(q.path(["a"]), aaa)], 3) == 1

    # the first nine are coefficient/path lists, which must fail loudly
    # rather than be read as pairs
    @pytest.mark.parametrize(
        "shape",
        [
            lambda p, q, r: [(2, p)],
            lambda p, q, r: [(1, p), (1, q)],
            lambda p, q, r: [(1, p), (-1, q), (1, r)],
            lambda p, q, r: [(2, p), (-2, q)],
            lambda p, q, r: [(1, p), (-2, q)],
            lambda p, q, r: [(0, p)],
            lambda p, q, r: [],
            lambda p, q, r: [(1, p)],
            lambda p, q, r: [(1, p), (-1, r)],
            lambda p, q, r: (p,),
            lambda p, q, r: (p, q, r),
            lambda p, q, r: p,
            lambda p, q, r: (p, "a b"),
            lambda p, q, r: (None, p),
        ],
        ids=[
            "2p", "p+q", "three-terms", "2p-2q", "p-2q", "0p", "empty",
            "listed-p", "listed-p-q", "one-path", "three-paths", "bare-path",
            "string-term", "none-first",
        ],
    )
    def test_rejects_relations_other_than_p_and_p_minus_q(self, two_cycle_quiver, shape):
        q = two_cycle_quiver
        relation = shape(q.path(["a", "b"]), q.trivial_path("1"), q.path(["a", "b", "a", "b"]))
        with pytest.raises(ValueError, match=r"relation .* is neither \(p, None\) nor \(p, q\)"):
            oracle_dimension(q, [relation], 5)

    def test_rejects_foreign_paths(self, loop_quiver, linear_quiver):
        with pytest.raises(ValueError, match="not a path of the quiver"):
            oracle_dimension(loop_quiver, [(linear_quiver.path(["a"]), None)], 3)

    def test_budget_is_checked_before_tables_are_built(self, loop_quiver):
        # a binomial kills no path before the closure, so every power of a
        # below the bound counts against the budget
        q = loop_quiver
        relations = [(q.path(["a", "a"]), q.path(["a", "a", "a"]))]
        with mock.patch.object(
            cycle_algebra, "_PathTable", side_effect=AssertionError
        ) as table:
            with pytest.raises(OracleBudgetError, match="shrink the instance"):
                oracle_dimension(loop_quiver, relations, 10**12, max_paths=1000)
        assert table.call_count == 0

    @pytest.mark.parametrize("sign", [1, -1])
    def test_trivial_path_relation_kills_the_paths_through_its_vertex(
        self, linear_quiver, sign
    ):
        # the trivial path kills a and b, the arrows at vertex 2; the path
        # relation ab it makes redundant changes nothing, whichever comes first
        q = linear_quiver
        relations = [(q.trivial_path("2"), None), (q.path(["a", "b"]), None)][::sign]
        assert oracle_dimension(q, relations, 3) == 2
        assert oracle_dimension(q, relations[::sign][:1], 3) == 2

    def test_rejects_monomials_on_missing_arrows(self, loop_quiver):
        foreign = Path(("z",), ("v", "v"))
        with pytest.raises(ValueError, match="not a path of the quiver"):
            oracle_dimension(loop_quiver, [(foreign, None)], 3)
        aa = loop_quiver.path(["a", "a"])
        with pytest.raises(ValueError, match="not a path of the quiver"):
            oracle_dimension(loop_quiver, [(aa, foreign)], 3)

    # Foreign monomials of length 2 on the linear quiver 1 -a-> 2 -b-> 3, and
    # where each goes: below the bound into the automaton's insertion walk,
    # at the bound or inside a binomial to the border check of the term.
    FOREIGN = {
        "unknown-arrow": Path(("a", "z"), ("1", "2", "3")),
        "wrong-source": Path(("b", "b"), ("2", "3", "3")),
        "wrong-target": Path(("a", "b"), ("1", "2", "2")),
        "unknown-start": Path(("a", "b"), ("9", "2", "3")),
    }
    PLACES = {
        "below-bound": (3, lambda q, bad: (bad, None)),
        "at-bound": (2, lambda q, bad: (bad, None)),
        "bound-one": (1, lambda q, bad: (bad, None)),
        "binomial-first": (3, lambda q, bad: (bad, q.path(["a", "b"]))),
        "binomial-second": (3, lambda q, bad: (q.path(["a", "b"]), bad)),
    }

    @pytest.mark.parametrize("place", PLACES)
    @pytest.mark.parametrize("kind", FOREIGN)
    def test_rejects_foreign_terms_wherever_they_are_checked(self, linear_quiver, kind, place):
        # bound 1 still names the relation, not the bound
        bound, relation = self.PLACES[place]
        good = (linear_quiver.path(["a"]), None)
        with pytest.raises(ValueError, match=r"^.* is not a path of the quiver$"):
            oracle_dimension(linear_quiver, [good, relation(linear_quiver, self.FOREIGN[kind])], bound)

    def test_rejects_the_wrong_target_of_a_single_arrow(self, linear_quiver):
        with pytest.raises(ValueError, match="^a is not a path of the quiver$"):
            oracle_dimension(linear_quiver, [(Path(("a",), ("1", "3")), None)], 3)

    def test_monomials_below_the_bound_are_checked_only_by_the_automaton(self, linear_quiver):
        # at bound 2 the monomial a b reaches the bound, and only it is checked
        q = linear_quiver
        monomials = [(q.path(["a"]), None), (q.path(["a", "b"]), None)]
        with mock.patch.object(
            cycle_algebra, "_checked_relation", wraps=cycle_algebra._checked_relation
        ) as checked, mock.patch.object(
            Quiver, "contains_path", autospec=True, side_effect=Quiver.contains_path
        ) as contains:
            assert oracle_dimension(q, monomials, 3) == 4
            assert (checked.call_count, contains.call_count) == (0, 0)
            assert oracle_dimension(q, monomials, 2) == 4
        assert (checked.call_count, contains.call_count) == (1, 1)
        assert contains.call_args.args[1] == q.path(["a", "b"])

    # One bad relation on the quiver 1 -a-> 2 -b-> 3 -c-> 4 at the bound,
    # and the text it is refused with, wherever it is checked: a two-arrow
    # monomial below the bound by two arrow lookups, a longer one by the
    # automaton, the rest in full.
    BAD = {
        "two-arrow-foreign-arrow": (4, (Path(("a", "z"), ("1", "2", "3")), None), "a z"),
        "two-arrow-foreign-first": (4, (Path(("z", "b"), ("1", "2", "3")), None), "z b"),
        "two-arrow-wrong-middle": (4, (Path(("a", "b"), ("1", "3", "3")), None), "a b"),
        "two-arrow-wrong-end": (4, (Path(("a", "b"), ("1", "2", "4")), None), "a b"),
        "two-arrow-wrong-start": (4, (Path(("a", "b"), ("2", "2", "3")), None), "a b"),
        "two-arrow-not-composable": (4, (Path(("a", "c"), ("1", "2", "4")), None), "a c"),
        "longer-monomial": (4, (Path(("a", "b", "b"), ("1", "2", "3", "3")), None), "a b b"),
        "binomial-term": (
            4, (Path(("a", "b"), ("1", "2", "3")), Path(("a", "z"), ("1", "2", "3"))), "a z"
        ),
        "two-arrow-at-the-bound": (2, (Path(("a", "z"), ("1", "2", "3")), None), "a z"),
        "longer-at-the-bound": (3, (Path(("a", "b", "b"), ("1", "2", "3", "3")), None), "a b b"),
    }

    @pytest.mark.parametrize("case", BAD)
    def test_each_bad_relation_is_named_with_the_same_text(self, case):
        q = Quiver(["1", "2", "3", "4"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")])
        bound, bad, name = self.BAD[case]
        good = [(q.path(["b", "c"]), None), (q.path(["a", "b", "c"]), None)]
        for relations in ([bad], [*good, bad], [bad, *good]):
            with pytest.raises(ValueError, match=f"^{name} is not a path of the quiver$"):
                oracle_dimension(q, relations, bound)

    def test_two_bad_relations_name_the_first_one_read(self, linear_quiver):
        # the border reads the relations in one pass, so a bad two-arrow
        # monomial is named before a bad binomial after it; a longer
        # monomial is checked only by the automaton, after the pass
        monomial = (Path(("a", "z"), ("1", "2", "3")), None)
        longer = (Path(("a", "b", "z"), ("1", "2", "3", "3")), None)
        binomial = (linear_quiver.path(["a", "b"]), Path(("b", "y"), ("2", "3", "3")))
        for relations, name in (
            ([monomial, binomial], "a z"),
            ([binomial, monomial], "b y"),
            ([longer, binomial], "b y"),
            ([longer, monomial], "a z"),
        ):
            with pytest.raises(ValueError, match=f"^{name} is not a path of the quiver$"):
                oracle_dimension(linear_quiver, relations, 4)

    @given(st.integers(0, 10**9), st.data())
    @settings(max_examples=60, deadline=None)
    def test_border_matches_the_unchecked_oracle_and_rejects_any_foreign_term(
        self, seed, data
    ):
        presentation = random_presentation(random.Random(seed))
        q, bound = presentation.quiver, presentation.nilpotency
        relations = presentation.linear_relations()
        assert oracle_dimension(q, relations, bound) == cycle_algebra._presented_dimension(
            presentation, cycle_algebra.DEFAULT_MAX_PATHS
        )
        if not relations:
            return
        # a path of a quiver that renames some of q's arrows or vertices
        foreign = data.draw(st.sampled_from([
            lambda p: Path(tuple("z" + a for a in p.arrows), p.vertices),
            lambda p: Path(p.arrows, tuple("w" + v for v in p.vertices)),
            lambda p: Path(p.arrows, p.vertices[:-1] + ("w",)),
        ]))
        i = data.draw(st.integers(0, len(relations) - 1))
        terms = list(relations[i])
        j = data.draw(st.sampled_from([j for j, t in enumerate(terms) if t is not None]))
        terms[j] = foreign(terms[j])
        relations[i] = tuple(terms)
        with pytest.raises(ValueError, match="is not a path of the quiver"):
            oracle_dimension(q, relations, bound)

    def test_monomial_inside_a_binomial_term_kills_the_other_term(self):
        q = Quiver(
            ["1", "2", "3", "4"],
            [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")],
        )
        b, ab, cd = q.path(["b"]), q.path(["a", "b"]), q.path(["c", "d"])
        binomial = [(b, None), (ab, cd)]
        monomials = [(b, None), (cd, None)]
        assert oracle_dimension(q, binomial, 3) == oracle_dimension(q, monomials, 3) == 7

    def test_huge_bound_on_an_acyclic_quiver(self, linear_quiver):
        # the table stops at the last nonempty length, not at the bound
        assert oracle_dimension(linear_quiver, [], 10**12) == 6

    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_elimination_on_cycle_systems(self, seed):
        pair = tractable_defining_pair(random.Random(seed), max_paths=2_000)
        relations = generate_relations(pair).linear_relations()
        bound = nilpotency_bound(pair)
        dim = oracle_dimension(pair.quiver, relations, bound)
        for field in ELIMINATION_FIELDS:
            assert dim == elimination_dimension(pair.quiver, relations, bound, field)

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_elimination_on_presentations(self, seed):
        rng = random.Random(seed)
        presentation = random_presentation(rng)
        q, bound = presentation.quiver, presentation.nilpotency
        relations = presentation.linear_relations()
        # random_presentation rarely draws equal pairs, so add parallel ones
        paths = enumerate_paths(q, bound)
        for _ in range(rng.randint(0, 3)):
            p = rng.choice(paths)
            parallel = [r for r in paths if (r.source, r.target) == (p.source, p.target)]
            relations.append((p, rng.choice(parallel)))
        dim = oracle_dimension(q, relations, bound)
        for field in ELIMINATION_FIELDS:
            assert dim == elimination_dimension(q, relations, bound, field)


def avoids(path, monomials):
    """Whether no monomial is a subword of the path, by slicing."""
    word = path.arrows
    return not any(
        word[i : i + len(m)] == m.arrows for m in monomials for i in range(len(word))
    )


@st.composite
def quivers_with_monomials(draw):
    """A quiver of at most 3 vertices and 4 arrows, a bound, and up to four
    monomials of length 1 to bound + 1."""
    n = draw(st.integers(1, 3))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    arrows = draw(st.lists(ends, max_size=4))
    q = Quiver(
        [str(v) for v in range(n)],
        [(f"x{k}", str(s), str(t)) for k, (s, t) in enumerate(arrows)],
    )
    bound = draw(st.integers(2, 4))
    candidates = [p for p in enumerate_paths(q, bound + 1) if p.arrows]
    monomials = draw(st.lists(st.sampled_from(candidates), max_size=4)) if candidates else []
    return q, bound, monomials


@contextlib.contextmanager
def spy_on_tables():
    """Collect every path table the oracle builds."""
    original, tables = cycle_algebra._PathTable, []

    def build(*args):
        tables.append(original(*args))
        return tables[-1]

    with mock.patch.object(cycle_algebra, "_PathTable", side_effect=build):
        yield tables


def right_extensions(table) -> list[int]:
    """Each id's number of surviving extensions behind, as the table offers
    them: the entries of its automaton state's row below the bound."""
    rows = table.slots
    return [len(rows[s]) if f >= 0 else 0 for s, f in zip(table.state[1:], table.first[1:])]


class TestSurvivingPaths:
    @given(quivers_with_monomials())
    @settings(max_examples=150, deadline=None)
    def test_count_equals_the_filtered_enumeration(self, drawn):
        q, bound, monomials = drawn
        survivors = [p for p in enumerate_paths(q, bound - 1) if avoids(p, monomials)]
        total, longest = MonomialAutomaton(q, monomials).count(bound - 1)
        assert total == len(survivors)
        assert longest == max(len(p) for p in survivors)
        # a monomial algebra's dimension is its number of surviving paths,
        # and that number is exactly what the oracle's budget admits
        relations = [(m, None) for m in monomials]
        assert oracle_dimension(q, relations, bound, max_paths=total) == total
        with pytest.raises(OracleBudgetError):
            oracle_dimension(q, relations, bound, max_paths=total - 1)

    def test_table_numbers_only_the_survivors(self, two_cycle_quiver):
        # the binomial needs ids; bab = b then leaves e(1), e(2) and a
        q = two_cycle_quiver
        relations = [(q.path(["a", "b", "a"]), None), (q.path(["b", "a", "b"]), q.path(["b"]))]
        with spy_on_tables() as tables:
            assert oracle_dimension(q, relations, 10) == 3
        # e(1), e(2), a, b, ab, ba and bab, of the 20 paths below the bound,
        # each a surviving extension of one shorter path and no more
        assert [t.count for t in tables] == [7]
        assert right_extensions(tables[0]) == [1, 1, 1, 1, 0, 1, 0]

    @given(quivers_with_monomials())
    @settings(max_examples=60, deadline=None)
    def test_monomials_alone_build_no_table(self, drawn):
        q, bound, monomials = drawn
        with mock.patch.object(
            cycle_algebra, "_PathTable", side_effect=AssertionError
        ) as table:
            dim = oracle_dimension(q, [(m, None) for m in monomials], bound)
        assert table.call_count == 0
        assert dim == MonomialAutomaton(q, monomials).count(bound - 1)[0]

    @given(quivers_with_monomials())
    @settings(max_examples=60, deadline=None)
    def test_left_extensions_made_on_first_use(self, drawn):
        # longest paths first, so most maps are made with their ancestors';
        # a map holds the surviving extensions alone, every other one is zero
        q, bound, monomials = drawn
        automaton = MonomialAutomaton(q, monomials)
        table = cycle_algebra._PathTable(q, automaton, bound)
        paths = [p for p in enumerate_paths(q, bound - 1) if avoids(p, monomials)]
        for path in sorted(paths, key=len, reverse=True):
            p = table.id_of(path)
            made = table.left(p) if table.lefts[p] is None else table.lefts[p]
            assert table.zero not in made.values()
            for arrow in q.arrows_into(path.source):
                extended = compose(q.path([arrow.name]), path)
                assert made.get(arrow.name, table.zero) == table.id_of(extended)
        assert all(table.lefts[table.id_of(path)] is not None for path in paths)

    @given(quivers_with_monomials())
    @settings(max_examples=60, deadline=None)
    def test_right_extensions_are_the_surviving_ones(self, drawn):
        # the ids number the surviving paths below the bound one to one, and
        # an extension behind is its path's id, or zero when it has none
        q, bound, monomials = drawn
        table = cycle_algebra._PathTable(q, MonomialAutomaton(q, monomials), bound)
        below = enumerate_paths(q, bound - 1)
        ids = {path: table.id_of(path) for path in below if avoids(path, monomials)}
        assert sorted(ids.values()) == list(range(1, table.count + 1))
        assert all(table.id_of(path) == table.zero for path in below if path not in ids)
        for path, p in ids.items():
            for arrow in q.arrows_from(path.target):
                extended = compose(path, q.path([arrow.name]))
                assert table.right(p, arrow.name) == ids.get(extended, table.zero)

    def test_criterion_4_family_makes_fewer_left_maps_than_ids(self):
        rng = random.Random(20260809)
        with spy_on_tables() as tables:
            for _ in range(200):
                pair = tractable_defining_pair(rng)
                relations = generate_relations(pair).linear_relations()
                oracle_dimension(pair.quiver, relations, nilpotency_bound(pair))
        # zero's map, shared by the longest paths, is made with the table
        made = sum(m is not None and m is not t.lefts[0] for t in tables for m in t.lefts)
        assert tables
        assert made < sum(t.count for t in tables)


class TestCountPaths:
    # at most 8 arrows, so at most 8**4 paths of the longest length
    @given(st.integers(0, 10**9), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_enumerated_count(self, seed, max_length):
        quiver = random_defining_pair(random.Random(seed)).quiver
        assert count_paths(quiver, max_length) == len(enumerate_paths(quiver, max_length))

    def test_stops_above_the_cap(self, loop_quiver):
        assert count_paths(loop_quiver, 10**12, stop_above=50) == 51

    @given(st.integers(0, 10**9))
    @settings(max_examples=10, deadline=None)
    def test_tractable_draws_keep_their_decisions(self, seed):
        # the draws the former enumerate-to-test budget loop accepted
        rng = random.Random(seed)
        expected = []
        while len(expected) < 3:
            pair = random_defining_pair(rng)
            if not validate(pair).passed:
                continue
            try:
                enumerate_paths(pair.quiver, nilpotency_bound(pair) - 1, 20_000)
            except OracleBudgetError:
                continue
            expected.append(pair)
        rng = random.Random(seed)
        assert [tractable_defining_pair(rng) for _ in range(3)] == expected


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_closed_form_dimension_matches_oracle(seed):
    pair = valid_random_pair(seed)
    alg = CycleAlgebra(pair)
    relations = generate_relations(pair).linear_relations()
    assert alg.dimension == closed_form_dimension(pair) == oracle_dimension(
        pair.quiver, relations, nilpotency_bound(pair)
    )


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_gram_is_a_full_rank_permutation(seed):
    alg = CycleAlgebra(valid_random_pair(seed))
    gram = alg.gram_matrix()
    assert gram.is_permutation
    assert gram.rank == alg.dimension


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_paths_at_the_bound_reduce_to_zero(seed):
    pair = valid_random_pair(seed)
    alg = CycleAlgebra(pair)
    bound = nilpotency_bound(pair)
    paths = enumerate_paths(pair.quiver, bound)
    for p in paths:
        if len(p) == bound:
            assert alg.normal_form(p) is None


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_check_multiserial_matches_the_two_sided_reference(seed):
    # covers of presentations share vertices between cycles and carry
    # return arrows, which tractable_defining_pair never draws
    rng = random.Random(seed)
    for pair in (tractable_defining_pair(rng), symmetrize(random_presentation(rng))):
        alg = CycleAlgebra(pair)
        assert alg.check_multiserial() == reference_check_multiserial(alg)


def test_cycles_acceptance_sequence_derives_each_fact_once(two_cycle_mu3_pair):
    # the operation of the cycles-acceptance benchmark, in its order
    pair = two_cycle_mu3_pair
    with spy_on_derivation("axioms") as axioms, spy_on_derivation("relations") as relations:
        assert validate(pair).passed
        alg = CycleAlgebra(pair)
        generated = generate_relations(pair)
        dimension = oracle_dimension(
            pair.quiver, generated.linear_relations(), nilpotency_bound(pair)
        )
        assert dimension == alg.dimension == 14
        assert alg.gram_matrix().is_permutation
        assert alg.check_trace_symmetry().passed
        assert alg.check_multiserial().passed
    assert (axioms.call_count, relations.call_count) == (1, 1)


def test_the_rings_are_built_once_per_system(two_cycle_mu3_pair):
    # every reader of a rotation, in the algebra and in the system, reads
    # the one cached ring per class
    pair = two_cycle_mu3_pair
    with spy_on_derivation("_rings") as rings:
        alg = CycleAlgebra(pair)
        assert len(alg.basis) == alg.dimension == 14
        assert alg.gram_matrix().is_permutation
        assert alg.cartan_matrix().entries == [[4, 3], [3, 4]]
        assert alg.check_multiserial().passed
        assert alg.normal_form(pair.quiver.path(["a", "b", "a"])) is not None
        assert pair.relations.counts() == (0, 2, 0)
        assert pair_oracle_dimension(pair) == 14
    assert rings.call_count == 1


@pytest.mark.parametrize("draw", [None, 3, 11])
def test_a_built_pair_checks_no_cycle_for_simplicity_again(two_cycle_mu3_pair, draw):
    # construction checked every cycle; the axioms, the relations and the
    # basis build powers and rotations without checking them again
    if draw is None:
        pair = two_cycle_mu3_pair
    else:
        drawn = tractable_defining_pair(random.Random(draw))
        # a fresh pair, since the draw derived its axioms already
        pair = DefiningPair(drawn.quiver, rotations(drawn))
    spy = mock.Mock(wraps=quiver_module.is_simple_cycle)
    with mock.patch.object(quiver_module, "is_simple_cycle", spy):
        assert pair.axioms.passed
        assert pair.relations.type2
        assert len(CycleAlgebra(pair).basis) == closed_form_dimension(pair)
        assert spy.call_count == 0
        with pytest.raises(ValueError, match="not a simple cycle"):
            canonical_rotation(pair.quiver.trivial_path(pair.quiver.vertices[0]))
    assert spy.call_count == 1


class AllRotations:
    """A cycle system as every rotation of every class, each a full path,
    derived the way a system storing its rotations derives its facts: the
    reference the class-keyed system is held against."""

    def __init__(self, pair: DefiningPair) -> None:
        self.quiver = pair.quiver
        self.cycles = [c for c, _ in rotations(pair)]
        self.mult = {c.arrows: mu for c, mu in rotations(pair)}
        self.fulls = [cycle_power(c, self.mult[c.arrows]) for c in self.cycles]

    def next_arrow(self) -> dict[str, str]:
        return {c.arrows[0]: c.arrows[1 % len(c)] for c in self.cycles}

    def relations(self) -> tuple:
        at: dict[str, list[int]] = {v: [] for v in self.quiver.vertices}
        for i, c in enumerate(self.cycles):
            at[c.source].append(i)
        pairs = [(i, j) for at_v in at.values() for i, j in product(at_v, at_v) if i < j]
        on_cycle = {(c.arrows[k], c.arrows[(k + 1) % len(c)]) for c in self.cycles for k in range(len(c))}
        return (
            tuple((self.fulls[i], self.fulls[j]) for i, j in pairs),
            tuple(compose(f, Path(f.arrows[:1], f.vertices[:2])) for f in self.fulls),
            tuple(p for p in length_two_paths(self.quiver) if p.arrows not in on_cycle),
        )

    def dimension(self) -> int:
        classes = {frozenset(c.arrows): c for c in self.cycles}.values()
        carrying = {v for c in classes for v in c.vertices}
        on_cycles = sum(len(c) * (self.mult[c.arrows] * len(c) - 1) for c in classes)
        return len(self.quiver.vertices) + len(carrying) + on_cycles

    def basis(self) -> list:
        proper = [
            OnCyclePath(Path(f.arrows[:k], f.vertices[: k + 1]))
            for f in self.fulls for k in range(1, len(f))
        ]
        carrying = {c.source for c in self.cycles}
        return [
            *(Idempotent(v) for v in self.quiver.vertices),
            *proper,
            *(Socle(v) for v in self.quiver.vertices if v in carrying),
        ]

    def dual(self) -> list:
        """F[:k] pairs with F[k:], e(v) with socle(v), and e(v) with itself
        where v carries no arrow, by element, then read as indices."""
        basis = self.basis()
        index = {x: i for i, x in enumerate(basis)}
        partner = {}
        for f in self.fulls:
            for k in range(1, len(f)):
                rest = Path(f.arrows[k:], f.vertices[k:])
                partner[OnCyclePath(Path(f.arrows[:k], f.vertices[: k + 1]))] = OnCyclePath(rest)
        for v in self.quiver.vertices:
            socle = Socle(v) if Socle(v) in index else Idempotent(v)
            partner[Idempotent(v)], partner[socle] = socle, Idempotent(v)
        return [index[partner[x]] for x in basis]

    def normal_form(self, path: Path):
        """The basis element a nontrivial path equals, or None: the rotation
        starting with its first arrow, walked mu times, must begin with it."""
        full = next(f for f in self.fulls if f.arrows[0] == path.arrows[0])
        if path.arrows != full.arrows[: len(path)]:
            return None
        return Socle(path.source) if len(path) == len(full) else OnCyclePath(path)

    def cartan(self) -> list[list[int]]:
        position = {v: i for i, v in enumerate(self.quiver.vertices)}
        entries = [[0] * len(position) for _ in position]
        for x in self.basis():
            entries[position[x.source]][position[x.target]] += 1
        return entries

    def document(self) -> str:
        classes = sorted({canonical_rotation(c).arrows: canonical_rotation(c) for c in self.cycles}.items())
        lines = ["[quiver]", "vertices = " + " ".join(self.quiver.vertices)]
        lines += [f"arrow {a.name} = {a.source} -> {a.target}" for a in self.quiver.arrows.values()]
        lines += ["", "[definingpair]"]
        lines += [f"cycle = {' '.join(k)} | mult = {self.mult[k]}" for k, _ in classes]
        return "\n".join(lines) + "\n"


@given(
    st.sampled_from(
        ["tractable", "presentation", "radical-square-zero", "four-cycle", "sixteen-arrow"]
    ),
    st.integers(0, 10**9),
)
@example("presentation", 6)
@example("radical-square-zero", 6)
@example("sixteen-arrow", 0)
@example("multi-class", 0)
@example("multi-class", 1)
@example("multi-class", 2)
@settings(max_examples=100, deadline=None)
def test_class_keyed_system_matches_the_all_rotations_reference(kind, seed):
    # seed 6 draws covers with a vertex without arrows; a cover of up to 16
    # arrows declares a10 before a2, so its rotation order, by name, is not
    # the order its quiver declares the arrows in.  The system slices each
    # full power, overrun and proper path from one ring per class; the
    # reference builds each rotation, walks it mu times and joins the
    # overrun's arrow on, one rotation at a time.  The four-cycle runs
    # through mu = 1..12, and the multi-class systems give each class a
    # multiplicity of its own.
    if kind == "sixteen-arrow":
        pair = symmetrize(random_presentation(random.Random(seed), 4, 16, 3))
        if seed == 0:
            assert list(pair.quiver.arrows) != sorted(pair.quiver.arrows)
    else:
        pair = draw_cover(kind, seed)
    reference = AllRotations(pair)
    type1, type2, type3 = reference.relations()
    assert pair.next_arrow == reference.next_arrow()
    relations = pair.relations
    assert (relations.type1, relations.type2, relations.type3) == (type1, type2, type3)
    assert closed_form_dimension(pair) == reference.dimension()
    alg = CycleAlgebra(pair)
    assert alg.basis == reference.basis()
    assert alg.gram_matrix().dual == reference.dual()
    assert alg.cartan_matrix().entries == reference.cartan()
    assert render_pair_document(pair) == reference.document()
    # every prefix of each rotation's overrun, up to the overrun itself, and
    # every two-arrow path off the cycles
    paths = [Path(o.arrows[:m], o.vertices[: m + 1]) for o in type2 for m in range(1, len(o) + 1)]
    assert [alg.normal_form(p) for p in paths + list(type3)] == [
        reference.normal_form(p) for p in paths + list(type3)
    ]


def loosened_presentation(rng):
    """A drawn presentation that keeps each of its zero paths with
    probability 0.7, so an arrow may keep two surviving successors: the
    successor tables refuse it, and the oracle still answers."""
    p = random_presentation(rng)
    kept = tuple(z for z in p.zero_paths if rng.random() < 0.7)
    return Presentation._judged(p.quiver, kept, p.equal_pairs, p.nilpotency)


PRESENTATION_DRAWS = {
    "presentation": random_presentation,
    "radical-square-zero": radical_square_zero_presentation,
    "loosened": loosened_presentation,
}


class TestOracleOnLiveEdges:
    """The oracle on live edges held against the dense oracle it replaced
    (``reference_oracle``), and, on small instances, against elimination."""

    @given(st.sampled_from(sorted(PRESENTATION_DRAWS)), st.integers(0, 10**9))
    @settings(max_examples=150, deadline=None)
    def test_presented_oracle_matches_the_dense_reference(self, kind, seed):
        presentation = PRESENTATION_DRAWS[kind](random.Random(seed))
        q, bound = presentation.quiver, presentation.nilpotency
        relations = presentation.linear_relations()
        dim = dense_oracle_dimension(q, relations, bound)
        assert oracle_dimension(q, relations, bound) == dim
        presented = cycle_algebra._presented_dimension(presentation, cycle_algebra.DEFAULT_MAX_PATHS)
        assert presented == dim
        if count_paths(q, bound - 1) <= 300:
            for field in ELIMINATION_FIELDS:
                assert elimination_dimension(q, relations, bound, field) == dim

    @given(st.sampled_from(["tractable", *sorted(PRESENTATION_DRAWS)]), st.integers(0, 10**9))
    @settings(max_examples=120, deadline=None)
    def test_cover_oracle_matches_the_dense_reference(self, kind, seed):
        rng = random.Random(seed)
        if kind == "tractable":
            pair = tractable_defining_pair(rng, max_paths=2_000)
        else:
            presentation = PRESENTATION_DRAWS[kind](rng)
            if not check_multiserial_condition(presentation).passed:
                return
            pair = symmetrize(presentation)
        q, bound = pair.quiver, nilpotency_bound(pair)
        relations = pair.relations.linear_relations()
        dim = dense_oracle_dimension(q, relations, bound)
        assert pair_oracle_dimension(pair) == oracle_dimension(q, relations, bound) == dim
        assert dim == closed_form_dimension(pair)
        if count_paths(q, bound - 1) <= 300:
            for field in ELIMINATION_FIELDS:
                assert elimination_dimension(q, relations, bound, field) == dim

    def test_tables_refuse_what_the_oracle_answers(self):
        # both arrows after a survive, so the presentation is not multiserial;
        # below the bound 3, e(1), e(2), a, b, c, ab, ac, cb and cc avoid ba
        q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1"), ("c", "2", "2")])
        presentation = Presentation(q, (q.path(["b", "a"]),), (), 3)
        with pytest.raises(MultiserialConditionError):
            presentation.tables
        relations = presentation.linear_relations()
        dim = dense_oracle_dimension(q, relations, 3)
        assert cycle_algebra._presented_dimension(presentation, 100) == dim == 9

    def test_cover_oracle_holds_linear_tables(self):
        # covers of two seeded 160-arrow draws: the automaton's rows and the
        # path table hold only live steps, and the quadratics off the cycles
        # are never built as paths
        rng, covers = random.Random(1), []
        while len(covers) < 2:
            presentation = random_presentation(rng, 16, 160, 4)
            if len(presentation.quiver.arrows) >= 144:
                covers.append(symmetrize(presentation))
        automata, original = [], cycle_algebra.MonomialAutomaton

        def build(*args):
            automata.append(original(*args))
            return automata[-1]

        for pair in covers:
            paths = mock.Mock(wraps=quiver_module._path)
            with contextlib.ExitStack() as stack:
                tables = stack.enter_context(spy_on_tables())
                stack.enter_context(
                    mock.patch.object(cycle_algebra, "MonomialAutomaton", side_effect=build)
                )
                for module in (quiver_module, defining_pair_module, cycle_algebra):
                    stack.enter_context(mock.patch.object(module, "_path", paths))
                assert pair_oracle_dimension(pair) == closed_form_dimension(pair)
            automaton, (table,) = automata[-1], tables
            arrows = len(pair.quiver.arrows)
            assert sum(map(len, automaton.rows)) <= len(automaton.rows) + arrows
            extensions = right_extensions(table)
            assert sum(extensions) <= table.count
            assert max(extensions[len(pair.quiver.vertices):]) <= 1
            # a full power and an overrun per arrow, each one slice of its
            # class's ring, and no two-arrow path off the cycles
            built = [call.args[0] for call in paths.call_args_list]
            assert not [p for p in built if len(p) == 2 and pair.next_arrow[p[0]] != p[1]]
            assert len(built) == 2 * arrows
        assert len(automata) == 2

    @pytest.mark.parametrize("loops", [100, 400, 1_600])
    def test_cover_oracle_reads_type_one_as_a_chain_per_vertex(self, loops):
        # d loops at one vertex at mu 2: type 1 pairs their d(d-1)/2 full
        # powers, but the oracle is handed the d - 1 neighbouring pairs,
        # which span the same differences, and renders each rotation's full
        # power and overrun once
        names = [f"a{i}" for i in range(loops)]
        q = Quiver(["v"], [(a, "v", "v") for a in names])
        pair = close_under_rotation(q, [(q.path([a]), 2) for a in names])
        paths = mock.Mock(wraps=_path)
        oracle = mock.Mock(wraps=cycle_algebra._oracle_dimension)
        with contextlib.ExitStack() as stack:
            stack.enter_context(mock.patch.object(cycle_algebra, "_oracle_dimension", oracle))
            for module in (quiver_module, defining_pair_module, cycle_algebra):
                stack.enter_context(mock.patch.object(module, "_path", paths))
            dimension = pair_oracle_dimension(pair)
        binomials = oracle.call_args.args[4]
        out_degrees = [len(q.arrows_from(v)) for v in q.vertices]
        assert len(binomials) == sum(max(d - 1, 0) for d in out_degrees) == loops - 1
        assert paths.call_count == 2 * len(q.arrows)
        assert dimension == loops + 2 == closed_form_dimension(pair)
        assert "relations" not in vars(pair)

import contextlib
import functools
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path as FilePath
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiserial import cli
from multiserial import cycle_algebra as cycle_algebra_module
from multiserial import defining_pair as defining_pair_module
from multiserial import presentation as presentation_module
from multiserial import quiver as quiver_module
from multiserial.cli import (
    COMMAND_TABLE,
    InputDocument,
    ParseError,
    export_dot,
    main,
    parse_document,
    render_pair_document,
    run_command,
)
from multiserial import (
    Quiver,
    check_orbit_structure,
    close_under_rotation,
    derive_successors,
    symmetrize,
)
from multiserial.random_instances import (
    radical_square_zero_presentation,
    random_presentation,
)
from test_defining_pair import rotations, spy_on_derivation
from test_presentation import reference_orbits, reference_walks, spy_on_the_walk

# The package exports the function ``symmetrize`` under the module's name.
symmetrize_module = importlib.import_module("multiserial.symmetrize")

FIXTURES = FilePath(__file__).resolve().parent.parent / "fixtures"
SRC = FilePath(__file__).resolve().parent.parent / "src"

A3_TEXT = (FIXTURES / "a3_gentle.alg").read_text()
LOOP_TEXT = (FIXTURES / "loop_mu2.alg").read_text()
# a 2-cycle with no generators and bound 10**11: every path below it is alive
HUGE_BOUND = (
    "[quiver]\nvertices = 1 2\narrow a = 1 -> 2\narrow b = 2 -> 1\n\n"
    "[presentation]\nnilpotency = 100000000000\n"
)
# generators that Quiver.path builds but the presentation refuses: a zero
# path of length 1, and an equal pair whose terms end at different vertices
SHORT_ZERO = (
    "[quiver]\nvertices = 1 2\narrow a = 1 -> 2\n\n"
    "[presentation]\nnilpotency = 2\nzero = a\n"
)
NON_UNIFORM = (
    "[quiver]\nvertices = 1 2 3\narrow a = 1 -> 2\narrow b = 2 -> 3\n"
    "arrow c = 1 -> 2\narrow d = 2 -> 2\n\n"
    "[presentation]\nnilpotency = 3\nequal = a b , c d\n"
)
# a loop whose algebra has dimension 10**11: past any basis budget in memory
HUGE_LOOP = (
    "[quiver]\nvertices = v\narrow a = v -> v\n\n"
    "[definingpair]\ncycle = a | mult = 99999999999\n"
)


# keys that only begin with a known key; each is refused, since keys are matched whole
BAD_KEY_DOCUMENTS = [
    (
        "[quiver]\nverticesX = 1 2\narrow a = 1 -> 2\n\n[presentation]\nnilpotency = 2\n",
        "line 2: unrecognized quiver line: verticesX = 1 2",
    ),
    (
        "[quiver]\nvertices = 1 2\narrowhead a = 1 -> 2\n\n[presentation]\nnilpotency = 2\n",
        "line 3: unrecognized quiver line: arrowhead a = 1 -> 2",
    ),
    (
        "[quiver]\nvertices = 1 2\narrow a = 1 -> 2\narrow b = 2 -> 1\n\n"
        "[definingpair]\ncycles = a b | mult = 2\n",
        "line 7: unrecognized definingpair line: cycles = a b | mult = 2",
    ),
]
# a two-cycle on lines 1-4; a body line after PRESENTATION or PAIR is line 8 or 7
QUIVER = "[quiver]\nvertices = 1 2\narrow a = 1 -> 2\narrow b = 2 -> 1\n"
PRESENTATION = QUIVER + "\n[presentation]\nnilpotency = 2\n"
PAIR = QUIVER + "\n[definingpair]\n"
CYCLE_FORM = "expected 'cycle = a1 a2 ... | mult = m'"
# every way a document is refused, each with its exact message
PARSE_ERRORS = {
    "no-quiver": ("# only a comment\n", "missing [quiver] section"),
    "content-first": ("vertices = 1\n", "line 1: content before any section header"),
    "unknown-section": ("[quivers]\n", "line 1: unknown section [quivers]"),
    "body-first": ("[presentation]\n", "line 1: the [quiver] section must come first"),
    "second-quiver": (QUIVER + "[quiver]\n", "line 5: duplicate section [quiver]"),
    "second-body": (PAIR + "[definingpair]\n", "line 7: duplicate section [definingpair]"),
    "two-bodies": (
        PRESENTATION + "[definingpair]\n",
        "line 8: expected exactly one of [presentation] or [definingpair], found 2",
    ),
    "no-body": (QUIVER, "expected exactly one of [presentation] or [definingpair], found 0"),
    "empty-vertices": ("[quiver]\nvertices =\n", "line 2: empty vertex list"),
    "vertices-form": ("[quiver]\nvertices 1 2\n", "line 2: expected 'vertices = v1 v2 ...'"),
    "arrow-head-form": (
        "[quiver]\nvertices = 1\narrow a b = 1 -> 1\n",
        "line 3: expected 'arrow NAME = SRC -> TGT'",
    ),
    "arrow-form": (
        "[quiver]\nvertices = 1\narrow a = 1 1\n",
        "line 3: expected 'arrow NAME = SRC -> TGT'",
    ),
    "nilpotency-form": (
        QUIVER + "\n[presentation]\nnilpotency 2\n",
        "line 7: expected 'nilpotency = N'",
    ),
    "nilpotency-integer": (
        QUIVER + "\n[presentation]\nnilpotency = two\n",
        "line 7: nilpotency must be an integer, got 'two'",
    ),
    "no-nilpotency": (
        QUIVER + "\n[presentation]\nzero = a b\n",
        "presentation section needs 'nilpotency = N'",
    ),
    "presentation-key": (
        PRESENTATION + "nilpotent = 2\n",
        "line 8: unrecognized presentation line: nilpotent = 2",
    ),
    "empty-zero": (PRESENTATION + "zero =\n", "line 8: empty zero path"),
    # a zero line is matched ahead of the key dispatch only in a presentation,
    # and only as 'zero = ...'; the dispatch refuses every other one
    "zero-in-quiver": (QUIVER + "zero = a b\n", "line 5: unrecognized quiver line: zero = a b"),
    "zero-in-definingpair": (
        PAIR + "zero = a b\n",
        "line 7: unrecognized definingpair line: zero = a b",
    ),
    "zero-with-name": (PRESENTATION + "zero x = a b\n", "line 8: expected 'zero = a1 a2 ...'"),
    "zero-no-equals": (PRESENTATION + "zero a b\n", "line 8: expected 'zero = a1 a2 ...'"),
    "equal-form": (
        PRESENTATION + "equal = a b\n",
        "line 8: expected 'equal = p1 p2 ... , q1 q2 ...'",
    ),
    "equal-side": (PRESENTATION + "equal = a b ,\n", "line 8: both sides of 'equal' need arrows"),
    "equal-path": (PRESENTATION + "equal = a b , a x\n", "line 8: unknown arrow 'x'"),
    "definingpair-key": (PAIR + "mult = 2\n", "line 7: unrecognized definingpair line: mult = 2"),
    "cycle-no-equals": (PAIR + "cycle a b\n", f"line 7: {CYCLE_FORM}"),
    "cycle-no-bar": (PAIR + "cycle = a b\n", f"line 7: {CYCLE_FORM}"),
    "cycle-two-bars": (PAIR + "cycle = a | b | mult = 2\n", f"line 7: {CYCLE_FORM}"),
    "cycle-mult-key": (PAIR + "cycle = a b | mu = 2\n", f"line 7: {CYCLE_FORM}"),
    "mult-integer": (
        PAIR + "cycle = a b | mult = two\n",
        "line 7: multiplicity must be an integer, got 'two'",
    ),
    "empty-cycle": (PAIR + "cycle = | mult = 2\n", "line 7: empty cycle"),
    "cycle-path": (PAIR + "cycle = a x | mult = 2\n", "line 7: unknown arrow 'x'"),
    "mult-positive": (
        PAIR + "cycle = a b | mult = 0\n",
        "line 7: multiplicity must be positive, got 0",
    ),
    # the library's own checks on what a line declares: its message, behind
    # the number of the line that declares it
    "zero-length-one": (
        PRESENTATION + "zero = a\n",
        "line 8: generator a has length < 2; the ideal must be admissible",
    ),
    "equal-length-one": (
        PRESENTATION + "equal = a b , a b a b\nequal = b a b , b\n",
        "line 9: generator b has length < 2; the ideal must be admissible",
    ),
    "equal-non-uniform": (
        PRESENTATION + "equal = a b , b a\n",
        "line 8: binomial generator is not uniform: a b and b a have different endpoints",
    ),
    "nilpotency-below-two": (
        QUIVER + "\n[presentation]\nnilpotency = 1\n",
        "line 7: nilpotency bound must be at least 2",
    ),
    "cycle-not-simple": (
        PAIR + "cycle = a b a b | mult = 2\n",
        "line 7: not a simple cycle: a b a b",
    ),
    "cycle-not-closed": (PAIR + "cycle = a | mult = 2\n", "line 7: not a simple cycle: a"),
    "conflicting-multiplicities": (
        PAIR + "cycle = a b | mult = 2\ncycle = b a | mult = 3\n",
        "line 8: conflicting multiplicities 2 and 3 for rotations of a b",
    ),
}


class TestParse:
    def test_presentation_document(self):
        document = parse_document(A3_TEXT)
        assert document.kind == "presentation"
        assert document.quiver.vertices == ("1", "2", "3")
        assert list(document.quiver.arrows) == ["a", "b"]
        assert document.presentation.nilpotency == 2
        assert [p.arrows for p in document.presentation.zero_paths] == [("a", "b")]

    def test_definingpair_document_is_rotation_closed(self):
        text = """
        [quiver]
        vertices = 1 2
        arrow a = 1 -> 2
        arrow b = 2 -> 1

        [definingpair]
        cycle = a b | mult = 3
        """
        document = parse_document(text)
        assert document.kind == "definingpair"
        assert [c.arrows for c, _ in rotations(document.pair)] == [("a", "b"), ("b", "a")]

    @pytest.mark.parametrize(
        "separator",
        ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
        ids=["FF", "VT", "FS", "GS", "RS", "NEL", "LS", "PS"],
    )
    def test_a_line_ends_only_at_a_newline_or_carriage_return(self, separator):
        # str.splitlines() also breaks at these, which a comment may hold
        text = (
            "[quiver]\nvertices = v\n"
            f"arrow a = v -> v  # loop{separator} at v\n"
            "\n[definingpair]\ncycle = a | mult = 2\n"
        )
        document = parse_document(text)
        assert [(c.arrows, mu) for c, mu in document.pair.rotation_class_representatives()] == [
            (("a",), 2)
        ]
        with pytest.raises(ParseError, match=r"^line 7: unrecognized definingpair line: bogus"):
            parse_document(text + "bogus = 1\n")

    def test_undeclared_vertex_names_the_culprit(self):
        text = "[quiver]\nvertices = 1\narrow a = 1 -> 9\n"
        with pytest.raises(ParseError, match=r"line 3.*undeclared vertex 9"):
            parse_document(text)

    def test_conflicting_multiplicities_are_a_parse_error(self):
        text = """
        [quiver]
        vertices = 1 2
        arrow a = 1 -> 2
        arrow b = 2 -> 1

        [definingpair]
        cycle = a b | mult = 2
        cycle = b a | mult = 3
        """
        with pytest.raises(ParseError, match="conflicting multiplicities"):
            parse_document(text)

    def test_unknown_arrow_in_path(self):
        text = "[quiver]\nvertices = 1\n\n[presentation]\nnilpotency = 2\nzero = x y\n"
        with pytest.raises(ParseError, match=r"line 6.*unknown arrow 'x'"):
            parse_document(text)

    @pytest.mark.parametrize(
        "text, message",
        [(SHORT_ZERO, "generator a has length < 2"), (NON_UNIFORM, "not uniform")],
        ids=["length-one", "non-uniform"],
    )
    def test_parsed_generators_keep_every_check_but_membership(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_document(text)

    def test_parsing_a_presentation_checks_no_path_again(self):
        # Quiver.path builds each generator from its line; nothing re-checks it
        text = A3_TEXT + "zero = b\n"
        with mock.patch.object(
            Quiver, "contains_path", autospec=True, side_effect=Quiver.contains_path
        ) as spy:
            assert len(parse_document(A3_TEXT).presentation.zero_paths) == 1
            with pytest.raises(ParseError, match="generator b has length < 2"):
                parse_document(text)
        assert spy.call_count == 0

    def test_each_generator_and_the_bound_are_checked_once(self):
        # the parser judges each on its line and hands the presentation over
        # with no second pass: two zero paths and one equal pair; a two-arrow
        # zero is judged by its arrows' ends, so only the pair's terms have
        # their length checked
        text = (
            "[quiver]\nvertices = 1 2 3\narrow a = 1 -> 2\narrow b = 2 -> 3\n"
            "arrow c = 1 -> 2\narrow d = 2 -> 3\n\n"
            "[presentation]\nnilpotency = 3\nzero = a d\nzero = c b\nequal = a b , c d\n"
        )
        spies = {}
        with contextlib.ExitStack() as stack:
            for name in ("_check_bound", "_check_length", "_check_uniform"):
                spies[name] = spy = mock.Mock(wraps=getattr(presentation_module, name))
                for module in (cli, presentation_module):
                    stack.enter_context(mock.patch.object(module, name, spy))
            spies["_path"] = spy = mock.Mock(wraps=quiver_module._path)
            for module in (cli, quiver_module):
                stack.enter_context(mock.patch.object(module, "_path", spy))
            presentation = parse_document(text).presentation
        assert len(presentation.zero_paths) == 2 and len(presentation.equal_pairs) == 1
        built = [c.args[0] for c in spies["_path"].call_args_list]
        assert built == [("a", "d"), ("c", "b"), ("a", "b"), ("c", "d")]
        (left, right), = presentation.equal_pairs
        assert spies["_check_length"].call_args_list == [mock.call(left), mock.call(right)]
        assert spies["_check_bound"].call_count == 1
        assert spies["_check_uniform"].call_args_list == [mock.call(left, right)]

    def test_non_composable_zero_path(self):
        text = (
            "[quiver]\nvertices = 1 2\narrow a = 1 -> 2\n\n"
            "[presentation]\nnilpotency = 2\nzero = a a\n"
        )
        with pytest.raises(ParseError, match="do not compose"):
            parse_document(text)

    def test_reserved_prefix_rejected_for_presentations(self):
        text = (
            "[quiver]\nvertices = 1\narrow star_x = 1 -> 1\n\n"
            "[presentation]\nnilpotency = 2\nzero = star_x star_x\n"
        )
        with pytest.raises(ParseError, match="reserved prefix"):
            parse_document(text)

    def test_quiver_must_come_first(self):
        text = "[presentation]\nnilpotency = 2\n\n[quiver]\nvertices = 1\n"
        with pytest.raises(ParseError, match="must come first"):
            parse_document(text)

    def test_exactly_one_body_section(self):
        text = "[quiver]\nvertices = 1\n"
        with pytest.raises(ParseError, match="exactly one"):
            parse_document(text)

    @pytest.mark.parametrize(
        "quiver, message",
        [
            (
                "vertices = 1\narrow a = 1 -> 1\narrow a = 1 -> 1",
                "line 4, column 7: duplicate arrow name a",
            ),
            (
                "vertices = 1\narrow arrow = 1 -> 1\narrow arrow = 1 -> 1",
                "line 4, column 7: duplicate arrow name arrow",
            ),
            (
                "vertices = 1\narrow a = 1 -> a",
                "line 3, column 16: arrow a references undeclared vertex a",
            ),
            ("vertices = a b a", "line 2, column 16: duplicate vertex a"),
        ],
        ids=["duplicate-arrow", "arrow-named-arrow", "undeclared-target", "duplicate-vertex"],
    )
    def test_duplicate_arrow_reports_line_and_column(self, quiver, message):
        # the column is the offending token's own, not an earlier equal token's
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_document(f"[quiver]\n{quiver}\n")

    @pytest.mark.parametrize("body", ["[presentation]\nnilpotency = 2", "[definingpair]"])
    @pytest.mark.parametrize(
        "line, column",
        [("arrow a|b = 1 -> 1", 7), ("arrow a,b = 1 -> 1", 7), ("  arrow  , = 1 -> 1", 10)],
    )
    def test_arrow_names_may_not_hold_a_separator(self, body, line, column):
        # '|' ends the arrows of a cycle line and ',' splits an equal line, so
        # such a name could not be read back from a rendered cover document
        text = f"[quiver]\nvertices = 1\n{line}\n\n{body}\n"
        name = line.split()[1]
        message = f"line 3, column {column}: arrow name {name} may not contain '|' or ','"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_document(text)

    @pytest.mark.parametrize(
        "text, message", PARSE_ERRORS.values(), ids=PARSE_ERRORS.keys()
    )
    def test_each_refusal_has_its_exact_message(self, text, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_document(text)

    @pytest.mark.parametrize(
        "text, message", BAD_KEY_DOCUMENTS, ids=["verticesX", "arrowhead", "cycles"]
    )
    def test_keys_are_matched_whole(self, text, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_document(text)

    def test_nilpotency_is_declared_once(self):
        with pytest.raises(ParseError, match=r"^line 9: duplicate nilpotency line$"):
            parse_document(PRESENTATION + "zero = a b\nnilpotency = 3\n")

    def test_the_first_offending_line_is_reported(self):
        # a path error on line 7 comes before a key error on line 8
        text = QUIVER + "\n[presentation]\nzero = a x\nbogus = 2\nnilpotency = 2\n"
        with pytest.raises(ParseError, match=r"^line 7: unknown arrow 'x'$"):
            parse_document(text)

    def test_a_short_generator_comes_before_a_later_bad_key(self):
        # the generator's own check runs on line 8, before line 9 is read
        with pytest.raises(ParseError, match=r"^line 8: generator a has length < 2"):
            parse_document(PRESENTATION + "zero = a\nbogus = 2\n")


# a 3-cycle a: 1 -> 2, b: 2 -> 3, c: 3 -> 1 on lines 1-5; a body line after
# ZERO_HEAD is line 9, after ZERO_PAIR_HEAD line 8
ZERO_QUIVER = "[quiver]\nvertices = 1 2 3\narrow a = 1 -> 2\narrow b = 2 -> 3\narrow c = 3 -> 1\n"
ZERO_HEAD = ZERO_QUIVER + "\n[presentation]\nnilpotency = 2\n"
ZERO_PAIR_HEAD = ZERO_QUIVER + "\n[definingpair]\n"
ZERO_FORM = "line 9: expected 'zero = a1 a2 ...'"
AB = (("a", "b"), ("1", "2", "3"))
# each shape of a zero line: the document, then the zero paths it declares,
# as (arrows, vertices), or the exact text of the error it is refused with
ZERO_LINES = {
    "spaced": (ZERO_HEAD + "zero = a b\n", [AB]),
    "no-spaces": (ZERO_HEAD + "zero=a b\n", [AB]),
    "tabs": (ZERO_HEAD + "zero\t=\ta\tb\n", [AB]),
    "leading-and-trailing-spaces": (ZERO_HEAD + "   zero = a b   \n", [AB]),
    "crlf": (
        (ZERO_HEAD + "zero = a b\nzero = b c\n").replace("\n", "\r\n"),
        [AB, (("b", "c"), ("2", "3", "1"))],
    ),
    "trailing-comment": (ZERO_HEAD + "zero = a b  # a note\n", [AB]),
    "comment-holds-equals": (ZERO_HEAD + "zero = a b # c = a\n", [AB]),
    "comment-on-a-name": (ZERO_HEAD + "zero = a b#c\n", [AB]),
    "commented-out": (ZERO_HEAD + "# zero = a b\n", []),
    "comment-before-equals": (ZERO_HEAD + "zero # = a b\n", ZERO_FORM),
    "one-name": (
        ZERO_HEAD + "zero = a\n",
        "line 9: generator a has length < 2; the ideal must be admissible",
    ),
    "three-names": (ZERO_HEAD + "zero = a b c\n", [(("a", "b", "c"), ("1", "2", "3", "1"))]),
    "unknown-arrow": (ZERO_HEAD + "zero = a x\n", "line 9: unknown arrow 'x'"),
    "unknown-first-arrow": (ZERO_HEAD + "zero = x a\n", "line 9: unknown arrow 'x'"),
    "second-equals": (ZERO_HEAD + "zero = a = b\n", "line 9: unknown arrow '='"),
    "not-composing": (
        ZERO_HEAD + "zero = b a\n",
        "line 9: arrows do not compose: 'a' starts at '1', previous arrow ends at '3'",
    ),
    "empty": (ZERO_HEAD + "zero =\n", "line 9: empty zero path"),
    "empty-but-a-comment": (ZERO_HEAD + "zero = # none\n", "line 9: empty zero path"),
    "no-equals": (ZERO_HEAD + "zero\n", ZERO_FORM),
    "named": (ZERO_HEAD + "zero x = a b\n", ZERO_FORM),
    "upper-case": (ZERO_HEAD + "ZERO = a b\n", "line 9: unrecognized presentation line: ZERO = a b"),
    "duplicated": (ZERO_HEAD + "zero = a b\nzero = a b\n", [AB, AB]),
    "bad-after-good": (ZERO_HEAD + "zero = a b\nzero = c x\n", "line 10: unknown arrow 'x'"),
    "in-definingpair": (
        ZERO_PAIR_HEAD + "zero = a b\n",
        "line 8: unrecognized definingpair line: zero = a b",
    ),
}


class TestZeroLines:
    @pytest.mark.parametrize("text, expected", ZERO_LINES.values(), ids=ZERO_LINES.keys())
    def test_each_zero_line_shape_parses_or_is_refused_exactly(self, text, expected):
        if isinstance(expected, str):
            with pytest.raises(ParseError, match=f"^{re.escape(expected)}$"):
                parse_document(text)
        else:
            zeros = parse_document(text).presentation.zero_paths
            assert [(p.arrows, p.vertices) for p in zeros] == expected

    @given(st.integers(0, 10**9), st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_respaced_and_commented_draw_parses_back(self, seed, square_zero, data):
        # every line of a drawn presentation, rendered with runs of spaces and
        # tabs, trailing comments and either line ending, reads back the same
        draw = radical_square_zero_presentation if square_zero else random_presentation
        presentation = draw(random.Random(seed))
        q = presentation.quiver
        lines = [["[quiver]"], ["vertices", "=", *q.vertices]]
        lines += [["arrow", a.name, "=", a.source, "->", a.target] for a in q.arrows.values()]
        lines += [["[presentation]"], ["nilpotency", "=", str(presentation.nilpotency)]]
        lines += [["zero", "=", *p.arrows] for p in presentation.zero_paths]
        lines += [["equal", "=", *p.arrows, ",", *r.arrows] for p, r in presentation.equal_pairs]
        gaps = st.sampled_from([" ", "\t", "   ", " \t "])
        rendered = []
        for tokens in lines:
            text = data.draw(st.sampled_from(["", " ", "\t"]))
            for before, token in zip([None, *tokens], tokens):
                if before is not None:
                    around_equals = "=" in (before, token)
                    text += data.draw(st.sampled_from(["", " "]) if around_equals else gaps)
                text += token
            text += data.draw(st.sampled_from(["", "  # a note", "\t# x = y", "#"]))
            rendered.append(text)
            if data.draw(st.booleans()):
                rendered.append(data.draw(st.sampled_from(["", "# zero = a0 a0", "  \t"])))
        ending = data.draw(st.sampled_from(["\n", "\r\n"]))
        parsed = parse_document(ending.join(rendered) + ending).presentation
        assert parsed.quiver == q
        assert parsed.zero_paths == presentation.zero_paths
        assert parsed.equal_pairs == presentation.equal_pairs
        assert parsed.nilpotency == presentation.nilpotency


class TestRoundTrip:
    def test_pair_document_round_trips(self, linear_presentation):
        pair = symmetrize(linear_presentation)
        rendered = render_pair_document(pair)
        reparsed = parse_document(rendered)
        assert reparsed.pair == pair
        assert render_pair_document(reparsed.pair) == rendered

    def test_loop_fixture_round_trips(self):
        document = parse_document(LOOP_TEXT)
        rendered = render_pair_document(document.pair)
        assert parse_document(rendered).pair == document.pair

    # a loop's vertex and arrow names, and the kind of the name refused
    UNWRITABLE = {
        "vertex-space": ("v w", "a", "vertex"),
        "vertex-tab": ("v\tw", "a", "vertex"),
        "vertex-arrow-mark": ("a->b", "a", "vertex"),
        "vertex-comment": ("v#w", "a", "vertex"),
        "vertex-empty": ("", "a", "vertex"),
        "arrow-space": ("v", "a b", "arrow"),
        "arrow-comment": ("v", "a#b", "arrow"),
        "arrow-equals": ("v", "a=b", "arrow"),
        "arrow-bar": ("v", "a|b", "arrow"),
        "arrow-comma": ("v", "a,b", "arrow"),
        "arrow-empty": ("v", "", "arrow"),
        "vertex-first": ("v w", "a=b", "vertex"),
    }

    @pytest.mark.parametrize("vertex, arrow, kind", UNWRITABLE.values(), ids=UNWRITABLE.keys())
    def test_names_the_grammar_splits_on_are_refused(self, vertex, arrow, kind):
        q = Quiver([vertex], [(arrow, vertex, vertex)])
        pair = close_under_rotation(q, [(q.path([arrow]), 2)])
        named = f"{kind} name {(vertex if kind == 'vertex' else arrow)!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(named)} cannot be written in a document$"):
            render_pair_document(pair)

    def test_names_the_parser_accepts_round_trip(self):
        # each name holds a character the grammar splits on elsewhere
        q = Quiver(
            ["a=b", "x|y,z", "[v]", "-", ">"],
            [
                ("a->b", "a=b", "x|y,z"),
                ("[a]", "x|y,z", "[v]"),
                ("-", "[v]", "a=b"),
                (">", "-", ">"),
                ("<-", ">", "-"),
            ],
        )
        pair = close_under_rotation(q, [(q.path(["a->b", "[a]", "-"]), 2), (q.path([">", "<-"]), 3)])
        rendered = render_pair_document(pair)
        reparsed = parse_document(rendered).pair
        assert reparsed == pair
        assert render_pair_document(reparsed) == rendered

    @pytest.mark.parametrize("mark", ["=", "|", ",", "->", "-", ">", "[", "]", "#", " ", "\t", ":", '"'])
    def test_a_rendered_document_parses_back_or_is_refused(self, mark):
        # the mark alone, leading, inside and trailing, in a vertex name, on
        # both ends of a two-cycle's arrows, and in an arrow name
        for name in (mark, f"{mark}x", f"x{mark}y", f"y{mark}"):
            for vertices, arrows in (([name, "v"], ["a", "b"]), (["v", "w"], [name, "b"])):
                q = Quiver(vertices, [(arrows[0], *vertices), (arrows[1], *vertices[::-1])])
                pair = close_under_rotation(q, [(q.path(arrows), 2)])
                try:
                    rendered = render_pair_document(pair)
                except ValueError as refused:
                    assert str(refused).endswith("cannot be written in a document")
                    continue
                assert parse_document(rendered).pair == pair


class TestExportDot:
    def test_linear_quiver(self):
        document = parse_document(A3_TEXT)
        dot = export_dot(document)
        assert dot.count("->") == 2
        assert dot.count(";") == 5  # 3 nodes + 2 edges
        assert "style=dashed" not in dot

    def test_symmetrized_quiver_has_dashed_return_arrows(self, linear_presentation):
        pair = symmetrize(linear_presentation)
        document = parse_document(render_pair_document(pair))
        dot = export_dot(document)
        assert dot.count("->") == 4
        assert dot.count("style=dashed") == 2

    def test_loop(self):
        dot = export_dot(parse_document(LOOP_TEXT))
        assert dot.count("->") == 1
        assert '"v" -> "v"' in dot

    def test_quotes_and_backslashes_are_escaped(self):
        text = '[quiver]\nvertices = x"y z\narrow a\\ = x"y -> z\n\n[presentation]\nnilpotency = 2\n'
        dot = export_dot(parse_document(text))
        assert dot == (
            'digraph quiver {\n'
            '    "x\\"y";\n'
            '    "z";\n'
            '    "x\\"y" -> "z" [label="a\\\\"];\n'
            '}\n'
        )
        # each quoted string ends at its own closing quote: none is left over
        assert '"' not in re.sub(r'"(?:[^"\\]|\\.)*"', "", dot)


class TestMainExitCodes:
    def run(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_basis_on_loop_pair(self, capsys):
        code, out, _ = self.run(capsys, "basis", str(FIXTURES / "loop_mu2.alg"))
        assert code == 0
        assert "dimension: 3" in out

    def test_verify_quotient_on_gentle_fixture(self, capsys):
        code, out, _ = self.run(
            capsys, "verify-quotient", str(FIXTURES / "a3_gentle.alg")
        )
        assert code == 0
        assert "certificate-complete" in out

    def test_verify_quotient_oracle_disagreement_exits_two(self, capsys):
        # the cover's closed-form dimension is 18; an oracle reading 19 is
        # an engine bug, not a verdict
        with mock.patch.object(
            symmetrize_module, "pair_oracle_dimension", return_value=19
        ):
            code, out, err = self.run(
                capsys, "verify-quotient", str(FIXTURES / "a3_gentle.alg")
            )
        assert code == 2
        assert out == ""
        assert err == (
            "error: closed-form dimension 18 disagrees with the oracle 19; "
            "this is an engine bug\n"
        )

    def test_gram_on_an_arrowless_vertex_exits_zero(self, capsys, tmp_path):
        # w carries no arrow, so it spans k and e(w) is its own socle
        doc = tmp_path / "isolated.alg"
        doc.write_text(
            "[quiver]\nvertices = v w\narrow a = v -> v\n\n"
            "[definingpair]\ncycle = a | mult = 2\n"
        )
        code, out, _ = self.run(capsys, "gram", str(doc))
        assert code == 0
        assert "rank 4 of dimension 4" in out
        assert "warning" not in out

    def test_gram_fails_an_asymmetric_form_and_names_the_pair(self, capsys):
        # a 3-cycle of duals is a permutation of full rank, but x_0 pairs with
        # x_1 while x_1 pairs with x_2: only the symmetry verdict fails
        fixture = str(FIXTURES / "loop_mu2.alg")
        with mock.patch.object(cycle_algebra_module.CycleAlgebra, "_dual", [1, 2, 0]):
            code, out, _ = self.run(capsys, "gram", fixture)
            assert code == 1
            assert main(["gram", fixture, "--json"]) == 1
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        assert [(v["name"], v["passed"]) for v in verdicts] == [
            ("gram-permutation", True),
            ("gram-nondegenerate", True),
            ("trace-symmetric", False),
        ]
        assert verdicts[2]["witness"] == "form(e(v) * a) = 1 but reversed gives 0"
        assert "[FAIL] trace-symmetric: form(e(v) * a) = 1 but reversed gives 0" in out

    def test_validate_failure_exits_one(self, capsys, tmp_path):
        doc = tmp_path / "branching.alg"
        doc.write_text(
            "[quiver]\nvertices = 1 2 3 4\n"
            "arrow a = 1 -> 2\narrow b = 2 -> 3\narrow c = 2 -> 4\n\n"
            "[presentation]\nnilpotency = 3\n"
        )
        code, out, _ = self.run(capsys, "validate", str(doc))
        assert code == 1
        assert "unique-successor(a)" in out

    def test_parse_error_exits_two(self, capsys, tmp_path):
        doc = tmp_path / "bad.alg"
        doc.write_text("[quiver]\nvertices = 1\narrow a = 1 -> 9\n")
        code, _, err = self.run(capsys, "validate", str(doc))
        assert code == 2
        assert "undeclared vertex 9" in err

    def test_symmetrize_fault_exits_two(self, capsys, tmp_path):
        doc = tmp_path / "branching.alg"
        doc.write_text(
            "[quiver]\nvertices = 1 2 3 4\n"
            "arrow a = 1 -> 2\narrow b = 2 -> 3\narrow c = 2 -> 4\n\n"
            "[presentation]\nnilpotency = 3\n"
        )
        code, _, err = self.run(capsys, "symmetrize", str(doc))
        assert code == 2
        assert "multiserial condition" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = self.run(capsys, "validate", "/nonexistent.alg")
        assert code == 2

    def test_field_option_is_unknown(self, capsys):
        code, out, _ = self.run(capsys, "gram", str(FIXTURES / "loop_mu2.alg"))
        assert code == 0
        assert "rank 3 of dimension 3" in out
        with pytest.raises(SystemExit) as exit_info:
            main(["gram", str(FIXTURES / "loop_mu2.alg"), "--field", "rational"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --field" in capsys.readouterr().err

    def test_budget_fault_exits_two(self, capsys):
        code, _, err = self.run(
            capsys, "oracle", str(FIXTURES / "two_cycle.alg"), "--max-paths", "3"
        )
        assert code == 2
        assert "shrink the instance" in err

    @pytest.mark.parametrize("budget", ["0", "-1"])
    @pytest.mark.parametrize("command", list(COMMAND_TABLE))
    def test_budget_below_one_is_a_usage_error(self, capsys, command, budget):
        # without the check, verify-quotient skipped its dimension comparison
        # with a warning and gram reported "more than -1 basis elements"
        kind = COMMAND_TABLE[command][1]
        fixture = "a3_gentle.alg" if kind == "presentation" else "loop_mu2.alg"
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(FIXTURES / fixture), "--max-paths", budget])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            f"error: argument --max-paths: expected an integer of at least 1, got '{budget}'"
            in captured.err
        )

    def test_oversized_basis_exits_two(self, capsys, tmp_path):
        doc = tmp_path / "huge.alg"
        doc.write_text(HUGE_LOOP)
        code, _, err = self.run(capsys, "basis", str(doc))
        assert code == 2
        assert err.startswith("error: more than 200000 basis elements")
        assert "(dimension 100000000000); shrink the instance" in err

    @pytest.mark.parametrize("command", ["oracle", "relations"])
    def test_basis_budget_comes_before_any_relation_is_rendered(self, capsys, tmp_path, command):
        # dimension 300,001: the one full power alone is 300,000 arrows
        doc = tmp_path / "long.alg"
        doc.write_text(
            "[quiver]\nvertices = v\narrow a = v -> v\n\n"
            "[definingpair]\ncycle = a | mult = 300000\n"
        )
        # each full power and overrun is one _path slice of its class's ring
        with mock.patch.object(
            defining_pair_module, "_path", wraps=defining_pair_module._path
        ) as rendered:
            code, out, err = self.run(capsys, command, str(doc))
        assert (code, out, rendered.call_count) == (2, "", 0)
        assert err.startswith("error: more than 200000 basis elements (dimension 300001)")

    def test_dense_gram_print_is_budgeted(self, capsys, tmp_path):
        # dimension 4 + 4 + 4 * (200 * 4 - 1) = 3,204: gram prints one partner
        # per basis element, not the 10,265,616 entries of the dense matrix,
        # so its budget is the basis
        doc = tmp_path / "c4.alg"
        doc.write_text(
            "[quiver]\nvertices = 1 2 3 4\narrow a = 1 -> 2\narrow b = 2 -> 3\n"
            "arrow c = 3 -> 4\narrow d = 4 -> 1\n\n"
            "[definingpair]\ncycle = a b c d | mult = 200\n"
        )
        code, out, err = self.run(capsys, "gram", str(doc), "--json")
        assert (code, err) == (0, "")
        data = json.loads(out)["data"]
        assert (data["rank"], data["permutation"]) == (3204, True)
        assert sorted(data["dual"]) == list(range(3204))
        code, out, _ = self.run(capsys, "gram", str(doc))
        assert code == 0
        assert "rank 3204 of dimension 3204" in out
        assert json.loads(out.split("\ndual: ", 1)[1].splitlines()[0]) == data["dual"]
        code, out, err = self.run(capsys, "gram", str(doc), "--max-paths", "3203")
        assert code == 2 and out == ""
        assert err == (
            "error: more than 3203 basis elements (dimension 3204); "
            "shrink the instance or raise the budget\n"
        )

    @pytest.mark.parametrize("mode", ["json", "text"])
    def test_out_of_memory_while_rendering_exits_two(self, capsys, mode):
        # the report is built after the run, by json.dumps or by the data
        # lines; running out of memory there is a fault like any other
        target, name = (cli.json, "dumps") if mode == "json" else (cli, "_render_data")
        argv = ["gram", str(FIXTURES / "loop_mu2.alg")] + (["--json"] if mode == "json" else [])
        with mock.patch.object(target, name, side_effect=MemoryError):
            code, out, err = self.run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: out of memory; the instance is too large\n"

    def test_out_of_memory_exits_two(self, tmp_path):
        resource = pytest.importorskip("resource")
        cap = 1 << 30

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        doc = tmp_path / "huge.alg"
        doc.write_text(HUGE_LOOP)
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        # The cap is set in the child only, so the test cannot strain the host.
        proc = subprocess.run(
            # a budget above the dimension lets the basis be allocated
            [sys.executable, "-m", "multiserial.cli", "basis", str(doc)]
            + ["--max-paths", str(10**12)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            preexec_fn=cap_address_space,
            timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: out of memory")
        assert "Traceback" not in proc.stderr

    def test_size_past_an_index_exits_two(self, capsys, tmp_path):
        # the loop's full power at bound 10**20 has more arrows than an index
        # holds; a verdict did not fail, so exit 1 would misreport it
        doc = tmp_path / "huge_index.alg"
        doc.write_text(
            "[quiver]\nvertices = v\narrow a = v -> v\n\n"
            "[presentation]\nnilpotency = 100000000000000000000\n"
        )
        code, out, err = self.run(capsys, "verify-quotient", str(doc))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "too large" in err
        assert "Traceback" not in err and "out of memory" not in err
        expected = {"validate": 0, "sigma-tau": 0, "symmetrize": 0, "oracle": 2}
        assert {c: self.run(capsys, c, str(doc))[0] for c in expected} == expected

    def test_closed_stdout_exits_two(self):
        # every verdict passes, so exit 1 would misreport a failed verdict
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "multiserial.cli", "sigma-tau"]
            + [str(FIXTURES / "a3_gentle.alg"), "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 2
        assert err.startswith("error: cannot write the report")
        assert "Traceback" not in err and "Exception ignored" not in err

    @pytest.mark.parametrize(
        "command", [c for c in COMMAND_TABLE if c not in ("symmetrize", "dot")]
    )
    def test_out_is_refused_where_nothing_is_written(self, capsys, tmp_path, command):
        # only symmetrize and dot make a file; the others once took --out,
        # exited 0 and wrote nothing
        target = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as refused:
            main([command, str(FIXTURES / "a3_gentle.alg"), "--out", str(target)])
        assert refused.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not target.exists()

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_unwritable_out_file_exits_two(self, capsys, tmp_path, as_json):
        target = tmp_path / "missing-dir" / "cover.alg"
        argv = ["symmetrize", str(FIXTURES / "a3_gentle.alg"), "--out", str(target)]
        code, out, err = self.run(capsys, *argv, *(["--json"] if as_json else []))
        assert code == 2
        assert err.startswith("error:") and "missing-dir" in err
        assert out == ""
        assert not target.exists()

    @pytest.mark.parametrize(
        "text, message",
        [(SHORT_ZERO, "generator a has length < 2"), (NON_UNIFORM, "not uniform")],
        ids=["length-one", "non-uniform"],
    )
    def test_refused_generator_exits_two(self, capsys, tmp_path, text, message):
        doc = tmp_path / "refused.alg"
        doc.write_text(text)
        code, out, err = self.run(capsys, "validate", str(doc))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_wrong_document_kind_exits_two(self, capsys):
        code, _, err = self.run(
            capsys, "sigma-tau", str(FIXTURES / "loop_mu2.alg")
        )
        assert code == 2
        assert "needs a presentation document" in err

    def test_presented_dimension_above_the_cover_exits_one(self, capsys):
        # a presented algebra larger than its cover is a failed verdict that
        # names both dimensions, not a fault
        with mock.patch.object(symmetrize_module, "_presented_dimension", return_value=99):
            code, out, err = self.run(
                capsys, "verify-quotient", str(FIXTURES / "a3_gentle.alg")
            )
        assert code == 1
        assert err == ""
        assert "[FAIL] dimension-dominates: 99 > 18" in out.splitlines()

    def test_validate_on_a_huge_bound_is_budgeted(self, capsys, tmp_path):
        doc = tmp_path / "huge_bound.alg"
        doc.write_text(HUGE_BOUND)
        started = time.perf_counter()
        code, out, _ = self.run(capsys, "validate", str(doc))
        assert time.perf_counter() - started < 5.0
        assert code == 0
        assert "not minimal" not in out


class TestRunCommand:
    @pytest.mark.parametrize(
        "command", [name for name, (_, kind, _) in COMMAND_TABLE.items() if kind]
    )
    def test_wrong_document_kind_is_refused(self, command):
        kind = COMMAND_TABLE[command][1]
        other = LOOP_TEXT if kind == "presentation" else A3_TEXT
        with pytest.raises(
            ValueError, match=f"^command '{command}' needs a {kind} document$"
        ):
            run_command(command, parse_document(other))

    def test_unknown_command_is_refused(self):
        with pytest.raises(ValueError, match="^unknown command 'nope'$"):
            run_command("nope", parse_document(A3_TEXT))

    def test_verify_quotient_derives_each_stage_once(self):
        # a name read in two modules gets one spy, patched into both; the
        # cycle system's door counts cover builds, as symmetrize is a cached
        # read, and the cover's axioms and relations are counted where they
        # are derived
        places = [
            (symmetrize_module, "derive_successors"),
            (symmetrize_module.DefiningPair, "_trusted"),
            (symmetrize_module, "symmetrize"),
            (symmetrize_module, "_presented_dimension"),
            (cycle_algebra_module, "_oracle_dimension"),
            (cycle_algebra_module, "closed_form_dimension"),
        ]
        spies: dict[str, mock.Mock] = {}
        with contextlib.ExitStack() as stack:
            for module, name in places:
                spy = spies.setdefault(name, mock.Mock(wraps=getattr(module, name)))
                stack.enter_context(mock.patch.object(module, name, spy))
            for name in ("axioms", "relations"):
                spies[name] = stack.enter_context(spy_on_derivation(name))
            result = run_command("verify-quotient", parse_document(A3_TEXT))
        assert result.report.passed
        # the oracle runs once on each algebra: the presented one and its cover
        expected = dict.fromkeys(spies, 1) | {"_oracle_dimension": 2}
        assert {n: spy.call_count for n, spy in spies.items()} == expected


class TestMainOutputs:
    def test_symmetrize_writes_round_trippable_file(self, capsys, tmp_path):
        out_file = tmp_path / "cover.alg"
        code = main(
            [
                "symmetrize",
                str(FIXTURES / "a3_gentle.alg"),
                "--out",
                str(out_file),
            ]
        )
        capsys.readouterr()
        assert code == 0
        reparsed = parse_document(out_file.read_text())
        document = parse_document(A3_TEXT)
        assert reparsed.pair == symmetrize(document.presentation)

    def test_json_names_the_written_file_instead_of_the_document(self, capsys, tmp_path):
        out_file = tmp_path / "cover.alg"
        fixture = str(FIXTURES / "a3_gentle.alg")
        code = main(["symmetrize", fixture, "--out", str(out_file), "--json"])
        data = json.loads(capsys.readouterr().out)["data"]
        assert code == 0
        assert data["output_file"] == str(out_file) and "document" not in data
        cover = symmetrize(parse_document(A3_TEXT).presentation)
        assert out_file.read_text() == render_pair_document(cover)

    def test_json_report_schema_and_round_trip(self, capsys):
        code = main(["gram", str(FIXTURES / "loop_mu2.alg"), "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["command"] == "gram"
        assert payload["passed"] is True
        assert payload["data"]["rank"] == 3
        assert payload["data"]["dual"] == [2, 1, 0]
        assert json.loads(json.dumps(payload)) == payload

    def test_json_sigma_tau_uses_null_for_stop(self, capsys):
        code = main(["sigma-tau", str(FIXTURES / "a3_gentle.alg"), "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["data"]["sigma"] == {"a": None, "b": None}
        assert payload["data"]["maximal_paths"] == [["a"], ["b"]]

    def test_sigma_tau_computes_orbit_data_once(self, capsys):
        # one derivation of the orbits, though the run reads them twice, once
        # in its checks and once in its data
        for fixture in ("a3_gentle.alg", "two_cycle.alg"):
            with spy_on_the_walk() as spy:
                code = main(["sigma-tau", str(FIXTURES / fixture), "--json"])
            data = json.loads(capsys.readouterr().out)["data"]
            assert code == 0 and data["orbits"]
            assert spy.call_count == 1
            tables = parse_document((FIXTURES / fixture).read_text()).presentation.tables
            assert data["orbits"] == {a: asdict(o) for a, o in reference_orbits(tables).items()}

    @pytest.mark.parametrize("name", ["a3_gentle.alg", "two_cycle.alg", "random"])
    def test_each_maximal_path_and_cycle_is_walked_once(self, name):
        # the orbit check, the cover and a sigma-tau run all read one
        # presentation's maximal paths and cycles, derived once
        if name == "random":
            presentation = random_presentation(random.Random(3), 4, 40, 4)
        else:
            presentation = parse_document((FIXTURES / name).read_text()).presentation
        document = InputDocument(presentation.quiver, presentation=presentation)
        with spy_on_the_walk() as walks, mock.patch.object(
            presentation_module, "_path", wraps=presentation_module._path
        ) as built:
            tables = derive_successors(presentation)
            assert check_orbit_structure(tables).passed
            symmetrize(presentation)
            assert run_command("sigma-tau", document).report.passed
        # one walk builds each maximal path, from where tau stops, and each
        # cycle, from its least arrow, once, with its itinerary
        chains, cycles = reference_walks(tables)
        walked = sorted((p.arrows, p.vertices) for p in chains + cycles)
        assert walks.call_count == 1
        assert sorted(c.args for c in built.call_args_list) == walked
        assert len(walked) == len(tables.maximal_paths) + len(tables.simple_cycles) > 0

    def test_oracle_matches_closed_form_on_pair(self, capsys):
        code = main(["oracle", str(FIXTURES / "loop_mu2.alg"), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["data"]["oracle_dimension"] == 3
        assert payload["data"]["closed_form_dimension"] == 3

    def test_quiet_suppresses_output(self, capsys):
        code = main(["basis", str(FIXTURES / "loop_mu2.alg"), "--quiet"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == ""

    def test_dot_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "quiver.dot"
        code = main(
            ["dot", str(FIXTURES / "a3_gentle.alg"), "--out", str(out_file)]
        )
        capsys.readouterr()
        assert code == 0
        assert out_file.read_text().startswith("digraph quiver {")

    def test_relations_listing(self, capsys):
        code = main(["relations", str(FIXTURES / "loop_mu2.alg"), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["data"]["counts"] == {"type1": 0, "type2": 1, "type3": 0}
        assert payload["data"]["type2"] == [["a", "a", "a"]]

    def test_validate_warns_on_non_minimal_bound(self, capsys, tmp_path):
        doc = tmp_path / "loose.alg"
        doc.write_text(
            "[quiver]\nvertices = 1 2 3\narrow a = 1 -> 2\narrow b = 2 -> 3\n\n"
            "[presentation]\nnilpotency = 4\nzero = a b\n"
        )
        code, out = main(["validate", str(doc)]), capsys.readouterr().out
        assert code == 0
        assert "not minimal" in out

    def test_max_paths_bounds_the_minimal_bound_search(self, capsys, tmp_path):
        # the search visits five paths: the three trivial ones, a and b
        doc = tmp_path / "loose.alg"
        doc.write_text(
            "[quiver]\nvertices = 1 2 3\narrow a = 1 -> 2\narrow b = 2 -> 3\n\n"
            "[presentation]\nnilpotency = 4\nzero = a b\n"
        )
        code = main(["validate", str(doc), "--max-paths", "4"])
        assert code == 0
        assert "not minimal" not in capsys.readouterr().out
        main(["validate", str(doc), "--max-paths", "5"])
        assert "not minimal" in capsys.readouterr().out

    def test_byte_determinism(self, capsys):
        main(["symmetrize", str(FIXTURES / "a3_gentle.alg"), "--json"])
        first = capsys.readouterr().out
        main(["symmetrize", str(FIXTURES / "a3_gentle.alg"), "--json"])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("command", ["validate", "verify-quotient"])
    def test_byte_order_mark_is_dropped(self, command, capsys, tmp_path):
        # an editor may save the document with a leading UTF-8 byte-order mark
        marked = tmp_path / "a3_gentle.alg"
        marked.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "a3_gentle.alg").read_bytes())
        runs = []
        for document in (FIXTURES / "a3_gentle.alg", marked):
            code = main([command, str(document), "--json"])
            payload = json.loads(capsys.readouterr().out)
            del payload["input"]
            runs.append((code, payload))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0


def test_radical_square_zero_fixture_end_to_end(capsys):
    code = main(["verify-quotient", str(FIXTURES / "radical_square_zero.alg")])
    out = capsys.readouterr().out
    assert code == 0
    assert "certificate-complete" in out


@given(st.integers(0, 10**9), st.booleans())
@settings(max_examples=40, deadline=None)
def test_symmetrize_return_arrows_close_the_maximal_paths(seed, square_zero):
    # the return arrows are the cover's arrows that the base lacks, and each
    # one closes a maximal path, listed in the sorted order of the paths
    draw = radical_square_zero_presentation if square_zero else random_presentation
    presentation = draw(random.Random(seed))
    base, cover = presentation.quiver, symmetrize(presentation)
    maximal = derive_successors(presentation).maximal_paths
    data = run_command("symmetrize", InputDocument(base, presentation=presentation)).data
    returns = data["return_arrows"]
    assert list(returns) == [a for a in cover.quiver.arrows if a not in base.arrows]
    assert [r["closes"] for r in returns.values()] == [list(m.arrows) for m in maximal]
    assert [(r["source"], r["target"]) for r in returns.values()] == [
        (m.target, m.source) for m in maximal
    ]
    # the cover's next-arrow map runs each return arrow round the path it closes
    for r, m in zip(returns, maximal):
        assert [cover.next_arrow[a] for a in (r, *m.arrows)] == [*m.arrows, r]


FIXTURE_TEXTS = [path.read_text() for path in sorted(FIXTURES.glob("*.alg"))]
# separators, a section header, a reserved name and out-of-range integers
FUZZ_TOKENS = ["|", ",", "=", "->", "[x]", "star_a", "-3", "99999"]
# building the argument parser takes most of a run, and every run builds the
# same one, so the fuzzed runs share one
shared_parser = functools.cache(cli.build_parser)


@st.composite
def mutated_documents(draw):
    """A fixture document with lines dropped, duplicated or truncated, and
    tokens replaced by separators, names and integers the parser must judge."""
    lines = draw(st.sampled_from(FIXTURE_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "duplicate", "truncate", "replace"]))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "truncate":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        elif tokens := lines[i].split():
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(FUZZ_TOKENS))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@given(text=mutated_documents())
@settings(max_examples=200, deadline=None)
def test_mutated_documents_fail_only_by_parse_error_and_exit_code(tmp_path_factory, text):
    # a malformed document is a ParseError, and every command exits 0, 1 or 2
    with contextlib.suppress(ParseError):
        parse_document(text)
    path = tmp_path_factory.getbasetemp() / "mutated.alg"
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ), mock.patch.object(cli, "build_parser", shared_parser):
        for command in COMMAND_TABLE:
            assert main([command, str(path), "--max-paths", "5000"]) in (0, 1, 2), command

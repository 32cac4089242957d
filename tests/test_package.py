import re
import types

import pytest

import multiserial


def test_all_lists_exactly_the_public_names_the_package_binds():
    # submodules are bound once imported, so they are not part of the list
    bound = {
        name
        for name, value in vars(multiserial).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(multiserial.__all__) == sorted(bound)
    assert len(set(multiserial.__all__)) == len(multiserial.__all__)


TWO_CYCLE = multiserial.Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
A_B = TWO_CYCLE.path(["a", "b"])
# each border of the library that refuses a caller's value, with its exact message
LIBRARY_BORDERS = {
    "cycle-off-the-quiver": (
        lambda: multiserial.DefiningPair(
            TWO_CYCLE, [multiserial.Path(("c",), ("1", "1"))], {("c",): 2}
        ),
        "cycle c is not a path of the quiver",
    ),
    "multiplicity-of-an-unknown-cycle": (
        lambda: multiserial.DefiningPair(TWO_CYCLE, [A_B], {("a", "b"): 2, ("b", "a"): 2}),
        "multiplicity given for unknown cycle b a",
    ),
    "non-positive-multiplicity": (
        lambda: multiserial.DefiningPair(TWO_CYCLE, [A_B], {("a", "b"): 0}),
        "multiplicity of a b must be a positive integer",
    ),
    "cycle-without-multiplicity": (
        lambda: multiserial.DefiningPair(TWO_CYCLE, [A_B], {}),
        "cycle a b has no multiplicity",
    ),
    "undeclared-source": (
        lambda: multiserial.Quiver(["1"], [("a", "2", "1")]),
        "arrow 'a' starts at undeclared vertex '2'",
    ),
    "trivial-path-at-unknown-vertex": (
        lambda: TWO_CYCLE.trivial_path("3"),
        "unknown vertex '3'",
    ),
    "tables-off-the-arrows": (
        lambda: multiserial.SuccessorTables(TWO_CYCLE, {"a": "b"}, {"b": "a"}),
        "tables must be defined on exactly the quiver's arrows",
    ),
    "truncation-bound-one": (
        lambda: multiserial.oracle_dimension(TWO_CYCLE, [], bound=1),
        "truncation bound must be at least 2",
    ),
}


@pytest.mark.parametrize("build, message", LIBRARY_BORDERS.values(), ids=LIBRARY_BORDERS.keys())
def test_each_library_border_names_its_fault(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()

import ast
import re
import types
from collections import Counter
from pathlib import Path

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
A_B_TWICE = multiserial.DefiningPair(TWO_CYCLE, [(A_B, 2)])
NO_GENERATORS = multiserial.Presentation(TWO_CYCLE, (), (), 3)
# each border of the library that refuses a caller's value, with its exact message
LIBRARY_BORDERS = {
    "cycle-off-the-quiver": (
        lambda: multiserial.DefiningPair(TWO_CYCLE, [(multiserial.Path(("c",), ("1", "1")), 2)]),
        "cycle c is not a path of the quiver",
    ),
    "non-positive-multiplicity": (
        lambda: multiserial.DefiningPair(TWO_CYCLE, [(A_B, 0)]),
        "multiplicity of a b must be a positive integer",
    ),
    "boolean-multiplicity": (
        lambda: multiserial.close_under_rotation(TWO_CYCLE, [(A_B, True)]),
        "multiplicity of a b must be a positive integer",
    ),
    "float-nilpotency-bound": (
        lambda: multiserial.Presentation(TWO_CYCLE, (), (), 3.0),
        "nilpotency bound must be an integer, got 3.0",
    ),
    "string-nilpotency-bound": (
        lambda: multiserial.Presentation(TWO_CYCLE, (), (), "3"),
        "nilpotency bound must be an integer, got '3'",
    ),
    "boolean-nilpotency-bound": (
        lambda: multiserial.Presentation(TWO_CYCLE, (), (), True),
        "nilpotency bound must be an integer, got True",
    ),
    "string-truncation-bound": (
        lambda: multiserial.oracle_dimension(TWO_CYCLE, [], "3"),
        "truncation bound must be an integer, got '3'",
    ),
    "float-truncation-bound-with-a-binomial": (
        lambda: multiserial.oracle_dimension(TWO_CYCLE, [(A_B, A_B)], 3.0),
        "truncation bound must be an integer, got 3.0",
    ),
    "string-path-budget-of-the-oracle": (
        lambda: multiserial.oracle_dimension(TWO_CYCLE, [], 3, max_paths="10"),
        "path budget must be an integer, got '10'",
    ),
    "float-path-budget-of-the-pair-oracle": (
        lambda: multiserial.pair_oracle_dimension(A_B_TWICE, 2.5),
        "path budget must be an integer, got 2.5",
    ),
    "boolean-basis-budget": (
        lambda: multiserial.CycleAlgebra(A_B_TWICE, True),
        "path budget must be an integer, got True",
    ),
    "missing-enumeration-budget": (
        lambda: multiserial.enumerate_paths(TWO_CYCLE, 2, None),
        "path budget must be an integer, got None",
    ),
    "boolean-certificate-budget": (
        lambda: multiserial.verify_quotient(NO_GENERATORS).dimensions(True),
        "path budget must be an integer, got True",
    ),
    "float-monomial-bound-budget": (
        lambda: multiserial.minimal_monomial_bound(NO_GENERATORS, 2.5),
        "path budget must be an integer, got 2.5",
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


SRC = Path(__file__).resolve().parent.parent / "src" / "multiserial"


def _uses(node: ast.AST) -> Counter:
    """How often each name is read below ``node``, as a name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def test_every_private_module_level_name_is_used_in_src():
    # a private helper that only the tests call is dead code in the package
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = sum(map(_uses, trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            # a use inside the definition itself, such as recursion, does not count
            inside = _uses(node)
            unused += [
                f"{module}: {name}"
                for name in names
                if name.startswith("_") and not name.startswith("__") and used[name] <= inside[name]
            ]
    assert not unused


def _library_block() -> str:
    """The README's "Library" code block."""
    readme = (SRC.parent.parent / "README.md").read_text()
    return readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def _leading_literal(comment: str) -> tuple | None:
    """The Python literal that a comment starts with, ending at a ',', ';' or
    ':' or at the comment's end, in a 1-tuple; ``None`` when there is none."""
    ends = [len(comment), *(m.start() for m in re.finditer(r"[,;:]", comment))]
    for end in sorted(ends, reverse=True):
        try:
            return (ast.literal_eval(comment[:end]),)
        except (ValueError, SyntaxError):
            continue
    return None


def test_the_readme_library_block_gives_the_values_its_comments_give():
    block = _library_block()
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for statement in ast.parse(block).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        comment = lines[statement.lineno - 1].partition("#")[2].strip()
        literal = _leading_literal(comment)
        if literal is not None:
            assert (value, type(value)) == (literal[0], type(literal[0])), comment
        elif comment.startswith("the OnCyclePath "):
            assert type(value).__name__ == "OnCyclePath", comment
            assert str(value) == comment[len("the OnCyclePath "):], comment
        else:
            continue
        checked.append(comment)
    # 5, 18 three times, True three times, the two normal forms, the counts,
    # the first relation, the pair of dimensions and the return arrows
    assert len(checked) == 13, checked

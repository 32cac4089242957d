"""Input documents, command dispatch, and report rendering.

Documents are line-oriented: a ``[quiver]`` section followed by exactly
one of ``[presentation]`` or ``[definingpair]``.  Comments start with
``#``; tokens are whitespace-separated.

    [quiver]
    vertices = 1 2 3
    arrow a = 1 -> 2

    [presentation]
    nilpotency = 2
    zero = a b
    equal = a b , c d

    [definingpair]
    cycle = a b | mult = 2

Exit status: 0 when every verdict passes, 1 when some verdict fails, 2 on
faults (bad input, unsatisfied preconditions, exceeded budgets, running out
of memory, a size too large for an index).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict, dataclass, field

from .cycle_algebra import (
    DEFAULT_MAX_PATHS,
    CycleAlgebra,
    Idempotent,
    OnCyclePath,
    OracleBudgetError,
    Socle,
    _presented_dimension,
    pair_oracle_dimension,
)
from .defining_pair import (
    DefiningPair,
    _add_class,
    generate_relations,
    nilpotency_bound,
)
from .defining_pair import validate as validate_pair
from .presentation import (
    Presentation,
    _check_bound,
    _check_length,
    _check_uniform,
    check_multiserial_condition,
    check_orbit_structure,
    derive_successors,
    minimal_monomial_bound,
)
from .quiver import Path, Quiver, _path
from .report import Report
from .symmetrize import (
    STAR_PREFIX,
    symmetrize,
    verify_quotient,
)

SCHEMA_VERSION = 1


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        place = ""
        if line is not None:
            place = f"line {line}"
            if column is not None:
                place += f", column {column}"
            place += ": "
        super().__init__(place + message)
        self.line = line
        self.column = column


@dataclass
class InputDocument:
    quiver: Quiver
    presentation: Presentation | None = None
    pair: DefiningPair | None = None

    @property
    def kind(self) -> str:
        return "presentation" if self.presentation is not None else "definingpair"


# Each section's line keys, and the form of a line with each key.  A line is
# split once at its first '='; the first word before it is the key, matched
# whole, and only an arrow line has one more word there, its name.
LINE_FORMS = {
    "quiver": {"vertices": "vertices = v1 v2 ...", "arrow": "arrow NAME = SRC -> TGT"},
    "presentation": {
        "nilpotency": "nilpotency = N",
        "zero": "zero = a1 a2 ...",
        "equal": "equal = p1 p2 ... , q1 q2 ...",
    },
    "definingpair": {"cycle": "cycle = a1 a2 ... | mult = m"},
}
_ONE_BODY = "expected exactly one of [presentation] or [definingpair], found "


def _columns(line_text: str, start: int = 0) -> list[int]:
    """The 1-based columns of the line's whitespace-separated tokens from ``start`` on."""
    return [match.start() + 1 for match in re.compile(r"\S+").finditer(line_text, start)]


def parse_document(text: str) -> InputDocument:
    """Parse a document; a definingpair section's cycles are rotation classes.

    Each line is read once, by :data:`LINE_FORMS`, and judged as it is read,
    so a line's own fault is reported, with its number, before any later
    line's.  The quiver is built at the body section's header; each path is
    checked as :meth:`Quiver.path` builds it, each generator, bound and cycle
    by the library's own check on it.  A presentation's zero lines, most of
    its lines, are matched at the head of the loop, on the raw line split
    once at whitespace: 'zero', '=' and two composable arrow names are
    judged by two lookups and one comparison of ends, and any other zero
    line, a comment included, is split at '=' and goes through
    :meth:`Quiver.path` and the length check, with the same error text.
    The presentation is handed over by :meth:`Presentation._judged`, so no
    generator or bound is checked a second time."""
    section = q = nilpotency = None
    vertices: list[str] = []
    vertex_set: set[str] = set()
    arrow_triples: list[tuple[str, str, str]] = []
    arrow_lines: dict[str, int] = {}
    zeros: list[Path] = []
    equals: list[tuple[Path, Path]] = []
    classes: dict[tuple[str, ...], tuple[Path, int]] = {}

    # a line ends only at '\n', '\r\n' or '\r', never at the other breaks
    # str.splitlines() knows, which a comment may hold
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        for number, raw in enumerate(text.split("\n"), start=1):
            if section == "presentation":
                # No arrow name holds '=' or '#': 'zero = x y' of composable x, y
                # is judged by two lookups, any other zero line by Quiver.path.
                words = raw.split()
                if len(words) == 4 and words[0] == "zero" and words[1] == "=":
                    x, y = words[2], words[3]
                    a, b = arrows.get(x), arrows.get(y)
                    if a is not None and b is not None and a.target == b.source:
                        zeros.append(_path((x, y), (a.source, a.target, b.target)))
                        continue
                head, eq, value = raw.partition("=")
                if eq and head.strip() == "zero":
                    names = value.partition("#")[0].split()
                    if not names:
                        raise ParseError("empty zero path", number)
                    zeros.append(q.path(names))
                    _check_length(zeros[-1])
                    continue
            line = (raw.partition("#")[0] if "#" in raw else raw).strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                name = line[1:-1].strip()
                if name not in LINE_FORMS:
                    raise ParseError(f"unknown section [{name}]", number)
                if section is None and name != "quiver":
                    raise ParseError("the [quiver] section must come first", number)
                if section is not None and name in (section, "quiver"):
                    raise ParseError(f"duplicate section [{name}]", number)
                if q is not None:
                    raise ParseError(_ONE_BODY + "2", number)
                section, forms = name, LINE_FORMS[name]
                if name == "quiver":
                    continue
                q = Quiver(vertices, arrow_triples)
                arrows = q._arrows
                reserved = name == "presentation" and [
                    a for a in arrow_lines if a.startswith(STAR_PREFIX)
                ]
                if reserved:
                    message = f"arrow name {reserved[0]} uses the reserved prefix {STAR_PREFIX!r}"
                    raise ParseError(message, arrow_lines[reserved[0]])
                continue
            if section is None:
                raise ParseError("content before any section header", number)

            # a well-formed zero line was read at the head of the loop; the
            # dispatch refuses every other one
            head, eq, value = line.partition("=")
            words = head.split()
            key = words[0] if words else None
            form = forms.get(key)
            if form is None:
                raise ParseError(f"unrecognized {section} line: {line}", number)
            if not eq or len(words) != (2 if key == "arrow" else 1):
                raise ParseError(f"expected '{form}'", number)

            if key == "vertices":
                names = value.split()
                if not names:
                    raise ParseError("empty vertex list", number)
                for k, v in enumerate(names):
                    if v in vertex_set:
                        column = _columns(raw, raw.index("=") + 1)[k]
                        raise ParseError(f"duplicate vertex {v}", number, column)
                    vertex_set.add(v)
                    vertices.append(v)
            elif key == "arrow":
                name = words[1]
                if "|" in name or "," in name:
                    column = _columns(raw)[1]
                    raise ParseError(f"arrow name {name} may not contain '|' or ','", number, column)
                ends = [t.strip() for t in value.split("->")]
                if len(ends) != 2 or not ends[0] or not ends[1]:
                    raise ParseError(f"expected '{form}'", number)
                if name in arrow_lines:
                    raise ParseError(f"duplicate arrow name {name}", number, _columns(raw)[1])
                for k, v in enumerate(ends):
                    if v not in vertex_set:
                        # the end begins with the first token after its '=' or '->'
                        start = raw.index("=") + 1
                        if k:
                            start = raw.index("->", start) + 2
                        column = _columns(raw, start)[0]
                        raise ParseError(f"arrow {name} references undeclared vertex {v}", number, column)
                arrow_lines[name] = number
                arrow_triples.append((name, *ends))
            elif key == "nilpotency":
                if nilpotency is not None:
                    raise ParseError("duplicate nilpotency line", number)
                try:
                    nilpotency = int(value)
                except ValueError:
                    raise ParseError(f"nilpotency must be an integer, got {value.strip()!r}", number) from None
                _check_bound(nilpotency)
            elif key == "equal":
                sides = value.split(",")
                if len(sides) != 2:
                    raise ParseError(f"expected '{form}'", number)
                left, right = sides[0].split(), sides[1].split()
                if not left or not right:
                    raise ParseError("both sides of 'equal' need arrows", number)
                equals.append((q.path(left), q.path(right)))
                for side in equals[-1]:
                    _check_length(side)
                _check_uniform(*equals[-1])
            else:
                pieces = value.split("|")
                mult_key, mult_eq, mult_value = pieces[-1].partition("=")
                if len(pieces) != 2 or mult_key.strip() != "mult" or not mult_eq:
                    raise ParseError(f"expected '{form}'", number)
                try:
                    mult = int(mult_value)
                except ValueError:
                    raise ParseError(f"multiplicity must be an integer, got {mult_value.strip()!r}", number) from None
                names = pieces[0].split()
                if not names:
                    raise ParseError("empty cycle", number)
                cycle = q.path(names)
                if mult < 1:
                    raise ParseError(f"multiplicity must be positive, got {mult}", number)
                _add_class(classes, q, cycle, mult)
    except ParseError:
        raise
    except ValueError as exc:
        # a bare ValueError is the library refusing what this line declares
        raise ParseError(str(exc), number) from None

    if section is None:
        raise ParseError("missing [quiver] section")
    if q is None:
        raise ParseError(_ONE_BODY + "0")
    if section == "presentation" and nilpotency is None:
        raise ParseError(f"presentation section needs '{LINE_FORMS[section]['nilpotency']}'")
    if section == "presentation":
        presentation = Presentation._judged(q, tuple(zeros), tuple(equals), nilpotency)
        return InputDocument(q, presentation=presentation)
    return InputDocument(q, pair=DefiningPair._trusted(q, classes.values()))


def render_pair_document(pair: DefiningPair) -> str:
    """A parseable document for a cycle system; inverse of parsing.

    A name holding what the grammar splits on is refused with
    :class:`ValueError` before any text is built: a vertex name that is
    empty or holds whitespace, ``#`` or ``->``, and an arrow name that is
    empty or holds whitespace, ``#``, ``|``, ``,`` or ``=``."""
    q = pair.quiver
    for kind, names, marks in (("vertex", q.vertices, ("#", "->")), ("arrow", q.arrows, "#|,=")):
        for name in names:
            if name.split() != [name] or any(mark in name for mark in marks):
                raise ValueError(f"{kind} name {name!r} cannot be written in a document")
    lines = ["[quiver]"]
    lines.append("vertices = " + " ".join(q.vertices))
    for arrow in q.arrows.values():
        lines.append(f"arrow {arrow.name} = {arrow.source} -> {arrow.target}")
    lines.append("")
    lines.append("[definingpair]")
    for cycle, mult in pair.rotation_class_representatives():
        lines.append(f"cycle = {' '.join(cycle.arrows)} | mult = {mult}")
    return "\n".join(lines) + "\n"


def _dot_quoted(text: str) -> str:
    """``text`` as a quoted DOT string, its backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(document: InputDocument) -> str:
    """Graphviz output; return arrows of a symmetrization render dashed."""
    q = document.quiver
    lines = ["digraph quiver {"]
    for v in sorted(q.vertices):
        lines.append(f"    {_dot_quoted(v)};")
    for arrow in sorted(q.arrows.values(), key=lambda a: a.name):
        style = ", style=dashed" if arrow.name.startswith(STAR_PREFIX) else ""
        source, target, label = map(_dot_quoted, (arrow.source, arrow.target, arrow.name))
        lines.append(f"    {source} -> {target} [label={label}{style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass
class CommandResult:
    command: str
    report: Report
    data: dict = field(default_factory=dict)
    artifact: str | None = None
    artifact_key: str | None = None


def _path_json(p: Path) -> list[str]:
    return list(p.arrows)


def _basis_json(element) -> dict:
    if isinstance(element, Idempotent):
        return {"kind": "idempotent", "vertex": element.vertex}
    if isinstance(element, OnCyclePath):
        return {"kind": "path", "arrows": _path_json(element.path)}
    assert isinstance(element, Socle)
    return {"kind": "socle", "vertex": element.vertex}


def _cmd_validate(document: InputDocument, max_paths: int) -> CommandResult:
    if document.presentation is not None:
        presentation = document.presentation
        report = check_multiserial_condition(presentation)
        minimal = minimal_monomial_bound(presentation, max_paths)
        if minimal is not None and minimal < presentation.nilpotency:
            report.warn(
                f"declared nilpotency {presentation.nilpotency} is not minimal; "
                f"the monomial generators already force bound {minimal}"
            )
        return CommandResult("validate", report)
    return CommandResult("validate", validate_pair(document.pair))


def _cmd_sigma_tau(document: InputDocument, max_paths: int) -> CommandResult:
    presentation = document.presentation
    tables = derive_successors(presentation)
    report = check_orbit_structure(tables)
    orbits = tables.orbits
    data = {
        "sigma": {a: tables.sigma[a] for a in sorted(tables.sigma)},
        "tau": {a: tables.tau[a] for a in sorted(tables.tau)},
        "orbits": {a: asdict(orbits[a]) for a in sorted(orbits)},
        "maximal_paths": [_path_json(m) for m in tables.maximal_paths],
        "cycles": [_path_json(c) for c in tables.simple_cycles],
    }
    return CommandResult("sigma-tau", report, data)


def _cmd_symmetrize(document: InputDocument, max_paths: int) -> CommandResult:
    presentation = document.presentation
    pair = symmetrize(presentation)
    report = validate_pair(pair)
    # the cover lists its return arrows last, in the order of the paths they close
    returns = [r for r in pair.quiver.arrows.values() if r.name not in presentation.quiver.arrows]
    data = {
        "return_arrows": {
            r.name: {
                "source": r.source,
                "target": r.target,
                "closes": _path_json(m),
            }
            for r, m in zip(returns, derive_successors(presentation).maximal_paths)
        },
        "classes": [
            {"cycle": _path_json(c), "mult": mult}
            for c, mult in pair.rotation_class_representatives()
        ],
    }
    return CommandResult(
        "symmetrize", report, data, render_pair_document(pair), "document"
    )


def _cmd_relations(document: InputDocument, max_paths: int) -> CommandResult:
    pair = document.pair
    CycleAlgebra(pair, max_paths)  # the basis budget, before any full power is rendered
    relations = generate_relations(pair)
    data = {
        "type1": [[_path_json(p), _path_json(q)] for p, q in relations.type1],
        "type2": [_path_json(p) for p in relations.type2],
        "type3": [_path_json(p) for p in relations.type3],
        "counts": dict(zip(("type1", "type2", "type3"), relations.counts())),
        "nilpotency_bound": nilpotency_bound(pair),
    }
    return CommandResult("relations", Report("relations"), data)


def _cmd_basis(document: InputDocument, max_paths: int) -> CommandResult:
    pair = document.pair
    algebra = CycleAlgebra(pair, max_paths)
    data = {
        "dimension": algebra.dimension,
        "basis": [_basis_json(e) for e in algebra.basis],
    }
    return CommandResult("basis", Report("basis"), data)


def _cmd_gram(document: InputDocument, max_paths: int) -> CommandResult:
    pair = document.pair
    algebra = CycleAlgebra(pair, max_paths)
    gram = algebra.gram_matrix()
    report = Report("gram")
    report.add("gram-permutation", gram.is_permutation)
    report.add(
        "gram-nondegenerate",
        gram.nondegenerate,
        f"rank {gram.rank} of dimension {gram.dimension}",
    )
    symmetry = algebra.check_trace_symmetry().check("trace-symmetry")
    report.add("trace-symmetric", symmetry.passed, symmetry.witness)
    data = {
        "dimension": gram.dimension,
        "rank": gram.rank,
        "nondegenerate": gram.nondegenerate,
        "permutation": gram.is_permutation,
        "dual": gram.dual,
    }
    return CommandResult("gram", report, data)


def _cmd_cartan(document: InputDocument, max_paths: int) -> CommandResult:
    pair = document.pair
    algebra = CycleAlgebra(pair, max_paths)
    cartan = algebra.cartan_matrix()
    data = {"vertices": list(cartan.vertices), "matrix": cartan.entries}
    return CommandResult("cartan", Report("cartan"), data)


def _cmd_verify_quotient(document: InputDocument, max_paths: int) -> CommandResult:
    presentation = document.presentation
    certificate = verify_quotient(presentation)
    report = certificate.to_report()
    data = {
        "complete": certificate.complete,
        "generators": [e.to_json() for e in certificate.entries],
    }
    try:
        dim, dim_star = certificate.dimensions(max_paths)
        dominates = dim <= dim_star
        report.add("dimension-dominates", dominates, f"{dim} {'<=' if dominates else '>'} {dim_star}")
        data["dimension"] = dim
        data["dimension_star"] = dim_star
    except OracleBudgetError as exc:
        report.warn(f"dimension comparison skipped: {exc}")
    return CommandResult("verify-quotient", report, data)


def _cmd_oracle(document: InputDocument, max_paths: int) -> CommandResult:
    report = Report("oracle")
    if document.presentation is not None:
        bound = document.presentation.nilpotency
        dim = _presented_dimension(document.presentation, max_paths)
        data = {"bound": bound, "oracle_dimension": dim, "closed_form_dimension": None}
        return CommandResult("oracle", report, data)
    pair = document.pair
    closed = CycleAlgebra(pair, max_paths).dimension
    dim = pair_oracle_dimension(pair, max_paths)
    report.add("dimension-match", dim == closed, f"oracle {dim}, closed form {closed}")
    data = {
        "bound": nilpotency_bound(pair),
        "oracle_dimension": dim,
        "closed_form_dimension": closed,
    }
    return CommandResult("oracle", report, data)


def _cmd_dot(document: InputDocument, max_paths: int) -> CommandResult:
    return CommandResult(
        "dot", Report("dot"), {}, export_dot(document), "dot"
    )


# name -> (handler, the document kind it needs or None for either, help)
COMMAND_TABLE = {
    "validate": (_cmd_validate, None, "check the multiserial condition or the cycle-system axioms"),
    "sigma-tau": (_cmd_sigma_tau, "presentation", "successor tables, orbits, maximal paths and cycles"),
    "symmetrize": (_cmd_symmetrize, "presentation", "build the symmetric cycle system on the enlarged quiver"),
    "relations": (_cmd_relations, "definingpair", "emit the generated relation families of a cycle system"),
    "basis": (_cmd_basis, "definingpair", "closed-form basis and dimension of a cycle system's algebra"),
    "gram": (_cmd_gram, "definingpair", "trace-form Gram matrix, rank, nondegeneracy and symmetry"),
    "cartan": (_cmd_cartan, "definingpair", "basis counts by vertex pair"),
    "verify-quotient": (_cmd_verify_quotient, "presentation", "certify that the collapse of the cover's ideal descends"),
    "oracle": (_cmd_oracle, None, "dimension by brute force in a truncated path algebra"),
    "dot": (_cmd_dot, None, "Graphviz export of the document's quiver"),
}


def run_command(
    command: str, document: InputDocument, max_paths: int = DEFAULT_MAX_PATHS
) -> CommandResult:
    try:
        handler, kind, _ = COMMAND_TABLE[command]
    except KeyError:
        raise ValueError(f"unknown command {command!r}") from None
    if kind is not None and document.kind != kind:
        raise ValueError(f"command {command!r} needs a {kind} document")
    return handler(document, max_paths)


def _render_data(data: dict, indent: str = "") -> list[str]:
    lines = []
    for key, value in data.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_render_data(value, indent + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            lines.append(f"{indent}{key}:")
            for item in value:
                lines.append(f"{indent}  {json.dumps(item)}")
        else:
            lines.append(f"{indent}{key}: {json.dumps(value)}")
    return lines


def _budget(text: str) -> int:
    """A ``--max-paths`` value: an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="input document")
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument(
        "--max-paths",
        type=_budget,
        default=DEFAULT_MAX_PATHS,
        help="budget on paths: those below the oracle's truncation bound that "
        "avoid every monomial relation, and the closed-form basis",
    )
    common.add_argument("--quiet", action="store_true", help="suppress the report")
    parser = argparse.ArgumentParser(
        prog="multiserial",
        description="construct and verify symmetric multiserial quotients of path algebras",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, text) in COMMAND_TABLE.items():
        command = subparsers.add_parser(name, parents=[common], help=text)
        if name in ("symmetrize", "dot"):  # the commands that make an artifact
            command.add_argument("--out", metavar="FILE", help="write the primary output to FILE")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # the report is rendered under the same handlers as the run, so running
    # out of memory while it is built exits 2 too
    try:
        # a leading byte-order mark is dropped; other UTF-8 reads the same
        with open(args.input, encoding="utf-8-sig") as handle:
            text = handle.read()
        document = parse_document(text)
        result = run_command(args.command, document, args.max_paths)
        written = bool(getattr(args, "out", None)) and result.artifact is not None
        if written:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(result.artifact)
        if args.json:
            payload = {
                "schema_version": SCHEMA_VERSION,
                "command": result.command,
                "input": args.input,
                "passed": result.report.passed,
                "verdicts": [
                    {"name": c.name, "passed": c.passed, "witness": c.witness}
                    for c in result.report.checks
                ],
                "warnings": list(result.report.warnings),
                "data": dict(result.data),
            }
            if written:
                payload["data"]["output_file"] = args.out
            elif result.artifact is not None:
                payload["data"][result.artifact_key] = result.artifact
            text = json.dumps(payload)
        else:
            lines = [f"command: {result.command} ({args.input})"]
            lines.extend(result.report.lines())
            lines.extend(_render_data(result.data))
            if written:
                lines.append(f"wrote {args.out}")
            elif result.artifact is not None:
                lines.append(result.artifact.rstrip("\n"))
            text = "\n".join(lines)
        if not args.quiet:
            try:
                print(text, flush=True)
            except OSError as exc:
                # the interpreter flushes stdout again on exit; send that nowhere
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                print(f"error: cannot write the report: {exc}", file=sys.stderr)
                return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError) as exc:
        why = "out of memory" if isinstance(exc, MemoryError) else exc
        print(f"error: {why}; the instance is too large", file=sys.stderr)
        return 2

    return 0 if result.report.passed else 1


if __name__ == "__main__":
    sys.exit(main())

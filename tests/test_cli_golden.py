"""Every command on every fixture against a recorded run: the ``--json``
payload (without the input path, which depends on where the tests run)
and the exit code.  ``cli_golden.json`` holds the record, keyed by
"FIXTURE COMMAND"; a payload of null means the command printed nothing,
as it does when it faults with exit 2.
"""

import contextlib
import io
import json
from pathlib import Path as FilePath

import pytest

from multiserial import cli

FIXTURES = FilePath(__file__).resolve().parent.parent / "fixtures"
GOLDEN = json.loads(FilePath(__file__).with_name("cli_golden.json").read_text())

COMMANDS = (
    "validate",
    "sigma-tau",
    "symmetrize",
    "relations",
    "basis",
    "gram",
    "cartan",
    "verify-quotient",
    "oracle",
    "dot",
)
FIXTURE_NAMES = ("a3_gentle", "loop_mu2", "radical_square_zero", "two_cycle")


def json_run(command: str, fixture: str) -> dict:
    """Exit code and ``--json`` payload of one command on one fixture."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, str(FIXTURES / f"{fixture}.alg"), "--json"])
    payload = json.loads(stdout.getvalue()) if stdout.getvalue() else None
    if payload is not None:
        del payload["input"]
    return {"exit": code, "payload": payload}


def test_record_covers_every_command_and_fixture():
    # the table's order is the order of the help text
    assert tuple(cli.COMMAND_TABLE) == COMMANDS
    assert sorted(GOLDEN) == sorted(f"{f} {c}" for f in FIXTURE_NAMES for c in COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_json_payload_and_exit_code(fixture, command):
    assert json_run(command, fixture) == GOLDEN[f"{fixture} {command}"]

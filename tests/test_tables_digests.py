"""The outputs of the tables layer through the CLI match the digests in
`tables_digests.json`: for N = 3..8, the sha256 of what `decompose` (both
varieties), `filtration`, `report --format text` and `verify` write, and
their exit statuses.  A refactor of `motives`, `report` or `cli` that
changes one byte fails here.  The file is only read; each key is the
argument list joined by spaces."""

import hashlib
import json
from pathlib import Path

import pytest

from motive_calc.cli import main

RECORDED = json.loads((Path(__file__).resolve().parent / "tables_digests.json").read_text())

COMMANDS = (
    ["decompose", "--format", "json"],
    ["decompose", "--format", "text"],
    ["decompose", "--threefold", "--format", "json"],
    ["decompose", "--threefold", "--format", "text"],
    ["filtration", "--format", "json"],
    ["filtration", "--format", "text"],
    ["report", "--format", "text"],
    ["verify"],
)
INVOCATIONS = [[command[0], "--level", str(n), *command[1:]] for n in range(3, 9) for command in COMMANDS]


def test_every_invocation_is_recorded():
    assert sorted(RECORDED) == sorted(" ".join(argv) for argv in INVOCATIONS)


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_output_and_status_match_the_recorded_digest(argv, capsys):
    status = main(argv)
    out, err = capsys.readouterr()
    assert err == ""
    got = {"sha256": hashlib.sha256(out.encode()).hexdigest(), "status": status}
    assert got == RECORDED[" ".join(argv)]

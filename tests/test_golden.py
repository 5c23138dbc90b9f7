"""`rquiver examples run` reports, byte for byte.

The files under tests/golden/ are the outputs of

    rquiver examples run --all
    rquiver --json examples run --all
    rquiver examples run --cases 20
    rquiver --json examples run --cases 20

Any change to the arithmetic or the report code must leave them identical.
"""

from pathlib import Path

import pytest

from rquiver.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name, argv", [
    ("examples_all.txt", ["examples", "run", "--all"]),
    ("examples_all.json", ["--json", "examples", "run", "--all"]),
    ("examples_cases20.txt", ["examples", "run", "--cases", "20"]),
    ("examples_cases20.json", ["--json", "examples", "run", "--cases", "20"]),
])
def test_examples_report_unchanged(name, argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()

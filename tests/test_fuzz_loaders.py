"""Deterministic loader fuzz: every node of three golden inputs, replaced by
a bad value or dropped, gives exit 0, 1 or 2 and no traceback under each of
the four sample commands, and never exit 0 for a bool or a float in place of
an integer.  The full sweep over every input golden is
``python tests/fuzz_loaders.py --full``."""

import json

import pytest

import rquiver.serialize as io
from fuzz_loaders import FULL, GOLDEN, SAMPLE, mutants, run_file


@pytest.mark.parametrize("name, kind, skip_field_integers", SAMPLE)
def test_mutated_inputs_exit_cleanly(tmp_path, name, kind, skip_field_integers):
    assert run_file(name, kind, skip_field_integers, tmp_path) == []


def test_exit_0_on_a_bool_or_float_integer_is_a_failure(tmp_path, monkeypatch):
    """With the version check switched off, the three mutants that put true,
    0.5 or 1.0 in the version pass quiver validate, and the oracle reports
    exactly those: the other values exit 0 too but are not numbers read as
    integers."""
    monkeypatch.setattr(io, "_check_version", lambda data: None)
    bad = run_file("quiver_gelfand.json", "quiver", False, tmp_path)
    assert sorted(bad, key=repr) == [(("version",), 0.5, 0), (("version",), 1.0, 0),
                                     (("version",), True, 0)]


def test_mutants_cover_every_node():
    """Seven replacements and a drop per node; the root is only replaced,
    and field-element integers are skipped on request."""
    doc = {"a": [1, {"entries": [[1, 2, 3, 4]]}]}
    seen = {}
    for path, value, _ in mutants(doc, skip_field_integers=True):
        seen[path] = seen.get(path, 0) + 1
    assert seen == {(): 7, ("a",): 8, ("a", 0): 8, ("a", 1): 8, ("a", 1, "entries"): 8,
                    ("a", 1, "entries", 0): 8}
    assert len(list(mutants(doc))) == 8 * 10 - 1


def test_full_mutates_every_rep_golden():
    """--full mutates every golden that loads as a quiver representation,
    cyclic ones included, except the E images hc_*_image.json: those are
    outputs of hc to-quiver, pinned byte for byte."""
    reps = set()
    for path in GOLDEN.glob("*.json"):
        try:
            io.load_rep(json.loads(path.read_text()))
        except io.ParseError:
            continue
        reps.add(path.name)
    assert {"hc_cyc_rep_d-1.json", "rep_cyc_unipotent_d-1.json"} <= reps
    assert {name for name in reps if not name.endswith("_image.json")} <= {name for name, _ in FULL}

"""Deterministic loader fuzz: every node of three golden inputs, replaced by
a bad value or dropped, gives exit 0, 1 or 2 and no traceback under each of
the four sample commands.  The full sweep over every input golden is
``python tests/fuzz_loaders.py --full``."""

import pytest

from fuzz_loaders import SAMPLE, mutants, run_file


@pytest.mark.parametrize("name, kind, skip_field_integers", SAMPLE)
def test_mutated_inputs_exit_cleanly(tmp_path, name, kind, skip_field_integers):
    assert run_file(name, kind, skip_field_integers, tmp_path) == []


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

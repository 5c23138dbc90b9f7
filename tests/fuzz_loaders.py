"""Loader fuzz: a bad JSON node never ends a CLI command in a traceback.

Each node of a golden input file is, in turn, replaced by each value of
REPLACEMENTS or dropped, and a command that reads the file (COMMANDS) runs
in-process through ``cli.main``.  Every run must return 0, 1 or 2: a
malformed file is a parse or usage error (exit 2), and a well-formed but
wrong one fails its checks (exit 1) or, when the change keeps it valid,
passes (exit 0).  A bool or a float in place of an integer node is never
valid: that run must not return 0, since every integer a loader reads must
be a JSON integer.

    PYTHONPATH=src python tests/fuzz_loaders.py          # the tier-1 sample
    PYTHONPATH=src python tests/fuzz_loaders.py --full   # every input golden

The sample, which ``tests/test_fuzz_loaders.py`` runs, covers every node of
``quiver_gelfand.json``, and every node of ``rep_c2_62_d2.json`` (``rep
validate`` and ``rep to-species``) and ``rep_c2_62_d2_to_species.json``
except the four integers of a field element: 3,556 runs.  ``--full`` covers
every node of the quiver, species, rep and species-rep goldens, every input
rep golden among them (all but the E images ``hc_*_image.json``), of three
HC-module files (``hc validate`` and ``hc to-quiver``) and of four unipotent
files (``unipotent stabilize`` and ``unipotent sqrt``).  It also runs ``rep
to-species`` on ``rep_c2_62_d2.json`` and ``hc_ext_rep_d-1.json``, ``hc
from-quiver`` and ``hc roundtrip`` with ``--ell 2`` on the latter, ``hc
from-quiver`` with ``--ell 2`` on the rejected ``rep_gelfand_ones_d-1.json``
and ``rep_gelfand_relation_break_d-1.json``, ``hc
roundtrip`` with ``--ell 2`` on ``hc_ext_rep_d2.json`` and with ``--ell 0``
on the cyclic ``hc_cyc_rep_d-1.json`` and ``rep_cyc_unipotent_d-1.json``,
``hc from-quiver`` with ``--ell 0`` on the former, and ``rep hom``, ``rep
isomorphic`` (the mutant against the unmutated golden, on each side) and
``rep base-change`` on ``rep_c2_62_d2.json``: 72,711 runs, about 50 s on a
2-vCPU VM.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

REPLACEMENTS = (-1, 0.5, 1.0, True, "x", None, [])
DROP = object()

# the commands a file runs, by name; IN and OUT stand for the mutated input
# and the output path, ORIG for the unmutated golden (the other side of a pair)
IN, OUT, ORIG = "{in}", "{out}", "{orig}"
COMMANDS = {
    "quiver": ["quiver", "validate", "--in", IN],
    "species": ["species", "to-quiver", "--in", IN, "--out", OUT],
    "rep": ["rep", "validate", "--in", IN],
    "to_species": ["rep", "to-species", "--in", IN, "--out", OUT],
    "hom_a": ["rep", "hom", "--a", IN, "--b", ORIG],
    "hom_b": ["rep", "hom", "--a", ORIG, "--b", IN],
    "isomorphic_a": ["rep", "isomorphic", "--a", IN, "--b", ORIG],
    "isomorphic_b": ["rep", "isomorphic", "--a", ORIG, "--b", IN],
    "base_change": ["rep", "base-change", "--in", IN, "--subgroup", "0", "--out", OUT],
    "species_rep": ["rep", "from-species", "--in", IN, "--out", OUT],
    "hc_from_quiver": ["hc", "from-quiver", "--in", IN, "--ell", "2", "--out", OUT],
    "hc_roundtrip": ["hc", "roundtrip", "--in", IN, "--ell", "2"],
    "hc_from_quiver_ell0": ["hc", "from-quiver", "--in", IN, "--ell", "0", "--out", OUT],
    "hc_roundtrip_ell0": ["hc", "roundtrip", "--in", IN, "--ell", "0"],
    "hc": ["hc", "validate", "--in", IN],
    "hc_image": ["hc", "to-quiver", "--in", IN, "--out", OUT],
    "pair": ["unipotent", "stabilize", "--in", IN],
    "matrix": ["unipotent", "sqrt", "--in", IN],
}

SAMPLE = (("quiver_gelfand.json", "quiver", False),
          ("rep_c2_62_d2.json", "rep", True),
          ("rep_c2_62_d2.json", "to_species", True),
          ("rep_c2_62_d2_to_species.json", "species_rep", True))

FULL = (("quiver_gelfand.json", "quiver"), ("quiver_gelfand_restrict_05.json", "quiver"),
        ("quiver_s3.json", "quiver"), ("quiver_s3_base_change_01.json", "quiver"),
        ("species_gelfand_to_quiver.json", "quiver"), ("species_s3_to_quiver.json", "quiver"),
        ("species_gelfand.json", "species"), ("species_gelfand_restrict_05.json", "species"),
        ("species_s3.json", "species"), ("species_s3_base_change_01.json", "species"),
        ("rep_c2_62_d2.json", "rep"), ("rep_c2_62_d2_from_species.json", "rep"),
        ("hc_ext_rep_d-1.json", "rep"), ("rep_c2_62_d2.json", "to_species"),
        ("hc_ext_rep_d-1.json", "to_species"), ("rep_c2_62_d2.json", "hom_a"),
        ("rep_c2_62_d2.json", "hom_b"), ("rep_c2_62_d2.json", "isomorphic_a"),
        ("rep_c2_62_d2.json", "isomorphic_b"), ("rep_c2_62_d2.json", "base_change"),
        ("hc_ext_rep_d-1.json", "hc_from_quiver"), ("hc_ext_rep_d-1.json", "hc_roundtrip"),
        ("hc_ext_rep_d2.json", "rep"), ("hc_ext_rep_d2.json", "hc_roundtrip"),
        ("hc_cyc_rep_d-1.json", "rep"), ("hc_cyc_rep_d-1.json", "hc_from_quiver_ell0"),
        ("hc_cyc_rep_d-1.json", "hc_roundtrip_ell0"), ("rep_cyc_unipotent_d-1.json", "rep"),
        ("rep_cyc_unipotent_d-1.json", "hc_roundtrip_ell0"),
        ("rep_gelfand_ones_d-1.json", "rep"), ("rep_gelfand_ones_d-1.json", "hc_from_quiver"),
        ("rep_gelfand_relation_break_d-1.json", "rep"),
        ("rep_gelfand_relation_break_d-1.json", "hc_from_quiver"),
        ("rep_c2_62_d2_to_species.json", "species_rep"),
        ("hc_ext_ell2_d-1.json", "hc"), ("hc_build_discrete_ell0.json", "hc"),
        ("hc_build_principal_dual_ell1.json", "hc_image"),
        ("unipotent_pair_d-1.json", "pair"), ("unipotent_pair_d1_2.json", "pair"),
        ("unipotent_matrix.json", "matrix"), ("unipotent_matrix_gamma.json", "matrix"))


def node_paths(node, path=()):
    """The path (keys and indices from the root) of every node, root first."""
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from node_paths(child, path + (key,))


def in_field_element(path) -> bool:
    """True for the integers of a field element: entries[k][i] of a matrix."""
    return len(path) >= 3 and path[-3] == "entries"


def mutants(doc, skip_field_integers=False):
    """(path, value, mutated copy) for every node and every value of
    REPLACEMENTS, and DROP, which removes the node (not the root)."""
    for path in list(node_paths(doc)):
        if skip_field_integers and in_field_element(path):
            continue
        for value in REPLACEMENTS + ((DROP,) if path else ()):
            copy = json.loads(json.dumps(doc))
            if not path:
                yield path, value, value
                continue
            parent = copy
            for key in path[:-1]:
                parent = parent[key]
            if value is DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            yield path, value, copy


def node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def run_file(name, kind, skip_field_integers, workdir):
    """Run the file's command on each of its mutants; returns the list of
    (path, value, outcome) whose outcome is not exit 0, 1 or 2, or is exit 0
    for a bool or a float in place of an integer node."""
    from rquiver.cli import main

    doc = json.loads((GOLDEN / name).read_text())
    src, out = Path(workdir) / "in.json", str(Path(workdir) / "out.json")
    paths = {IN: src.as_posix(), OUT: out, ORIG: (GOLDEN / name).as_posix()}
    argv = [paths.get(a, a) for a in COMMANDS[kind]]
    bad = []
    for path, value, mutant in mutants(doc, skip_field_integers):
        src.unlink(missing_ok=True)  # a new file is cheaper than truncating on some file systems
        src.write_text(json.dumps(mutant))
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                status = main(argv)
        except Exception as exc:  # a traceback is the failure looked for
            status = f"{type(exc).__name__}: {exc}"
        if status not in (0, 1, 2) or status == 0 and type(value) in (bool, float) \
                and type(node_at(doc, path)) is int:
            bad.append((path, "drop" if value is DROP else value, status))
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--full", action="store_true",
                        help="every node of every input golden, field integers included")
    args = parser.parse_args(argv)
    files = [(name, kind, False) for name, kind in FULL] if args.full else SAMPLE
    failures = 0
    with tempfile.TemporaryDirectory() as workdir:
        for name, kind, skip in files:
            bad = run_file(name, kind, skip, workdir)
            failures += len(bad)
            print(f"{name}: {' '.join(COMMANDS[kind])}, {len(bad)} failures", flush=True)
            for path, value, status in bad:
                print(f"  {list(path)} = {value!r}: {status}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

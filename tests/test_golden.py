"""`rquiver examples run` and `rquiver unipotent` reports, byte for byte.

The examples_* files under tests/golden/ are the outputs of

    rquiver examples run --all
    rquiver --json examples run --all
    rquiver examples run --cases 20
    rquiver --json examples run --cases 20

The unipotent_* files are seeded inputs and the reports on them:

    rquiver --json unipotent stabilize --trace --in unipotent_pair_<tag>.json
    rquiver --json unipotent sqrt --in unipotent_matrix.json
    rquiver --json unipotent sqrt --in unipotent_matrix_gamma.json

unipotent_pair_<tag>.json, one per field tag d = -1, 2, -3, 1/2, -5/3 (seeds
100..104 of random.Random, in that order), holds (inverse(q0) (1 + n), q0)
with n = g J g^-1 for a nilpotent Jordan matrix J of types (4), (3, 1), (5),
(2, 2), (4, 1), g = random_unimodular(rng, dim, span=1, d=d) and then
q0 = random_unimodular(rng, dim, span=1, d=d).  unipotent_matrix.json is
1 + g J g^-1 with J of type (5) over d = -1 (seed 200), and
unipotent_matrix_gamma.json is (3/2)^2 (1 + g J g^-1) with J of type (3, 1)
over d = 2 and gamma = 3/2 (seed 201).  The reports were recorded with the
eliminating stabilization and the Newton square root that preceded the
current kernels.

The hc_build_* files are the modules written by

    rquiver hc build --kind principal --ell 2 --out hc_build_principal_ell2.json
    rquiver hc build --kind discrete --ell 0 --out hc_build_discrete_ell0.json
    rquiver hc build --kind finite --ell 3 --out hc_build_finite_ell3.json
    rquiver hc build --kind principal_dual --ell 1 --out hc_build_principal_dual_ell1.json

The first two were recorded while the matrix dump still went through one
QuadElement per entry, the last two while build_example still wrote every
ladder scalar by hand instead of taking inverse_E of the diagram.

The hc_ext_* files pin an E-image on which stabilization has work to do.
hc_ext_rep_<tag>.json, for d = -1 (tag d-1) and d = 2 (tag d2), is the
Gelfand representation with dims (3, 3, 3), a_+- = J_3 (the nilpotent Jordan
block of size 3), b_+- = 1 and rho = 1, as json.dump(dump_rep(rep),
sort_keys=True, indent=2) plus a newline.  The other two are written by

    rquiver hc from-quiver --in hc_ext_rep_<tag>.json --ell 2 --out hc_ext_ell2_<tag>.json
    rquiver hc to-quiver --in hc_ext_ell2_<tag>.json --out hc_ext_ell2_<tag>_image.json

and the --json report of the second has iterations = 2.  They were recorded
while E still ran three stabilizations, one per vertex.  The same two
commands with --ell 1 and --ell 3 on hc_ext_rep_d-1.json write
hc_ext_ell1_d-1.json and hc_ext_ell3_d-1.json and their _image files
(iterations 0 and 2).  hc_cyc_rep_d-1.json is the cyclic representation over
d = -1 with dims (3, 3), a = b = J_2 + J_1 (the nilpotent Jordan matrix of
type (2, 1)) and rho = 1, dumped the same way, and

    rquiver hc from-quiver --in hc_cyc_rep_d-1.json --ell 0 --out hc_cyc_ell0_d-1.json
    rquiver hc to-quiver --in hc_cyc_ell0_d-1.json --out hc_cyc_ell0_d-1_image.json

write the other two (iterations 0).  These seven were recorded while E and
inverse_E still placed each edge map by its own branch per quiver, so they
pin the ell = 0, 1 and 3 placements next to the ell = 2 one.

hc_ext_ell2_d-1_bad_<name>.json is hc_ext_ell2_d-1.json with 1 added to one
entry, written with json.dump(doc, sort_keys=True, indent=2) plus a newline:
entry 0 of Y[3] (name y3; it fails bracket at weight 1, casimir-nilpotent at
3 and conjugation-swap at -3) or entry 1 of the tail Casimir phi_+ (name
phi_plus; it fails bracket and conjugation-swap at 3 and tail-conjugation).
Their reports, which exit with status 1, are

    rquiver hc validate --in hc_ext_ell2_d-1_bad_<name>.json
    rquiver --json hc validate --in hc_ext_ell2_d-1_bad_<name>.json

in hc_ext_ell2_d-1_bad_<name>_validate.txt and .json.  They were recorded
while validate_hc still took the square roots of phi_+- to evaluate the
identities at weights +-(ell+1).

The quiver_* files are two quivers as json.dump(dump_quiver(q),
sort_keys=True, indent=2) plus a newline: quiver_gelfand.json is
gelfand_quiver(), and quiver_s3.json is random_group_quiver(random.Random(7),
FiniteGroup.symmetric(3), max_v=6, max_e=12), with two vertex blocks of three
cosets each (of the subgroups {0, 1} and {0, 5}) and two free edge orbits,
whose summands have twists (4, 1) from block 0 to block 1 and (1, 0) back.  For each <tag> (gelfand, s3) the
species_* files are written by

    rquiver species from-quiver --in quiver_<tag>.json --out species_<tag>.json
    rquiver species to-quiver --in species_<tag>.json --out species_<tag>_to_quiver.json
    rquiver --json species roundtrip --in quiver_<tag>.json

the last one's report, with the vertex bijection of the round-trip witness,
in species_<tag>_roundtrip.json.  They were recorded while
quiver_of_species and the round-trip witness still rebuilt every coset as a
frozenset and looked it up in the coset list.

The homs reports pin the order in which quiver homs, and so
equivariant_maps, list the maps: for each <tag> (gelfand, s3),

    rquiver --json quiver homs --a quiver_<tag>.json --b quiver_<tag>.json

in quiver_<tag>_homs.json.  rep_c2_62_d2.json is a representation, over
d = 2, of q = random_c2_quiver(random.Random(62), max_v=3, max_e=8), whose
species has two indices and one summand of each of the five cases
(|H_i|, |H_eps|, |H_j|).  With rng = random.Random(62), w is the first
random_species_rep(rng, species_of_quiver(q), max_dim=2, d=2) with no zero
dimension, and the file is change_basis(functor_H(w), gs) with
gs = [random_invertible(rng, n, d=2) for n in its dims], written as
json.dump(dump_rep(rep), sort_keys=True, indent=2) plus a newline.  The
other two files are written by

    rquiver rep to-species --in rep_c2_62_d2.json --out rep_c2_62_d2_to_species.json
    rquiver rep from-species --in rep_c2_62_d2_to_species.json --out rep_c2_62_d2_from_species.json

These five files were recorded while every orbit representative and twist
was still found by its own scan of the group, before GSet.orbit_table.

The base-change and restriction files pin both sides of the adjunction.
group_s3.json is FiniteGroup.symmetric(3) as json.dump(dump_group(g),
sort_keys=True, indent=2) plus a newline; its subgroups {0, 1} and {0, 5}
are the two used by quiver_s3.json.  The other four are written by

    rquiver quiver base-change --in quiver_s3.json --subgroup 0,1 --out quiver_s3_base_change_01.json
    rquiver quiver restrict --in quiver_gelfand.json --parent group_s3.json --subgroup 0,5 --out quiver_gelfand_restrict_05.json
    rquiver species base-change --in species_s3.json --subgroup 0,1 --out species_s3_base_change_01.json
    rquiver species restrict --in species_gelfand.json --parent group_s3.json --subgroup 0,5 --out species_gelfand_restrict_05.json

They were recorded while gsets.induce still returned its unit map with the
induced G-set.

The rep_hom_* reports pin Hom dimensions, one pair with Hom = 0 and one
with Hom != 0.  rep_cyc_unipotent_d-1.json is the cyclic representation over
d = -1 with dims (2, 2), a = b = [[1, 1], [0, 1]] and rho = 1, dumped like
hc_cyc_rep_d-1.json; its cycle a b is invertible, while that of
hc_cyc_rep_d-1.json is nilpotent, so Hom between them is 0.  The reports are

    rquiver --json rep hom --a hc_cyc_rep_d-1.json --b rep_cyc_unipotent_d-1.json
    rquiver --json rep hom --a rep_c2_62_d2.json --b rep_c2_62_d2.json

in rep_hom_cyc_zero.json and rep_hom_c2_62_d2.json.  They were recorded
while hom_space still eliminated every system exactly, before the zero
kernel was first proved modulo a prime.

The *_from_quiver_ell<ell>.txt files pin the rejection path of inverse_E:
the one stderr line of

    rquiver hc from-quiver --in <rep>.json --ell <ell> --out <file>

which exits with status 2 and writes no file, for three reps that
validate_rep rejects.  rep_cyc_unipotent_d-1.json at ell = 0 has an
invertible cycle.  rep_gelfand_ones_d-1.json, at ell = 1, is the Gelfand
representation over d = -1 with dims (1, 1, 1), every edge map 1 and
rho = 1: it meets the relation, and its cycle is 1.
rep_gelfand_relation_break_d-1.json, at ell = 1, has dims (2, 1, 1),
a_+ = a_- = (1, 0)^T, b_+ = (0, sqrt(-1)), b_- = conj(b_+) and rho = 1: it
is nilpotent and breaks the literal relation.  The two new reps are dumped
like hc_cyc_rep_d-1.json.  The stderr lines were recorded while inverse_E
still checked nilpotency by is_nilpotent_rep's image chain.

Any change to the arithmetic, the serialization or the report code must leave
them identical.
"""

import json
import random
from pathlib import Path

import pytest

from rquiver.cli import main
from rquiver.exact import QuadElement, QuadMatrix
from rquiver.gsets import FiniteGroup
from rquiver.quiver import GELFAND_A_MINUS, GELFAND_A_PLUS, GELFAND_B_MINUS, GELFAND_B_PLUS, \
    cyclic_quiver, gelfand_quiver
from rquiver.randomgen import change_basis, random_c2_quiver, random_group_quiver, \
    random_invertible, random_species_rep
from rquiver.reps import QuiverRep, functor_H
from rquiver.species import species_of_quiver
from rquiver.serialize import dump_group, dump_quiver, dump_rep

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


@pytest.mark.parametrize("name, argv", [
    *((f"unipotent_stabilize_{tag}.json",
       ["--json", "unipotent", "stabilize", "--trace", "--in", f"unipotent_pair_{tag}.json"])
      for tag in ("d-1", "d2", "d-3", "d1_2", "d-5_3")),
    ("unipotent_sqrt.json", ["--json", "unipotent", "sqrt", "--in", "unipotent_matrix.json"]),
    ("unipotent_sqrt_gamma.json",
     ["--json", "unipotent", "sqrt", "--in", "unipotent_matrix_gamma.json"]),
])
def test_unipotent_report_unchanged(name, argv, capsys):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name, kind, ell", [
    ("hc_build_principal_ell2.json", "principal", "2"),
    ("hc_build_discrete_ell0.json", "discrete", "0"),
    ("hc_build_finite_ell3.json", "finite", "3"),
    ("hc_build_principal_dual_ell1.json", "principal_dual", "1"),
])
def test_hc_build_dump_unchanged(name, kind, ell, tmp_path):
    out = tmp_path / name
    assert main(["hc", "build", "--kind", kind, "--ell", ell, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def extension_rep(d):
    one = QuadMatrix.identity(3, d)
    edges = [None] * 4
    edges[GELFAND_A_PLUS] = edges[GELFAND_A_MINUS] = \
        QuadMatrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]], d)
    edges[GELFAND_B_PLUS] = edges[GELFAND_B_MINUS] = one
    return QuiverRep(gelfand_quiver(), (3, 3, 3), edges, (one, one, one), d)


def cyclic_rep(d):
    j = QuadMatrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]], d)
    one = QuadMatrix.identity(3, d)
    return QuiverRep(cyclic_quiver(), (3, 3), (j, j), (one, one), d)


def unipotent_cyclic_rep():
    one = QuadMatrix.identity(2, -1)
    a = QuadMatrix.from_rows([[1, 1], [0, 1]], -1)
    return QuiverRep(cyclic_quiver(), (2, 2), (a, a), (one, one), -1)


def gelfand_ones_rep():
    one = QuadMatrix.identity(1, -1)
    return QuiverRep(gelfand_quiver(), (1, 1, 1), [one] * 4, [one] * 3, -1)


def relation_break_rep():
    a = QuadMatrix.from_rows([[1], [0]], -1)
    b = QuadMatrix(1, 2, [QuadElement(0, 0, -1), QuadElement(0, 1, -1)], -1)
    edges = [None] * 4
    edges[GELFAND_A_PLUS], edges[GELFAND_A_MINUS] = a, a.conj()
    edges[GELFAND_B_PLUS], edges[GELFAND_B_MINUS] = b, b.conj()
    return QuiverRep(gelfand_quiver(), (2, 1, 1), edges,
                     [QuadMatrix.identity(n, -1) for n in (2, 1, 1)], -1)


@pytest.mark.parametrize("name, build, ell", [
    ("rep_cyc_unipotent_d-1", unipotent_cyclic_rep, 0),
    ("rep_gelfand_ones_d-1", gelfand_ones_rep, 1),
    ("rep_gelfand_relation_break_d-1", relation_break_rep, 1),
])
def test_hc_from_quiver_rejection_unchanged(name, build, ell, tmp_path, capsys):
    rep_file = GOLDEN / f"{name}.json"
    assert json.dumps(dump_rep(build()), sort_keys=True, indent=2) + "\n" == rep_file.read_text()
    out = tmp_path / "module.json"
    argv = ["hc", "from-quiver", "--in", str(rep_file), "--ell", str(ell), "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.encode() == (GOLDEN / f"{name}_from_quiver_ell{ell}.txt").read_bytes()
    assert not out.exists()


@pytest.mark.parametrize("name, a, b", [
    ("rep_hom_cyc_zero.json", "hc_cyc_rep_d-1.json", "rep_cyc_unipotent_d-1.json"),
    ("rep_hom_c2_62_d2.json", "rep_c2_62_d2.json", "rep_c2_62_d2.json"),
])
def test_rep_hom_report_unchanged(name, a, b, capsys):
    assert json.dumps(dump_rep(unipotent_cyclic_rep()), sort_keys=True, indent=2) + "\n" == \
        (GOLDEN / "rep_cyc_unipotent_d-1.json").read_text()
    assert main(["--json", "rep", "hom", "--a", str(GOLDEN / a), "--b", str(GOLDEN / b)]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("kind, tag, d, ell, iterations", [
    pytest.param("ext", "d-1", -1, 2, 2, id="d-1--1"),
    pytest.param("ext", "d2", 2, 2, 2, id="d2-2"),
    pytest.param("cyc", "d-1", -1, 0, 0, id="cyc-ell0-d-1"),
    pytest.param("ext", "d-1", -1, 1, 0, id="ext-ell1-d-1"),
    pytest.param("ext", "d-1", -1, 3, 2, id="ext-ell3-d-1"),
])
def test_hc_extension_E_image_unchanged(kind, tag, d, ell, iterations, tmp_path, capsys):
    rep_file = GOLDEN / f"hc_{kind}_rep_{tag}.json"
    module_file = GOLDEN / f"hc_{kind}_ell{ell}_{tag}.json"
    rep = (cyclic_rep if kind == "cyc" else extension_rep)(d)
    assert json.dumps(dump_rep(rep), sort_keys=True, indent=2) + "\n" == rep_file.read_text()
    out = tmp_path / "module.json"
    assert main(["hc", "from-quiver", "--in", str(rep_file), "--ell", str(ell),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == module_file.read_bytes()
    # inverse_E returns its module without validate_hc (its docstring proves it valid)
    assert main(["hc", "validate", "--in", str(out)]) == 0
    out = tmp_path / "image.json"
    capsys.readouterr()
    assert main(["--json", "hc", "to-quiver", "--in", str(module_file), "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["iterations"] == iterations
    assert out.read_bytes() == (GOLDEN / f"hc_{kind}_ell{ell}_{tag}_image.json").read_bytes()


@pytest.mark.parametrize("name, section, key, k", [
    ("y3", "Y", "3", 0),
    ("phi_plus", "tails", "plus", 1),
])
def test_hc_validate_failing_report_unchanged(name, section, key, k, capsys):
    doc = json.loads((GOLDEN / "hc_ext_ell2_d-1.json").read_text())
    entry = doc[section][key]["entries"][k]
    entry[0] += entry[1]
    module = GOLDEN / f"hc_ext_ell2_d-1_bad_{name}.json"
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == module.read_text()
    for flags, suffix in (([], "txt"), (["--json"], "json")):
        assert main([*flags, "hc", "validate", "--in", str(module)]) == 1
        assert capsys.readouterr().out.encode() == \
            (GOLDEN / f"hc_ext_ell2_d-1_bad_{name}_validate.{suffix}").read_bytes()


GOLDEN_QUIVERS = {
    "gelfand": gelfand_quiver,
    "s3": lambda: random_group_quiver(random.Random(7), FiniteGroup.symmetric(3),
                                      max_v=6, max_e=12),
}


@pytest.mark.parametrize("tag", sorted(GOLDEN_QUIVERS))
def test_species_files_unchanged(tag, tmp_path, capsys):
    quiver_file = GOLDEN / f"quiver_{tag}.json"
    species_file = GOLDEN / f"species_{tag}.json"
    assert json.dumps(dump_quiver(GOLDEN_QUIVERS[tag]()), sort_keys=True, indent=2) + "\n" == \
        quiver_file.read_text()
    out = tmp_path / "species.json"
    assert main(["species", "from-quiver", "--in", str(quiver_file), "--out", str(out)]) == 0
    assert out.read_bytes() == species_file.read_bytes()
    out = tmp_path / "quiver.json"
    assert main(["species", "to-quiver", "--in", str(species_file), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"species_{tag}_to_quiver.json").read_bytes()
    capsys.readouterr()
    assert main(["--json", "species", "roundtrip", "--in", str(quiver_file)]) == 0
    assert capsys.readouterr().out.encode() == \
        (GOLDEN / f"species_{tag}_roundtrip.json").read_bytes()


@pytest.mark.parametrize("tag", sorted(GOLDEN_QUIVERS))
def test_quiver_homs_report_unchanged(tag, capsys):
    path = str(GOLDEN / f"quiver_{tag}.json")
    assert main(["--json", "quiver", "homs", "--a", path, "--b", path]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"quiver_{tag}_homs.json").read_bytes()


def golden_c2_rep():
    q = random_c2_quiver(random.Random(62), max_v=3, max_e=8)
    s = species_of_quiver(q)
    cases = {(s.vertex_subgroups[i].order, x.subgroup.order, s.vertex_subgroups[j].order)
             for (i, j), summands in s.bimodules.items() for x in summands}
    assert len(cases) == 5
    rng = random.Random(62)
    w = random_species_rep(rng, s, max_dim=2, d=2)
    while 0 in w.dims:
        w = random_species_rep(rng, s, max_dim=2, d=2)
    r = functor_H(w)
    return change_basis(r, [random_invertible(rng, n, d=2) for n in r.dims])


def test_species_rep_files_unchanged(tmp_path):
    rep_file = GOLDEN / "rep_c2_62_d2.json"
    species_rep_file = GOLDEN / "rep_c2_62_d2_to_species.json"
    assert json.dumps(dump_rep(golden_c2_rep()), sort_keys=True, indent=2) + "\n" == \
        rep_file.read_text()
    out = tmp_path / "w.json"
    assert main(["rep", "to-species", "--in", str(rep_file), "--out", str(out)]) == 0
    assert out.read_bytes() == species_rep_file.read_bytes()
    out = tmp_path / "r.json"
    assert main(["rep", "from-species", "--in", str(species_rep_file), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "rep_c2_62_d2_from_species.json").read_bytes()


def test_group_file_unchanged():
    assert json.dumps(dump_group(FiniteGroup.symmetric(3)), sort_keys=True, indent=2) + "\n" == \
        (GOLDEN / "group_s3.json").read_text()


@pytest.mark.parametrize("name, argv", [
    ("quiver_s3_base_change_01.json",
     ["quiver", "base-change", "--in", "quiver_s3.json", "--subgroup", "0,1"]),
    ("quiver_gelfand_restrict_05.json",
     ["quiver", "restrict", "--in", "quiver_gelfand.json", "--parent", "group_s3.json",
      "--subgroup", "0,5"]),
    ("species_s3_base_change_01.json",
     ["species", "base-change", "--in", "species_s3.json", "--subgroup", "0,1"]),
    ("species_gelfand_restrict_05.json",
     ["species", "restrict", "--in", "species_gelfand.json", "--parent", "group_s3.json",
      "--subgroup", "0,5"]),
])
def test_base_change_and_restrict_files_unchanged(name, argv, tmp_path):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()

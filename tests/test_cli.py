import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rquiver.cli as cli
import rquiver.reps as reps
import rquiver.serialize as io
from rquiver.cli import main, render_diagram, run
from rquiver.exact import QuadElement, QuadMatrix
from rquiver.hc import build_example, functor_E
from rquiver.gsets import FiniteGroup
from rquiver.quiver import cyclic_quiver, gelfand_quiver, split_loop_quiver
from rquiver.randomgen import (
    random_c2_quiver, random_cyclic_rep, random_gelfand_rep, random_species_rep,
)
from rquiver.reps import QuiverRep
from rquiver.species import species_of_quiver
from rquiver.unipotent import StabilizationProblem

GOLDEN = Path(__file__).resolve().parent / "golden"


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# --------------------------------------------------------------- serialization

def test_json_roundtrips():
    rng = random.Random(7)
    q = random_c2_quiver(rng)
    assert io.load_quiver(io.dump_quiver(q)) == q
    s = species_of_quiver(q)
    assert io.load_species(io.dump_species(s)) == s
    w = random_species_rep(rng, s, max_dim=2)
    assert io.load_species_rep(io.dump_species_rep(w)) == w
    r = random_gelfand_rep(rng, max_dim=2)
    assert io.load_rep(io.dump_rep(r)) == r
    m = build_example("principal", 2)
    back = io.load_hc(io.dump_hc(m))
    assert back.spaces == m.spaces and back.x_maps == m.x_maps
    assert back.y_maps == m.y_maps and back.rat == m.rat


def test_version_rejected():
    """The version must be the JSON integer 1: true and 1.0 equal 1 in Python
    and are rejected too."""
    doc = io.dump_quiver(gelfand_quiver())
    for version in (99, True, 1.0, "1"):
        doc["version"] = version
        with pytest.raises(io.ParseError, match="^unsupported or missing schema version"):
            io.load_quiver(doc)
    doc.pop("version")
    with pytest.raises(io.ParseError):
        io.load_quiver(doc)


# --------------------------------------------------------------- reports

def test_quiver_validate_cli(tmp_path, capsys):
    path = write(tmp_path, "q.json", io.dump_quiver(gelfand_quiver()))
    assert main(["quiver", "validate", "--in", path]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "equivariance" in out


def test_report_json_deterministic(tmp_path):
    path = write(tmp_path, "q.json", io.dump_quiver(gelfand_quiver()))
    r1 = run(["quiver", "validate", "--in", path]).to_json()
    r2 = run(["quiver", "validate", "--in", path]).to_json()
    assert r1 == r2
    doc = json.loads(r1)
    assert doc["exit_status"] == 0


def test_species_roundtrip_cli(tmp_path):
    path = write(tmp_path, "q.json", io.dump_quiver(cyclic_quiver()))
    report = run(["species", "roundtrip", "--in", path])
    assert report.exit_status == 0


def test_group_without_identity_zero_exit_code(tmp_path, capsys):
    """A group table whose identity is not element 0 is malformed input."""
    doc = io.dump_quiver(gelfand_quiver())
    doc["group"]["table"] = [[1, 0], [0, 1]]  # C2 with identity 1
    path = write(tmp_path, "q.json", doc)
    for command in ("quiver validate", "species roundtrip"):
        assert main([*command.split(), "--in", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("parse error:")
        assert "element 0 must be the identity" in lines[0]


@pytest.mark.parametrize("relations, message", [
    ([[[0], [99]]], "relation path [99] names edge 99, outside 0..3"),
    ([[[], [0]]], "relation paths must be nonempty"),
])
def test_malformed_relation_path_exit_code(tmp_path, capsys, relations, message):
    """A relation path naming an edge the quiver lacks, or an empty one, is
    malformed input for every loader of a quiver: exit 2 with one parse error
    line, not a traceback or a usage error."""
    rep = io.dump_rep(random_gelfand_rep(random.Random(5), max_dim=2))
    rep["quiver"]["relations"] = relations
    quiver = write(tmp_path, "q.json", rep["quiver"])
    rep = write(tmp_path, "rep.json", rep)
    for argv in (["quiver", "validate", "--in", quiver],
                 ["rep", "validate", "--in", rep],
                 ["hc", "from-quiver", "--in", rep, "--ell", "2",
                  "--out", str(tmp_path / "out.json")]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("parse error: malformed input to load_quiver: "
                                f"ValueError: {message}\n")


@pytest.mark.parametrize("path, value, message", [
    (("fields", 0, "subgroup"), [-5, 0, 1], "subgroup element -5 is not in 0..5"),
    (("fields", 0, "subgroup"), [0, 1, 6], "subgroup element 6 is not in 0..5"),
    (("bimodules", 0, "summands", 0, "twist_src"), -1, "twist -1 is not in 0..5"),
    (("bimodules", 0, "summands", 0, "twist_src"), 6, "twist 6 is not in 0..5"),
    (("bimodules", 0, "from"), -1, "bimodule index -1 is not in 0..1"),
    (("bimodules", 0, "from"), 2, "bimodule index 2 is not in 0..1"),
    (("fields", 0, "subgroup"), [0, True], "subgroup element True is not in 0..5"),
])
def test_out_of_range_species_file_exit_code(tmp_path, capsys, path, value, message):
    """A species file with a group element, a twist or an index outside its
    range is malformed: exit 2 with one parse error line naming the value,
    also where a negative value or true would alias a valid one."""
    doc = json.loads((GOLDEN / "species_s3.json").read_text())
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    argv = ["species", "to-quiver", "--in", write(tmp_path, "species.json", doc),
            "--out", str(tmp_path / "quiver.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: malformed input to load_species: ValueError: {message}\n"


def test_bool_in_group_table_exit_code(tmp_path, capsys):
    """true in a group table is not read as element 1: quiver validate exits
    2 with one parse error line."""
    doc = json.loads((GOLDEN / "quiver_gelfand.json").read_text())
    doc["group"]["table"][0][1] = True
    assert main(["quiver", "validate", "--in", write(tmp_path, "q.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("parse error: malformed input to load_group: "
                            "ValueError: table row [0, True] is not a permutation of 0..1\n")


def test_load_group_checks_the_order():
    """"order" must be the JSON integer that counts the table's rows."""
    doc = io.dump_group(FiniteGroup.symmetric(3))
    assert io.load_group(doc).order == doc["order"] == 6
    for order, message in ((5, "group order 5 does not match its table of 6 rows"),
                           (True, "expected an integer, got True"),
                           (6.0, "expected an integer, got 6.0")):
        with pytest.raises(io.ParseError, match=rf"^{re.escape(message)}$"):
            io.load_group({**doc, "order": order})
    with pytest.raises(io.ParseError, match="^malformed input to load_group: KeyError: 'order'$"):
        io.load_group({"table": doc["table"]})


DROP = object()


@pytest.mark.parametrize("path, value, message", [
    (("version",), True, "unsupported or missing schema version (expected 1)"),
    (("version",), 1.0, "unsupported or missing schema version (expected 1)"),
    (("group", "order"), 99, "group order 99 does not match its table of 2 rows"),
    (("group", "order"), "x", "expected an integer, got 'x'"),
    (("group", "order"), None, "expected an integer, got None"),
    (("group", "order"), DROP, "malformed input to load_group: KeyError: 'order'"),
    (("vertices", "action", 0), [False, True, 2], "malformed input to load_gset: ValueError: "
     "action row [False, True, 2] has a point that is not an int"),
    (("edges", "action", 0, 0), True, "malformed input to load_gset: ValueError: "
     "action row [True, 0, 3, 2] has a point that is not an int"),
])
def test_non_integer_node_exit_code(tmp_path, capsys, path, value, message):
    """A bool, a float or a string where a quiver file needs an integer, a
    wrong group order or none: quiver validate exits 2 with one parse error
    line.  Each of these files would load if the node were not checked:
    true and 1.0 equal 1, and nothing else reads the order."""
    doc = json.loads((GOLDEN / "quiver_gelfand.json").read_text())
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is DROP:
        del node[last]
    else:
        node[last] = value
    assert main(["quiver", "validate", "--in", write(tmp_path, "q.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: {message}\n"


@pytest.mark.parametrize("name, i, value, want", [
    ("species_gelfand.json", 0, "Q(sqrt d)", "Q"),
    ("species_gelfand.json", 1, "Q", "Q(sqrt d)"),
    ("species_gelfand.json", 1, None, "Q(sqrt d)"),
    ("species_s3.json", 0, "Q", None),
])
def test_species_field_realization_is_checked(tmp_path, capsys, name, i, value, want):
    """A field's "realization" must be the one dump_species writes for its
    subgroup ("Q" for the full C2, "Q(sqrt d)" for the trivial subgroup, null
    past C2): load_species raises a ParseError naming both, and species
    to-quiver exits 2 with that line."""
    doc = json.loads((GOLDEN / name).read_text())
    assert doc["fields"][i]["realization"] == want
    doc["fields"][i]["realization"] = value
    message = f"field {i} has realization {value!r}, not {want!r}"
    with pytest.raises(io.ParseError, match=rf"^{re.escape(message)}$"):
        io.load_species(doc)
    argv = ["species", "to-quiver", "--in", write(tmp_path, "species.json", doc),
            "--out", str(tmp_path / "quiver.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: {message}\n"
    assert not (tmp_path / "quiver.json").exists()


def test_load_species_checks_the_index_count():
    """"indices" must be the number of fields."""
    doc = json.loads((GOLDEN / "species_s3.json").read_text())
    assert io.load_species(doc).n_indices == doc["indices"] == 2
    for n in (1, 5):
        with pytest.raises(io.ParseError, match=rf"^indices {n} does not match the 2 fields$"):
            io.load_species({**doc, "indices": n})


def test_species_file_with_wrong_index_count_exit_code(tmp_path, capsys):
    """A species file claiming more indices than fields exits 2 with one
    parse error line."""
    doc = json.loads((GOLDEN / "species_s3.json").read_text())
    argv = ["species", "to-quiver", "--in", write(tmp_path, "species.json", {**doc, "indices": 5}),
            "--out", str(tmp_path / "quiver.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: indices 5 does not match the 2 fields\n"


def repeated_pair(name):
    """The golden species or species-rep file name, with one more entry for
    a pair it already has: a bimodule (0, 1) without summands, or a copy of
    a map."""
    doc = json.loads((GOLDEN / name).read_text())
    if "bimodules" in doc:
        doc["bimodules"].append({"from": 0, "to": 1, "summands": []})
    else:
        doc["maps"].append(dict(doc["maps"][1]))
    return doc


@pytest.mark.parametrize("name, load, command", [
    ("species_gelfand.json", io.load_species, ["species", "to-quiver"]),
    ("rep_c2_62_d2_to_species.json", io.load_species_rep, ["rep", "from-species"]),
])
def test_repeated_species_pair_exit_code(tmp_path, capsys, name, load, command):
    """A second bimodule or map entry for one (from, to) pair would silently
    replace the first: the loader raises a ParseError naming the pair, and
    the command exits 2 with that one line and writes nothing."""
    doc = repeated_pair(name)
    pair = (doc.get("bimodules") or doc["maps"])[-1]
    message = f"pair (from {pair['from']}, to {pair['to']}) is given twice"
    with pytest.raises(io.ParseError, match=rf"^{re.escape(message)}$"):
        load(doc)
    out = tmp_path / "out.json"
    assert main([*command, "--in", write(tmp_path, "in.json", doc), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("old, new, key", [
    ('"indices": 2', '"indices": 5, "indices": 2', "indices"),
    ('"from": 1', '"from": 0, "from": 1', "from"),
])
def test_repeated_json_key_exit_code(tmp_path, capsys, old, new, key):
    """json.load alone keeps the last value of a key given twice in one
    object, at the root or nested: the CLI reads such a file as malformed
    (exit 2 with one parse error line naming the file and the key)."""
    text = json.dumps(json.loads((GOLDEN / "species_gelfand.json").read_text()))
    assert text.count(old) == 1
    path = tmp_path / "species.json"
    path.write_text(text.replace(old, new))
    out = tmp_path / "quiver.json"
    assert main(["species", "to-quiver", "--in", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: {path}: key {key!r} is given twice in one object\n"
    assert not out.exists()


@pytest.mark.parametrize("name, argv, path, value", [
    ("rep_c2_62_d2.json", ["rep", "validate"], ("edges", 0, "entries", 0, 0), 0.5),
    ("rep_c2_62_d2.json", ["rep", "validate"], ("edges", 0, "entries", 0, 0), True),
    ("rep_c2_62_d2.json", ["rep", "validate"], ("edges", 0, "entries", 0, 3), 1.0),
    ("rep_c2_62_d2.json", ["rep", "validate"], ("edges", 0, "rows"), 1.9),
    ("rep_c2_62_d2.json", ["rep", "validate"], ("d", 1), 1.0),
    ("quiver_gelfand.json", ["quiver", "validate"], ("vertices", "size"), 3.0),
    ("species_s3.json", ["species", "to-quiver"], ("bimodules", 0, "from"), 0.5),
    ("species_s3.json", ["species", "to-quiver"], ("bimodules", 0, "to"), "0"),
    ("species_s3.json", ["species", "to-quiver"],
     ("bimodules", 0, "summands", 0, "twist_src"), 0.0),
    ("species_s3.json", ["species", "to-quiver"], ("indices",), 2.0),
    ("rep_c2_62_d2_to_species.json", ["rep", "from-species"], ("maps", 1, "to"), True),
    ("hc_build_principal_ell2.json", ["hc", "validate"], ("window",), 11.9),
    ("hc_build_principal_ell2.json", ["hc", "validate"], ("ell",), 2.0),
    ("hc_build_principal_ell2.json", ["hc", "validate"], ("epsilon",), True),
    ("hc_build_principal_ell2.json", ["hc", "validate"], ("spaces", "1"), 1.5),
    ("unipotent_matrix.json", ["--json", "unipotent", "sqrt"], ("d", 0), -1.5),
])
def test_non_integer_in_file_exit_code(tmp_path, capsys, name, argv, path, value):
    """Every integer a loader reads must be a JSON integer: a float, bool or
    string there is malformed input (exit 2 with one parse error line), not
    a value truncated by int()."""
    doc = json.loads((GOLDEN / name).read_text())
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    argv = [*argv, "--in", write(tmp_path, "in.json", doc)]
    if argv[1] in ("to-quiver", "from-species"):
        argv += ["--out", str(tmp_path / "out.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: expected an integer, got {value!r}\n"


@pytest.mark.parametrize("section, key, new_key, value, message", [
    ("spaces", "1", "1", -1,
     "malformed input to load_hc: ValueError: dimension -1 is not a nonnegative int"),
    ("spaces", "1", " 1", None, "weight key ' 1' is not a canonical integer"),
    ("X", "1", "+1", None, "weight key '+1' is not a canonical integer"),
    ("rational", "-1", "-01", None, "weight key '-01' is not a canonical integer"),
])
def test_hc_file_dimension_and_weight_key_exit_code(tmp_path, capsys, section, key, new_key,
                                                     value, message):
    """A negative space dimension is malformed, not a shape failure, and a
    weight key must be the canonical decimal string of its weight, so " 1"
    cannot pass as 1: hc validate exits 2 with one parse error line."""
    doc = json.loads((GOLDEN / "hc_build_principal_ell2.json").read_text())
    old = doc[section].pop(key)
    doc[section][new_key] = old if value is None else value
    assert main(["hc", "validate", "--in", write(tmp_path, "m.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: {message}\n"


def test_stabilization_file_with_tau_loads():
    """Files written with the old "tau" key still load; the key is ignored."""
    from rquiver.exact import QuadMatrix

    prob = StabilizationProblem(QuadMatrix.identity(2), QuadMatrix.identity(2))
    doc = io.dump_stabilization(prob)
    assert "tau" not in doc
    assert io.load_stabilization({**doc, "tau": 1}) == prob


def test_rep_pipeline_cli(tmp_path):
    # full pipeline: hc build -> to-quiver -> rep to-species
    assert main(["hc", "build", "--kind", "principal", "--ell", "1",
                 "--out", str(tmp_path / "p11.json")]) == 0
    assert main(["hc", "to-quiver", "--in", str(tmp_path / "p11.json"),
                 "--out", str(tmp_path / "rep.json")]) == 0
    assert main(["rep", "to-species", "--in", str(tmp_path / "rep.json"),
                 "--out", str(tmp_path / "w.json")]) == 0
    w = io.load_species_rep(json.loads((tmp_path / "w.json").read_text()))
    assert w.dims == (1, 1)


def test_unipotent_sqrt_cli(tmp_path, capsys):
    from rquiver.exact import QuadMatrix

    doc = io.dump_matrix_file(QuadMatrix.identity(2))
    path = write(tmp_path, "id.json", doc)
    assert main(["--json", "unipotent", "sqrt", "--in", path]) == 0
    out = json.loads(capsys.readouterr().out)
    root = out["payload"]["root"]
    assert root["rows"] == 2
    assert root["entries"][0] == [1, 1, 0, 1]


def test_unipotent_stabilize_cli(tmp_path, capsys):
    from rquiver.exact import QuadMatrix

    n = QuadMatrix.from_rows([[0, 1], [0, 0]])
    prob = StabilizationProblem(QuadMatrix.identity(2) + n, QuadMatrix.identity(2))
    path = write(tmp_path, "p.json", io.dump_stabilization(prob))
    assert main(["--json", "unipotent", "stabilize", "--in", path, "--trace"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["payload"]["iterations"] == 1
    assert [t["defect_exponent"] for t in out["payload"]["trace"]] == [2, 1]


def test_hc_roundtrip_cli(tmp_path):
    rep = functor_E(build_example("discrete", 0)).rep
    path = write(tmp_path, "rep.json", io.dump_rep(rep))
    report = run(["hc", "roundtrip", "--in", path, "--ell", "0"])
    assert report.exit_status == 0
    assert report.payload["path"] == "constructive"


def test_hc_rejected_input_exit_code(tmp_path, capsys):
    """Input that hc rejects exits 2 with one error line, not a traceback."""
    module = build_example("principal", 2)
    gelfand = write(tmp_path, "rep.json", io.dump_rep(functor_E(module).rep))
    good = write(tmp_path, "module.json", io.dump_hc(module))
    doc = io.dump_hc(module)
    doc["X"]["1"]["entries"][0] = [5, 1, 0, 1]
    bad = write(tmp_path, "bad.json", doc)
    out = str(tmp_path / "out.json")
    for argv in (
        ["hc", "from-quiver", "--in", gelfand, "--out", out, "--ell", "-1"],
        ["hc", "from-quiver", "--in", gelfand, "--out", out, "--ell", "0"],
        ["hc", "roundtrip", "--in", gelfand, "--ell", "-1"],
        ["hc", "roundtrip", "--in", gelfand, "--ell", "0"],
        ["hc", "to-quiver", "--in", bad, "--out", out],
        ["hc", "casimir", "--in", good, "--weight", "2"],
        ["hc", "casimir", "--in", good, "--weight", "99"],
        ["hc", "build", "--kind", "finite", "--ell", "0", "--out", out],
        # left-out options
        ["hc", "casimir", "--in", good],
        ["hc", "roundtrip", "--in", gelfand],
        ["hc", "from-quiver", "--in", gelfand, "--out", out],
        ["hc", "build", "--kind", "principal", "--out", out],
        ["hc", "build", "--kind", "principal", "--ell", "1"],
        ["hc", "validate"],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error:"), argv


def test_hc_casimir_names_a_weight_of_the_wrong_parity(capsys):
    """ell = 2 has odd weights and the golden module's window is [-11, 11]:
    weight 4 lies inside it and is named as a weight of the wrong parity, as
    x_at and y_at name it, and weight 13 has the right parity and lies
    outside."""
    from rquiver.hc import OutOfWindow, casimir_matrix

    path = GOLDEN / "hc_ext_ell2_d-1.json"
    module = io.load_hc(json.loads(path.read_text()))
    for weight, message in ((4, "weight 4 has the wrong parity"),
                            (-2, "weight -2 has the wrong parity"),
                            (12, "weight 12 has the wrong parity"),
                            (13, "weight 13 outside the window")):
        with pytest.raises(OutOfWindow, match=f"^{message}$"):
            casimir_matrix(module, weight)
        assert main(["hc", "casimir", "--in", str(path), "--weight", str(weight)]) == 2
        assert capsys.readouterr() == ("", f"usage error: {message}\n")
    assert main(["hc", "casimir", "--in", str(path), "--weight", "3"]) == 0


def test_hc_from_quiver_names_a_negative_ell(capsys):
    """A negative ell is named as such on a rep of either quiver, not as a
    rep of the wrong quiver."""
    for name in ("hc_cyc_rep_d-1.json", "hc_ext_rep_d-1.json"):
        for action in ("from-quiver", "roundtrip"):
            argv = ["hc", action, "--in", str(GOLDEN / name), "--ell", "-1"]
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == \
                ("", "usage error: ell must be a nonnegative integer\n"), argv


def test_hc_from_quiver_names_the_wrong_quiver(capsys):
    """A rep of a quiver that is neither the Gelfand nor the cyclic quiver
    is rejected for its quiver, before (and instead of) the failing
    nilpotency check that the rep would also fail."""
    other = str(GOLDEN / "rep_c2_62_d2.json")
    for argv, err in (
        (["hc", "from-quiver", "--in", other, "--ell", "1"],
         "usage error: ell >= 1 expects a Gelfand-quiver representation\n"),
        (["hc", "roundtrip", "--in", other, "--ell", "2"],
         "usage error: ell >= 1 expects a Gelfand-quiver representation\n"),
        (["hc", "from-quiver", "--in", other, "--ell", "0"],
         "usage error: ell = 0 expects a cyclic-quiver representation\n"),
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err), argv


def test_rep_rejected_input_exit_code(tmp_path, capsys):
    """A left-out option, and a rational structure that breaks the cocycle,
    exit 2 with one usage error line; the boundary check names the cocycle
    and the edge-equivariance it breaks."""
    doc = io.dump_rep(functor_E(build_example("principal", 2)).rep)
    good = write(tmp_path, "rep.json", doc)
    doc["semilinear"][0]["entries"] = [[2, 1, 0, 1]]  # rho_star = 2
    bad = write(tmp_path, "bad.json", doc)
    other = write(tmp_path, "other.json", io.dump_rep(functor_E(build_example("discrete", 2)).rep))
    cocycle = ("usage error: invalid representation: FAIL cocycle "
               "[phi_(cv,c) o phi_(v,c) != id at v=0]; "
               "FAIL edge-equivariance [edge equivariance fails at e=2]\n")
    for argv, err in (
        (["rep", "hom", "--a", good], None),
        (["rep", "base-change", "--in", good, "--out", str(tmp_path / "out.json")], None),
        (["rep", "hom", "--a", bad, "--b", bad], cocycle),
        (["rep", "isomorphic", "--a", bad, "--b", bad], cocycle),
        (["rep", "isomorphic", "--a", bad, "--b", other], cocycle),
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error:"), argv
        assert err is None or captured.err == err


def test_rep_hom_names_a_non_equivariant_structure(tmp_path, capsys):
    """A rational structure that keeps the cocycle but is not edge-equivariant
    (rho = 1, a+ = 1, a- = 2) exits 2 with one usage error line naming the
    failing check."""
    q = gelfand_quiver()
    one, zero = QuadMatrix.identity(1), QuadMatrix.zeros(1, 1)
    good = QuiverRep(q, (1, 1, 1), (one, one, zero, zero), (one, one, one))
    bad = QuiverRep(q, (1, 1, 1), (one, one.scale(2), zero, zero), good.rho)
    a = write(tmp_path, "good.json", io.dump_rep(good))
    b = write(tmp_path, "bad.json", io.dump_rep(bad))
    assert main(["rep", "hom", "--a", a, "--b", b]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("usage error: invalid representation: FAIL edge-equivariance "
                            "[edge equivariance fails at e=0]\n")


@pytest.mark.parametrize("argv", [
    ["rep", "hom", "--a", "{bad}", "--b", "{good}"],
    ["rep", "hom", "--a", "{good}", "--b", "{bad}"],
    ["rep", "isomorphic", "--a", "{bad}", "--b", "{good}"],
    ["rep", "base-change", "--in", "{bad}", "--subgroup", "0", "--out", "{out}"],
    ["rep", "to-species", "--in", "{bad}", "--out", "{out}"],
    ["rep", "isomorphic", "--a", "{good}", "--b", "{bad}"],
], ids=["hom-a", "hom-b", "isomorphic", "base-change", "to-species", "isomorphic-b"])
def test_rep_commands_check_the_rep(tmp_path, capsys, argv):
    """The golden rep with the sqrt(d) part of one edge entry set to -1
    keeps the cocycle but is not edge-equivariant.  Every rep command that
    reaches F, Hom or base change (hom, isomorphic, base-change, to-species)
    exits 2 with one line naming the failing check and writes nothing: the
    library states a valid rep as its precondition and does not check it,
    so hom_space found Hom = 0 there before reaching its own check, and
    base-change wrote the invalid rep."""
    doc = json.loads((GOLDEN / "rep_c2_62_d2.json").read_text())
    doc["edges"][0]["entries"][0][2] = -1
    paths = {"bad": write(tmp_path, "bad.json", doc), "out": str(tmp_path / "out.json"),
             "good": str(GOLDEN / "rep_c2_62_d2.json")}
    assert main([x.format(**paths) for x in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("usage error: invalid representation: FAIL edge-equivariance "
                            "[edge equivariance fails at e=0]\n")
    assert not (tmp_path / "out.json").exists()


def test_hc_construction_bug_propagates(tmp_path, monkeypatch):
    """A failed round-trip witness is a construction bug, not a usage error."""
    import rquiver.hc as hc

    rep = functor_E(build_example("principal", 1)).rep
    path = write(tmp_path, "rep.json", io.dump_rep(rep))
    monkeypatch.setattr(hc, "is_morphism", lambda *args: False)
    with pytest.raises(AssertionError, match="construction bug"):
        main(["hc", "roundtrip", "--in", path, "--ell", "1"])


def test_examples_single(capsys):
    assert main(["examples", "run", "--kind", "discrete", "--ell", "0"]) == 0
    out = capsys.readouterr().out
    assert "M(-) = Q(i) | M(+) = Q(i)" in out
    assert "roundtrip" in out


def test_examples_diagram_finite():
    report = run(["examples", "run", "--kind", "finite", "--ell", "2"])
    diagram = report.payload["diagram [finite ell=2]"]
    assert "M(-) = 0 | M(*) = Q(i) | M(+) = 0" in diagram
    assert report.exit_status == 0


def test_render_diagram_zero_rep():
    from rquiver.exact import QuadMatrix
    from rquiver.reps import QuiverRep

    z = QuadMatrix.zeros(0, 0)
    r = QuiverRep(gelfand_quiver(), (0, 0, 0), (z, z, z, z), (z, z, z))
    text = render_diagram(r)
    assert "M(-) = 0 | M(*) = 0 | M(+) = 0" in text


def test_render_diagram_dual_inclusion():
    rep = functor_E(build_example("principal_dual", 2)).rep
    text = render_diagram(rep)
    # inclusion-direction arrows (a maps) nonzero, b maps zero
    assert "a- : M(-) -> M(*) = [1]" in text
    assert "b+ : M(*) -> M(+) = [0]" in text.splitlines()


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["quiver", "validate", "--in", str(bad)]) == 2


@pytest.mark.parametrize("argv", [
    ["quiver", "validate", "--in", "{tmp}"],
    ["hc", "build", "--kind", "discrete", "--ell", "0", "--out", "{tmp}/missing/o.json"],
])
def test_os_error_is_usage_error(tmp_path, capsys, argv):
    """A directory as input or an output in a missing directory exits 2
    with one usage error line."""
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error:")


def test_non_square_stabilization_pair_exit_code(tmp_path, capsys):
    """q p = 1 for the column (1, 0) and the row (1, 0); the pair is not
    square, so the file is malformed."""
    from rquiver.exact import QuadMatrix

    doc = {"version": 1, "d": [-1, 1],
           "phi_plus": io.dump_matrix(QuadMatrix.from_rows([[1], [0]])),
           "phi_minus": io.dump_matrix(QuadMatrix.from_rows([[1, 0]]))}
    path = write(tmp_path, "pair.json", doc)
    with pytest.raises(io.ParseError, match="square"):
        io.load_stabilization(doc)
    assert main(["unipotent", "stabilize", "--in", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("parse error:")


def test_failing_check_exit_code(tmp_path):
    q = gelfand_quiver()
    from rquiver.quiver import RationalQuiver

    broken = RationalQuiver(q.vertices, q.edges, (1, 1, 0, 0), q.tgt, q.relations)
    path = write(tmp_path, "bad.json", io.dump_quiver(broken))
    assert main(["quiver", "validate", "--in", path]) == 1


@pytest.mark.parametrize("kind, ell", [("principal", 2), ("discrete", 0)])
def test_hc_from_quiver_file_holds_the_core(tmp_path, kind, ell):
    """hc build -> to-quiver -> from-quiver -> validate, and the file written
    by from-quiver stores no tail ladder map: X only at -(ell+1)..ell-1 and Y
    only at -(ell-1)..ell+1."""
    built, rep, back = (tmp_path / n for n in ("m.json", "r.json", "b.json"))
    assert main(["hc", "build", "--kind", kind, "--ell", str(ell), "--out", str(built)]) == 0
    assert main(["hc", "to-quiver", "--in", str(built), "--out", str(rep)]) == 0
    assert main(["hc", "from-quiver", "--in", str(rep), "--ell", str(ell), "--out", str(back)]) == 0
    assert main(["hc", "validate", "--in", str(back)]) == 0
    doc = json.loads(back.read_text())
    assert sorted(map(int, doc["X"])) == list(range(-ell - 1, ell, 2))
    assert sorted(map(int, doc["Y"])) == list(range(1 - ell, ell + 2, 2))


def test_examples_random_cases(capsys):
    assert main(["examples", "run", "--cases", "4", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "random roundtrips" in out and "4/4 constructive" in out


def test_examples_negative_cases_is_a_usage_error(capsys):
    assert main(["examples", "run", "--cases", "-2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --cases must be nonnegative\n"


def test_examples_all_validates_each_fixture_once(monkeypatch):
    """examples run --all takes its "module valid" and "block functor"
    verdicts from the functor_E call that checks both, so each of the 12
    fixtures makes one validate_hc call and three rep checks (the input of
    inverse_E in build_example, E's image in functor_E, and the input of
    inverse_E in roundtrip_hc).  Each rep check is the structure checks and
    one cycle composite, so no validate_rep or is_nilpotent_rep runs: 36
    _validate_structure calls, where there were 36 validate_rep calls before
    the cycle composite; the report re-ran both checks before that, 24 and
    48 calls in all."""
    import rquiver.hc as hc

    calls = {"validate_hc": 0, "validate_rep": 0, "_validate_structure": 0,
             "is_nilpotent_rep": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("validate_rep", "_validate_structure"):
        check = counted(name, getattr(reps, name))
        for module in (hc, reps, cli):
            monkeypatch.setattr(module, name, check)
    monkeypatch.setattr(reps, "is_nilpotent_rep",
                        counted("is_nilpotent_rep", reps.is_nilpotent_rep))
    monkeypatch.setattr(hc, "validate_hc", counted("validate_hc", hc.validate_hc))
    assert run(["examples", "run", "--all"]).exit_status == 0
    assert calls == {"validate_hc": 12, "validate_rep": 0, "_validate_structure": 36,
                     "is_nilpotent_rep": 0}


# --------------------------------------------------------------- malformed input

def test_rep_missing_fields_exit_code(tmp_path, capsys):
    path = write(tmp_path, "rep.json", {"version": 1})
    assert main(["rep", "validate", "--in", path]) == 2
    assert "parse error" in capsys.readouterr().err


def test_matrix_file_without_matrix_exit_code(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"version": 1, "d": [-1, 1]})
    assert main(["unipotent", "sqrt", "--in", path]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    {"rows": 2, "cols": 2, "entries": [[1, 1, 0, 1]] * 3},   # entry count
    {"rows": 1, "cols": 1, "entries": [[1, 0, 0, 1]]},       # zero denominator
    {"rows": 1, "cols": 1, "entries": [[1, 1, 0]]},          # short element
    {"rows": 1, "entries": [[1, 1, 0, 1]]},                  # missing key
    {"rows": -1, "cols": -1, "entries": [[1, 1, 0, 1]]},     # negative dimensions
    {"rows": -2, "cols": 0, "entries": []},                  # negative, no entries
])
def test_load_matrix_rejects(bad):
    from fractions import Fraction

    with pytest.raises(io.ParseError):
        io.load_matrix(bad, Fraction(-1))


junk = st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=2)
json_values = junk | st.lists(st.integers(-3, 3) | junk, max_size=4) | \
    st.dictionaries(st.text(max_size=2), junk, max_size=2)


@st.composite
def matrix_docs(draw):
    """Matrix documents, well formed or damaged in a few places."""
    rows, cols = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    count = draw(st.sampled_from([rows * cols, draw(st.integers(0, 5))]))
    element = st.lists(st.integers(-3, 3), min_size=4, max_size=4) | \
        st.lists(st.integers(-3, 3), max_size=5) | junk
    doc = {"rows": rows, "cols": cols,
           "entries": draw(st.lists(element, min_size=count, max_size=count))}
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2, unique=True)):
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(junk)
    return doc


@settings(max_examples=150, deadline=None)
@given(matrix_docs())
def test_load_matrix_fuzz(doc):
    from fractions import Fraction

    try:
        m = io.load_matrix(doc, Fraction(-1))
    except io.ParseError:
        return
    assert m.rows * m.cols == len(m.entries)


# ------------------------------------------- matrices against the element path

FIELD_TAGS = (Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-5, 3))
SQUARE_TAGS = (Fraction(4), Fraction(1, 9))


def ref_fmt_element(x):
    """The diagram's entry format as it was, from a QuadElement."""
    if x.b == 0:
        return str(x.a)
    if x.a == 0:
        return f"{x.b}i" if x.d == -1 else f"{x.b}r"
    sign = "+" if x.b > 0 else "-"
    unit = "i" if x.d == -1 else "r"
    return f"{x.a}{sign}{abs(x.b)}{unit}"


def ref_fmt_matrix(m):
    if m.rows == 0 or m.cols == 0:
        return "0"
    return "[" + "; ".join(" ".join(ref_fmt_element(x) for x in m.row(r))
                           for r in range(m.rows)) + "]"


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_render_diagram_matches_element_formatter(d, monkeypatch):
    """render_diagram reads its entries off the integer form; the text is
    the one the QuadElement formatter printed, on random Gelfand and cyclic
    reps in random bases, whose entries have every shape (a, bi, a+bi and
    a-bi, fractions, dd != 1 for d = 1/2 and -5/3)."""
    rng = random.Random(41)
    rs = [random_gelfand_rep(rng, max_dim=3, d=d) for _ in range(8)]
    rs += [random_cyclic_rep(rng, max_dim=3, d=d) for _ in range(8)]
    texts = [render_diagram(r) for r in rs]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_fmt_matrix", ref_fmt_matrix)
        assert texts == [render_diagram(r) for r in rs]
    unit = "i" if d == -1 else "r"
    cells = {c for t in texts for c in re.findall(r"[-+0-9/ir]+", t)}
    assert any("/" in c for c in cells)
    for shape in (rf"^-?\d+(/\d+)?{unit}$", rf"^-?\d+(/\d+)?\+\d+(/\d+)?{unit}$",
                  rf"^-?\d+(/\d+)?-\d+(/\d+)?{unit}$"):
        assert any(re.match(shape, c) for c in cells), shape


def ref_dump_matrix(m):
    """dump_matrix as it was, one QuadElement per entry."""
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[x.a.numerator, x.a.denominator, x.b.numerator, x.b.denominator]
                        for x in m.entries]}


def _ref_int(x):
    """The loaders read JSON integers only; int() would truncate 0.5 and true."""
    if type(x) is not int:
        raise io.ParseError(f"expected an integer, got {x!r}")
    return x


def _ref_parse_element(data, d):
    if len(data) != 4:
        raise io.ParseError(f"a field element has 4 integers, got {len(data)}")
    return QuadElement(Fraction(_ref_int(data[0]), _ref_int(data[1])),
                       Fraction(_ref_int(data[2]), _ref_int(data[3])), d)


@io._loader
def ref_load_matrix(data, d):
    """load_matrix as it was, one QuadElement per entry."""
    return QuadMatrix(_ref_int(data["rows"]), _ref_int(data["cols"]),
                      [_ref_parse_element(e, d) for e in data["entries"]], d)


@st.composite
def well_formed_docs(draw):
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    element = st.lists(st.integers(-12, 12), min_size=4, max_size=4)
    return {"rows": rows, "cols": cols,
            "entries": draw(st.lists(element, min_size=rows * cols, max_size=rows * cols))}


def _load_outcome(load, doc, d):
    try:
        m = load(doc, d)
    except io.ParseError:
        return "ParseError"
    return m.rows, m.cols, m.d, m


@settings(max_examples=400, deadline=None)
@given(matrix_docs() | well_formed_docs(), st.sampled_from(FIELD_TAGS + SQUARE_TAGS))
def test_load_matrix_matches_element_reference(doc, d):
    """Negative, zero and unreduced denominators, junk and square tags: the
    integer loader returns the reference's matrix or both raise ParseError."""
    assert _load_outcome(io.load_matrix, doc, d) == _load_outcome(ref_load_matrix, doc, d)


fractions = st.fractions(min_value=-40, max_value=40, max_denominator=30)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_dump_matrix_matches_element_reference(data):
    d = data.draw(st.sampled_from(FIELD_TAGS))
    rows, cols = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    m = QuadMatrix(rows, cols, [QuadElement(data.draw(fractions), data.draw(fractions), d)
                                for _ in range(rows * cols)], d)
    for x in (m, m * m.transpose(), m.conj().scale(QuadElement(Fraction(1, 3), 2, d))):
        assert io.dump_matrix(x) == ref_dump_matrix(x)
        assert io.load_matrix(io.dump_matrix(x), d) == x


def test_negative_matrix_dimensions_are_parse_errors(tmp_path, capsys):
    """A tail Casimir stored as a -1 x -1 matrix with one entry is malformed
    input: hc validate exits 2 with one parse error line."""
    doc = io.dump_hc(build_example("discrete", 0))
    doc["tails"]["plus"] = {"rows": -1, "cols": -1, "entries": [[1, 1, 0, 1]]}
    path = write(tmp_path, "hc.json", doc)
    assert main(["hc", "validate", "--in", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("parse error:")
    assert "nonnegative" in lines[0]


def test_load_matrix_rejects_square_tag_on_empty_matrix():
    with pytest.raises(io.ParseError, match="square"):
        io.load_matrix({"rows": 0, "cols": 0, "entries": []}, Fraction(4))


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_load_rep_fuzz(data):
    doc = io.dump_rep(random_gelfand_rep(random.Random(5), max_dim=2))
    path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(json_values)
    try:
        io.load_rep(doc)
    except io.ParseError:
        pass


# --------------------------------------------------------------- input checks

def test_empty_semilinear_list_exit_code(tmp_path, capsys):
    """A rep file with "semilinear": [] is malformed: rep validate and rep
    to-species exit 2 with one parse error line, not an IndexError."""
    doc = json.loads((GOLDEN / "rep_c2_62_d2.json").read_text())
    doc["semilinear"] = []
    path = write(tmp_path, "rep.json", doc)
    for argv in (["rep", "validate", "--in", path],
                 ["rep", "to-species", "--in", path, "--out", str(tmp_path / "w.json")]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("parse error: malformed input to load_rep: "
                                "ValueError: one semilinear matrix per vertex required\n")


def test_rep_validate_rejects_rho_over_the_trivial_group(tmp_path, capsys):
    """A trivial-group rep file that carries a "semilinear" list is malformed:
    rep validate exits 2 with one parse error line."""
    q = split_loop_quiver(FiniteGroup.cyclic(1))
    z = QuadMatrix.zeros(2, 2)
    doc = io.dump_rep(QuiverRep(q, (2,), (z,)))
    assert main(["rep", "validate", "--in", write(tmp_path, "good.json", doc)]) == 0
    capsys.readouterr()
    doc["semilinear"] = [io.dump_matrix(QuadMatrix.identity(2))]
    assert main(["rep", "validate", "--in", write(tmp_path, "bad.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("parse error: malformed input to load_rep: ValueError: "
                            "a rational structure needs a quadratic group, not |G| = 1\n")


@pytest.mark.parametrize("key, value", [
    ("src", 0.5), ("src", 1.0), ("src", True), ("tgt", 0.5), ("relations", 0.5),
])
def test_non_integer_index_exit_code(tmp_path, capsys, key, value):
    """An index that is not a JSON integer, in src, tgt or a relation path,
    is malformed input for every loader of a quiver: exit 2 with one parse
    error line, not a TypeError."""
    rep = io.dump_rep(random_gelfand_rep(random.Random(5), max_dim=2))
    if key == "relations":
        rep["quiver"]["relations"][0][0][0] = value
    else:
        rep["quiver"][key][0] = value
    quiver = write(tmp_path, "q.json", rep["quiver"])
    rep = write(tmp_path, "rep.json", rep)
    for argv in (["quiver", "validate", "--in", quiver],
                 ["species", "from-quiver", "--in", quiver, "--out", str(tmp_path / "s.json")],
                 ["rep", "validate", "--in", rep]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("parse error: malformed input to load_quiver: ValueError:")
        assert repr(value) in lines[0]


@pytest.mark.parametrize("value", [1.0, 2.0, 0.5, True])
def test_non_integer_dimension_exit_code(tmp_path, capsys, value):
    """A dimension that is not a JSON integer makes rep validate, rep
    to-species, rep hom and rep from-species exit 2 with one parse error
    line, not a TypeError, and not a report on a bool dimension."""
    rep = json.loads((GOLDEN / "rep_c2_62_d2.json").read_text())
    rep["dims"][0] = value
    rep = write(tmp_path, "rep.json", rep)
    wrep = json.loads((GOLDEN / "rep_c2_62_d2_to_species.json").read_text())
    wrep["dims"][0] = value
    wrep = write(tmp_path, "wrep.json", wrep)
    out = str(tmp_path / "out.json")
    for loader, argv in (("load_rep", ["rep", "validate", "--in", rep]),
                         ("load_rep", ["rep", "to-species", "--in", rep, "--out", out]),
                         ("load_rep", ["rep", "hom", "--a", rep, "--b", rep]),
                         ("load_species_rep", ["rep", "from-species", "--in", wrep, "--out", out])):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"parse error: malformed input to {loader}: ValueError: "
                                f"dimension {value!r} is not a nonnegative int\n")


def test_species_commands_check_the_quiver(tmp_path, capsys):
    """species from-quiver and species roundtrip exit 2 naming the failing
    check on a quiver that quiver validate rejects, instead of writing a
    species or raising IsoSearchFailed."""
    q = gelfand_quiver()
    from rquiver.quiver import RationalQuiver

    broken = RationalQuiver(q.vertices, q.edges, (1, 1, 0, 0), q.tgt)
    path = write(tmp_path, "bad.json", io.dump_quiver(broken))
    assert main(["quiver", "validate", "--in", path]) == 1
    capsys.readouterr()
    out = tmp_path / "s.json"
    for argv in (["species", "from-quiver", "--in", path, "--out", str(out)],
                 ["species", "roundtrip", "--in", path]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("usage error: invalid quiver: FAIL equivariance "
                                "[src(g*e) != g*src(e) at g=1, e=0]\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["rep", "to-species", "--in", "{rep}", "--out", "{out}"],
    ["rep", "hom", "--a", "{rep}", "--b", "{rep}"],
    ["rep", "isomorphic", "--a", "{rep}", "--b", "{rep}"],
    ["rep", "base-change", "--in", "{rep}", "--subgroup", "0", "--out", "{out}"],
], ids=["to-species", "hom", "isomorphic", "base-change"])
def test_rep_commands_skip_the_nilpotency_check(tmp_path, capsys, monkeypatch, argv):
    """The rep commands check their input reps without computing the
    nilpotency flag: no is_nilpotent_rep call, where rep validate makes one
    to fill its flags even when nilpotency is not required."""
    calls = []
    nilpotent = reps.is_nilpotent_rep

    def counted(r):
        calls.append(r)
        return nilpotent(r)

    monkeypatch.setattr(reps, "is_nilpotent_rep", counted)
    paths = {"rep": str(GOLDEN / "rep_c2_62_d2.json"), "out": str(tmp_path / "out.json")}
    assert main([x.format(**paths) for x in argv]) == 0
    assert calls == []
    assert main(["rep", "validate", "--allow-non-nilpotent", "--in", paths["rep"]]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_rep_to_species_checks_the_rep(tmp_path, capsys):
    """Every change of one entry of an edge matrix of the golden rep (1 added
    to its rational or to its sqrt(d) part) that rep validate rejects (exit 1;
    37 of the 38) makes rep to-species exit 2 naming the failing check,
    instead of writing a species rep or raising AssertionError."""
    doc = json.loads((GOLDEN / "rep_c2_62_d2.json").read_text())
    out = tmp_path / "w.json"
    rejected = 0
    for m, matrix in enumerate(doc["edges"]):
        for k in range(len(matrix["entries"])):
            for part in (0, 2):
                bad = json.loads(json.dumps(doc))
                entry = bad["edges"][m]["entries"][k]
                entry[part] += entry[part + 1]
                path = write(tmp_path, "bad.json", bad)
                status = main(["rep", "validate", "--allow-non-nilpotent", "--in", path])
                capsys.readouterr()
                if status == 0:
                    continue
                assert status == 1
                rejected += 1
                assert main(["rep", "to-species", "--in", path, "--out", str(out)]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith(
                    "usage error: invalid representation: FAIL edge-equivariance [")
                assert not out.exists()
    assert rejected == 37

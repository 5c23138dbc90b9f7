import random

import pytest

from rquiver.gsets import C2, GSet, Subgroup
from rquiver.quiver import (
    QuiverMorphism,
    RationalQuiver,
    adjunction_backward,
    adjunction_forward,
    base_change,
    gelfand_quiver,
    quiver_homs,
    restrict,
    split_loop_quiver,
    two_loop_quiver,
    validate,
)


from rquiver.randomgen import random_c2_quiver


def test_gelfand_validates():
    rep = validate(gelfand_quiver())
    assert rep.ok
    assert "split" not in rep.flags


def test_equivariance_violation_detected():
    q = gelfand_quiver()
    # redirect edge a- (index 1) to break src(c*a+) = c*src(a+)
    bad = RationalQuiver(q.vertices, q.edges, (1, 1, 0, 0), q.tgt, q.relations)
    rep = validate(bad)
    assert not rep.ok
    assert any(name == "equivariance" for name, _ in rep.failures())


def test_indices_must_be_integers():
    """src, tgt and relation paths hold ints: a float passes a range check
    and a bool is an int to Python, so both are rejected by type."""
    q = gelfand_quiver()
    for bad in (0.5, 1.0, True):
        with pytest.raises(ValueError, match=rf"^src/tgt entry {bad!r} is not a vertex in 0\.\.2$"):
            RationalQuiver(q.vertices, q.edges, (bad,) + q.src[1:], q.tgt, q.relations)
        with pytest.raises(ValueError, match=rf"^src/tgt entry {bad!r} is not a vertex"):
            RationalQuiver(q.vertices, q.edges, q.src, q.tgt[:-1] + (bad,), q.relations)
        with pytest.raises(ValueError, match=rf"names edge {bad!r}, outside 0\.\.3$"):
            RationalQuiver(q.vertices, q.edges, q.src, q.tgt, (((3, bad), (2, 0)),))


def test_split_flag():
    rep = validate(split_loop_quiver())
    assert rep.ok
    assert "split" in rep.flags


def test_base_change_trivial_subgroup_splits():
    q = gelfand_quiver()
    bc = base_change(q, Subgroup.trivial_in(C2))
    rep = validate(bc)
    assert rep.ok and "split" in rep.flags
    assert bc.src == q.src and bc.tgt == q.tgt


def test_base_change_full_subgroup_identity():
    q = gelfand_quiver()
    bc = base_change(q, Subgroup.full(C2))
    assert bc.vertices.action == q.vertices.action
    assert bc == RationalQuiver(bc.vertices, bc.edges, q.src, q.tgt, q.relations)


def test_base_change_transitive():
    q = gelfand_quiver()
    h = Subgroup.trivial_in(C2)
    once = base_change(q, h)
    hgrp, _ = h.as_group()
    again = base_change(once, Subgroup.full(hgrp))
    assert again.src == once.src and again.vertices.size == once.vertices.size


def test_restrict_one_loop_gives_two_loops():
    sub = Subgroup.trivial_in(C2)
    hgrp, _ = sub.as_group()
    q = split_loop_quiver(hgrp)
    r = restrict(q, sub)
    assert validate(r).ok
    expect = two_loop_quiver()
    assert r.vertices.size == 2 and r.edges.size == 2
    assert r.src == expect.src and r.tgt == expect.tgt
    assert len(r.vertices.orbits()) == 1


def test_restrict_two_cycle():
    sub = Subgroup.trivial_in(C2)
    hgrp, _ = sub.as_group()
    verts = GSet.trivial(hgrp, 2)
    edges = GSet.trivial(hgrp, 2)
    q = RationalQuiver(verts, edges, src=(0, 1), tgt=(1, 0))
    r = restrict(q, sub)
    assert validate(r).ok
    assert r.vertices.size == 4 and r.edges.size == 4
    # two swapped 2-cycles: every vertex has one outgoing and one incoming edge
    assert sorted(r.src) == [0, 1, 2, 3] and sorted(r.tgt) == [0, 1, 2, 3]
    # derived oracle: recompute endpoints through the induction of each G-set
    assert len(r.vertices.orbits()) == 2


def test_restrict_full_subgroup_unchanged():
    sub = Subgroup.full(C2)
    hgrp, _ = sub.as_group()
    verts = GSet(hgrp, 2, [[0, 1], [1, 0]])
    edges = GSet(hgrp, 2, [[0, 1], [1, 0]])
    q = RationalQuiver(verts, edges, src=(1, 0), tgt=(0, 1))
    r = restrict(q, sub)
    assert r.vertices.size == 2 and r.edges.size == 2
    assert validate(r).ok


def test_homs_identity_present():
    q = gelfand_quiver()
    homs = quiver_homs(q, q)
    assert QuiverMorphism((0, 1, 2), (0, 1, 2, 3)) in homs


def test_homs_list_the_edge_maps_once(monkeypatch):
    """quiver_homs lists the equivariant edge maps once, not once per vertex
    map: two equivariant_maps calls for the S3 golden quiver against itself,
    which has 4 vertex maps."""
    import json
    from pathlib import Path

    import rquiver.quiver as quiver_mod
    from rquiver.serialize import load_quiver

    q = load_quiver(json.loads(
        (Path(__file__).resolve().parent / "golden" / "quiver_s3.json").read_text()))
    real = quiver_mod.equivariant_maps
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return real(x, y)

    monkeypatch.setattr(quiver_mod, "equivariant_maps", counted)
    homs = quiver_homs(q, q)
    assert len(calls) == 2
    assert len(real(q.vertices, q.vertices)) == 4 and len(homs) == 2


def test_homs_split_loop_to_gelfand_empty():
    # a strict quiver morphism must send the loop to an edge with equal
    # endpoints; the Gelfand quiver has none
    homs = quiver_homs(split_loop_quiver(), gelfand_quiver())
    assert homs == []


def test_relation_preservation_filter():
    # target with relation; map collapsing paths to differing pairs is rejected
    q = gelfand_quiver()
    no_rel = RationalQuiver(q.vertices, q.edges, q.src, q.tgt, ())
    with_rel = quiver_homs(q, q)
    raw = quiver_homs(no_rel, no_rel)
    assert {(\
        m.vertex_map, m.edge_map) for m in with_rel} <= {(m.vertex_map, m.edge_map) for m in raw}


def test_adjunction_bijection_two_loops():
    sub = Subgroup.trivial_in(C2)
    hgrp, _ = sub.as_group()
    q_e = split_loop_quiver(hgrp)
    q_k = gelfand_quiver()
    restricted = restrict(q_e, sub)
    lhs = quiver_homs(restricted, q_k)
    rhs = quiver_homs(q_e, base_change(q_k, sub))
    assert len(lhs) == len(rhs)
    fwd = {adjunction_forward(q_e, sub, q_k, m) for m in lhs}
    assert fwd == set(rhs)
    for m in rhs:
        back = adjunction_backward(q_e, sub, q_k, m)
        assert back in lhs
        assert adjunction_forward(q_e, sub, q_k, back) == m


def test_adjunction_bijection_random():
    rng = random.Random(31)
    sub = Subgroup.trivial_in(C2)
    hgrp, _ = sub.as_group()
    for _ in range(8):
        nv = rng.randint(1, 3)
        ne = rng.randint(1, 3)
        verts = GSet.trivial(hgrp, nv)
        edges = GSet.trivial(hgrp, ne)
        src = [rng.randrange(nv) for _ in range(ne)]
        tgt = [rng.randrange(nv) for _ in range(ne)]
        q_e = RationalQuiver(verts, edges, src, tgt)
        q_k = random_c2_quiver(rng)
        restricted = restrict(q_e, sub)
        lhs = quiver_homs(restricted, q_k)
        rhs = quiver_homs(q_e, base_change(q_k, sub))
        assert len(lhs) == len(rhs)
        assert {adjunction_forward(q_e, sub, q_k, m) for m in lhs} == set(rhs)


def test_random_quivers_validate():
    rng = random.Random(41)
    for _ in range(25):
        assert validate(random_c2_quiver(rng)).ok


@pytest.mark.parametrize("src, tgt, relations, checks, flags", [
    # edge 0 breaks src and tgt at once: src is checked first
    ((1, 1, 0, 0), (1, 0, 1, 2), None,
     (("equivariance", False, "src(g*e) != g*src(e) at g=1, e=0"),
      ("relation-endpoints", False, "non-composable path in relation ((3, 1), (2, 0))"),
      ("relation-stability", True, "")), ()),
    # tgt fails at edge 0 and src at edges 2, 3: the first edge is reported
    ((1, 2, 0, 1), (1, 0, 1, 2), None,
     (("equivariance", False, "tgt(g*e) != g*tgt(e) at g=1, e=0"),
      ("relation-endpoints", False, "relation paths ((3, 1), (2, 0)) have different endpoints"),
      ("relation-stability", True, "")), ()),
    # both relations fail endpoints and stability: the first is reported
    (None, None, (((0, 1), (2, 0)), ((2, 0), (0, 2))),
     (("equivariance", True, ""),
      ("relation-endpoints", False, "non-composable path in relation ((0, 1), (2, 0))"),
      ("relation-stability", False, "g=1 maps relation ((0, 1), (2, 0)) outside the list")),
     ()),
    (None, None, (((2, 0), (0, 2)), ((0, 1), (2, 0))),
     (("equivariance", True, ""),
      ("relation-endpoints", False, "relation paths ((2, 0), (0, 2)) have different endpoints"),
      ("relation-stability", False, "g=1 maps relation ((2, 0), (0, 2)) outside the list")),
     ()),
])
def test_validate_full_report(src, tgt, relations, checks, flags):
    """Names, order, verdicts, witnesses and flags of quiver reports on the
    Gelfand quiver's G-sets with broken src, tgt or relations."""
    q = gelfand_quiver()
    bad = RationalQuiver(q.vertices, q.edges, src or q.src, tgt or q.tgt,
                         q.relations if relations is None else relations)
    report = validate(bad)
    assert (report.checks, report.flags) == (checks, flags)


def test_validate_full_report_split():
    report = validate(split_loop_quiver())
    assert report.checks == (("equivariance", True, ""), ("relation-endpoints", True, ""),
                             ("relation-stability", True, ""))
    assert report.flags == ("split",)

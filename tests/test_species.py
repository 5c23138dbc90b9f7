import random
from dataclasses import replace
from itertools import product

import pytest

from rquiver.gsets import C2, FiniteGroup, GSet, Subgroup, coset_union
from rquiver.quiver import (
    RationalQuiver,
    cyclic_quiver,
    gelfand_quiver,
    quiver_homs,
    split_loop_quiver,
    two_loop_quiver,
    validate,
)
from rquiver.serialize import dump_quiver
from rquiver.species import (
    BimoduleSummand,
    EtaleSpecies,
    _quiver_of_species,
    quiver_conventions,
    quiver_of_species,
    roundtrip_quiver,
    roundtrip_species,
    species_base_change,
    species_of_quiver,
    species_restrict,
)
from rquiver.randomgen import _all_subgroups, random_c2_quiver, random_group_quiver


# --------------------------------------------------------------- fixtures

def test_gelfand_species_shape():
    s = species_of_quiver(gelfand_quiver())
    assert s.n_indices == 2
    # index 0 is the star orbit (field K), index 1 the +- orbit (field L)
    assert s.realized_field(0) == "K"
    assert s.realized_field(1) == "L"
    a = s.summands(1, 0)
    b = s.summands(0, 1)
    assert len(a) == 1 and len(b) == 1
    # each summand's field is L: its subgroup is trivial
    assert a[0].subgroup.order == 1 and b[0].subgroup.order == 1
    # untwisted bimodules
    assert a[0].twist_src == 0 and a[0].twist_tgt == 0
    assert b[0].twist_src == 0 and b[0].twist_tgt == 0


def test_cyclic_species_twisted():
    s = species_of_quiver(cyclic_quiver())
    assert s.n_indices == 1
    assert s.realized_field(0) == "L"
    (summand,) = s.summands(0, 0)
    # one structure embedding is conjugated: twists lie in different cosets
    assert {summand.twist_src, summand.twist_tgt} == {0, 1}


def test_two_loop_species_untwisted():
    s = species_of_quiver(two_loop_quiver())
    assert s.n_indices == 1
    (summand,) = s.summands(0, 0)
    assert summand.twist_src == summand.twist_tgt == 0


def test_gelfand_quiver_of_species_counts():
    s = species_of_quiver(gelfand_quiver())
    q = quiver_of_species(s)
    assert q.vertices.size == 3
    assert q.edges.size == 4
    assert validate(q).ok


def test_split_species_quiver():
    s = species_of_quiver(split_loop_quiver())
    q = quiver_of_species(s)
    assert q.vertices.size == 1 and q.edges.size == 1
    rep = validate(q)
    assert rep.ok and "split" in rep.flags


def test_cyclic_species_quiver_two_cycle():
    s = species_of_quiver(cyclic_quiver())
    q = quiver_of_species(s)
    assert q.vertices.size == 2 and q.edges.size == 2
    assert sorted((q.src[e], q.tgt[e]) for e in range(2)) == [(0, 1), (1, 0)]
    assert len(q.vertices.orbits()) == 1


# --------------------------------------------------------------- round trips

@pytest.mark.parametrize("builder", [gelfand_quiver, cyclic_quiver,
                                     split_loop_quiver, two_loop_quiver])
def test_roundtrip_quiver_fixtures(builder):
    roundtrip_quiver(builder())


def test_roundtrip_quiver_random_c2():
    rng = random.Random(101)
    for _ in range(40):
        q = random_c2_quiver(rng)
        w = roundtrip_quiver(q)
        # independent oracle: search for some iso among all morphisms
        q2 = quiver_of_species(species_of_quiver(q))
        isos = [m for m in quiver_homs(q, q2)
                if len(set(m.vertex_map)) == q2.vertices.size
                and len(set(m.edge_map)) == q2.edges.size]
        assert (w.vertex_bijection, w.edge_bijection) in {
            (m.vertex_map, m.edge_map) for m in isos}


def test_roundtrip_species_fixtures():
    for builder in (gelfand_quiver, cyclic_quiver, split_loop_quiver, two_loop_quiver):
        s = species_of_quiver(builder())
        roundtrip_species(s)


def test_roundtrip_species_rejects_changed_twist(monkeypatch):
    """roundtrip_species compares the recomputed species with the input."""
    import rquiver.species as species_mod
    from rquiver.species import IsoSearchFailed

    s = species_of_quiver(gelfand_quiver())
    assert roundtrip_species(s) == s
    honest = species_mod.species_of_quiver

    def one_twist_off(q):
        out = honest(q)
        key, (first, *rest) = min(out.bimodules.items())
        changed = BimoduleSummand(first.subgroup, first.twist_src, 1 - first.twist_tgt)
        return EtaleSpecies(out.group, out.vertex_subgroups,
                            {**out.bimodules, key: (changed, *rest)})

    monkeypatch.setattr(species_mod, "species_of_quiver", one_twist_off)
    with pytest.raises(IsoSearchFailed):
        roundtrip_species(s)


@pytest.mark.parametrize("key, twists, message", [
    ((-1, 1), (0, 0), "bimodule index -1 is not in 0..1"),
    ((0, 2), (0, 0), "bimodule index 2 is not in 0..1"),
    ((0, 1), (-1, 0), "twist -1 is not in 0..1"),
    ((0, 1), (0, 2), "twist 2 is not in 0..1"),
])
def test_species_rejects_out_of_range_indices_and_twists(key, twists, message):
    """Negative values would alias an index or an element through Python's
    negative indexing, and large ones would index past the tables."""
    subs = [Subgroup.full(C2), Subgroup.trivial_in(C2)]
    summand = BimoduleSummand(Subgroup.trivial_in(C2), *twists)
    with pytest.raises(ValueError) as info:
        EtaleSpecies(C2, subs, {key: [summand]})
    assert str(info.value) == message


def test_species_rejects_a_summand_subgroup_of_another_group():
    """A trivial subgroup of C3 lies in every subgroup of C2 as a set of
    elements, so only its group tells it apart."""
    summand = BimoduleSummand(Subgroup.trivial_in(FiniteGroup.cyclic(3)), 0, 0)
    with pytest.raises(ValueError) as info:
        EtaleSpecies(C2, [Subgroup.full(C2)], {(0, 0): [summand]})
    assert str(info.value) == "summand subgroup of a different group at (0,0)"


def test_roundtrip_random_groups():
    rng = random.Random(202)
    for group in (FiniteGroup.cyclic(3), FiniteGroup.symmetric(3)):
        for _ in range(8):
            q = random_group_quiver(rng, group)
            roundtrip_quiver(q)
            roundtrip_species(species_of_quiver(q))


# --------------------------------------------------------------- base change

def test_gelfand_base_change_splits():
    s = species_of_quiver(gelfand_quiver())
    bc = species_base_change(s, Subgroup.trivial_in(C2))
    assert bc.n_indices == 3
    total = sum(len(v) for v in bc.bimodules.values())
    assert total == 4
    # all fields become the trivial-group field (= full extension as base)
    assert all(h.order == 1 for h in bc.vertex_subgroups)


def test_base_change_full_subgroup_identity():
    s = species_of_quiver(gelfand_quiver())
    bc = species_base_change(s, Subgroup.full(C2))
    assert bc == s


def test_base_change_transitivity():
    s = species_of_quiver(gelfand_quiver())
    h = Subgroup.trivial_in(C2)
    once = species_base_change(s, h)
    hgrp, _ = h.as_group()
    twice = species_base_change(once, Subgroup.full(hgrp))
    assert twice == once


def test_species_restrict_two_loops():
    sub = Subgroup.trivial_in(C2)
    hgrp, _ = sub.as_group()
    s = species_of_quiver(split_loop_quiver(hgrp))
    r = species_restrict(s, sub)
    expected = species_of_quiver(two_loop_quiver())
    assert r == expected


def test_species_restrict_full_identity():
    sub = Subgroup.full(C2)
    hgrp, _ = sub.as_group()
    from rquiver.gsets import GSet
    from rquiver.quiver import RationalQuiver

    verts = GSet(hgrp, 2, [[0, 1], [1, 0]])
    edges = GSet(hgrp, 2, [[0, 1], [1, 0]])
    q = RationalQuiver(verts, edges, src=(1, 0), tgt=(0, 1))
    s = species_of_quiver(q)
    assert species_restrict(s, sub).n_indices == s.n_indices


def test_species_adjunction_counts():
    """Through the anti-equivalence the quiver-side bijection
    Hom(restrict q_E, q_K) = Hom(q_E, base_change q_K) becomes
    Hom(s_K, restrict s_E) = Hom(base_change s_K, s_E); both sides are
    counted as quiver homs of the associated quivers, in the opposite
    direction."""
    def hom_count(s1, s2):
        return len(quiver_homs(quiver_of_species(s2), quiver_of_species(s1)))

    def adjunction_counts(s_sub, s_parent):
        return (hom_count(s_parent, species_restrict(s_sub, sub)),
                hom_count(species_base_change(s_parent, sub), s_sub))

    sub = Subgroup.trivial_in(C2)
    hgrp, _ = sub.as_group()
    s_e = species_of_quiver(split_loop_quiver(hgrp))
    s_k = species_of_quiver(gelfand_quiver())
    lhs, rhs = adjunction_counts(s_e, s_k)
    assert lhs == rhs
    # a second fixture pair: the split 2-cycle downstairs
    q2 = RationalQuiver(GSet.trivial(hgrp, 2), GSet.trivial(hgrp, 2),
                        src=(0, 1), tgt=(1, 0))
    lhs, rhs = adjunction_counts(species_of_quiver(q2), species_of_quiver(cyclic_quiver()))
    assert lhs == rhs


def test_functor_compatibility_restrict():
    # species_of_quiver o restrict == species_restrict o species_of_quiver
    sub = Subgroup.trivial_in(C2)
    hgrp, _ = sub.as_group()
    from rquiver.quiver import restrict as quiver_restrict

    rng = random.Random(77)
    for _ in range(5):
        from rquiver.gsets import GSet
        from rquiver.quiver import RationalQuiver

        nv, ne = rng.randint(1, 3), rng.randint(0, 3)
        q = RationalQuiver(GSet.trivial(hgrp, nv), GSet.trivial(hgrp, ne),
                           [rng.randrange(nv) for _ in range(ne)],
                           [rng.randrange(nv) for _ in range(ne)])
        left = species_of_quiver(quiver_restrict(q, sub))
        right = species_restrict(species_of_quiver(q), sub)
        assert left == right


def test_orbit_counts_match():
    rng = random.Random(303)
    for _ in range(10):
        q = random_c2_quiver(rng)
        s = species_of_quiver(q)
        assert s.n_indices == len(q.vertices.orbits())
        assert sum(len(v) for v in s.bimodules.values()) == len(q.edges.orbits())


# --------------------------------------------------------------- coset spaces

def ref_coset_space(sub):
    """The coset-space G-set as built before gsets.coset_union, kept as the
    reference."""
    g = sub.parent
    cosets = sub.left_cosets()
    index = {c: i for i, c in enumerate(cosets)}
    action = [[index[frozenset(g.mul(a, x) for x in c)] for c in cosets]
              for a in g.elements()]
    return GSet(g, len(cosets), action)


def ref_quiver_of_species(s):
    """quiver_of_species with its two separate coset-action loops, as built
    before gsets.coset_union: (quiver, vertex offsets, vertex cosets, edge
    offsets, edge cosets)."""
    g = s.group
    vertex_offsets = []
    vertex_cosets = []
    total_v = 0
    for h in s.vertex_subgroups:
        cosets = h.left_cosets()
        vertex_offsets.append(total_v)
        vertex_cosets.append(tuple(cosets))
        total_v += len(cosets)
    v_action = []
    for a in g.elements():
        row = []
        for i, cosets in enumerate(vertex_cosets):
            index = {c: k for k, c in enumerate(cosets)}
            for c in cosets:
                row_target = frozenset(g.mul(a, x) for x in c)
                row.append(vertex_offsets[i] + index[row_target])
        v_action.append(row)
    vertices = GSet(g, total_v, v_action)

    edge_offsets = []
    edge_cosets = []
    edge_blocks = []
    total_e = 0
    for (i, j), summands in sorted(s.bimodules.items()):
        for summand in summands:
            cosets = summand.subgroup.left_cosets()
            edge_offsets.append(total_e)
            edge_cosets.append(tuple(cosets))
            edge_blocks.append((i, j, summand))
            total_e += len(cosets)
    e_action = []
    for a in g.elements():
        row = []
        for b, cosets in enumerate(edge_cosets):
            index = {c: k for k, c in enumerate(cosets)}
            for c in cosets:
                row.append(edge_offsets[b] + index[frozenset(g.mul(a, x) for x in c)])
        e_action.append(row)
    edges = GSet(g, total_e, e_action)

    src = [None] * total_e
    tgt = [None] * total_e
    for b, (i, j, summand) in enumerate(edge_blocks):
        vi_cosets = {c: k for k, c in enumerate(vertex_cosets[i])}
        vj_cosets = {c: k for k, c in enumerate(vertex_cosets[j])}
        hi = s.vertex_subgroups[i]
        hj = s.vertex_subgroups[j]
        for k, c in enumerate(edge_cosets[b]):
            t = min(c)
            src_coset = frozenset(g.mul(g.mul(t, summand.twist_src), h) for h in hi.elements)
            tgt_coset = frozenset(g.mul(g.mul(t, summand.twist_tgt), h) for h in hj.elements)
            src[edge_offsets[b] + k] = vertex_offsets[i] + vi_cosets[src_coset]
            tgt[edge_offsets[b] + k] = vertex_offsets[j] + vj_cosets[tgt_coset]
    return (RationalQuiver(vertices, edges, src, tgt), tuple(vertex_offsets),
            tuple(vertex_cosets), tuple(edge_offsets), tuple(edge_cosets))


def assert_matches_reference(s):
    """quiver_of_species's quiver equals the reference, the conventions
    _quiver_of_species reads off its layout are quiver_conventions of that
    quiver, and they are the reference layout: the vertex offsets as
    representatives, the block of summand k at (i, j) at the k-th edge
    representative there, and the minimum of each point's coset as its
    transport."""
    q, conv = _quiver_of_species(s)
    assert conv == quiver_conventions(q)
    ref_q, vertex_offsets, vertex_cosets, edge_offsets, edge_cosets = ref_quiver_of_species(s)
    assert dump_quiver(q) == dump_quiver(ref_q)
    assert conv.vertex_reps == vertex_offsets
    blocks = [(i, j, k) for (i, j), summands in sorted(s.bimodules.items())
              for k in range(len(summands))]
    assert tuple(conv.edge_reps_of(i, j)[k] for i, j, k in blocks) == edge_offsets
    assert conv.vertex_transport == tuple(min(c) for cs in vertex_cosets for c in cs)
    assert conv.edge_transport == tuple(min(c) for cs in edge_cosets for c in cs)


GROUPS = {"C2": C2, "C3": FiniteGroup.cyclic(3), "S3": FiniteGroup.symmetric(3)}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_coset_spaces_match_reference_on_every_subgroup(name):
    group = GROUPS[name]
    subs = _all_subgroups(group)
    for sub in subs:
        assert GSet.coset_space(sub) == ref_coset_space(sub)
    # every subgroup as a vertex field with a loop of its own field, and a
    # trivial-subgroup summand between every ordered pair of indices
    e = group.identity
    bims = {(i, i): [BimoduleSummand(sub, e, e)] for i, sub in enumerate(subs)}
    trivial = Subgroup.trivial_in(group)
    for i in range(len(subs)):
        for j in range(len(subs)):
            bims.setdefault((i, j), []).append(BimoduleSummand(trivial, e, e))
    assert_matches_reference(EtaleSpecies(group, subs, bims))


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_quiver_of_species_conventions_are_its_block_offsets(name):
    """Every subgroup as a vertex field and, between every pair of fields,
    one summand per subgroup and canonical twist pair the fields allow: the
    conventions _quiver_of_species reads off its layout are
    quiver_conventions of its quiver, and they are its coset_union layout,
    with index i at the offset of vertex block i, the k-th edge
    representative at (i, j) at the offset of summand k's block, and the
    minimum of each point's coset as its transport."""
    group = GROUPS[name]
    subs = _all_subgroups(group)
    minima = [[min(c) for c in h.left_cosets()] for h in subs]
    bims = {}
    for (i, hi), (j, hj) in product(enumerate(subs), repeat=2):
        for sub, a, b in product(subs, minima[i], minima[j]):
            if sub.elements <= hi.conjugate(a).elements & hj.conjugate(b).elements:
                bims.setdefault((i, j), []).append(BimoduleSummand(sub, a, b))
    s = EtaleSpecies(group, subs, bims)
    q, conv = _quiver_of_species(s)
    assert conv == quiver_conventions(q)
    assert conv.vertex_reps == coset_union(group, subs)[1]
    assert conv.vertex_transport == tuple(m for ms in minima for m in ms)
    blocks = [(i, j, k, x.subgroup) for (i, j), summands in sorted(bims.items())
              for k, x in enumerate(summands)]
    edge_offsets = coset_union(group, [sub for *_, sub in blocks])[1]
    assert tuple(conv.edge_reps_of(i, j)[k] for i, j, k, _ in blocks) == edge_offsets
    assert conv.edge_transport == tuple(min(c) for *_, sub in blocks for c in sub.left_cosets())
    assert species_of_quiver(q) == s


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_summand_compatibility_is_the_conjugate_formula(name):
    """EtaleSpecies accepts a summand (S, a, b) from H_i to H_j exactly when
    S <= a H_i a^-1 and S <= b H_j b^-1, on every pair of subgroups, every S
    and every twist pair.  Over C2 and C3 every subgroup is normal, so only
    S3 tells a H a^-1 from a^-1 H a."""
    group = GROUPS[name]
    subs = _all_subgroups(group)
    for hi, hj, sub in product(subs, repeat=3):
        for a, b in product(group.elements(), repeat=2):
            want = sub.elements <= hi.conjugate(a).elements & hj.conjugate(b).elements
            try:
                EtaleSpecies(group, [hi, hj], {(0, 1): [BimoduleSummand(sub, a, b)]})
                got = True
            except ValueError:
                got = False
            assert got == want, (sorted(hi.elements), sorted(hj.elements),
                                 sorted(sub.elements), a, b)


def test_quiver_of_species_matches_reference_on_random_species():
    rng = random.Random(404)
    for _ in range(30):
        assert_matches_reference(species_of_quiver(random_c2_quiver(rng)))
    for group in (FiniteGroup.cyclic(3), FiniteGroup.symmetric(3)):
        for _ in range(15):
            assert_matches_reference(species_of_quiver(random_group_quiver(rng, group)))


# ------------------------------------------------ round-trip witness checks

V4 = FiniteGroup([[a ^ b for b in range(4)] for a in range(4)])
V4_01, V4_03 = Subgroup(V4, {0, 1}), Subgroup(V4, {0, 3})


def v4_vertices():
    """The vertex block V4/{0, 1} and no edges."""
    return RationalQuiver(coset_union(V4, [V4_01])[0], GSet.trivial(V4, 0), (), ())


def v4_loops():
    """One vertex with the loop block V4/{0, 1}."""
    return RationalQuiver(GSet.trivial(V4, 1), coset_union(V4, [V4_01])[0], [0, 0], [0, 0])


def v4_points_over_03(field):
    """The vertices or the edges of the quiver as V4/{0, 3}: the minima 0, 2
    of the cosets of {0, 1} lie in different cosets of {0, 3}, so the witness
    is still a bijection, but {0, 1} no longer fixes the first point."""
    def corrupt(q2, conv):
        parts = {"vertices": q2.vertices, "edges": q2.edges,
                 field: coset_union(V4, [V4_03])[0]}
        return RationalQuiver(parts["vertices"], parts["edges"], q2.src, q2.tgt), conv
    return corrupt


def trivial_vertex_action(q2, conv):
    return RationalQuiver(GSet.trivial(q2.group, q2.vertices.size), q2.edges,
                          q2.src, q2.tgt), conv


def one_tgt_moved(q2, conv):
    tgt = list(q2.tgt)
    tgt[0] = (tgt[0] + 1) % q2.vertices.size
    return RationalQuiver(q2.vertices, q2.edges, q2.src, tgt), conv


def vertex_offsets_reversed(q2, conv):
    """The vertex representatives of q2 are its vertex block offsets."""
    return q2, replace(conv, vertex_reps=conv.vertex_reps[::-1])


WITNESS_FAULTS = {
    # name: (quiver, corruption of quiver_of_species and its conventions, message)
    "trivial-vertex-action": (gelfand_quiver, trivial_vertex_action,
                              "round-trip maps are not bijections"),
    "vertex-offsets-reversed": (gelfand_quiver, vertex_offsets_reversed,
                                "round-trip maps are not bijections"),
    "tgt-moved": (gelfand_quiver, one_tgt_moved,
                  "round-trip witness breaks src/tgt at edge"),
    "v4-vertices-moved": (v4_vertices, v4_points_over_03("vertices"),
                          "round-trip witness is not equivariant on vertices"),
    "v4-edges-moved": (v4_loops, v4_points_over_03("edges"),
                       "round-trip witness is not equivariant on edges"),
}


@pytest.mark.parametrize("name", sorted(WITNESS_FAULTS))
def test_roundtrip_witness_rejects_a_corrupted_quiver(name, monkeypatch):
    """Each of the witness's four checks (bijections, src/tgt, equivariance on
    vertices and on edges) rejects, in roundtrip_quiver, a _quiver_of_species
    whose quiver or conventions are corrupted."""
    import rquiver.species as species_mod
    from rquiver.species import IsoSearchFailed

    quiver, corrupt, message = WITNESS_FAULTS[name]
    q = quiver()
    roundtrip_quiver(q)
    honest = species_mod._quiver_of_species
    made = []

    def corrupted(s):
        made.append(corrupt(*honest(s)))
        return made[-1]

    monkeypatch.setattr(species_mod, "_quiver_of_species", corrupted)
    with pytest.raises(IsoSearchFailed, match=message):
        roundtrip_quiver(q)
    assert made

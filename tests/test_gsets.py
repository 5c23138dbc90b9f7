import random
import re
from itertools import product

import pytest

from rquiver.gsets import C2, FiniteGroup, GSet, Subgroup, coset_union, equivariant_maps, induce
from rquiver.randomgen import _all_subgroups


def brute_force_equivariant(x, y):
    """Oracle: scan all |y|^|x| functions for equivariance."""
    out = []
    for images in product(range(y.size), repeat=x.size):
        if all(images[x.apply(g, p)] == y.apply(g, images[p])
               for g in x.group.elements() for p in range(x.size)):
            out.append(images)
    return out


def gelfand_vertices():
    # points: 0 = star (fixed), 1 = plus, 2 = minus (swapped)
    return GSet(C2, 3, [[0, 1, 2], [0, 2, 1]])


def random_gset(rng, group, size):
    while True:
        perms = []
        ok = True
        for _ in group.canonical_generators:
            perms.append(rng.sample(range(size), size))
        try:
            return GSet.from_generator_perms(group, size, perms)
        except ValueError:
            continue


def shuffled_blocks(rng, group, pool):
    """A union of up to three coset spaces G/H, each H drawn from pool, with
    its points relabelled at random."""
    blocks = coset_union(group, [rng.choice(pool) for _ in range(rng.randint(0, 3))])[0]
    shuffle = rng.sample(range(blocks.size), blocks.size)
    action = [[0] * blocks.size for _ in group.elements()]
    for h in group.elements():
        for p in range(blocks.size):
            action[h][shuffle[p]] = shuffle[blocks.apply(h, p)]
    return GSet(group, blocks.size, action)


def ref_induce(x, sub):
    """Balanced product by union-find over all pairs (a, p), with the
    relation (a * emb(h), p) ~ (a, h.p); classes ordered by minimal pair."""
    hgrp, embed = sub.as_group()
    g = sub.parent
    pairs = [(a, p) for a in g.elements() for p in range(x.size)]
    parent = {pr: pr for pr in pairs}

    def find(pr):
        while parent[pr] != pr:
            parent[pr] = parent[parent[pr]]
            pr = parent[pr]
        return pr

    for a in g.elements():
        for p in range(x.size):
            for h in range(hgrp.order):
                ra, rb = find((g.mul(a, embed[h]), p)), find((a, x.apply(h, p)))
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    reps = sorted({find(pr) for pr in pairs})
    index = {r: i for i, r in enumerate(reps)}
    assert len(reps) == (g.order // sub.order) * x.size
    action = [[index[find((g.mul(b, a), p))] for (a, p) in reps] for b in g.elements()]
    unit = [index[find((g.identity, p))] for p in range(x.size)]
    return GSet(g, len(reps), action), unit


def test_induce_matches_union_find():
    """induce from cosets equals the union-find reference: same size and
    action, on every subgroup of C2, C3, C4 and S3 over random H-sets (unions
    of coset spaces with shuffled points); the reference's unit map is the
    identity on points, which is why induce does not return one."""
    rng = random.Random(41)
    cases = 0
    for group in (C2, FiniteGroup.cyclic(3), FiniteGroup.cyclic(4), FiniteGroup.symmetric(3)):
        for sub in _all_subgroups(group):
            hgrp, _ = sub.as_group()
            pool = _all_subgroups(hgrp)
            for _ in range(20):
                x = shuffled_blocks(rng, hgrp, pool)
                ind = induce(x, sub)
                ref, ref_unit = ref_induce(x, sub)
                assert (ind.size, ind.action) == (ref.size, ref.action)
                assert ref_unit == list(range(x.size))
                cases += 1
    assert cases == 260


def ref_orbits(x):
    """GSet.orbits as written before GSet.orbit_table, kept as the reference:
    each point not seen yet starts a new orbit, listed sorted."""
    seen = set()
    out = []
    for p in range(x.size):
        if p in seen:
            continue
        orb = x.orbit_of(p)
        seen |= set(orb)
        out.append(orb)
    return out


V4 = FiniteGroup([[a ^ b for b in range(4)] for a in range(4)])
TABLE_GROUPS = {"C2": C2, "C3": FiniteGroup.cyclic(3), "S3": FiniteGroup.symmetric(3), "V4": V4}


@pytest.mark.parametrize("name", sorted(TABLE_GROUPS))
def test_orbit_table_matches_reference(name):
    """orbit_table against the orbit scan it replaced and against the
    minimum of transporter, on the coset_union of every subgroup, on
    shuffled unions of coset spaces and on random G-sets."""
    group = TABLE_GROUPS[name]
    rng = random.Random(51)
    pool = _all_subgroups(group)
    xs = [coset_union(group, pool)[0]]
    xs += [shuffled_blocks(rng, group, pool) for _ in range(20)]
    xs += [random_gset(rng, group, n) for n in range(5)]
    for x in xs:
        reps, orbit, transport = x.orbit_table()
        ref = ref_orbits(x)
        assert x.orbits() == ref
        assert reps == tuple(o[0] for o in ref)
        assert all(p in ref[orbit[p]] for p in range(x.size))
        assert transport == tuple(x.transporter(reps[orbit[p]], p)[0] for p in range(x.size))


@pytest.mark.parametrize("name", sorted(TABLE_GROUPS))
def test_derived_structures_equal_checked_builds(name, monkeypatch):
    """stabilizer, conjugate, as_group, restrict_to and coset_union never
    enter a checked __init__, and each of their results holds exactly what
    the checked public constructor builds from the same data."""
    group = TABLE_GROUPS[name]
    rng = random.Random(52)
    pool = _all_subgroups(group)
    xs = [coset_union(group, pool)[0]] + [random_gset(rng, group, n) for n in range(5)]

    def refuse(self, *args):
        raise AssertionError(f"{type(self).__name__}.__init__ entered")

    derived = []
    with monkeypatch.context() as patch:
        for cls in (FiniteGroup, Subgroup, GSet):
            patch.setattr(cls, "__init__", refuse)
        for x in xs:
            derived += [x.stabilizer(p) for p in range(x.size)]
            derived += [x.restrict_to(sub) for sub in pool]
        derived += [sub.conjugate(g) for sub in pool for g in group.elements()]
        derived += [sub.as_group()[0] for sub in pool]
        derived += [coset_union(group, pool)[0]] + [coset_union(group, [s])[0] for s in pool]
    checked = {
        FiniteGroup: lambda g: FiniteGroup(g.table),
        Subgroup: lambda s: Subgroup(s.parent, s.elements),
        GSet: lambda x: GSet(FiniteGroup(x.group.table), x.size, x.action),
    }
    assert {type(obj) for obj in derived} == set(checked)
    for obj in derived:
        ref = checked[type(obj)](obj)
        assert type(ref) is type(obj) and vars(ref) == vars(obj)


def test_group_validation():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [0, 1]])
    # a relabelling of S3 that moves the identity away from element 0
    s3 = FiniteGroup.symmetric(3)
    perm = [3, 0, 1, 2, 4, 5]
    inv = [perm.index(k) for k in range(6)]
    table = [[perm[s3.mul(inv[a], inv[b])] for b in range(6)] for a in range(6)]
    with pytest.raises(ValueError, match="element 0 must be the identity"):
        FiniteGroup(table)
    with pytest.raises(ValueError, match="element 0 must be the identity"):
        FiniteGroup([])
    assert s3.order == 6
    assert s3.mul(s3.identity, 4) == 4


@pytest.mark.parametrize("elements, bad", [((-5, 0, 1), -5), ((0, 1, 6), 6)])
def test_subgroup_elements_must_lie_in_the_group(elements, bad):
    """A negative element would alias one of the group through Python's
    negative indexing: (-5, 0, 1) would pass as a subgroup of order 3."""
    with pytest.raises(ValueError, match=rf"^subgroup element {bad} is not in 0\.\.5$"):
        Subgroup(FiniteGroup.symmetric(3), elements)


@pytest.mark.parametrize("value", [True, 1.0])
def test_group_and_subgroup_elements_must_be_ints(value):
    """true would pass as element 1 of a table or a subgroup, and 1.0 would
    fail later with a TypeError; both are rejected up front."""
    s3 = FiniteGroup.symmetric(3)
    table = [list(row) for row in s3.table]
    table[0][1] = value
    with pytest.raises(ValueError, match=rf"^table row \[0, {value!r}, 2, 3, 4, 5\] is not "
                                         rf"a permutation of 0\.\.5$"):
        FiniteGroup(table)
    for elements in ([0, value], [0, 1, value]):
        with pytest.raises(ValueError, match=rf"^subgroup element {value!r} is not in 0\.\.5$"):
            Subgroup(s3, elements)


@pytest.mark.parametrize("row", [[True, False], [True, 0], [1.0, 0]])
def test_gset_points_must_be_ints(row):
    """true would pass as the point 1 of an action row, and 1.0 would fail
    later with a TypeError; both are rejected up front."""
    with pytest.raises(ValueError, match=rf"^action row {re.escape(repr(row))} has a point "
                                         rf"that is not an int$"):
        GSet(C2, 2, [[0, 1], row])


def test_orbits_trivial_and_gelfand():
    t = GSet.trivial(C2, 3)
    assert t.orbits() == [(0,), (1,), (2,)]
    v = gelfand_vertices()
    assert v.orbits() == [(0,), (1, 2)]


def test_regular_action_transitive():
    s3 = FiniteGroup.symmetric(3)
    reg = GSet(s3, 6, [[s3.mul(g, x) for x in range(6)] for g in s3.elements()])
    assert len(reg.orbits()) == 1


def test_stabilizers_gelfand():
    v = gelfand_vertices()
    assert v.stabilizer(0) == Subgroup.full(C2)
    assert v.stabilizer(1) == Subgroup.trivial_in(C2)
    t = GSet.trivial(C2, 2)
    assert t.stabilizer(1) == Subgroup.full(C2)


def test_orbit_stabilizer():
    rng = random.Random(5)
    s3 = FiniteGroup.symmetric(3)
    for group in (C2, FiniteGroup.cyclic(3), s3):
        for _ in range(5):
            x = random_gset(rng, group, 4)
            for p in range(x.size):
                assert len(x.orbit_of(p)) * x.stabilizer(p).order == group.order


def test_induce_trivial_subgroup_point():
    triv = Subgroup.trivial_in(C2)
    hgrp, _ = triv.as_group()
    pt = GSet.trivial(hgrp, 1)
    ind = induce(pt, triv)
    assert ind.size == 2
    assert len(ind.orbits()) == 1


def test_induce_full_subgroup_identity():
    full = Subgroup.full(C2)
    hgrp, embed = full.as_group()
    x = GSet(hgrp, 2, [[0, 1], [1, 0]])
    ind = induce(x, full)
    assert ind.size == 2
    assert ind.action == x.action
    # same orbit structure
    assert [len(o) for o in ind.orbits()] == [2]


def test_induce_coset_enumeration_oracle():
    s3 = FiniteGroup.symmetric(3)
    # pick a transposition: an element of order 2
    t = next(g for g in s3.elements() if g != s3.identity and s3.mul(g, g) == s3.identity)
    sub = Subgroup(s3, {s3.identity, t})
    hgrp, _ = sub.as_group()
    pt = GSet.trivial(hgrp, 1)
    ind = induce(pt, sub)
    cosets = GSet.coset_space(sub)
    assert ind.size == 3
    assert ind.size == cosets.size
    # isomorphic as G-sets: same orbit/stabilizer data and an equivariant bijection
    bijections = [f for f in equivariant_maps(ind, cosets) if len(set(f)) == ind.size]
    assert bijections


def test_equivariant_maps_swap():
    sw = GSet(C2, 2, [[0, 1], [1, 0]])
    maps = equivariant_maps(sw, sw)
    assert set(maps) == {(0, 1), (1, 0)}
    assert set(maps) == set(brute_force_equivariant(sw, sw))
    pt = GSet.trivial(C2, 1)
    assert equivariant_maps(sw, pt) == [(0, 0)]


def test_equivariant_maps_against_brute_force():
    rng = random.Random(9)
    for group in (C2, FiniteGroup.cyclic(3)):
        for _ in range(6):
            x = random_gset(rng, group, 3)
            y = random_gset(rng, group, 3)
            assert set(equivariant_maps(x, y)) == set(brute_force_equivariant(x, y))


def test_equivariant_maps_contain_identity_and_compose():
    rng = random.Random(13)
    x = random_gset(rng, C2, 4)
    maps = equivariant_maps(x, x)
    assert tuple(range(4)) in maps
    for f in maps:
        for g in maps:
            comp = tuple(f[g[p]] for p in range(4))
            assert comp in maps


def test_adjunction_counts():
    rng = random.Random(17)
    s3 = FiniteGroup.symmetric(3)
    cases = 0
    for group, sub_elems in [
        (C2, {0}), (C2, {0, 1}),
        (FiniteGroup.cyclic(4), {0, 2}),
        (s3, {s3.identity, next(g for g in s3.elements()
                                if g != s3.identity and s3.mul(g, g) == s3.identity)}),
    ]:
        sub = Subgroup(group, sub_elems)
        hgrp, _ = sub.as_group()
        for _ in range(4):
            x = random_gset(rng, hgrp, rng.randint(1, 3))
            y = random_gset(rng, group, rng.randint(1, 4))
            ind = induce(x, sub)
            lhs = equivariant_maps(ind, y)
            rhs = equivariant_maps(x, y.restrict_to(sub))
            assert len(lhs) == len(rhs)
            # the bijection is restriction along the unit map, the identity
            # on the points of x, which are the first points of ind
            restricted = {f[:x.size] for f in lhs}
            assert restricted == set(rhs)
            cases += 1
    assert cases >= 12

"""Finite groups by multiplication table and finite G-sets.

Points are dense integer indices.  GSet.orbit_table fixes every orbit
representative (the minimal point) and every transport (the minimal group
element) in rquiver, and coset spaces list cosets sorted by their minimal
element, so every derived structure is deterministic.  Element 0 of every
group is its identity, so it is the minimum of every subgroup H and H is the
first coset of G/H.

The public constructors check every axiom.  A structure derived from valid
ones (a stabilizer, a conjugate, a subgroup as a group, a restricted action,
a union of coset spaces) meets them by construction, so it is built by its
class's private _unchecked constructor, which checks nothing.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product


class FiniteGroup:
    """Group on elements 0..n-1 given by an explicit multiplication table
    whose element 0 is the identity."""

    def __init__(self, table):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        for row in table:  # ints only: no float, and no bool read as 0 or 1
            if any(type(x) is not int for x in row) or sorted(row) != list(range(n)):
                raise ValueError(f"table row {list(row)} is not a permutation of 0..{n - 1}")
        if not n or any(table[0][x] != x or table[x][0] != x for x in range(n)):
            raise ValueError("element 0 must be the identity")
        for a, b, c in product(range(n), repeat=3):
            if table[table[a][b]][c] != table[a][table[b][c]]:
                raise ValueError("table is not associative")
        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if table[a][b] == 0:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise ValueError(f"element {a} has no inverse")
        self.table, self.order, self.identity, self.inverse_table = table, n, 0, tuple(inv)

    @classmethod
    def _unchecked(cls, table: tuple, inverse_table: tuple) -> "FiniteGroup":
        """Group of a table (a tuple of tuples, element 0 the identity) and
        its inverses, derived from a valid group; nothing is checked."""
        g = object.__new__(cls)
        g.table, g.order, g.identity, g.inverse_table = table, len(table), 0, inverse_table
        return g

    @cached_property
    def canonical_generators(self) -> tuple:
        """Greedy generators: each element, in increasing order, that the
        ones before it do not generate; found once per group."""
        gens = []
        span = {self.identity}
        for g in range(self.order):
            if g in span:
                continue
            gens.append(g)
            frontier = set(span) | {g}
            closure = set(span)
            while frontier:
                closure |= frontier
                frontier = {self.mul(a, b) for a in closure for b in closure} - closure
            span = closure
            if len(span) == self.order:
                break
        return tuple(gens)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse_table[a]

    def elements(self):
        return range(self.order)

    def __eq__(self, other):
        return self is other or (isinstance(other, FiniteGroup) and self.table == other.table)

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"

    @staticmethod
    def cyclic(n: int) -> "FiniteGroup":
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        return FiniteGroup(table)

    @staticmethod
    def symmetric(n: int) -> "FiniteGroup":
        from itertools import permutations

        perms = sorted(permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        table = [[index[tuple(p[q[k]] for k in range(n))] for q in perms] for p in perms]
        return FiniteGroup(table)


C2 = FiniteGroup.cyclic(2)


class Subgroup:
    """Subset of a FiniteGroup closed under multiplication and inverse."""

    def __init__(self, parent: FiniteGroup, elements):
        elements = tuple(elements)
        for a in elements:
            if type(a) is not int or not 0 <= a < parent.order:
                raise ValueError(f"subgroup element {a!r} is not in 0..{parent.order - 1}")
        elements = frozenset(elements)
        if parent.identity not in elements:
            raise ValueError("subgroup must contain the identity")
        for a in elements:
            if parent.inv(a) not in elements:
                raise ValueError("subgroup not closed under inverse")
            for b in elements:
                if parent.mul(a, b) not in elements:
                    raise ValueError("subgroup not closed under multiplication")
        self.parent, self.elements = parent, elements

    @classmethod
    def _unchecked(cls, parent: FiniteGroup, elements: frozenset) -> "Subgroup":
        """Subgroup of a set known to be one; nothing is checked."""
        sub = object.__new__(cls)
        sub.parent, sub.elements = parent, elements
        return sub

    @property
    def order(self) -> int:
        return len(self.elements)

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and self.parent == other.parent
                and self.elements == other.elements)

    def __hash__(self):
        return hash((self.parent, self.elements))

    def __repr__(self):
        return f"Subgroup({sorted(self.elements)})"

    def left_cosets(self):
        """Left cosets gH sorted by minimal element; the coset of 1 is first."""
        g = self.parent
        seen = set()
        cosets = []
        for a in g.elements():
            if a in seen:
                continue
            coset = frozenset(g.mul(a, h) for h in self.elements)
            seen |= coset
            cosets.append(coset)
        return sorted(cosets, key=min)

    def conjugate(self, g: int) -> "Subgroup":
        p = self.parent
        return Subgroup._unchecked(p, frozenset(p.mul(p.mul(g, h), p.inv(g))
                                                for h in self.elements))

    def as_group(self):
        """(FiniteGroup on the sorted elements, embedding list into the parent).
        Element 0 of the parent is the least element, so it stays element 0."""
        p, embed = self.parent, sorted(self.elements)
        pos = {g: i for i, g in enumerate(embed)}
        table = tuple(tuple(pos[p.mul(a, b)] for b in embed) for a in embed)
        return FiniteGroup._unchecked(table, tuple(pos[p.inv(a)] for a in embed)), embed

    @staticmethod
    def full(group: FiniteGroup) -> "Subgroup":
        return Subgroup(group, range(group.order))

    @staticmethod
    def trivial_in(group: FiniteGroup) -> "Subgroup":
        return Subgroup(group, {group.identity})


class GSet:
    """Finite set 0..size-1 with a left action of a FiniteGroup."""

    def __init__(self, group: FiniteGroup, size: int, action):
        action = tuple(tuple(row) for row in action)
        if len(action) != group.order:
            raise ValueError("action must have one row per group element")
        for row in action:  # ints only: no float, and no bool read as 0 or 1
            if any(type(x) is not int for x in row):
                raise ValueError(f"action row {list(row)} has a point that is not an int")
            if len(row) != size or sorted(row) != list(range(size)):
                raise ValueError("each group element must act by a permutation")
        e = group.identity
        for x in range(size):
            if action[e][x] != x:
                raise ValueError("identity must act trivially")
        for g in group.elements():
            for h in group.elements():
                gh = group.mul(g, h)
                for x in range(size):
                    if action[g][action[h][x]] != action[gh][x]:
                        raise ValueError("action is not compatible with the group law")
        self.group, self.size, self.action = group, size, action

    @classmethod
    def _unchecked(cls, group: FiniteGroup, size: int, action: tuple) -> "GSet":
        """G-set of an action (a tuple of tuples) known to be one; nothing is
        checked."""
        x = object.__new__(cls)
        x.group, x.size, x.action = group, size, action
        return x

    def apply(self, g: int, x: int) -> int:
        return self.action[g][x]

    def orbit_of(self, x: int) -> tuple:
        return tuple(sorted({self.apply(g, x) for g in self.group.elements()}))

    def orbit_table(self) -> tuple:
        """(reps, orbit, transport), the one rule behind every orbit
        representative and twist in rquiver.

        reps lists the minimal point of each orbit in increasing order,
        orbit[x] is the index in reps of x's orbit, and transport[x] is the
        minimal t with t . reps[orbit[x]] = x.  One pass finds all three:
        the points are taken in increasing order, each one not reached yet
        is the minimal point of a new orbit, and the first t in increasing
        order that reaches a point is its minimal transporter.
        """
        reps = []
        orbit = [None] * self.size
        transport = [None] * self.size
        for x in range(self.size):
            if transport[x] is None:
                for t, row in enumerate(self.action):
                    if transport[row[x]] is None:
                        orbit[row[x]], transport[row[x]] = len(reps), t
                reps.append(x)
        return tuple(reps), tuple(orbit), tuple(transport)

    def orbits(self) -> list:
        reps, orbit, _ = self.orbit_table()
        out = [[] for _ in reps]
        for x, i in enumerate(orbit):
            out[i].append(x)
        return [tuple(o) for o in out]

    def stabilizer(self, p: int) -> Subgroup:
        return Subgroup._unchecked(self.group, frozenset(
            g for g, row in enumerate(self.action) if row[p] == p))

    def transporter(self, x: int, y: int):
        """Sorted list of g with g.x = y (a coset of the stabilizer)."""
        return sorted(g for g in self.group.elements() if self.apply(g, x) == y)

    def restrict_to(self, sub: Subgroup) -> "GSet":
        """Same points, action restricted to the subgroup (as its own group)."""
        if sub.parent != self.group:
            raise ValueError("subgroup of a different group")
        hgrp, embed = sub.as_group()
        return GSet._unchecked(hgrp, self.size, tuple(self.action[g] for g in embed))

    def __eq__(self, other):
        return (isinstance(other, GSet) and self.group == other.group
                and self.size == other.size and self.action == other.action)

    def __hash__(self):
        return hash((self.group, self.size, self.action))

    def __repr__(self):
        return f"GSet(|G|={self.group.order}, size={self.size})"

    @staticmethod
    def trivial(group: FiniteGroup, size: int) -> "GSet":
        return GSet(group, size, [list(range(size))] * group.order)

    @staticmethod
    def from_generator_perms(group: FiniteGroup, size: int, perms) -> "GSet":
        """Action given by one permutation per canonical generator."""
        if len(perms) != len(group.canonical_generators):
            raise ValueError("need one permutation per generator")
        known = {group.identity: tuple(range(size))}
        for g, p in zip(group.canonical_generators, perms):
            known[g] = tuple(p)
        changed = True
        while changed and len(known) < group.order:
            changed = False
            for g in list(known):
                for h in list(known):
                    gh = group.mul(g, h)
                    if gh not in known:
                        known[gh] = tuple(known[g][known[h][x]] for x in range(size))
                        changed = True
        if len(known) < group.order:
            raise ValueError("generators do not generate the group")
        return GSet(group, size, [known[g] for g in group.elements()])

    @staticmethod
    def coset_space(sub: Subgroup) -> "GSet":
        """G acting on the left cosets of the subgroup."""
        return coset_union(sub.parent, [sub])[0]


def coset_union(group: FiniteGroup, subgroups):
    """Disjoint union of the coset spaces G/H, one block per subgroup in order.

    Returns (G-set, offsets): block b holds the cosets of its subgroup sorted
    by minimal element, and coset k of block b is the point offsets[b] + k.
    Coset 0 is H itself (element 0 is the identity and the minimum of H), so
    block b is one orbit whose minimal point is offsets[b], and by
    GSet.orbit_table's rule the transport of the point of tH is min(tH).
    """
    return _coset_blocks(group, subgroups)[:2]


def _coset_blocks(group: FiniteGroup, subgroups):
    """(G-set, offsets, transport) of coset_union, in one pass per block.

    The group elements are visited in increasing order; one not placed yet is
    the least element t of a new coset tH, whose points come from table[t],
    and transport[p] is that t for the point p of tH.  The action sends the
    point of tH to the point of atH, read off table[a][t].
    """
    table = group.table
    offsets = []
    transport = []
    point_of = []    # per point, the element -> point table of its block
    size = 0
    for sub in subgroups:
        if sub.parent != group:
            raise ValueError("subgroup of a different group")
        offsets.append(size)
        point = [None] * group.order
        for t, row in enumerate(table):
            if point[t] is None:
                for h in sub.elements:
                    point[row[h]] = size
                transport.append(t)
                point_of.append(point)
                size += 1
    pairs = list(zip(point_of, transport))
    action = tuple(tuple([point[row[t]] for point, t in pairs]) for row in table)
    return GSet._unchecked(group, size, action), tuple(offsets), tuple(transport)


def orbits(x: GSet) -> list:
    return x.orbits()


def stabilizer(x: GSet, p: int) -> Subgroup:
    return x.stabilizer(p)


def induce(x: GSet, sub: Subgroup) -> GSet:
    """Balanced product G x_H X for the H-set x, H embedded in G via sub.

    Every a in G is r_c h for the minimum r_c of its left coset c and one h
    in H, and (a, p) ~ (r_c, h.p) is the minimal pair of its class, so the
    class is the point c |X| + h.p: classes are ordered by their minimal
    (g, p) pair.  As r_0 = 1, the unit X -> G x_H X, p |-> [(1, p)], is the
    identity on points: p of x is the point p of the induced set.
    """
    hgrp, embed = sub.as_group()
    if x.group != hgrp:
        raise ValueError("x must be a set over the given subgroup")
    g = sub.parent
    position = {h: k for k, h in enumerate(embed)}
    reps = [min(c) for c in sub.left_cosets()]
    split = {g.mul(r, h): (c, position[h]) for c, r in enumerate(reps) for h in embed}
    n = x.size

    def point(a, p):
        c, h = split[a]
        return c * n + x.apply(h, p)

    action = [[point(g.mul(b, r), p) for r in reps for p in range(n)] for b in g.elements()]
    return GSet(g, len(reps) * n, action)


def equivariant_maps(x: GSet, y: GSet) -> list:
    """All G-maps x -> y, each as a tuple of point images.

    A G-map is fixed by its images q of the orbit representatives, with
    f(t . rep) = t . q, and every q fixed by stab(rep) gives one: if
    t . rep = t' . rep then t^-1 t' fixes rep, so it fixes q and
    t . q = t' . q.  So f(x) = transport[x] . q of x's orbit.
    """
    if x.group != y.group:
        raise ValueError("G-sets over different groups")
    reps, orbit, transport = x.orbit_table()
    choices = []
    for rep in reps:
        stab = x.stabilizer(rep)
        choices.append([q for q in range(y.size)
                        if all(y.apply(h, q) == q for h in stab.elements)])
    return [tuple(y.apply(t, picks[i]) for i, t in zip(orbit, transport))
            for picks in product(*choices)]

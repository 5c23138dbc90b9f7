"""Quivers internal to finite G-sets, with relations, morphisms, base change
and restriction."""

from __future__ import annotations

from dataclasses import dataclass

from .gsets import C2, FiniteGroup, GSet, Subgroup, equivariant_maps, induce


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple  # (name, ok, witness) triples
    flags: tuple = ()

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [(n, w) for n, ok, w in self.checks if not ok]


def check(name, witnesses):
    """The (name, ok, witness) triple of one check: it fails with the first
    witness that the iterable of failures yields, and passes if it yields none."""
    for witness in witnesses:
        return name, False, witness
    return name, True, ""


class RationalQuiver:
    """Vertices and edges as G-sets over a common group, with src/tgt maps
    and relations given as pairs of paths (edge sequences in traversal
    order: path (e1, e2) means e1 first, composite phi_e2 o phi_e1)."""

    def __init__(self, vertices: GSet, edges: GSet, src, tgt, relations=()):
        if vertices.group != edges.group:
            raise ValueError("vertices and edges must share one group")
        src = tuple(src)
        tgt = tuple(tgt)
        if len(src) != edges.size or len(tgt) != edges.size:
            raise ValueError("src/tgt must assign a vertex to every edge")
        for v in src + tgt:
            if type(v) is not int or not 0 <= v < vertices.size:
                raise ValueError(f"src/tgt entry {v!r} is not a vertex in 0..{vertices.size - 1}")
        self.group = vertices.group
        self.vertices = vertices
        self.edges = edges
        self.src = src
        self.tgt = tgt
        self.relations = tuple((tuple(p), tuple(q)) for p, q in relations)
        for path in (path for rel in self.relations for path in rel):
            if not path:
                raise ValueError("relation paths must be nonempty")
            for e in path:
                if type(e) is not int or not 0 <= e < edges.size:
                    raise ValueError(f"relation path {list(path)} names edge {e}, "
                                     f"outside 0..{edges.size - 1}")

    def path_endpoints(self, path):
        if not path:
            raise ValueError("paths must be nonempty")
        for a, b in zip(path, path[1:]):
            if self.tgt[a] != self.src[b]:
                return None
        return self.src[path[0]], self.tgt[path[-1]]

    def act_path(self, g: int, path):
        return tuple(self.edges.apply(g, e) for e in path)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, RationalQuiver)
            and self.vertices == other.vertices and self.edges == other.edges
            and self.src == other.src and self.tgt == other.tgt
            and set(map(_rel_key, self.relations)) == set(map(_rel_key, other.relations)))

    def __repr__(self):
        return (f"RationalQuiver(|V|={self.vertices.size}, |E|={self.edges.size}, "
                f"|G|={self.group.order}, relations={len(self.relations)})")


def _rel_key(rel):
    p, q = rel
    return frozenset((tuple(p), tuple(q)))


@dataclass(frozen=True)
class QuiverMorphism:
    vertex_map: tuple
    edge_map: tuple


def validate(q: RationalQuiver) -> ValidationReport:
    keys = {_rel_key(r) for r in q.relations}
    checks = (
        check("equivariance", (
            f"{side}(g*e) != g*{side}(e) at g={g}, e={e}"
            for g in q.group.elements() for e in range(q.edges.size)
            for side, end in (("src", q.src), ("tgt", q.tgt))
            if end[q.edges.apply(g, e)] != q.vertices.apply(g, end[e]))),
        check("relation-endpoints", (
            f"non-composable path in relation {rel}" if None in ends
            else f"relation paths {rel} have different endpoints"
            for rel in q.relations for ends in [[q.path_endpoints(p) for p in rel]]
            if None in ends or ends[0] != ends[1])),
        check("relation-stability", (
            f"g={g} maps relation {rel} outside the list"
            for g in q.group.elements() for rel in q.relations
            if _rel_key([q.act_path(g, p) for p in rel]) not in keys)),
    )
    split = all(s.apply(g, x) == x for s in (q.vertices, q.edges)
                for g in q.group.elements() for x in range(s.size))
    return ValidationReport(checks, ("split",) if split else ())


def base_change(q: RationalQuiver, sub: Subgroup) -> RationalQuiver:
    """Same quiver, Galois action restricted to the subgroup."""
    if sub.parent != q.group:
        raise ValueError("subgroup of a different group")
    return RationalQuiver(q.vertices.restrict_to(sub), q.edges.restrict_to(sub),
                          q.src, q.tgt, q.relations)


def restrict(q: RationalQuiver, sub: Subgroup) -> RationalQuiver:
    """Induce a quiver over the subgroup (as its own group) up to the parent.

    q must live over sub.as_group()[0]; vertices and edges are induced via the
    balanced product and src/tgt componentwise; relations are pushed through
    the unit, which is the identity on points, and closed under the parent
    action.
    """
    hgrp, _ = sub.as_group()
    if q.group != hgrp:
        raise ValueError("quiver is not over the given subgroup")
    g = sub.parent
    verts = induce(q.vertices, sub)
    edges = induce(q.edges, sub)
    # the induced edge class of (a, e) has endpoints the classes of (a, s(e)), (a, t(e))
    src = [None] * edges.size
    tgt = [None] * edges.size
    for e in range(q.edges.size):
        for a in g.elements():
            src[edges.apply(a, e)] = verts.apply(a, q.src[e])
            tgt[edges.apply(a, e)] = verts.apply(a, q.tgt[e])
    relations = []
    seen = set()
    for p, qq in q.relations:
        for a in g.elements():
            img = (tuple(edges.apply(a, e) for e in p), tuple(edges.apply(a, e) for e in qq))
            if _rel_key(img) not in seen:
                seen.add(_rel_key(img))
                relations.append(img)
    return RationalQuiver(verts, edges, src, tgt, relations)


def _morphism_ok(q1, q2, fv, fe):
    for e in range(q1.edges.size):
        if q2.src[fe[e]] != fv[q1.src[e]] or q2.tgt[fe[e]] != fv[q1.tgt[e]]:
            return False
    keys = {_rel_key(r) for r in q2.relations}
    for p, qq in q1.relations:
        ip = tuple(fe[e] for e in p)
        iq = tuple(fe[e] for e in qq)
        if ip == iq:
            continue
        if _rel_key((ip, iq)) not in keys:
            return False
    return True


def quiver_homs(q1: RationalQuiver, q2: RationalQuiver):
    """Exhaustive list of equivariant quiver morphisms q1 -> q2."""
    if q1.group != q2.group:
        raise ValueError("quivers over different groups")
    edge_maps = equivariant_maps(q1.edges, q2.edges)
    return [QuiverMorphism(fv, fe) for fv in equivariant_maps(q1.vertices, q2.vertices)
            for fe in edge_maps if _morphism_ok(q1, q2, fv, fe)]


def adjunction_forward(q_sub: RationalQuiver, sub: Subgroup, q_parent: RationalQuiver,
                       morphism: QuiverMorphism) -> QuiverMorphism:
    """Hom_G(restrict(q_sub), q_parent) -> Hom_H(q_sub, base_change(q_parent)):
    precompose with the unit maps, which are the identity on the points of
    q_sub, the first points of restrict(q_sub)."""
    return QuiverMorphism(morphism.vertex_map[:q_sub.vertices.size],
                          morphism.edge_map[:q_sub.edges.size])


def adjunction_backward(q_sub: RationalQuiver, sub: Subgroup, q_parent: RationalQuiver,
                        morphism: QuiverMorphism) -> QuiverMorphism:
    """Extend an H-morphism equivariantly over the classes [(a, x)]."""
    g = sub.parent
    verts = induce(q_sub.vertices, sub)
    edges = induce(q_sub.edges, sub)
    fv = [None] * verts.size
    fe = [None] * edges.size
    for x in range(q_sub.vertices.size):
        for a in g.elements():
            fv[verts.apply(a, x)] = q_parent.vertices.apply(a, morphism.vertex_map[x])
    for e in range(q_sub.edges.size):
        for a in g.elements():
            fe[edges.apply(a, e)] = q_parent.edges.apply(a, morphism.edge_map[e])
    return QuiverMorphism(tuple(fv), tuple(fe))


# ----------------------------------------------------------------- fixtures

_GELFAND_QUIVER = RationalQuiver(
    GSet(C2, 3, [[0, 1, 2], [0, 2, 1]]), GSet(C2, 4, [[0, 1, 2, 3], [1, 0, 3, 2]]),
    src=(1, 2, 0, 0), tgt=(0, 0, 1, 2),  # a+: + -> *, a-: - -> *, b+: * -> +, b-: * -> -
    relations=(((3, 1), (2, 0)),))  # b- then a-  =  b+ then a+


def gelfand_quiver() -> RationalQuiver:
    """Three vertices (0 = star, 1 = plus, 2 = minus), edges a+ a- b+ b-,
    conjugation swaps the signed data, relation a- b- = a+ b+.  Built once at
    import; every call returns that shared instance, which is never modified."""
    return _GELFAND_QUIVER


GELFAND_STAR, GELFAND_PLUS, GELFAND_MINUS = 0, 1, 2
GELFAND_A_PLUS, GELFAND_A_MINUS, GELFAND_B_PLUS, GELFAND_B_MINUS = 0, 1, 2, 3


_CYCLIC_QUIVER = RationalQuiver(GSet(C2, 2, [[0, 1], [1, 0]]), GSet(C2, 2, [[0, 1], [1, 0]]),
                                src=(1, 0), tgt=(0, 1))


def cyclic_quiver() -> RationalQuiver:
    """Two vertices (0 = plus, 1 = minus), a: - -> +, b: + -> -, conjugation
    swaps vertices and edges; no relations.  Built once at import and shared,
    like gelfand_quiver()."""
    return _CYCLIC_QUIVER


CYCLIC_PLUS, CYCLIC_MINUS = 0, 1
CYCLIC_A, CYCLIC_B = 0, 1


def split_loop_quiver(group: FiniteGroup = C2) -> RationalQuiver:
    vertices = GSet.trivial(group, 1)
    edges = GSet.trivial(group, 1)
    return RationalQuiver(vertices, edges, src=(0,), tgt=(0,))


def two_loop_quiver() -> RationalQuiver:
    """Restriction of the one-loop quiver: two swapped vertices with a loop each."""
    vertices = GSet(C2, 2, [[0, 1], [1, 0]])
    edges = GSet(C2, 2, [[0, 1], [1, 0]])
    return RationalQuiver(vertices, edges, src=(0, 1), tgt=(0, 1))

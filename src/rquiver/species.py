"""Etale species dual to rational quivers, and the anti-equivalence round trips.

A species is stored Galois-dually: each vertex field is the fixed field of a
subgroup H_i (via the Galois correspondence), and each bimodule is a list of
summands (H_eps, twist_src, twist_tgt) where the twists are the group-element
representatives of the cosets recording the two structure embeddings.  The
summand's coset space G/H_eps reproduces the original edge orbit, with
  src(t H_eps) = t . twist_src . H_i,   tgt(t H_eps) = t . twist_tgt . H_j.
Twist representatives are canonical: the minimal element of their coset,
read off GSet.orbit_table as the transport of the edge endpoint; the
record quiver_conventions(q) holds these choices for a quiver q.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gsets import FiniteGroup, Subgroup, coset_union
from .quiver import RationalQuiver, base_change as quiver_base_change, restrict as quiver_restrict


class IsoSearchFailed(RuntimeError):
    """A round-trip witness failed verification; indicates a construction bug."""


@dataclass(frozen=True)
class BimoduleSummand:
    subgroup: Subgroup
    twist_src: int
    twist_tgt: int


class EtaleSpecies:
    """Index set 0..n-1 with vertex subgroups and bimodule summand lists."""

    def __init__(self, group: FiniteGroup, vertex_subgroups, bimodules):
        self.group = group
        self.vertex_subgroups = tuple(vertex_subgroups)
        for h in self.vertex_subgroups:
            if h.parent != group:
                raise ValueError("vertex subgroup of a different group")
        bims = {}
        for (i, j), summands in bimodules.items():
            for x in (i, j):
                if not 0 <= x < self.n_indices:
                    raise ValueError(f"bimodule index {x} is not in 0..{self.n_indices - 1}")
            summands = tuple(summands)
            for s in summands:
                for t in (s.twist_src, s.twist_tgt):
                    if not 0 <= t < group.order:
                        raise ValueError(f"twist {t} is not in 0..{group.order - 1}")
                if s.subgroup.parent != group:
                    raise ValueError(f"summand subgroup of a different group at ({i},{j})")
                hi = self.vertex_subgroups[i]
                hj = self.vertex_subgroups[j]
                if not (s.subgroup.elements <= hi.conjugate(s.twist_src).elements
                        and s.subgroup.elements <= hj.conjugate(s.twist_tgt).elements):
                    raise ValueError(
                        f"summand subgroup not compatible with vertex fields at ({i},{j})")
            if summands:
                bims[(i, j)] = summands
        self.bimodules = bims

    @property
    def n_indices(self) -> int:
        return len(self.vertex_subgroups)

    def summands(self, i: int, j: int):
        return self.bimodules.get((i, j), ())

    def is_quadratic(self) -> bool:
        return self.group.order == 2

    def realized_field(self, i: int) -> str:
        """'K' when the vertex subgroup is the full (quadratic) group, else 'L'."""
        if not self.is_quadratic():
            raise ValueError("realizations only exist in the quadratic case")
        return "K" if self.vertex_subgroups[i].order == 2 else "L"

    def __eq__(self, other):
        return (isinstance(other, EtaleSpecies) and self.group == other.group
                and self.vertex_subgroups == other.vertex_subgroups
                and self.bimodules == other.bimodules)

    def __repr__(self):
        total = sum(len(v) for v in self.bimodules.values())
        return f"EtaleSpecies(indices={self.n_indices}, summands={total})"


@dataclass(frozen=True)
class QuiverConventions:
    """A quiver's orbit representatives and transports, by GSet.orbit_table's
    rule, in the index and summand order of its species: index i is vertex
    orbit i, summand k at (i, j) comes from the edge edge_reps_of(i, j)[k],
    and its twists are the transports of that edge's endpoints."""
    vertex_reps: tuple        # v_i per index
    vertex_orbit_of: tuple    # vertex -> index
    vertex_transport: tuple   # vertex v -> minimal t with t . v_i = v
    edge_reps: tuple          # sorted ((i, j), (e_eps, ...)) pairs, summand order
    edge_transport: tuple     # edge e -> minimal t with t . e_eps = e

    def edge_reps_of(self, i: int, j: int) -> tuple:
        for key, reps in self.edge_reps:
            if key == (i, j):
                return reps
        return ()


def quiver_conventions(q: RationalQuiver) -> QuiverConventions:
    """The one builder of QuiverConventions: q's two orbit tables."""
    vertex_reps, orbit_of, vertex_transport = q.vertices.orbit_table()
    edge_orbit_reps, _, edge_transport = q.edges.orbit_table()
    edge_reps = {}
    for e in edge_orbit_reps:
        edge_reps.setdefault((orbit_of[q.src[e]], orbit_of[q.tgt[e]]), []).append(e)
    return QuiverConventions(vertex_reps, orbit_of, vertex_transport,
                             tuple(sorted((key, tuple(v)) for key, v in edge_reps.items())),
                             edge_transport)


def species_of_quiver(q: RationalQuiver) -> EtaleSpecies:
    """The species dual to a rational quiver.

    Indices are vertex orbits ordered by minimal vertex, fields are the
    stabilizers of the minimal-index representatives, and every edge orbit of
    E_ij, taken by minimal edge e, contributes one summand whose twists are
    the transports of src(e) and tgt(e): the minimal elements of the cosets
    sigma H_i and tau H_j that carry v_i and v_j there.
    """
    return _species(q, quiver_conventions(q))


def _species(q: RationalQuiver, conv: QuiverConventions) -> EtaleSpecies:
    """species_of_quiver(q), read off q's conventions conv."""
    orbit_of, transport = conv.vertex_orbit_of, conv.vertex_transport
    bims = {}
    for e in sorted(e for _, reps in conv.edge_reps for e in reps):
        bims.setdefault((orbit_of[q.src[e]], orbit_of[q.tgt[e]]), []).append(
            BimoduleSummand(q.edges.stabilizer(e), transport[q.src[e]], transport[q.tgt[e]]))
    return EtaleSpecies(q.group, [q.vertices.stabilizer(v) for v in conv.vertex_reps], bims)


def quiver_of_species(s: EtaleSpecies) -> RationalQuiver:
    """The quiver of a species, on unions of the coset spaces G/H_i and
    G/H_eps: edge t H_eps runs from t . twist_src . H_i to t . twist_tgt . H_j.

    Its quiver_conventions are its layout.  By coset_union, vertex block i
    is one orbit whose minimal point is its offset, and the offsets increase
    with i, so orbit i is block i with its offset as representative.  The
    edge blocks follow the summands by sorted (i, j) and then k, and the
    edge at a block's offset (the coset H_eps) runs from twist_src . H_i in
    block i to twist_tgt . H_j in block j; so the k-th edge representative
    at (i, j) is the offset of summand k's block.
    """
    g = s.group
    vertices, vertex_offsets = coset_union(g, s.vertex_subgroups)
    blocks = [(i, j, summand) for (i, j), summands in sorted(s.bimodules.items())
              for summand in summands]
    edges, edge_offsets = coset_union(g, [summand.subgroup for _, _, summand in blocks])
    src = [None] * edges.size
    tgt = [None] * edges.size
    for (i, j, summand), b in zip(blocks, edge_offsets):
        for t in g.elements():
            e = edges.apply(t, b)
            src[e] = vertices.apply(g.mul(t, summand.twist_src), vertex_offsets[i])
            tgt[e] = vertices.apply(g.mul(t, summand.twist_tgt), vertex_offsets[j])
    return RationalQuiver(vertices, edges, src, tgt)


@dataclass(frozen=True)
class QuiverRoundtripWitness:
    vertex_bijection: tuple
    edge_bijection: tuple


def roundtrip_quiver(q: RationalQuiver) -> QuiverRoundtripWitness:
    """Explicit iso q -> q2 = quiver_of_species(species_of_quiver(q)).

    The point t . rep of q, with t its transport in quiver_conventions(q),
    goes to t . rep2 for the matching representative rep2 of q2 (of the
    same index, or of the same summand): v = t . v_i goes to the coset t H_i
    and e = t . e_eps to t H_eps.  The checks below certify it.
    """
    conv = quiver_conventions(q)
    q2 = quiver_of_species(_species(q, conv))
    conv2 = quiver_conventions(q2)
    g = q.group
    fv = [q2.vertices.apply(t, conv2.vertex_reps[i])
          for i, t in zip(conv.vertex_orbit_of, conv.vertex_transport)]

    fe = [None] * q.edges.size
    for (i, j), reps in conv.edge_reps:
        for e_eps, e2 in zip(reps, conv2.edge_reps_of(i, j)):
            for e in q.edges.orbit_of(e_eps):
                fe[e] = q2.edges.apply(conv.edge_transport[e], e2)

    if None in fv or None in fe or len(set(fv)) != q2.vertices.size \
            or len(set(fe)) != q2.edges.size:
        raise IsoSearchFailed("round-trip maps are not bijections")
    for e in range(q.edges.size):
        if q2.src[fe[e]] != fv[q.src[e]] or q2.tgt[fe[e]] != fv[q.tgt[e]]:
            raise IsoSearchFailed(f"round-trip witness breaks src/tgt at edge {e}")
    for a in g.elements():
        for v in range(q.vertices.size):
            if fv[q.vertices.apply(a, v)] != q2.vertices.apply(a, fv[v]):
                raise IsoSearchFailed("round-trip witness is not equivariant on vertices")
        for e in range(q.edges.size):
            if fe[q.edges.apply(a, e)] != q2.edges.apply(a, fe[e]):
                raise IsoSearchFailed("round-trip witness is not equivariant on edges")
    return QuiverRoundtripWitness(tuple(fv), tuple(fe))


def roundtrip_species(s: EtaleSpecies) -> EtaleSpecies:
    """species_of_quiver(quiver_of_species(s)), checked to equal s.

    With minimal-index conventions the recomputed species is literally equal:
    block i of the coset quiver is one orbit whose minimal point is the coset
    of the identity, so the recomputed stabilizer is H_i itself and the twist
    cosets canonicalize to the stored representatives.  Raises
    IsoSearchFailed unless the group, the vertex subgroups and every
    bimodule summand agree.
    """
    s2 = species_of_quiver(quiver_of_species(s))
    if s2 != s:
        raise IsoSearchFailed("species differs from itself after the round trip")
    return s2


def species_base_change(s: EtaleSpecies, sub: Subgroup) -> EtaleSpecies:
    """Base change along the fixed field of the subgroup.

    Computed by transporting through the associated quiver: the vertex-field
    decomposition L_i (x) N = prod L'_j corresponds exactly to the H-orbit
    decomposition of the coset space G/H_i.
    """
    return species_of_quiver(quiver_base_change(quiver_of_species(s), sub))


def species_restrict(s: EtaleSpecies, sub: Subgroup) -> EtaleSpecies:
    """Restriction to the base field, via the associated quiver."""
    return species_of_quiver(quiver_restrict(quiver_of_species(s), sub))

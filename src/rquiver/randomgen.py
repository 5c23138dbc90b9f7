"""Seeded generators of random quivers, species representations and
nilpotent rational representations, used by the property suites, by
``rquiver examples run --cases N`` and by the benchmark's set-ups.

Draw order is part of the contract, so that a seed keeps giving the same
inputs: an entry a + b*sqrt(d) draws a, then b (not drawn when the entry is
rational), each by ``rng.randint(-span, span)``, in row-major order;
triangular and factored matrices draw only their free entries, and a
dimension 0 draws nothing.  ``tests/test_randomgen.py`` holds the
entry-by-entry QuadElement construction as the reference for these draws.
A draw gives the entry's coefficients (a, 1, b, 1), from which
``exact.from_coefficients`` builds the matrix without a field element per
entry.

An invertible draw costs one elimination: ``_invertible`` redraws until
``inverse`` succeeds and returns the matrix with its inverse, and the
generators reuse those inverses to move a representation to a random
basis.  ``change_basis`` inverts each g_v once.
"""

from __future__ import annotations

from .exact import QuadMatrix, from_coefficients, inverse
from .gsets import C2, FiniteGroup, Subgroup, coset_union
from .quiver import (
    CYCLIC_A, CYCLIC_B, GELFAND_A_MINUS, GELFAND_A_PLUS, GELFAND_B_MINUS, GELFAND_B_PLUS,
    GELFAND_MINUS, GELFAND_PLUS, GELFAND_STAR, RationalQuiver, cyclic_quiver, gelfand_quiver,
)
from .reps import QuiverRep, SpeciesRep, summand_domain_cols


# the coefficients (a_num, a_den, b_num, b_den) of the entries 0 and 1
_ZERO, _ONE = (0, 1, 0, 1), (1, 1, 0, 1)


def _draw(rng, span, rational):
    """The coefficients of an entry a + b*sqrt(d) with integers a and b: a
    drawn first, then b unless rational."""
    a = rng.randint(-span, span)
    return a, 1, 0 if rational else rng.randint(-span, span), 1


def random_matrix(rng, rows, cols, rational=False, span=3, d=-1):
    return from_coefficients(rows, cols, [_draw(rng, span, rational)
                                          for _ in range(rows * cols)], d)


def _invertible(rng, n, span=2, rational=False, d=-1):
    """(g, g^-1) for the first random n x n draw that is invertible; a
    singular draw makes ``inverse`` raise and is drawn again."""
    while True:
        m = random_matrix(rng, n, n, rational, span, d)
        try:
            return m, inverse(m)
        except ValueError:
            continue


def random_invertible(rng, n, span=2, rational=False, d=-1):
    return _invertible(rng, n, span, rational, d)[0]


def strictly_upper(rng, n, span=2, rational=False, d=-1):
    return from_coefficients(n, n, [_draw(rng, span, rational) if j > i else _ZERO
                                    for i in range(n) for j in range(n)], d)


def random_unimodular(rng, n, span=2, rational=False, d=-1):
    """Invertible by construction: unit lower times unit upper triangular."""
    def unit(lower):
        return from_coefficients(n, n, [
            _ONE if i == j else _draw(rng, span, rational) if (j < i) == lower else _ZERO
            for i in range(n) for j in range(n)], d)

    return unit(True) * unit(False)


def random_nilpotent(rng, n, span=2, rational=False, d=-1):
    """g N g^-1 for a unimodular g and a strictly upper triangular N."""
    g = random_unimodular(rng, n, span, rational, d)
    return g * strictly_upper(rng, n, span, rational, d) * inverse(g)


def random_c2_quiver(rng, max_v=4, max_e=6):
    """Random quiver over C2: fixed/swapped orbits with equivariant endpoints."""
    while True:
        n_fixed_v = rng.randint(0, max_v // 2)
        n_swap_v = rng.randint(0 if n_fixed_v else 1, max_v // 2)
        vertices = _c2_set(n_fixed_v, n_swap_v)
        edges = _c2_set(rng.randint(0, max_e // 2), rng.randint(0, max_e // 2))
        ends = _equivariant_endpoints(rng, vertices, edges)
        if ends:
            return RationalQuiver(vertices, edges, *ends)


def _c2_set(n_fixed, n_swap):
    """n_fixed fixed points, then n_swap swapped pairs of points."""
    return coset_union(C2, [Subgroup.full(C2)] * n_fixed + [Subgroup.trivial_in(C2)] * n_swap)[0]


def _equivariant_endpoints(rng, verts, edges):
    """Equivariant (src, tgt): per edge orbit, its minimal edge gets a random
    source and target among the vertices its stabilizer fixes, and the rest
    of the orbit follows by the transports of edges.orbit_table.  None when
    some stabilizer fixes no vertex."""
    reps, orbit, transport = edges.orbit_table()
    ends = []
    for e in reps:
        stab = edges.stabilizer(e)
        cand = [v for v in range(verts.size)
                if all(verts.apply(h, v) == v for h in stab.elements)]
        if not cand:
            return None
        ends.append((rng.choice(cand), rng.choice(cand)))
    return ([verts.apply(t, ends[i][0]) for i, t in zip(orbit, transport)],
            [verts.apply(t, ends[i][1]) for i, t in zip(orbit, transport)])


def _all_subgroups(group):
    from itertools import combinations

    found = []
    for r in range(1, group.order + 1):
        if group.order % r:
            continue
        for combo in combinations(range(group.order), r):
            if group.identity not in combo:
                continue
            try:
                found.append(Subgroup(group, combo))
            except ValueError:
                continue
    return found


def random_group_quiver(rng, group: FiniteGroup, max_v=4, max_e=6):
    """Random quiver over an arbitrary finite group, as unions of coset spaces."""
    pool = _all_subgroups(group)
    while True:
        v_blocks = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
        e_blocks = [rng.choice(pool) for _ in range(rng.randint(0, 2))]
        verts = coset_union(group, v_blocks)[0]
        edges = coset_union(group, e_blocks)[0]
        if verts.size > max_v or edges.size > max_e:
            continue
        ends = _equivariant_endpoints(rng, verts, edges)
        if ends:
            return RationalQuiver(verts, edges, *ends)


def random_species_rep(rng, species, max_dim=3, d=-1):
    dims = [rng.randint(0, max_dim) for _ in range(species.n_indices)]
    maps = {}
    for (i, j), summands in species.bimodules.items():
        mats = []
        for summand in summands:
            cols = summand_domain_cols(species, i, j, summand, dims[i])
            rational = species.realized_field(j) == "K"
            mats.append(random_matrix(rng, dims[j], cols, rational, d=d))
        maps[(i, j)] = mats
    return SpeciesRep(species, dims, maps, d)


def change_basis(r: QuiverRep, gs) -> QuiverRep:
    """Transport a representation along invertible per-vertex maps g_v."""
    return _transport(r, gs, [inverse(g) for g in gs])


def _transport(r: QuiverRep, gs, g_invs) -> QuiverRep:
    """change_basis(r, gs) given the inverses g_invs[v] = g_v^-1."""
    q = r.quiver
    edges = [gs[q.tgt[e]] * r.edge_maps[e] * g_invs[q.src[e]]
             for e in range(q.edges.size)]
    rho = None
    if q.group.order == 2:
        rho = [gs[q.vertices.apply(1, v)] * r.rho[v] * g_invs[v].conj()
               for v in range(q.vertices.size)]
    return QuiverRep(q, r.dims, edges, rho, r.d)


def _nilpotent_factorization(rng, ds, dp, span=2, d=-1):
    """Rational P (ds x dp), Q (dp x ds) with P Q strictly upper triangular."""
    r = rng.randint(0, min(ds, dp, max(ds - 1, 0)))
    p_ent = [[_ZERO] * dp for _ in range(ds)]
    q_ent = [[_ZERO] * ds for _ in range(dp)]
    for i in range(r):
        p_ent[i][i] = _ONE
        q_ent[i][i + 1] = (rng.randint(1, span), 1, 0, 1)
    # free extra columns of P keep the factors generic without changing P Q
    for i in range(ds):
        for j in range(r, dp):
            p_ent[i][j] = (rng.randint(-span, span), 1, 0, 1)
    p = from_coefficients(ds, dp, [x for row in p_ent for x in row], d)
    q = from_coefficients(dp, ds, [x for row in q_ent for x in row], d)
    return p, q


def random_gelfand_rep(rng, max_dim=3, d=-1) -> QuiverRep:
    """Random nilpotent rational representation of the Gelfand quiver.

    Built in the standard gauge (entrywise-conjugation rational structure),
    where the relation forces the star cycle composite to be a rational
    nilpotent matrix; the composite is prescribed by a strictly triangular
    factorization and then everything is moved to a random basis.  A
    dimension 0 takes no draw, and products through it are zero matrices.
    """
    q = gelfand_quiver()
    ds = rng.randint(0, max_dim)
    dp = rng.randint(0, max_dim)
    p, qq = _nilpotent_factorization(rng, ds, dp, d=d)
    s, s_inv = _invertible(rng, ds, rational=True, d=d)
    t, t_inv = _invertible(rng, dp, d=d)
    dims = [0] * 3
    dims[GELFAND_STAR] = ds
    dims[GELFAND_PLUS] = dims[GELFAND_MINUS] = dp
    edges = [None] * 4
    edges[GELFAND_A_PLUS] = s * p * t               # M(+) -> M(star)
    edges[GELFAND_A_MINUS] = edges[GELFAND_A_PLUS].conj()
    edges[GELFAND_B_PLUS] = t_inv * qq * s_inv
    edges[GELFAND_B_MINUS] = edges[GELFAND_B_PLUS].conj()
    rho = [QuadMatrix.identity(n, d) for n in dims]
    rep = QuiverRep(q, dims, edges, rho, d)
    gs, g_invs = zip(*(_invertible(rng, n, d=d) for n in dims))
    return _transport(rep, gs, g_invs)


def random_cyclic_rep(rng, max_dim=3, d=-1) -> QuiverRep:
    """Random nilpotent rational representation of the cyclic quiver."""
    q = cyclic_quiver()
    n = rng.randint(0, max_dim)
    p, p_inv = _invertible(rng, n, d=d)
    j = strictly_upper(rng, n, rational=True, d=d)
    edges = [None] * 2
    edges[CYCLIC_A] = p * j * p_inv.conj()          # conj(p)^-1 = conj(p^-1)
    edges[CYCLIC_B] = edges[CYCLIC_A].conj()
    rho = [QuadMatrix.identity(n, d)] * 2
    rep = QuiverRep(q, (n, n), edges, rho, d)
    gs, g_invs = zip(*(_invertible(rng, n, d=d) for _ in range(2)))
    return _transport(rep, gs, g_invs)

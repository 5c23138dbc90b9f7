"""Seeded generators of random quivers, species representations and
nilpotent rational representations, used by the property suites, by
``rquiver examples run --cases N`` and by the benchmark's set-ups.

Draw order is part of the contract, so that a seed keeps giving the same
inputs: an entry a + b*sqrt(d) draws a, then b (not drawn when the entry is
rational), each by ``rng.randint(-span, span)``, in row-major order;
triangular and factored matrices draw only their free entries, and a
dimension 0 draws nothing.  ``tests/test_randomgen.py`` holds the
entry-by-entry QuadElement construction as the reference for these draws.
The matrices are built directly in the integer form of ``exact``: with
d = dn/dd the entry is (a*dd + b*sqrt(D)) / dd, which ``exact._matrix``
puts in lowest terms.

An invertible draw costs one elimination: ``_invertible`` redraws until
``inverse`` succeeds and returns the matrix with its inverse, and the
generators reuse those inverses to move a representation to a random
basis.  ``change_basis`` inverts each g_v once.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import QuadElement, QuadMatrix, _field_tag, _matrix, inverse
from .gsets import C2, FiniteGroup, Subgroup, coset_union
from .quiver import RationalQuiver, cyclic_quiver, gelfand_quiver
from .reps import QuiverRep, SpeciesRep, summand_domain_cols


def random_quad(rng, span=3, d=-1):
    return QuadElement(Fraction(rng.randint(-span, span)),
                       Fraction(rng.randint(-span, span)), d)


def _draw(rng, span, rational):
    """(a, b) for the entry a + b*sqrt(d): a drawn first, then b unless rational."""
    a = rng.randint(-span, span)
    return a, 0 if rational else rng.randint(-span, span)


def _integer_matrix(rows, cols, d, entries):
    """The matrix over Q(sqrt(d)) whose row-major entries are a + b*sqrt(d)
    for the integer pairs (a, b)."""
    d = _field_tag(d)
    dd = d.denominator
    return _matrix(rows, cols, d, d.numerator * dd, [a * dd for a, _ in entries],
                   [b for _, b in entries], dd)


def random_matrix(rng, rows, cols, rational=False, span=3, d=-1):
    return _integer_matrix(rows, cols, d, [_draw(rng, span, rational)
                                           for _ in range(rows * cols)])


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
    return _integer_matrix(n, n, d, [_draw(rng, span, rational) if j > i else (0, 0)
                                     for i in range(n) for j in range(n)])


def random_unimodular(rng, n, span=2, rational=False, d=-1):
    """Invertible by construction: unit lower times unit upper triangular."""
    def unit(lower):
        return _integer_matrix(n, n, d, [
            (1, 0) if i == j else _draw(rng, span, rational) if (j < i) == lower else (0, 0)
            for i in range(n) for j in range(n)])

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
    p_ent = [[(0, 0)] * dp for _ in range(ds)]
    q_ent = [[(0, 0)] * ds for _ in range(dp)]
    for i in range(r):
        p_ent[i][i] = (1, 0)
        q_ent[i][i + 1] = (rng.randint(1, span), 0)
    # free extra columns of P keep the factors generic without changing P Q
    for i in range(ds):
        for j in range(r, dp):
            p_ent[i][j] = (rng.randint(-span, span), 0)
    p = _integer_matrix(ds, dp, d, [x for row in p_ent for x in row])
    q = _integer_matrix(dp, ds, d, [x for row in q_ent for x in row])
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
    b_a = s * p * t                      # M(+) -> M(star)
    b_b = t_inv * qq * s_inv
    edges = [b_a, b_a.conj(), b_b, b_b.conj()]     # a+, a-, b+, b-
    rho = [QuadMatrix.identity(ds, d), QuadMatrix.identity(dp, d),
           QuadMatrix.identity(dp, d)]
    rep = QuiverRep(q, (ds, dp, dp), edges, rho, d)
    gs, g_invs = zip(*(_invertible(rng, n, d=d) for n in (ds, dp, dp)))
    return _transport(rep, gs, g_invs)


def random_cyclic_rep(rng, max_dim=3, d=-1) -> QuiverRep:
    """Random nilpotent rational representation of the cyclic quiver."""
    q = cyclic_quiver()
    n = rng.randint(0, max_dim)
    if n == 0:
        z = QuadMatrix.zeros(0, 0, d)
        return QuiverRep(q, (0, 0), (z, z), (z, z), d)
    p, p_inv = _invertible(rng, n, d=d)
    j = strictly_upper(rng, n, rational=True, d=d)
    b_a = p * j * p_inv.conj()           # conj(p)^-1 = conj(p^-1)
    b_b = b_a.conj()
    rho = [QuadMatrix.identity(n, d), QuadMatrix.identity(n, d)]
    rep = QuiverRep(q, (n, n), (b_a, b_b), rho, d)
    gs, g_invs = zip(*(_invertible(rng, n, d=d) for _ in range(2)))
    return _transport(rep, gs, g_invs)

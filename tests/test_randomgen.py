"""The random generators: same draws and matrices as the QuadElement-based
reference below, and one elimination per invertible draw.

The reference is the entry-by-entry construction the generators replaced
(each entry a QuadElement of two Fractions, invertibility tested by
``rank``, every inverse taken where it is used).  The integer generators
must make the same ``rng`` calls in the same order, so for every seed they
return equal matrices and leave the generator in the same state.
"""

import random
from fractions import Fraction

import pytest

from rquiver import exact, randomgen
from rquiver.exact import QuadElement, QuadMatrix, inverse, rank
from rquiver.gsets import C2
from rquiver.quiver import cyclic_quiver, gelfand_quiver
from rquiver.reps import QuiverRep

FIELD_TAGS = (-1, 2, -3, Fraction(1, 2), Fraction(-5, 3))


# ---------------------------------------------------------------- reference

def ref_random_quad(rng, span=3, d=-1):
    return QuadElement(Fraction(rng.randint(-span, span)),
                       Fraction(rng.randint(-span, span)), d)


def ref_random_matrix(rng, rows, cols, rational=False, span=3, d=-1):
    ent = []
    for _ in range(rows * cols):
        if rational:
            ent.append(QuadElement(Fraction(rng.randint(-span, span)), 0, d))
        else:
            ent.append(ref_random_quad(rng, span, d))
    return QuadMatrix(rows, cols, ent, d)


def ref_random_invertible(rng, n, span=2, rational=False, d=-1):
    while True:
        m = ref_random_matrix(rng, n, n, rational, span, d)
        if rank(m) == n:
            return m


def ref_strictly_upper(rng, n, span=2, rational=False, d=-1):
    zero = QuadElement(0, 0, d)
    ent = []
    for i in range(n):
        for j in range(n):
            if j > i:
                ent.append(QuadElement(Fraction(rng.randint(-span, span)),
                                       0 if rational else Fraction(rng.randint(-span, span)),
                                       d))
            else:
                ent.append(zero)
    return QuadMatrix(n, n, ent, d)


def ref_random_unimodular(rng, n, span=2, rational=False, d=-1):
    def unit(lower):
        ent = []
        for i in range(n):
            for j in range(n):
                if i == j:
                    ent.append(QuadElement(1, 0, d))
                elif (j < i) == lower:
                    ent.append(QuadElement(
                        Fraction(rng.randint(-span, span)),
                        0 if rational else Fraction(rng.randint(-span, span)), d))
                else:
                    ent.append(QuadElement(0, 0, d))
        return QuadMatrix(n, n, ent, d)

    return unit(True) * unit(False)


def ref_random_nilpotent(rng, n, span=2, rational=False, d=-1):
    g = ref_random_unimodular(rng, n, span, rational, d)
    return g * ref_strictly_upper(rng, n, span, rational, d) * inverse(g)


def ref_change_basis(r, gs):
    q = r.quiver
    edges = [gs[q.tgt[e]] * r.edge_maps[e] * inverse(gs[q.src[e]])
             for e in range(q.edges.size)]
    rho = None
    if q.group.order == 2:
        rho = [gs[q.vertices.apply(1, v)] * r.rho[v] * inverse(gs[v]).conj()
               for v in range(q.vertices.size)]
    return QuiverRep(q, r.dims, edges, rho, r.d)


def ref_nilpotent_factorization(rng, ds, dp, span=2, d=-1):
    r = rng.randint(0, min(ds, dp, max(ds - 1, 0)))
    zero = QuadElement(0, 0, d)
    p_ent = [[zero] * dp for _ in range(ds)]
    q_ent = [[zero] * ds for _ in range(dp)]
    for i in range(r):
        p_ent[i][i] = QuadElement(1, 0, d)
        q_ent[i][i + 1] = QuadElement(Fraction(rng.randint(1, span)), 0, d)
    for i in range(ds):
        for j in range(r, dp):
            p_ent[i][j] = QuadElement(Fraction(rng.randint(-span, span)), 0, d)
    p = QuadMatrix(ds, dp, [x for row in p_ent for x in row], d)
    q = QuadMatrix(dp, ds, [x for row in q_ent for x in row], d)
    return p, q


def ref_random_gelfand_rep(rng, max_dim=3, d=-1):
    q = gelfand_quiver()
    ds = rng.randint(0, max_dim)
    dp = rng.randint(0, max_dim)
    p, qq = ref_nilpotent_factorization(rng, ds, dp, d=d)
    s = ref_random_invertible(rng, ds, rational=True, d=d) if ds else QuadMatrix.zeros(0, 0, d)
    t = ref_random_invertible(rng, dp, d=d) if dp else QuadMatrix.zeros(0, 0, d)
    b_a = s * p * t
    b_b = inverse(t) * qq * inverse(s) if dp and ds else QuadMatrix.zeros(dp, ds, d)
    if not (ds and dp):
        b_a = QuadMatrix.zeros(ds, dp, d)
    edges = [b_a, b_a.conj(), b_b, b_b.conj()]
    rho = [QuadMatrix.identity(ds, d), QuadMatrix.identity(dp, d),
           QuadMatrix.identity(dp, d)]
    rep = QuiverRep(q, (ds, dp, dp), edges, rho, d)
    gs = [ref_random_invertible(rng, ds, d=d) if ds else QuadMatrix.zeros(0, 0, d),
          ref_random_invertible(rng, dp, d=d) if dp else QuadMatrix.zeros(0, 0, d),
          ref_random_invertible(rng, dp, d=d) if dp else QuadMatrix.zeros(0, 0, d)]
    return ref_change_basis(rep, gs)


def ref_random_cyclic_rep(rng, max_dim=3, d=-1):
    q = cyclic_quiver()
    n = rng.randint(0, max_dim)
    if n == 0:
        z = QuadMatrix.zeros(0, 0, d)
        return QuiverRep(q, (0, 0), (z, z), (z, z), d)
    p = ref_random_invertible(rng, n, d=d)
    j = ref_strictly_upper(rng, n, rational=True, d=d)
    b_a = p * j * inverse(p.conj())
    rho = [QuadMatrix.identity(n, d), QuadMatrix.identity(n, d)]
    rep = QuiverRep(q, (n, n), (b_a, b_a.conj()), rho, d)
    gs = [ref_random_invertible(rng, n, d=d), ref_random_invertible(rng, n, d=d)]
    return ref_change_basis(rep, gs)


# -------------------------------------------------------------- equivalence

def key(m):
    """Everything that makes two matrices equal, and their field tag."""
    return m.rows, m.cols, m._P, m._Q, m._den, m.d


def rep_key(r):
    return r.dims, [key(m) for m in r.edge_maps], [key(m) for m in r.rho]


def same_draws(make_new, make_ref, seed, as_key=key):
    """Run both generators from one seed; equal outputs and equal states."""
    new_rng, ref_rng = random.Random(seed), random.Random(seed)
    new, ref = make_new(new_rng), make_ref(ref_rng)
    assert as_key(new) == as_key(ref), seed
    assert new_rng.getstate() == ref_rng.getstate(), seed


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_matrices_match_reference(d):
    """Every matrix generator, rational and not, spans 1-3, n = 0-4."""
    seed = 0
    for rational in (False, True):
        for span in (1, 2, 3):
            for n in range(5):
                for cols in (n, n + 1):
                    seed += 1
                    same_draws(lambda r: randomgen.random_matrix(r, n, cols, rational, span, d),
                               lambda r: ref_random_matrix(r, n, cols, rational, span, d), seed)
                seed += 1
                same_draws(lambda r: randomgen.random_invertible(r, n, span, rational, d),
                           lambda r: ref_random_invertible(r, n, span, rational, d), seed)
                seed += 1
                same_draws(lambda r: randomgen.strictly_upper(r, n, span, rational, d),
                           lambda r: ref_strictly_upper(r, n, span, rational, d), seed)
                seed += 1
                same_draws(lambda r: randomgen.random_unimodular(r, n, span, rational, d),
                           lambda r: ref_random_unimodular(r, n, span, rational, d), seed)
                seed += 1
                same_draws(lambda r: randomgen.random_nilpotent(r, n, span, rational, d),
                           lambda r: ref_random_nilpotent(r, n, span, rational, d), seed)
    for ds in range(4):
        for dp in range(4):
            seed += 1
            same_draws(lambda r: randomgen._nilpotent_factorization(r, ds, dp, d=d),
                       lambda r: ref_nilpotent_factorization(r, ds, dp, d=d), seed,
                       as_key=lambda pq: (key(pq[0]), key(pq[1])))


def test_singular_draws_are_redrawn():
    """Span 1 at n = 3 draws singular matrices; both sides skip the same."""
    rejected = 0
    for seed in range(40):
        for rational in (False, True):
            rng = random.Random(seed)
            m = randomgen.random_matrix(rng, 3, 3, rational, 1)
            rejected += rank(m) < 3
            same_draws(lambda r: randomgen.random_invertible(r, 3, 1, rational),
                       lambda r: ref_random_invertible(r, 3, 1, rational), seed)
    assert rejected > 10


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_reps_match_reference(d):
    for seed in range(12):
        for max_dim in (1, 3):
            same_draws(lambda r: randomgen.random_gelfand_rep(r, max_dim, d),
                       lambda r: ref_random_gelfand_rep(r, max_dim, d), seed, rep_key)
            same_draws(lambda r: randomgen.random_cyclic_rep(r, max_dim, d),
                       lambda r: ref_random_cyclic_rep(r, max_dim, d), seed, rep_key)


def test_change_basis_matches_reference():
    rng = random.Random(3)
    for d in FIELD_TAGS:
        r = randomgen.random_gelfand_rep(rng, 3, d)
        gs = [randomgen.random_invertible(rng, n, d=d) for n in r.dims]
        assert rep_key(randomgen.change_basis(r, gs)) == rep_key(ref_change_basis(r, gs))


# ------------------------------------------------------------ eliminations

@pytest.fixture
def counts(monkeypatch):
    """Count eliminations, and the square draws an elimination can test:
    a 0 x 0 or identity draw is inverted without one."""
    seen = {"rref": 0, "draws": 0}
    rref, draw = exact._rref, randomgen.random_matrix

    def counted_rref(m):
        seen["rref"] += 1
        return rref(m)

    def counted_draw(*args, **kwargs):
        m = draw(*args, **kwargs)
        seen["draws"] += m.rows == m.cols and m.rows > 0 and not m.is_identity()
        return m

    monkeypatch.setattr(exact, "_rref", counted_rref)
    monkeypatch.setattr(randomgen, "random_matrix", counted_draw)
    return seen


@pytest.mark.parametrize("make", [randomgen.random_gelfand_rep, randomgen.random_cyclic_rep])
def test_one_elimination_per_invertible_draw(counts, make):
    rng = random.Random(7)
    for d in FIELD_TAGS:
        for _ in range(8):
            make(rng, 3, d)
    assert counts["draws"] > 40
    assert counts["rref"] == counts["draws"]


def test_change_basis_inverts_each_map_once(counts):
    rng = random.Random(11)
    r = randomgen.random_gelfand_rep(rng, 3, -1)
    while min(r.dims) < 2:
        r = randomgen.random_gelfand_rep(rng, 3, -1)
    gs = [randomgen.random_unimodular(rng, n) for n in r.dims]
    assert not any(g.is_identity() for g in gs)
    counts["rref"] = 0
    randomgen.change_basis(r, gs)
    assert counts["rref"] == r.quiver.vertices.size == 3


class DrawLimit:
    """A seeded generator that raises after `limit` draws, so that a
    generator that redraws forever fails instead of hanging."""

    def __init__(self, seed, limit=10_000):
        self.rng, self.left = random.Random(seed), limit

    def __getattr__(self, name):
        draw = getattr(self.rng, name)

        def counted(*args, **kwargs):
            if self.left == 0:
                raise RuntimeError("draw limit reached")
            self.left -= 1
            return draw(*args, **kwargs)

        return counted


def group_quiver(rng, **bound):
    return randomgen.random_group_quiver(rng, C2, **bound)


@pytest.mark.parametrize("make, name, least", [
    (group_quiver, "max_v", 1), (group_quiver, "max_e", 0),
    (randomgen.random_c2_quiver, "max_v", 2), (randomgen.random_c2_quiver, "max_e", 0),
], ids=["group-max_v", "group-max_e", "c2-max_v", "c2-max_e"])
def test_quiver_generators_reject_a_bound_no_quiver_meets(make, name, least):
    """A bound below the least one is a ValueError before any draw (before,
    the group generator redrew forever and the C2 one failed in randrange);
    the least bound itself still draws a quiver."""
    for bad in (least - 1, least - 3):
        rng = DrawLimit(7)
        with pytest.raises(ValueError, match=f"^{name} must be at least {least}, got {bad}$"):
            make(rng, **{name: bad})
        assert rng.left == 10_000
    make(DrawLimit(7), **{name: least})

"""The matrix-level Hom solvers and F/H against their element-wise reference.

The reference below is the QuadElement code that ``descended_kernel`` and the
block-matrix forms of functor_F / functor_H replaced: Hom systems written one
element per unknown, descent through coordinate tuples, and F/H evaluated on
one basis vector at a time.  Both compute the same reduced row echelon forms,
which are unique, so every basis and every F/H output must agree exactly, for
every field tag.
"""

import random
from fractions import Fraction

import pytest

import rquiver.exact as exact
import rquiver.hc as hc
import rquiver.reps as reps
from rquiver.exact import (
    QuadElement,
    QuadMatrix,
    fixed_space,
    inverse,
    kernel_basis,
    rank,
    solve_unique,
)
from rquiver.gsets import C2, GSet, Subgroup
from rquiver.hc import KINDS, build_example, functor_E, hc_hom_space, inverse_E
from rquiver.quiver import RationalQuiver, cyclic_quiver, gelfand_quiver
from rquiver.randomgen import (
    change_basis,
    random_c2_quiver,
    random_cyclic_rep,
    random_gelfand_rep,
    random_invertible,
    random_matrix,
)
from rquiver.reps import (
    HomSpace,
    QuiverRep,
    SpeciesRep,
    functor_F,
    functor_H,
    hf_witness,
    hom_space,
    is_morphism,
    rep_base_change,
    rep_isomorphic,
    species_is_morphism,
    summand_domain_cols,
    validate_rep,
)
from rquiver.serialize import dump_rep
from rquiver.species import (
    BimoduleSummand,
    EtaleSpecies,
    quiver_conventions,
    roundtrip_quiver,
    species_of_quiver,
)

FIELD_TAGS = (Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-5, 3))


# ---------------------------------------------------------------- reference

def basis_matrix(vectors: list, n: int, d=-1) -> QuadMatrix:
    """Columns = the given coordinate vectors (n rows)."""
    return QuadMatrix(n, len(vectors), [v[r] for r in range(n) for v in vectors], d)


def ref_hom_space(m: QuiverRep, n: QuiverRep) -> HomSpace:
    q = m.quiver
    offsets, total = [], 0
    for v in range(q.vertices.size):
        offsets.append(total)
        total += n.dims[v] * m.dims[v]

    def unvec(coords):
        return tuple(QuadMatrix(n.dims[v], m.dims[v],
                                coords[offsets[v]:offsets[v] + n.dims[v] * m.dims[v]], m.d)
                     for v in range(q.vertices.size))

    rows = []
    zero = QuadElement(0, 0, m.d)
    for e in range(q.edges.size):
        s, t = q.src[e], q.tgt[e]
        a, b = m.edge_maps[e], n.edge_maps[e]
        for rr in range(n.dims[t]):
            for cc in range(m.dims[s]):
                row = [zero] * total
                for k in range(m.dims[t]):
                    idx = offsets[t] + rr * m.dims[t] + k
                    row[idx] = row[idx] + a[k, cc]
                for k in range(n.dims[s]):
                    idx = offsets[s] + k * m.dims[s] + cc
                    row[idx] = row[idx] - b[rr, k]
                rows.append(row)
    system = QuadMatrix(len(rows), total, [x for row in rows for x in row], m.d) \
        if rows else QuadMatrix.zeros(0, total, m.d)
    l_basis = [unvec(v) for v in kernel_basis(system)]
    h = len(l_basis)
    if q.group.order == 1:
        return HomSpace(list(l_basis), h, h, list(l_basis))
    if h == 0:
        return HomSpace([], 0, 0, [])
    conjugated = []
    for mats in l_basis:
        out = []
        for v in range(q.vertices.size):
            cv = q.vertices.apply(1, v)
            # n.rho o mats o m.rho^-1; the inverse of v |-> a.conj(v) has matrix conj(a^-1)
            out.append(n.rho[cv] * mats[cv].conj() * inverse(m.rho[cv]))
        conjugated.append(tuple(out))
    vmat = basis_matrix([sum((x.entries for x in mats), ()) for mats in l_basis], total, m.d)
    wmat = basis_matrix([sum((x.entries for x in mats), ()) for mats in conjugated], total, m.d)
    fixed = fixed_space(solve_unique(vmat, wmat))
    k_basis = [unvec(vmat.apply(coords)) for coords in fixed]
    return HomSpace(k_basis, h, len(k_basis), list(l_basis))


def ref_hc_hom_space(m1, m2):
    weights = list(m1.weights())
    offsets, total = {}, 0
    for w in weights:
        offsets[w] = total
        total += m1.dim(w) * m2.dim(w)
    zero = QuadElement(0, 0, m1.d)
    rows = []

    def add_commute(w, a1, a2, shift):
        for r in range(a2.rows):
            for c in range(m1.dim(w)):
                row = [zero] * total
                for k in range(a1.rows):
                    idx = offsets[w + shift] + r * m1.dim(w + shift) + k
                    row[idx] = row[idx] + a1[k, c]
                for k in range(m2.dim(w)):
                    idx = offsets[w] + k * m1.dim(w) + c
                    row[idx] = row[idx] - a2[r, k]
                rows.append(row)

    for w in weights:
        if w + 2 <= m1.window:
            add_commute(w, m1.x_at(w), m2.x_at(w), 2)
        if w - 2 >= -m1.window:
            add_commute(w, m1.y_at(w), m2.y_at(w), -2)
    system = QuadMatrix(len(rows), total, [x for row in rows for x in row], m1.d) \
        if rows else QuadMatrix.zeros(0, total, m1.d)
    sols = kernel_basis(system)
    if not sols:
        return 0, 0, []

    def unvec(vec):
        return {w: QuadMatrix(m2.dim(w), m1.dim(w),
                              vec[offsets[w]:offsets[w] + m2.dim(w) * m1.dim(w)], m1.d)
                for w in weights}

    def conj_act(psi):
        # rat_2 o psi o rat_1, each rat conjugate-semilinear
        return {w: m2.rat[-w] * psi[-w].conj() * m1.rat[w].conj() for w in weights}

    def flat(p):
        return sum((p[w].entries for w in weights), ())

    base = [unvec(v) for v in sols]
    vmat = basis_matrix([flat(p) for p in base], total, m1.d)
    wmat = basis_matrix([flat(conj_act(p)) for p in base], total, m1.d)
    fixed = fixed_space(solve_unique(vmat, wmat))
    k_basis = [unvec(vmat.apply(x)) for x in fixed]
    return len(k_basis), len(sols), k_basis


def kappa(v, d):
    return tuple([QuadElement(x.a, 0, d) for x in v] + [QuadElement(x.b, 0, d) for x in v])


def ref_domain_basis(r, s, i, j, summand, u_i):
    case = reps._summand_case(s, i, j, summand)
    one, rt = QuadElement(1, 0, r.d), QuadElement(0, 1, r.d)
    cols = [u_i.col(k) for k in range(u_i.cols)]
    if case == (2, 1, 2):
        return [(w, one) for w in cols] + [(w, rt) for w in cols]
    if case == (1, 1, 2):
        return [(w, one) for w in cols] + [(tuple(rt * x for x in w), one) for w in cols]
    return [(w, one) for w in cols]


def ref_w_basis(r, s, conv):
    u = []
    for i, h in enumerate(s.vertex_subgroups):
        v_i = conv.vertex_reps[i]
        u.append(basis_matrix(fixed_space(r.rho[v_i]), r.dims[v_i], r.d)
                 if h.order == 2 else QuadMatrix.identity(r.dims[v_i], r.d))
    return u


def semilinear(r: QuiverRep, v: int, g: int) -> tuple:
    """phi_{v,g} of r as (matrix, sigma), the map v |-> matrix . conj^sigma(v):
    the identity for g = 1, else c o rho[v]."""
    if g == r.quiver.group.identity:
        return QuadMatrix.identity(r.dims[v], r.d), 0
    return r.rho[v], 1


def ref_functor_F(r: QuiverRep) -> SpeciesRep:
    def compose(p2, p1):
        """p2 o p1 for (matrix, sigma) pairs: m2 . conj^sigma2(m1), sigmas xored."""
        return p2[0] * (p1[0].conj() if p2[1] else p1[0]), p2[1] ^ p1[1]

    q = r.quiver
    g = q.group
    s, conv = species_of_quiver(q), quiver_conventions(q)
    u = ref_w_basis(r, s, conv)
    u_inv = [inverse(m) if m.rows else m for m in u]
    dims = [m.cols for m in u]
    maps = {}
    for (i, j), summands in sorted(s.bimodules.items()):
        mats = []
        for summand, e_eps in zip(summands, conv.edge_reps_of(i, j)):
            composites = []
            for eta in reps._eta_reps(s, i, j, summand):
                first = semilinear(r, conv.vertex_reps[i], summand.twist_src)
                edge = r.edge_maps[e_eps], 0
                gtail = g.mul(eta, g.inv(summand.twist_tgt))
                last = semilinear(r, q.tgt[e_eps], gtail)
                composites.append((compose(compose(last, edge), first), gtail))
            cols = []
            for w, x in ref_domain_basis(r, s, i, j, summand, u[i]):
                val = None
                for (cm, sigma), gtail in composites:
                    scal = x.conj() if gtail == 1 else x
                    term = tuple(scal * y for y in cm.apply([z.conj() for z in w] if sigma else w))
                    val = term if val is None else tuple(p + t for p, t in zip(val, term))
                cols.append(u_inv[j].apply(val))
            mats.append(basis_matrix(cols, dims[j], r.d))
        maps[(i, j)] = tuple(mats)
    return SpeciesRep(s, dims, maps, r.d)


def ref_summand_core(w, i, j, summand, fmat):
    s, d = w.species, w.d
    if len(reps._eta_reps(s, i, j, summand)) == 1:
        return fmat
    g = s.group
    p = g.mul(g.inv(summand.twist_tgt), summand.twist_src)
    rt = QuadElement(0, 1, d)
    half = QuadElement(Fraction(1, 2), 0, d)
    cols = []
    for k in range(w.dims[i]):
        e_k = [QuadElement(1 if t == k else 0, 0, d) for t in range(w.dims[i])]
        m1 = tuple(x.conj() for x in e_k) if p == 1 else tuple(e_k)
        v1 = fmat.apply(kappa(m1, d))
        scaled = tuple(x * rt.inv() for x in e_k)
        m2 = tuple(x.conj() for x in scaled) if p == 1 else scaled
        v2 = fmat.apply(kappa(m2, d))
        cols.append(tuple(half * (a + rt * b) for a, b in zip(v1, v2)))
    return basis_matrix(cols, w.dims[j], d)


def ref_hf_witness(r: QuiverRep):
    """hf_witness as first built: H(F(r)) on the quiver q2 of r's species,
    pulled back to r's quiver along roundtrip_quiver's witness q -> q2, and
    the component at t . v_i the image of the descent basis u_i under
    phi_{v_i, t}."""
    q = r.quiver
    h = functor_H(functor_F(r))
    witness = roundtrip_quiver(q)
    fv, fe = witness.vertex_bijection, witness.edge_bijection
    back = QuiverRep(q, [h.dims[fv[v]] for v in range(q.vertices.size)],
                     [h.edge_maps[fe[e]] for e in range(q.edges.size)],
                     [h.rho[fv[v]] for v in range(q.vertices.size)], r.d)
    conv = quiver_conventions(q)
    u = ref_w_basis(r, species_of_quiver(q), conv)
    mats = tuple(semilinear(r, conv.vertex_reps[i], t)[0]
                 * (u[i].conj() if t else u[i])
                 for i, t in zip(conv.vertex_orbit_of, conv.vertex_transport))
    return back, mats


def ref_realify(m: QuadMatrix) -> QuadMatrix:
    d = m.d
    p = QuadMatrix(m.rows, m.cols, [QuadElement(x.a, 0, d) for x in m.entries], d)
    q = QuadMatrix(m.rows, m.cols, [QuadElement(x.b, 0, d) for x in m.entries], d)
    top, bot = p.hstack(q.scale(d)), q.hstack(p)
    return QuadMatrix(2 * m.rows, 2 * m.cols, list(top.entries) + list(bot.entries), d)


def ref_tensor_matrix(s, i, j, summand, psi: QuadMatrix) -> QuadMatrix:
    """Matrix of psi_i (x) 1 on the canonical domain basis of the summand,
    as species_is_morphism used it before it compared eta = 1 cores."""
    case = reps._summand_case(s, i, j, summand)
    if case in ((2, 2, 2), (2, 1, 1)):
        return psi
    if case == (2, 1, 2):
        zero = QuadMatrix.zeros(psi.rows, psi.cols, psi.d)
        top, bottom = psi.hstack(zero), zero.hstack(psi)
        return QuadMatrix(2 * psi.rows, 2 * psi.cols, top.entries + bottom.entries, psi.d)
    if case == (1, 1, 2):
        return ref_realify(psi)
    g = s.group
    p = g.mul(g.inv(summand.twist_tgt), summand.twist_src)
    return psi.conj() if p else psi


def ref_species_is_morphism(w1, w2, psis) -> bool:
    """psi_j f1 = f2 (psi_i (x) 1) at every summand (shapes and fields are
    those of the constructed inputs, so they are not checked here)."""
    s = w1.species
    return all(psis[j] * f1 == f2 * ref_tensor_matrix(s, i, j, summand, psis[i])
               for (i, j), summands in s.bimodules.items()
               for summand, f1, f2 in zip(summands, w1.summand_matrices(i, j),
                                          w2.summand_matrices(i, j)))


# ---------------------------------------------------------------- inputs

def species_rep_with_dims(rng, s, dims, d):
    maps = {}
    for (i, j), summands in s.bimodules.items():
        maps[(i, j)] = [random_matrix(rng, dims[j], summand_domain_cols(s, i, j, x, dims[i]),
                                      s.realized_field(j) == "K", d=d) for x in summands]
    return SpeciesRep(s, dims, maps, d)


# seeds of random_c2_quiver(max_v=3, max_e=4) whose species have, between
# them, all five summand cases (hi, he, hj)
QUIVER_SEEDS = (1, 5, 16, 21)
# a seed whose species has summands with twist_tgt = 1, where F conjugates the
# core, and a two-eta summand with p = 1, of shape (1,1,2).  The conventions
# give every (2,1,2) summand the twists (0, 0), so no quiver's species has a
# (2,1,2) summand with p = 1.
TWIST_SEED = 57


def quiver_reps(seed: int, d, count=3, max_dim=2, salt=0):
    """Seeded rational reps of one random C2 quiver: H of random species reps,
    moved to random bases so that rho and the edge maps are not canonical."""
    q = random_c2_quiver(random.Random(seed), max_v=3, max_e=4)
    s = species_of_quiver(q)
    rng = random.Random(1000 * seed + salt)
    out = []
    for _ in range(count):
        dims = [rng.randint(0, max_dim) for _ in range(s.n_indices)]
        r = functor_H(species_rep_with_dims(rng, s, dims, d))
        gs = [random_invertible(rng, n, d=d) for n in r.dims]
        out.append(change_basis(r, gs))
    return out


def hc_modules():
    rng = random.Random(31)
    mods = [build_example(k, 1, tail_weights=1) for k in KINDS]
    mods += [inverse_E(random_gelfand_rep(rng, max_dim=2), 1, tail_weights=1)
             for _ in range(2)]
    # long windows at a non-default field tag, where the tails are longest
    d = Fraction(2)
    mods += [inverse_E(random_cyclic_rep(rng, max_dim=2, d=d), 0, tail_weights=8)
             for _ in range(2)]
    mods += [inverse_E(random_gelfand_rep(rng, max_dim=2, d=d), 2, tail_weights=8)
             for _ in range(2)]
    return mods


# ---------------------------------------------------------------- differential

@pytest.mark.parametrize("d", FIELD_TAGS)
def test_hom_space_matches_reference(d):
    for seed in QUIVER_SEEDS:
        rs = quiver_reps(seed, d)
        rs.append(rep_base_change(rs[0], Subgroup.trivial_in(C2)))
        pairs = [(a, b) for a in rs[:3] for b in rs[:3]] + [(rs[3], rs[3])]
        for a, b in pairs:
            hs, ref = hom_space(a, b), ref_hom_space(a, b)
            assert (hs.dim_L, hs.dim_K) == (ref.dim_L, ref.dim_K)
            assert hs.l_basis == ref.l_basis
            assert hs.basis == ref.basis


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_functors_match_reference(d, monkeypatch):
    for seed in QUIVER_SEEDS + (TWIST_SEED,):
        for r in quiver_reps(seed, d, count=2, max_dim=3, salt=1):
            w, ref = functor_F(r), ref_functor_F(r)
            assert (w.dims, w.maps) == (ref.dims, ref.maps)
            h = functor_H(w)
            with monkeypatch.context() as patch:
                patch.setattr(reps, "_summand_core", ref_summand_core)
                ref_h = functor_H(w)
            assert h == ref_h


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_summand_matrix_inverts_summand_core(d):
    """F's _summand_matrix undoes H's _summand_core on random rational
    summand matrices of both two-eta shapes, (2,1,2) and (1,1,2), with
    p = 0 (twists (0,0), (1,1)) and p = 1 (twists (1,0), (0,1))."""
    rng = random.Random(9)
    full, trivial = Subgroup.full(C2), Subgroup.trivial_in(C2)
    for h_src in (full, trivial):
        for twists in ((0, 0), (1, 1), (1, 0), (0, 1)):
            summand = BimoduleSummand(trivial, *twists)
            s = EtaleSpecies(C2, [h_src, full], {(0, 1): [summand]})
            dims = (rng.randint(1, 3), rng.randint(1, 3))
            f = random_matrix(rng, dims[1], 2 * dims[0], rational=True, d=d)
            core = reps._summand_core(SpeciesRep(s, dims, {(0, 1): [f]}, d), 0, 1, summand, f)
            assert reps._summand_matrix(s, 0, 1, summand, core) == f


def assert_hf_witness_matches_reference(r):
    back, mats = hf_witness(r)
    ref_back, ref_mats = ref_hf_witness(r)
    assert back.quiver is r.quiver
    assert dump_rep(back) == dump_rep(ref_back)
    assert (back.dims, back.edge_maps, back.rho) == (ref_back.dims, ref_back.edge_maps,
                                                      ref_back.rho)
    assert mats == ref_mats
    # the reference runs functor_H too, so a fault in H shows only here
    assert is_morphism(back, r, mats)


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_hf_witness_matches_reference(d):
    """H(F(r)) built on r's own quiver is the old H(F(r)) on the quiver of
    r's species pulled back along the round-trip witness, on reps of random
    C2 quivers moved to random bases (the QUIVER_SEEDS cover all five
    summand shapes)."""
    for seed in QUIVER_SEEDS + tuple(range(30, 36)):
        for r in quiver_reps(seed, d, count=3, salt=3):
            assert_hf_witness_matches_reference(r)


def test_hf_witness_matches_reference_on_fixture_images():
    """The E-images of the four classical fixtures at ell = 1, 2, 3."""
    for kind in KINDS:
        for ell in (1, 2, 3):
            assert_hf_witness_matches_reference(functor_E(build_example(kind, ell)).rep)


def perturbed(rng, m: QuadMatrix) -> QuadMatrix:
    """m with 1 added to one random entry; m must have an entry."""
    k, ent = rng.randrange(m.rows * m.cols), list(m.entries)
    ent[k] = ent[k] + 1
    return QuadMatrix(m.rows, m.cols, ent, m.d)


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_species_is_morphism_matches_reference(d):
    """species_is_morphism, which compares eta = 1 cores, against the summand
    equation psi_j f1 = f2 (psi_i (x) 1) of ref_tensor_matrix.  On constructed
    morphisms f2 = psi_j f1 (psi_i (x) 1)^-1 both hold; a perturbed f2 breaks
    both, as psi_i (x) 1 is invertible; a perturbed psi_i gets one verdict
    from both.  The species of QUIVER_SEEDS and TWIST_SEED have all five
    summand shapes and p = 1 summands of shape (1,1,2); the one-summand
    species give p = 0 and p = 1 to each shape with trivial H_eps."""
    rng = random.Random(17)
    full, trivial = Subgroup.full(C2), Subgroup.trivial_in(C2)
    species = [species_of_quiver(random_c2_quiver(random.Random(seed), max_v=3, max_e=4))
               for seed in QUIVER_SEEDS + (TWIST_SEED,)]
    species += [EtaleSpecies(C2, [h_src, h_tgt], {(0, 1): [BimoduleSummand(trivial, *twists)]})
                for h_src in (full, trivial) for h_tgt in (full, trivial)
                for twists in ((0, 0), (1, 1), (1, 0), (0, 1))]
    seen, psi_verdicts = set(), set()
    for s in species:
        seen |= {(reps._summand_case(s, i, j, x), reps._relative_twist(s, x))
                 for (i, j), summands in s.bimodules.items() for x in summands}
        for _ in range(4):
            dims = [rng.randint(1, 3) for _ in range(s.n_indices)]
            w1 = species_rep_with_dims(rng, s, dims, d)
            psis = [random_invertible(rng, n, rational=s.realized_field(i) == "K", d=d)
                    for i, n in enumerate(dims)]
            maps = {(i, j): [psis[j] * f * inverse(ref_tensor_matrix(s, i, j, x, psis[i]))
                             for x, f in zip(summands, w1.summand_matrices(i, j))]
                    for (i, j), summands in s.bimodules.items()}
            w2 = SpeciesRep(s, dims, maps, d)
            assert ref_species_is_morphism(w1, w2, psis)
            assert species_is_morphism(w1, w2, psis)
            for key, mats in maps.items():
                for k, f in enumerate(mats):
                    w3 = SpeciesRep(s, dims, {**maps, key: mats[:k] + [perturbed(rng, f)]
                                              + mats[k + 1:]}, d)
                    assert not ref_species_is_morphism(w1, w3, psis)
                    assert not species_is_morphism(w1, w3, psis)
            for i, psi in enumerate(psis):
                bad = psis[:i] + [perturbed(rng, psi)] + psis[i + 1:]
                verdict = ref_species_is_morphism(w1, w2, bad)
                assert species_is_morphism(w1, w2, bad) == verdict
                psi_verdicts.add(verdict)
    assert {case for case, _ in seen} == {(2, 2, 2), (2, 1, 2), (2, 1, 1), (1, 1, 2), (1, 1, 1)}
    assert {((1, 1, 1), 1), ((1, 1, 2), 1), ((2, 1, 2), 1), ((2, 1, 1), 1)} <= seen
    assert psi_verdicts == {True, False}


def test_hc_hom_space_matches_reference():
    mods = hc_modules()
    for m1 in mods:
        for m2 in mods:
            if (m1.ell, m1.epsilon, m1.window) != (m2.ell, m2.epsilon, m2.window):
                continue
            assert hc_hom_space(m1, m2) == ref_hc_hom_space(m1, m2)


# ---------------------------------------------------------------- properties

@pytest.mark.parametrize("d", FIELD_TAGS)
def test_hom_descent_properties(d):
    for seed in QUIVER_SEEDS:
        rs = quiver_reps(seed, d, salt=2)
        for a in rs:
            back, mats = hf_witness(a)
            assert is_morphism(back, a, mats)
            assert all(rank(mats[v]) == a.dims[v] for v in range(len(a.dims)))
            for b in rs:
                hs = hom_space(a, b)
                assert hs.dim_K == hs.dim_L
                assert all(is_morphism(a, b, mats) for mats in hs.basis)


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_rep_isomorphic_at_every_field_tag(d):
    """A random rep and its image under a random change of basis, which keeps
    the rational structure, are isomorphic by a full-rank witness; two reps of
    equal dimensions, one with all maps zero and one with b+- = 1, are not."""
    rng = random.Random(29)
    for make in (random_gelfand_rep, random_cyclic_rep):
        drawn = 0
        while drawn < 3:
            r = make(rng, max_dim=3, d=d)
            if not any(r.dims):
                continue
            s = change_basis(r, [random_invertible(rng, n, d=d) for n in r.dims])
            iso = rep_isomorphic(r, s)
            assert iso is not None and is_morphism(r, s, iso)
            assert all(rank(iso[v]) == r.dims[v] for v in range(len(r.dims)))
            drawn += 1
    one, zero = QuadMatrix.identity(1, d), QuadMatrix.zeros(1, 1, d)
    q = gelfand_quiver()
    null = QuiverRep(q, (1, 1, 1), (zero,) * 4, (one, one, one), d)
    b_one = QuiverRep(q, (1, 1, 1), (zero, zero, one, one), (one, one, one), d)
    assert rep_isomorphic(null, b_one) is None and rep_isomorphic(b_one, null) is None


# every partition of n <= 4
PARTITIONS = ((), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1),
              (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def jordan_cyclic_rep(rng, partition, d):
    """J_lambda: dims (n, n) on the cyclic quiver, both edges the rational
    nilpotent Jordan matrix of type lambda and rho = 1, moved by random
    invertible gauges so that rho is no longer 1."""
    n, starts = sum(partition), {sum(partition[:k]) for k in range(len(partition))}
    one, zero = QuadElement(1, 0, d), QuadElement(0, 0, d)
    j = QuadMatrix(n, n, [one if c == r + 1 and c not in starts else zero
                          for r in range(n) for c in range(n)], d)
    ident = QuadMatrix.identity(n, d)
    r = QuiverRep(cyclic_quiver(), (n, n), (j, j), (ident, ident), d)
    return change_basis(r, [random_invertible(rng, n, d=d) for _ in range(2)])


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_cyclic_jordan_hom_closed_form(d):
    """An oracle that does not share the descent code: on the cyclic quiver
    dim_K Hom(J_lambda, J_mu) = dim_L = 2 sum_ij min(lambda_i, mu_j)
    (Jacobson, Ann. Math. 38, 1937).  The gauges make rho != 1, so a descent
    that forgets a conjugation gives wrong dimensions."""
    rng = random.Random(37 + FIELD_TAGS.index(d))
    for lam in PARTITIONS:
        for mu in PARTITIONS:
            hs = hom_space(jordan_cyclic_rep(rng, lam, d), jordan_cyclic_rep(rng, mu, d))
            expected = 2 * sum(min(a, b) for a in lam for b in mu)
            assert (hs.dim_K, hs.dim_L) == (expected, expected), (lam, mu)


def invertible_cycle_rep(rng, n, d):
    """A cyclic rep of dims (n, n) with a = A, b = conj(A) and rho = 1 for a
    random invertible A over L, gauged like jordan_cyclic_rep: its cycle
    a b = A conj(A) is invertible at + and conj(A) A at -."""
    a = random_invertible(rng, n, d=d)
    ident = QuadMatrix.identity(n, d)
    r = QuiverRep(cyclic_quiver(), (n, n), (a, a.conj()), (ident, ident), d)
    return change_basis(r, [random_invertible(rng, n, d=d) for _ in range(2)])


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_hom_between_nilpotent_and_invertible_cycles_is_zero(d):
    """An oracle for Hom = 0 that does not share code with the solver: a
    morphism psi from J_lambda, whose cycles a b and b a are J^2 (nilpotent),
    to a rep whose cycles U are invertible meets psi J^2 = U psi, so
    psi J^(2k) = U^k psi, which is 0 for large k, and psi = 0; in the other
    direction psi U^k = J^(2k) psi = 0 gives psi = 0."""
    rng = random.Random(41 + FIELD_TAGS.index(d))
    for lam in PARTITIONS[1:]:
        j = jordan_cyclic_rep(rng, lam, d)
        for n in (1, 2, 3):
            u = invertible_cycle_rep(rng, n, d)
            assert validate_rep(u, require_nilpotent=False).ok
            for a, b in ((j, u), (u, j)):
                hs = hom_space(a, b)
                assert (hs.dim_K, hs.dim_L, hs.basis, hs.l_basis) == (0, 0, [], []), (lam, n)


def decline(m):
    return False


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_hom_space_without_the_certificate_is_unchanged(d, monkeypatch):
    """The certificate only skips eliminations: with it declining every
    system, hom_space gives the same HomSpace on the QUIVER_SEEDS pairs.
    Each rep comes also moved by a second random gauge, so that Hom holds
    isomorphisms with sqrt(d) terms, whose kernels a certificate with a
    wrong root of D, or one that drops the sqrt(D) part, would miss."""
    rng = random.Random(43 + FIELD_TAGS.index(d))
    pairs = [(a, b) for seed in QUIVER_SEEDS for rs in [quiver_reps(seed, d)]
             for gauged in [[change_basis(r, [random_invertible(rng, n, d=d) for n in r.dims])
                             for r in rs]]
             for a in rs for b in rs + gauged]
    certified = [hom_space(a, b) for a, b in pairs]
    monkeypatch.setattr(exact, "_full_column_rank_mod_p", decline)
    assert [hom_space(a, b) for a, b in pairs] == certified
    assert {hs.dim_L > 0 for hs in certified} == {True, False}


def test_hc_hom_space_without_the_certificate_is_unchanged(monkeypatch):
    mods = hc_modules()
    pairs = [(m1, m2) for m1 in mods for m2 in mods
             if (m1.ell, m1.epsilon, m1.window) == (m2.ell, m2.epsilon, m2.window)]
    certified = [hc_hom_space(m1, m2) for m1, m2 in pairs]
    monkeypatch.setattr(exact, "_full_column_rank_mod_p", decline)
    assert [hc_hom_space(m1, m2) for m1, m2 in pairs] == certified
    assert {dims[1] > 0 for dims in certified} == {True, False}


def test_hom_rejects_mixed_field_tags():
    q = gelfand_quiver()

    def zero_rep(d):
        one, zero = QuadMatrix.identity(1, d), QuadMatrix.zeros(1, 1, d)
        return QuiverRep(q, (1, 1, 1), (zero, zero, one, one), (one, one, one), d)

    with pytest.raises(ValueError, match="different fields"):
        hom_space(zero_rep(-1), zero_rep(2))
    m1 = build_example("principal", 1, tail_weights=1)
    m2 = build_example("principal", 1, tail_weights=1, d=-3)
    with pytest.raises(ValueError, match="different fields"):
        hc_hom_space(m1, m2)


def test_hom_rejects_cocycle_breaking_rep():
    """Conjugation acts on Hom only through the cocycle, so hom_space checks it
    on both sides, also where Hom over L is zero; rep_isomorphic checks it
    itself where the dimensions differ, and through hom_space otherwise."""
    q = gelfand_quiver()
    one, zero = QuadMatrix.identity(1), QuadMatrix.zeros(1, 1)
    good = QuiverRep(q, (1, 1, 1), (zero, zero, one, one), (one, one, one))
    broken = QuiverRep(q, (1, 1, 1), good.edge_maps, (one.scale(2), one, one))
    for a, b in ((broken, good), (good, broken), (broken, broken)):
        with pytest.raises(ValueError, match="breaks the cocycle at vertex 0"):
            hom_space(a, b)
    z = QuadMatrix.zeros(0, 0)
    null = QuiverRep(q, (0, 0, 0), (z, z, z, z), (z, z, z))
    with pytest.raises(ValueError, match="breaks the cocycle at vertex 0"):
        hom_space(null, broken)
    for a, b in ((broken, good), (null, broken), (broken, null)):
        with pytest.raises(ValueError, match="breaks the cocycle at vertex 0"):
            rep_isomorphic(a, b)


def test_cocycle_check_compares_orbit_dimensions():
    """The cocycle is checked at the minimal vertex of each orbit only, so it
    also asks for dims[v] = dims[cv].  Here rho[1] conj(rho[0]) = 1 at vertex
    0, while rho[0] conj(rho[1]) has rank 1 on the 2-dimensional M(1)."""
    q = RationalQuiver(GSet(C2, 2, [[0, 1], [1, 0]]), GSet(C2, 0, [[], []]), [], [])
    r = QuiverRep(q, (1, 2), (), (QuadMatrix.from_rows([[1], [0]]),
                                  QuadMatrix.from_rows([[1, 0]])))
    failures = [(name, wit) for name, ok, wit in validate_rep(r).checks if not ok]
    assert failures == [("cocycle", "phi_(cv,c) o phi_(v,c) != id at v=0")]
    with pytest.raises(ValueError, match="breaks the cocycle at vertex 0"):
        hom_space(r, r)


def test_hom_rejects_rep_that_is_not_edge_equivariant():
    """bad keeps the cocycle, but conjugation sends a+ = 1 to a- = 2 while
    rho = 1.  The Hom basis element (1, 1, 1/2) from good to bad (values at
    star, +, -) conjugates to (1, 1/2, 1), which is no morphism, so the exact
    check V theta = W fails and the error names the cause."""
    q = gelfand_quiver()
    one, zero = QuadMatrix.identity(1), QuadMatrix.zeros(1, 1)
    good = QuiverRep(q, (1, 1, 1), (one, one, zero, zero), (one, one, one))
    bad = QuiverRep(q, (1, 1, 1), (one, one.scale(2), zero, zero), good.rho)
    checks = {name: ok for name, ok, _ in validate_rep(bad).checks}
    assert checks["cocycle"] and not checks["edge-equivariance"]
    for a, b in ((good, bad), (bad, good)):
        with pytest.raises(ValueError, match="^conjugation does not preserve Hom: "
                                             "a rational structure is not edge-equivariant$"):
            hom_space(a, b)


# ---------------------------------------------------------------- work gates

def test_rep_isomorphic_checks_each_cocycle_once(monkeypatch):
    """Two cocycle checks per rep_isomorphic call: hom_space's when the call
    reaches it, rep_isomorphic's own when the dimensions differ, and none
    when every space is zero, where every rho is 0 x 0."""
    q = gelfand_quiver()
    one, zero = QuadMatrix.identity(1), QuadMatrix.zeros(1, 1)
    good = QuiverRep(q, (1, 1, 1), (zero, zero, one, one), (one, one, one))
    z = QuadMatrix.zeros(0, 0)
    null = QuiverRep(q, (0, 0, 0), (z, z, z, z), (z, z, z))
    real = reps._cocycle_break
    checked = []

    def counted(r):
        checked.append(r)
        return real(r)

    monkeypatch.setattr(reps, "_cocycle_break", counted)
    pairs = [(good, good), (good, null), (null, good)]
    pairs += [(r, r) for r in quiver_reps(QUIVER_SEEDS[0], Fraction(-1)) if any(r.dims)]
    for a, b in pairs:
        checked.clear()
        rep_isomorphic(a, b)
        assert checked == [a, b]
    checked.clear()
    assert rep_isomorphic(null, null) == (z, z, z)
    assert checked == []


def test_hc_hom_space_solves_on_the_ladder(monkeypatch):
    """hc_hom_space hands reps one block per weight |w| <= ell + 1, whatever
    the window."""
    seen = []
    system = reps.intertwining_system

    def recording(shapes, equations, d=-1):
        seen.append(len(shapes))
        return system(shapes, equations, d)

    monkeypatch.setattr(reps, "intertwining_system", recording)
    for ell in range(4):
        for tail_weights in (1, 8):
            m = build_example("discrete", ell, tail_weights=tail_weights)
            seen.clear()
            hc_hom_space(m, m)
            assert seen == [ell + 2], (ell, tail_weights)


def test_hc_hom_space_builds_each_ladder_once(monkeypatch):
    """hc_hom_space hands reps one shared ladder quiver per length, built
    with its two checked G-sets on the first call only and equal to a fresh
    build."""
    mods = [build_example("discrete", ell) for ell in range(4)]
    seen, inits = [], []
    solve, init = hc.hom_space, GSet.__init__

    def recording(a, b):
        seen.append(a.quiver)
        return solve(a, b)

    def counted_init(self, *args):
        inits.append(args)
        init(self, *args)

    monkeypatch.setattr(hc, "hom_space", recording)
    monkeypatch.setattr(GSet, "__init__", counted_init)
    hc._ladder_quiver.cache_clear()
    for m in mods + mods:
        hc_hom_space(m, m)
    assert len(inits) == 2 * len(mods)
    assert [q.vertices.size for q in seen] == [ell + 2 for ell in range(4)] * 2
    for ell, q in enumerate(seen[:4]):
        assert seen[4 + ell] is q
        fresh = hc._ladder_quiver.__wrapped__(ell + 2)
        assert fresh is not q and fresh == q


def hom_pairs():
    """Every ordered pair of the quiver_reps of each seed and field tag."""
    return [(a, b) for d in FIELD_TAGS for seed in QUIVER_SEEDS
            for rs in [quiver_reps(seed, d)] for a in rs for b in rs]


def nonempty_blocks(a, b) -> int:
    """Vertices at which Hom(a, b) has a nonempty block."""
    return sum(1 for x, y in zip(a.dims, b.dims) if x * y)


def test_hom_space_forms_kronecker_matrices_only_for_a_nonzero_hom(monkeypatch):
    """hom_space forms no Kronecker matrix when Hom over L is 0, and one per
    vertex with a nonempty block otherwise."""
    kron, calls = exact.kron, []

    def counting(a, b):
        calls.append((a, b))
        return kron(a, b)

    pairs = hom_pairs()
    monkeypatch.setattr(exact, "kron", counting)
    monkeypatch.setattr(reps, "kron", counting, raising=False)
    kinds = set()
    for a, b in pairs:
        calls.clear()
        hs = hom_space(a, b)
        assert len(calls) == (nonempty_blocks(a, b) if hs.dim_L else 0)
        kinds.add((hs.dim_L > 0, nonempty_blocks(a, b) == len(a.dims)))
    assert kinds >= {(False, True), (True, True)}


def test_descent_makes_no_cocycle_product(monkeypatch):
    """descended_kernel never calls the public fixed_space_matrix, and its
    only products are the Kronecker images, V theta and V F: theta
    conj(theta) = 1 follows from the checks that ran before (see its
    docstring)."""
    mul, descend, products, active = QuadMatrix.__mul__, reps.descended_kernel, [], []

    def counting(x, y):
        if active:
            products.append((x, y))
        return mul(x, y)

    def tracked(*args):
        active.append(True)
        try:
            return descend(*args)
        finally:
            active.clear()

    def refuse(a):
        raise AssertionError("descended_kernel called fixed_space_matrix")

    pairs = hom_pairs()
    monkeypatch.setattr(exact, "fixed_space_matrix", refuse)
    monkeypatch.setattr(QuadMatrix, "__mul__", counting)
    monkeypatch.setattr(reps, "descended_kernel", tracked)
    nonzero = 0
    for a, b in pairs:
        products.clear()
        hs = hom_space(a, b)
        assert len(products) == (nonempty_blocks(a, b) + 2 if hs.dim_L else 0)
        nonzero += hs.dim_L > 0
    assert nonzero


def test_hom_space_eliminates_twice_and_solves_nothing(monkeypatch):
    """Where Hom over L is nonzero, hom_space runs one elimination for the
    L-kernel and one for the fixed space, and no solve_unique: theta is read
    off the kernel's free rows.  Where it is zero, the certificate mod p
    proves it on these pairs, and no exact elimination runs."""
    rref, calls = exact._rref, []

    def counting(m):
        calls.append(m)
        return rref(m)

    def no_solve(*args):
        raise AssertionError("hom_space called solve_unique")

    pairs = [(a, b) for d in FIELD_TAGS for seed in QUIVER_SEEDS
             for rs in [quiver_reps(seed, d)] for a in rs for b in rs]
    monkeypatch.setattr(exact, "_rref", counting)
    monkeypatch.setattr(exact, "solve_unique", no_solve)
    nonzero = 0
    for a, b in pairs:
        calls.clear()
        hs = hom_space(a, b)
        assert len(calls) == (2 if hs.dim_L else 0)
        nonzero += hs.dim_L > 0
    assert 0 < nonzero < len(pairs)


# ---------------------------------------------------------------- construction gate

@pytest.fixture
def constructions(monkeypatch):
    """Counts QuadElement constructions, through __init__ and exact._element."""
    count = [0]
    init, element = QuadElement.__init__, exact._element

    def counted_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    def counted_element(*args):
        count[0] += 1
        return element(*args)

    monkeypatch.setattr(QuadElement, "__init__", counted_init)
    monkeypatch.setattr(exact, "_element", counted_element)
    return count


def test_hom_solvers_construct_no_elements(constructions):
    rs = quiver_reps(5, Fraction(2), salt=3)
    mods = hc_modules()
    constructions[0] = 0
    for a in rs:
        for b in rs:
            hom_space(a, b)
    hc_hom_space(mods[0], mods[0])
    hc_hom_space(mods[2], mods[3])
    assert constructions[0] == 0


def test_functor_constructions_do_not_grow_with_dimension(constructions):
    rng = random.Random(9)
    q = random_c2_quiver(random.Random(5), max_v=3, max_e=4)
    s = species_of_quiver(q)
    counts = []
    for n in (1, 3):
        w = species_rep_with_dims(rng, s, [n] * s.n_indices, Fraction(-1))
        h = functor_H(w)
        r = change_basis(h, [random_invertible(rng, m) for m in h.dims])
        constructions[0] = 0
        functor_F(r)
        functor_H(w)
        counts.append(constructions[0])
    assert counts[0] == counts[1]

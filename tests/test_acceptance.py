"""Acceptance suite: every criterion exactly, one printed line per criterion.

All assertions are exact (no tolerances); each criterion carries the runtime
budget it must stay under, measured on the whole criterion body.
"""

import math
import random
import time
from fractions import Fraction

from certificate import assert_E_bijective_on_hom

from rquiver.exact import QuadMatrix, inverse, nilpotency_exponent, rank
from rquiver.gsets import FiniteGroup
from rquiver.hc import (
    build_example,
    functor_E,
    hc_hom_space,
    inverse_E,
    normalizations,
    power_product_identity,
    roundtrip_hc,
    validate_hc,
)
from rquiver.quiver import (
    GELFAND_A_MINUS, GELFAND_A_PLUS, GELFAND_B_MINUS, GELFAND_B_PLUS,
    GELFAND_MINUS, GELFAND_PLUS, GELFAND_STAR,
    cyclic_quiver, gelfand_quiver, two_loop_quiver,
)
from rquiver.randomgen import (
    random_c2_quiver,
    random_cyclic_rep,
    random_gelfand_rep,
    random_group_quiver,
    random_nilpotent,
    random_species_rep,
    strictly_upper,
)
from rquiver.reps import (
    functor_F,
    functor_H,
    hf_witness,
    hom_space,
    is_morphism,
    species_is_morphism,
)
from rquiver.species import roundtrip_quiver, roundtrip_species, species_of_quiver
from rquiver.unipotent import StabilizationProblem, stabilize, unipotent_sqrt


def _finish(number, budget, start, summary):
    elapsed = time.monotonic() - start
    print(f"[criterion {number}] PASS  {summary}  ({elapsed:.1f}s / budget {budget}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


KINDS = ("finite", "discrete", "principal", "principal_dual")


def test_criterion_1_anti_equivalence_roundtrips():
    start = time.monotonic()
    fixtures = [gelfand_quiver(), cyclic_quiver(), two_loop_quiver()]
    rng = random.Random(2024)
    cases = list(fixtures)
    for _ in range(100):
        cases.append(random_c2_quiver(rng, max_v=4, max_e=6))
    for group in (FiniteGroup.cyclic(3), FiniteGroup.symmetric(3)):
        for _ in range(10):
            cases.append(random_group_quiver(rng, group, max_v=4, max_e=6))
    for q in cases:
        roundtrip_quiver(q)                       # raises on failure
        roundtrip_species(species_of_quiver(q))   # raises on failure
    _finish(1, 10, start, f"{len(cases)} quiver and species round trips verified")


def test_criterion_2_representation_equivalence():
    start = time.monotonic()
    rng = random.Random(2025)
    reps = []
    for kind in KINDS:
        for ell in (1, 2, 3):
            reps.append(functor_E(build_example(kind, ell)).rep)
    reps.append(functor_E(build_example("discrete", 0)).rep)
    while len(reps) < 13 + 100:
        q = random_c2_quiver(rng, max_v=3, max_e=4)
        reps.append(functor_H(random_species_rep(rng, species_of_quiver(q), max_dim=3)))
    for r in reps:
        # H o F = id via the constructed natural isomorphism
        transported, mats = hf_witness(r)
        assert is_morphism(transported, r, mats)
        assert all(rank(mats[v]) == r.dims[v] for v in range(r.quiver.vertices.size))
        # F o H = id, literally in canonical coordinates, and as a morphism
        w = functor_F(r)
        back = functor_F(functor_H(w))
        assert back.species == w.species and back.dims == w.dims and back.maps == w.maps
        ident = [QuadMatrix.identity(n, r.d) for n in w.dims]
        assert species_is_morphism(w, back, ident)
    _finish(2, 30, start, f"F/H round trips with witnesses on {len(reps)} representations")


def test_criterion_3_hom_descent():
    start = time.monotonic()
    rng = random.Random(2026)
    pairs = 0
    while pairs < 100:
        q = random_c2_quiver(rng, max_v=3, max_e=4)
        s = species_of_quiver(q)
        dim_cap = 3 if pairs % 10 == 0 else 2
        a = functor_H(random_species_rep(rng, s, max_dim=dim_cap))
        b = functor_H(random_species_rep(rng, s, max_dim=dim_cap))
        hs = hom_space(a, b)
        assert hs.dim_K == hs.dim_L
        for mats in hs.basis:
            assert is_morphism(a, b, mats)
        pairs += 1
    _finish(3, 30, start, f"dim_K Hom = dim_L Hom on {pairs} random pairs")


def test_criterion_4_unipotent_algorithms():
    start = time.monotonic()
    rng = random.Random(2027)

    def binomial_series_sqrt(m):
        n = m - QuadMatrix.identity(m.rows, m.d)
        e = nilpotency_exponent(n)
        acc = QuadMatrix.identity(m.rows, m.d)
        term = QuadMatrix.identity(m.rows, m.d)
        coeff = Fraction(1)
        for k in range(1, e):
            coeff = coeff * (Fraction(1, 2) - (k - 1)) / k
            term = term * n
            acc = acc + term.scale(coeff)
        return acc

    stab_cases = 0
    while stab_cases < 200:
        dim = rng.randint(1, 6)
        # an n x n nilpotent has exponent <= n <= 6, as the criterion asks
        n = random_nilpotent(rng, dim, span=1)
        q0 = QuadMatrix.identity(dim, n.d) + strictly_upper(rng, dim, span=1)
        p0 = inverse(q0) * (QuadMatrix.identity(dim, n.d) + n)
        prob = StabilizationProblem(p0, q0)
        e = prob.defect_exponent()
        res = stabilize(prob)
        bound = (math.ceil(math.log2(e)) + 1) if e > 1 else 1
        assert res.iterations <= bound
        assert (res.phi_minus_inf * res.phi_plus_inf).is_identity()
        assert (res.phi_plus_inf * res.phi_minus_inf).is_identity()
        exps = [t[2] for t in res.trace]
        for before, after in zip(exps, exps[1:]):
            assert after <= math.ceil(before / 2)
        stab_cases += 1

    sqrt_cases = 0
    while sqrt_cases < 200:
        dim = rng.randint(1, 6)
        m = QuadMatrix.identity(dim) + random_nilpotent(rng, dim, span=1)
        root = unipotent_sqrt(m)
        assert root * root == m
        assert root == binomial_series_sqrt(m)
        sqrt_cases += 1
    _finish(4, 30, start,
            f"{stab_cases} stabilizations within ceil(log2 e)+1, "
            f"{sqrt_cases} square roots against the series oracle")


def test_criterion_5_section3_constants():
    start = time.monotonic()
    for ell in (1, 2, 3, 4, 5):
        m = build_example("principal", ell)
        ok, scalar, _, _ = power_product_identity(m, ell - 1, ell - 2)
        assert ok
        assert scalar == Fraction(4 ** (ell - 1)) * math.factorial(ell - 1) ** 2
        norms = normalizations(m)
        assert norms.gamma_star == math.factorial(ell - 1)
        x_star, y_star = norms.star.phi_plus, norms.star.phi_minus
        dev = x_star * y_star - QuadMatrix.identity(x_star.rows)
        assert nilpotency_exponent(dev) is not None
    assert power_product_identity(build_example("principal", 2), 1, 0)[1] == 4
    assert power_product_identity(build_example("principal", 3), 2, 1)[1] == 64
    _finish(5, 5, start, "power-product scalars and gamma* for ell in 1..5")


def test_criterion_6_gelfand_equivalence_desk_scale():
    start = time.monotonic()
    for ell in (1, 2, 3):
        # finite: M(+-) = 0, M(*) = Q(i), phi_* = c o X* (here X* = 1)
        res = functor_E(build_example("finite", ell))
        r = res.rep
        assert r.dims[GELFAND_PLUS] == 0 and r.dims[GELFAND_MINUS] == 0
        assert r.dims[GELFAND_STAR] == 1
        assert r.rho[GELFAND_STAR] == res.x_star and res.x_star.is_identity()
        w = functor_F(r)
        assert w.dims == (1, 0)

        # discrete: M(*) = 0, phi_+- = c
        r = functor_E(build_example("discrete", ell)).rep
        assert r.dims[GELFAND_STAR] == 0
        assert r.rho[GELFAND_PLUS].is_identity() and r.rho[GELFAND_MINUS].is_identity()
        w = functor_F(r)
        assert w.dims == (0, 1)
        assert all(m.is_zero() for mats in w.maps.values() for m in mats)

        # principal: nonzero b-maps, zero a-maps; species map is the canonical
        # inclusion Q -> Q(i) up to the normalization scalar ell
        r = functor_E(build_example("principal", ell)).rep
        assert r.edge_maps[GELFAND_A_PLUS].is_zero()
        assert r.edge_maps[GELFAND_A_MINUS].is_zero()
        assert rank(r.edge_maps[GELFAND_B_PLUS]) == 1
        assert rank(r.edge_maps[GELFAND_B_MINUS]) == 1
        w = functor_F(r)
        assert w.dims == (1, 1)
        assert w.summand_matrices(1, 0)[0].is_zero()
        incl = w.summand_matrices(0, 1)[0]
        assert incl == QuadMatrix.identity(1).scale(Fraction(ell))
        # rescaling W_* is an exact isomorphism onto the literal
        # inclusion form (matrix [1])
        from rquiver.reps import SpeciesRep

        target = SpeciesRep(w.species, w.dims,
                            {(0, 1): [QuadMatrix.identity(1)],
                             (1, 0): [QuadMatrix.zeros(1, 2)]})
        scale = [QuadMatrix.identity(1).scale(Fraction(ell)),
                 QuadMatrix.identity(1)]
        assert species_is_morphism(w, target, scale)

        # dual principal: reversed, species map is the exact trace form
        r = functor_E(build_example("principal_dual", ell)).rep
        assert r.edge_maps[GELFAND_B_PLUS].is_zero()
        assert r.edge_maps[GELFAND_B_MINUS].is_zero()
        assert rank(r.edge_maps[GELFAND_A_PLUS]) == 1
        assert rank(r.edge_maps[GELFAND_A_MINUS]) == 1
        w = functor_F(r)
        assert w.summand_matrices(0, 1)[0].is_zero()
        trace = w.summand_matrices(1, 0)[0]
        assert trace == QuadMatrix.from_rows([[2, 0]])  # tr(1) = 2, tr(i) = 0
    _finish(6, 10, start,
            "block functor and species diagrams exact for 4 kinds x ell in 1..3")


def _hom_tables(tail_weights):
    mods = {k: build_example(k, 2, tail_weights=tail_weights) for k in KINDS}
    table = {}
    for a in KINDS:
        for b in KINDS:
            dim_k, dim_l, _ = hc_hom_space(mods[a], mods[b])
            assert dim_k == dim_l
            table[(a, b)] = dim_k
    return table


def test_criterion_7_full_faithfulness():
    start = time.monotonic()
    table = _hom_tables(tail_weights=4)
    reps = {k: functor_E(build_example(k, 2)).rep for k in KINDS}
    for a in KINDS:
        for b in KINDS:
            assert table[(a, b)] == hom_space(reps[a], reps[b]).dim_K, (a, b)
    # E on module maps is a bijection Hom(M, N) -> Hom(E M, E N)
    pairs = 0
    for ell in (0, 1, 2, 3):
        mods = [build_example(k, ell) for k in (KINDS if ell else ("discrete",))]
        for m1 in mods:
            for m2 in mods:
                assert_E_bijective_on_hom(m1, m2)
                pairs += 1
    _finish(7, 60, start,
            "HC-side and quiver-side Hom dimensions agree on all 16 pairs at ell=2; "
            f"E is bijective on Hom on {pairs} pairs at ell=0..3")


def test_criterion_8_essential_surjectivity():
    start = time.monotonic()
    rng = random.Random(2028)
    gelfand_cases = 0
    while gelfand_cases < 50:
        ell = rng.randint(1, 3)
        v = random_gelfand_rep(rng, max_dim=3)
        module = inverse_E(v, ell)
        assert validate_hc(module).ok
        rt = roundtrip_hc(v, ell)
        assert rt.path.startswith("constructive")
        gelfand_cases += 1
    cyclic_cases = 0
    while cyclic_cases < 50:
        v = random_cyclic_rep(rng, max_dim=3)
        module = inverse_E(v, 0)
        assert validate_hc(module).ok
        rt = roundtrip_hc(v, 0)
        assert rt.path == "constructive"
        cyclic_cases += 1
    _finish(8, 120, start,
            f"{gelfand_cases} Gelfand + {cyclic_cases} cyclic inverse constructions "
            "validated with constructive round-trip witnesses")


def test_criterion_9_window_robustness():
    start = time.monotonic()
    narrow = _hom_tables(tail_weights=4)   # N = ell + 9
    wide = _hom_tables(tail_weights=8)     # N = ell + 17
    assert narrow == wide
    _finish(9, 60, start, "Hom dimensions stable under window growth ell+9 -> ell+17")

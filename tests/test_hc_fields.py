"""inverse_E and build_example against their references, and the HC side at
every field tag.

ref_inverse_E is the construction that the one-path inverse_E replaced:
a separate branch for the cyclic block (ell = 0) and for the Gelfand blocks
(ell >= 1), each filling its tail ladder maps from a throwaway stub module.
Both build the same module, so the two must be the same certificate (spaces,
rational structure, tail Casimirs, and X and Y at every window weight) for
every field tag Q(sqrt(d)), though inverse_E stores only the core ladder maps.

ref_build_example is the hand-written construction of the four fixtures that
build_example replaced by inverse_E of their diagrams: every window weight,
ladder scalar, dual-principal override and rational structure written out.
The two must dump identically.
"""

import random
from fractions import Fraction

import pytest
from certificate import assert_same_certificate

from rquiver.exact import QuadElement, QuadMatrix
from rquiver.hc import KINDS, HCModule, build_example, functor_E, hc_hom_space, inverse_E, \
    roundtrip_hc, validate_hc
from rquiver.quiver import (
    CYCLIC_A,
    CYCLIC_B,
    CYCLIC_MINUS,
    CYCLIC_PLUS,
    GELFAND_A_MINUS,
    GELFAND_A_PLUS,
    GELFAND_B_MINUS,
    GELFAND_B_PLUS,
    GELFAND_MINUS,
    GELFAND_PLUS,
    GELFAND_STAR,
    cyclic_quiver,
    gelfand_quiver,
)
from rquiver.randomgen import random_cyclic_rep, random_gelfand_rep
from rquiver.reps import hom_space, validate_rep
from rquiver.serialize import dump_hc, load_hc
from rquiver.unipotent import scaled_sqrt

FIELD_TAGS = (Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-5, 3))


# ---------------------------------------------------------------- reference

def ref_gelfand_pieces(v):
    b_a_plus = v.edge_maps[GELFAND_A_PLUS]
    b_a_minus = v.edge_maps[GELFAND_A_MINUS]
    b_b_plus = v.edge_maps[GELFAND_B_PLUS]
    b_b_minus = v.edge_maps[GELFAND_B_MINUS]
    n_plus = b_b_plus * b_a_plus
    n_minus = b_b_minus * b_a_minus
    n_star_plus = b_a_plus * b_b_plus
    n_star_minus = b_a_minus * b_b_minus
    if n_star_plus != n_star_minus:
        raise ValueError("input violates the Gelfand relation")
    return b_a_plus, b_a_minus, b_b_plus, b_b_minus, n_plus, n_minus, n_star_plus


def ref_inverse_E(v, ell, tail_weights):
    report = validate_rep(v)
    if not report.ok:
        raise ValueError(f"invalid representation: {report.failures()}")
    d = v.d
    epsilon = (ell + 1) % 2
    n_window = ell + 1 + 2 * tail_weights

    if ell == 0:
        if v.quiver != cyclic_quiver():
            raise ValueError("ell = 0 expects a cyclic-quiver representation")
        b_a = v.edge_maps[CYCLIC_A]
        b_b = v.edge_maps[CYCLIC_B]
        dim_p = v.dims[CYCLIC_PLUS]
        dim_m = v.dims[CYCLIC_MINUS]
        n_plus = b_a * b_b
        n_minus = b_b * b_a
        spaces = {}
        for w in range(-n_window, n_window + 1):
            if (w - epsilon) % 2:
                continue
            spaces[w] = dim_p if w >= 1 else dim_m
        x_maps, y_maps, rat = {}, {}, {}
        phi_plus = n_plus.scale(4)
        phi_minus = n_minus.scale(4)
        stub = HCModule(ell, epsilon, n_window, spaces, {}, {}, {},
                        phi_plus, phi_minus, d)
        for w in stub.weights():
            if w + 2 <= n_window:
                x_maps[w] = b_a if w == -1 else stub._tail_x(w)
            if w - 2 >= -n_window:
                y_maps[w] = b_b if w == 1 else stub._tail_y(w)
            rat[w] = v.rho[CYCLIC_PLUS] if w >= 1 else v.rho[CYCLIC_MINUS]
        out = HCModule(ell, epsilon, n_window, spaces, x_maps, y_maps, rat,
                       phi_plus, phi_minus, d)
        rep = validate_hc(out)
        if not rep.ok:
            raise AssertionError(f"construction bug: {rep.failures()}")
        return out

    if v.quiver != gelfand_quiver():
        raise ValueError("ell >= 1 expects a Gelfand-quiver representation")
    b_a_plus, b_a_minus, b_b_plus, b_b_minus, n_plus, n_minus, n_star = \
        ref_gelfand_pieces(v)
    lam = Fraction(ell * ell)
    phi_plus = QuadMatrix.identity(n_plus.rows, d).scale(lam) + n_plus.scale(4)
    phi_minus = QuadMatrix.identity(n_minus.rows, d).scale(lam) + n_minus.scale(4)
    phi_star = QuadMatrix.identity(n_star.rows, d).scale(lam) + n_star.scale(4)
    s_star = scaled_sqrt(phi_star, QuadElement(ell, 0, d))

    dim_p = v.dims[GELFAND_PLUS]
    dim_m = v.dims[GELFAND_MINUS]
    dim_s = v.dims[GELFAND_STAR]
    spaces = {}
    for w in range(-n_window, n_window + 1):
        if (w - epsilon) % 2:
            continue
        spaces[w] = dim_p if w >= ell + 1 else dim_m if w <= -(ell + 1) else dim_s
    half = QuadElement(Fraction(1, 2), 0, d)
    ident_s = QuadMatrix.identity(dim_s, d)
    stub = HCModule(ell, epsilon, n_window, spaces, {}, {}, {},
                    phi_plus, phi_minus, d)
    x_maps, y_maps, rat = {}, {}, {}
    for w in stub.weights():
        if w + 2 <= n_window:
            if w == -(ell + 1):
                x_maps[w] = b_a_minus
            elif w == ell - 1:
                x_maps[w] = b_b_plus
            elif -(ell - 1) <= w <= ell - 3:
                x_maps[w] = (s_star + ident_s.scale(w + 1)).scale(half)
            else:
                x_maps[w] = stub._tail_x(w)
        if w - 2 >= -n_window:
            if w == ell + 1:
                y_maps[w] = b_a_plus
            elif w == -(ell - 1):
                y_maps[w] = b_b_minus
            elif -(ell - 3) <= w <= ell - 1:
                y_maps[w] = (s_star - ident_s.scale(w - 1)).scale(half)
            else:
                y_maps[w] = stub._tail_y(w)
        if w >= ell + 1:
            rat[w] = v.rho[GELFAND_PLUS]
        elif w <= -(ell + 1):
            rat[w] = v.rho[GELFAND_MINUS]
        else:
            rat[w] = v.rho[GELFAND_STAR]
    out = HCModule(ell, epsilon, n_window, spaces, x_maps, y_maps, rat,
                   phi_plus, phi_minus, d)
    rep = validate_hc(out)
    if not rep.ok:
        raise AssertionError(f"construction bug: {rep.failures()}")
    return out


def ref_build_example(kind, ell, tail_weights, d):
    """All weight spaces are one-dimensional where nonzero; the ladder scalars
    are X = (ell + w + 1)/2 and Y = (ell - w + 1)/2, which vanish at exactly
    the right spots for the finite, discrete and principal shapes; the dual
    principal overrides the two outgoing boundary maps to zero."""
    epsilon = (ell + 1) % 2
    n_window = ell + 1 + 2 * tail_weights

    def dim_at(w):
        if kind == "finite":
            return 1 if abs(w) <= ell - 1 else 0
        if kind == "discrete":
            return 1 if abs(w) >= ell + 1 else 0
        return 1

    spaces = {}
    for w in range(-n_window, n_window + 1):
        if (w - epsilon) % 2 == 0:
            spaces[w] = dim_at(w)

    def scalars(w):
        x = Fraction(ell + w + 1, 2)
        y = Fraction(ell - w + 1, 2)
        if kind == "principal_dual":
            # kill the b-maps, revive the a-maps (brackets stay intact since
            # each boundary product pairs an override with a zero)
            if w == ell - 1:
                x = Fraction(0)
            if w == -(ell - 1):
                y = Fraction(0)
            if w == -(ell + 1):
                x = Fraction(1)
            if w == ell + 1:
                y = Fraction(1)
        return x, y

    x_maps, y_maps, rat = {}, {}, {}
    for w in spaces:
        x_scal, y_scal = scalars(w)
        if w + 2 <= n_window:
            x_maps[w] = QuadMatrix.zeros(spaces[w + 2], spaces[w], d) if (
                spaces[w] == 0 or spaces[w + 2] == 0) else \
                QuadMatrix.identity(1, d).scale(x_scal)
        if w - 2 >= -n_window:
            y_maps[w] = QuadMatrix.zeros(spaces[w - 2], spaces[w], d) if (
                spaces[w] == 0 or spaces[w - 2] == 0) else \
                QuadMatrix.identity(1, d).scale(y_scal)
        rat[w] = QuadMatrix.identity(spaces[w], d) if spaces[w] == spaces[-w] else \
            QuadMatrix.zeros(spaces[-w], spaces[w], d)

    phi = QuadMatrix.identity(dim_at(n_window), d).scale(Fraction(ell * ell))
    module = HCModule(ell, epsilon, n_window, spaces, x_maps, y_maps, rat, phi, phi, d)
    report = validate_hc(module)
    if not report.ok:
        raise AssertionError(f"fixture bug ({kind}, ell={ell}): {report.failures()}")
    return module


# ---------------------------------------------------------------- inputs

def block_reps(d, ell, count, seed=3):
    """Seeded nilpotent rational reps of the quiver of block ell, max_dim 2."""
    rng = random.Random(1000 * seed + 10 * ell + FIELD_TAGS.index(d))
    make = random_cyclic_rep if ell == 0 else random_gelfand_rep
    return [make(rng, max_dim=2, d=d) for _ in range(count)]


# ---------------------------------------------------------------- tests

@pytest.mark.parametrize("d", FIELD_TAGS)
def test_inverse_E_matches_reference(d):
    for ell in range(4):
        for v in block_reps(d, ell, 3):
            for tail_weights in (1, 4):
                assert_same_certificate(inverse_E(v, ell, tail_weights),
                                        ref_inverse_E(v, ell, tail_weights))


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_build_example_matches_reference(d):
    for kind in KINDS:
        for ell in range(0 if kind == "discrete" else 1, 4):
            for tail_weights in (1, 4, 8):
                assert dump_hc(build_example(kind, ell, tail_weights, d)) == \
                    dump_hc(ref_build_example(kind, ell, tail_weights, d)), (kind, ell)


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_inverse_E_stores_the_core_only(d):
    """inverse_E stores exactly the ladder maps no tail closed form gives,
    and a dump and load of it is the same certificate."""
    for ell in range(4):
        for v in block_reps(d, ell, 3, seed=7):
            m = inverse_E(v, ell, 2)
            weights = m.weights()
            assert set(m.x_maps) == {w for w in weights[:-1] if not m.x_in_tail(w)}
            assert set(m.y_maps) == {w for w in weights[1:] if not m.y_in_tail(w)}
            assert_same_certificate(load_hc(dump_hc(m)), m)


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_hc_side_properties(d):
    for ell in range(4):
        reps = block_reps(d, ell, 3, seed=5)
        mods = [inverse_E(v, ell, 1) for v in reps]
        for v, m in zip(reps, mods):
            assert m.d == d
            assert validate_hc(m).ok
            assert roundtrip_hc(v, ell).path.startswith("constructive")
        images = [functor_E(m).rep for m in mods]
        for m1, r1 in zip(mods[:2], images):
            for m2, r2 in zip(mods[1:], images[1:]):
                dim_k, dim_l, _ = hc_hom_space(m1, m2)
                assert dim_k == dim_l == hom_space(r1, r2).dim_K

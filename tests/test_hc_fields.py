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

ref_functor_E is E for ell >= 1 as first written: three stabilizations, one
per vertex, a per-step check that the run of (T_-, 1) is the conjugate of the
run of (1, T_+), and a check that the stabilized verticals make the limit
diagram commute.  E now stabilizes once per conjugation orbit and derives the
- side; the two must give the same representation and iteration count.
"""

import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from certificate import assert_same_certificate

import rquiver.exact as exact
import rquiver.hc as hc
import rquiver.reps as reps
import rquiver.unipotent as unipotent
from rquiver.exact import QuadElement, QuadMatrix, inverse, nilpotency_exponent
from rquiver.hc import KINDS, BlockFunctorResult, HCModule, build_example, casimir_matrix, \
    functor_E, hc_hom_space, inverse_E, normalizations, roundtrip_hc, validate_hc
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
from rquiver.randomgen import change_basis, random_cyclic_rep, random_gelfand_rep, \
    random_invertible, strictly_upper
from rquiver.reps import QuiverRep, hom_space, validate_rep
from rquiver.serialize import dump_hc, dump_rep, load_hc, load_rep
from rquiver.unipotent import StabilizationProblem, scaled_sqrt, stabilize, unipotent_sqrt

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


def casimir_t(m, phi):
    """The unipotent Casimir product prod_{j < ell-1} (phi - (ell-2-2j)^2)
    over its scalar part (2^(ell-1) (ell-1)!)^2, at phi = phi_+ (T_+, the +
    problem's phi_-) or phi = phi_- (T_-, which E does not build)."""
    ell = m.ell
    scalar = Fraction(2 ** (ell - 1) * math.factorial(ell - 1)) ** 2
    return hc._casimir_product(phi, ell - 1, ell - 2, m.d).scale(1 / scalar)


def ref_functor_E(m):
    """E of a valid module with ell >= 1, by three stabilizations."""
    ell = m.ell
    star = normalizations(m).star
    x_star, y_star = star.phi_plus, star.phi_minus
    r_plus = m.rat[ell + 1]
    r_minus = m.rat[-(ell + 1)]
    r_star_top = m.rat[ell - 1]

    run_plus = stabilize(StabilizationProblem(
        QuadMatrix.identity(m.dim(ell + 1), m.d), casimir_t(m, m.phi_plus)))
    run_minus = stabilize(StabilizationProblem(
        casimir_t(m, m.phi_minus), QuadMatrix.identity(m.dim(-(ell + 1)), m.d)))
    run_star = stabilize(StabilizationProblem(x_star, y_star))

    # lockstep conjugation invariants, asserted per step
    steps = max(len(run_plus.trace), len(run_minus.trace), len(run_star.trace))

    def at(tr, k):
        return tr[min(k, len(tr) - 1)]

    for k in range(steps):
        pk, qk, _ = at(run_plus.trace, k)
        pk2, qk2, _ = at(run_minus.trace, k)
        if pk2 != r_plus * qk.conj() * r_minus.conj() or \
                qk2 != r_plus * pk.conj() * r_minus.conj():
            raise AssertionError("stabilization runs are not conjugate at step %d" % k)
        ps, qs, _ = at(run_star.trace, k)
        if qs != r_star_top * ps.conj() * r_star_top.conj():
            raise AssertionError("star stabilization loses conjugation symmetry")

    phi_plus_inf = run_plus.phi_plus_inf
    phi_minus_inf = run_minus.phi_plus_inf
    phi_star_inf = run_star.phi_plus_inf

    a_star = r_star_top * phi_star_inf.conj()
    a_plus = r_plus * phi_plus_inf.conj()
    a_minus = r_minus * phi_minus_inf.conj()

    # X*, Y* are square (dim M_w = dim M_-w) and invertible
    x_star_inv, y_star_inv = inverse(x_star), inverse(y_star)

    # limit diagram: the stabilized verticals intertwine the two normalized
    # edge presentations
    x_lo = m.x_at(-(ell + 1))
    y_lo = m.y_at(-(ell - 1))
    x_hi = m.x_at(ell - 1)
    y_hi = m.y_at(ell + 1)
    sq = [
        y_star_inv * x_lo * phi_minus_inf == phi_star_inf * x_lo,
        x_hi * phi_star_inf == phi_plus_inf * x_hi * x_star,
        phi_minus_inf * y_lo == y_lo * y_star * phi_star_inf,
        phi_star_inf * x_star_inv * y_hi == y_hi * phi_plus_inf,
    ]
    if not all(sq):
        raise AssertionError(f"limit diagram does not commute: {sq}")

    q = gelfand_quiver()
    dims = [0, 0, 0]
    dims[GELFAND_STAR] = m.dim(-(ell - 1))
    dims[GELFAND_PLUS] = m.dim(ell + 1)
    dims[GELFAND_MINUS] = m.dim(-(ell + 1))
    edges = [None] * 4
    edges[GELFAND_A_PLUS] = x_star_inv * y_hi
    edges[GELFAND_A_MINUS] = x_lo
    edges[GELFAND_B_PLUS] = x_hi * x_star
    edges[GELFAND_B_MINUS] = y_lo
    rho = [None] * 3
    rho[GELFAND_STAR] = a_star
    rho[GELFAND_PLUS] = a_plus
    rho[GELFAND_MINUS] = a_minus
    iterations = max(run_plus.iterations, run_minus.iterations, run_star.iterations)
    return BlockFunctorResult(QuiverRep(q, dims, edges, rho, m.d), x_star, iterations)


# ---------------------------------------------------------------- inputs

def block_reps(d, ell, count, seed=3):
    """Seeded nilpotent rational reps of the quiver of block ell, max_dim 2."""
    rng = random.Random(1000 * seed + 10 * ell + FIELD_TAGS.index(d))
    make = random_cyclic_rep if ell == 0 else random_gelfand_rep
    return [make(rng, max_dim=2, d=d) for _ in range(count)]


def shift_cyclic_rep(d):
    """The shift J on Q^3 on both cyclic edges with rho = 1, moved by
    g_- = diag(1, 2, 1 + sqrt(d)): ab = J^2 and ba = g_- J^2 g_-^-1 are
    nonzero and differ, so phi_+ != phi_-."""
    shift = QuadMatrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]], d)
    ident = QuadMatrix.identity(3, d)
    gs = [None, None]
    gs[CYCLIC_PLUS] = ident
    gs[CYCLIC_MINUS] = QuadMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, QuadElement(1, 1, d)]], d)
    return change_basis(QuiverRep(cyclic_quiver(), (3, 3), (shift, shift), (ident, ident), d), gs)


# ---------------------------------------------------------------- tests

@pytest.mark.parametrize("d", FIELD_TAGS)
def test_inverse_E_matches_reference(d):
    for ell in range(4):
        for v in block_reps(d, ell, 3):
            for tail_weights in (1, 4):
                assert_same_certificate(inverse_E(v, ell, tail_weights),
                                        ref_inverse_E(v, ell, tail_weights))


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_functor_E_matches_reference(d):
    """One stabilization per conjugation orbit gives the representation and
    iteration count of three, on modules where stabilization has work to do."""
    rng = random.Random(11 + FIELD_TAGS.index(d))
    iterations = set()
    for ell in (1, 2, 3):
        for _ in range(8):
            m = inverse_E(random_gelfand_rep(rng, max_dim=5, d=d), ell, 1)
            res, ref = functor_E(m), ref_functor_E(m)
            assert dump_rep(res.rep) == dump_rep(ref.rep)
            assert res.iterations == ref.iterations
            iterations.add(res.iterations)
    assert max(iterations) >= 2


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


GOLDEN_EXTENSION_REPS = {Fraction(-1): "hc_ext_rep_d-1.json", Fraction(2): "hc_ext_rep_d2.json"}


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_roundtrip_witness_is_the_casimir_root(d):
    """roundtrip_hc reads the - component of its witness off E's rational
    structure, psi_- = rho_v[+] conj(rho_E[-]); it is the proof's T_-^(1/2),
    the unipotent square root of the module's Casimir product, computed here
    as the reference.  The star and + components are X*' and the identity."""
    cases = [(v, ell) for ell in (1, 2, 3, 4) for v in block_reps(d, ell, 10, seed=31)]
    if d in GOLDEN_EXTENSION_REPS:
        golden = Path(__file__).parent / "golden" / GOLDEN_EXTENSION_REPS[d]
        cases.append((load_rep(json.loads(golden.read_text())), 2))
    for v, ell in cases:
        rt = roundtrip_hc(v, ell)
        t_minus = casimir_t(rt.module, rt.module.phi_minus)
        assert rt.witness[GELFAND_MINUS] == unipotent_sqrt(t_minus)
        assert rt.witness[GELFAND_STAR] == normalizations(rt.module).star.phi_plus
        assert rt.witness[GELFAND_PLUS].is_identity()


def moved_at(m, w, g):
    """m in the basis g of M_w, w != 0 a weight with |w| < ell + 1: X, Y and
    rat into M_w gain g, out of it g^-1 (rat semilinearly, conj(g)^-1).
    Inside inverse_E's modules X* and Y* are polynomials in one matrix and
    commute; at w = -(ell-1) this keeps X* Y* and conjugates Y* X* by g."""
    inv = inverse(g)
    x, y, rat = dict(m.x_maps), dict(m.y_maps), dict(m.rat)
    x[w], x[w - 2] = m.x_at(w) * inv, g * m.x_at(w - 2)
    y[w], y[w + 2] = m.y_at(w) * inv, g * m.y_at(w + 2)
    rat[w], rat[-w] = m.rat[w] * inverse(g.conj()), g * m.rat[-w]
    moved = HCModule(m.ell, m.epsilon, m.window, m.spaces, x, y, rat, m.phi_plus,
                     m.phi_minus, m.d)
    assert validate_hc(moved).ok
    return moved


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_normalizations_x_star_inv_is_the_inverse(d):
    """x_star_inv, (Y* X*)^-1 Y* with the Neumann series of the star
    problem's powers, is X*^-1 as an elimination finds it, also where X* and
    Y* do not commute (there (X* Y*)^-1 Y* is not X*^-1).  T_-, which
    normalizations does not build, is unipotent on each of these modules, as
    validate_hc's "tail-dims" proves."""
    rng = random.Random(43 + FIELD_TAGS.index(d))
    noncommuting = 0
    for ell in (1, 2, 3, 4):
        mods = [inverse_E(v, ell) for v in block_reps(d, ell, 6, seed=43)]
        mods += [build_example(kind, ell, 1, d) for kind in KINDS]
        if ell >= 2:
            w = -(ell - 1)
            mods += [moved_at(m, w, random_invertible(rng, m.dim(w), d=d)) for m in mods]
        for m in mods:
            norms = normalizations(m)
            x_star, y_star = norms.star.phi_plus, norms.star.phi_minus
            assert norms.x_star_inv == inverse(x_star)
            noncommuting += x_star * y_star != y_star * x_star
            t_minus = casimir_t(m, m.phi_minus)
            assert nilpotency_exponent(t_minus - QuadMatrix.identity(t_minus.rows, d)) is not None
    assert noncommuting


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_functor_E_walks_the_powers_twice(d, monkeypatch):
    """A valid ell >= 1 _functor_E makes two walks over the powers of a
    matrix, those of its two stabilization problems, which are also
    normalizations' unipotence checks.  (Five while normalizations walked
    T_+ - 1, T_- - 1 and X* Y* - 1 itself.)"""
    walk, walks = exact._nilpotent_powers, []

    def counting(n):
        walks.append(n.rows)
        return walk(n)

    monkeypatch.setattr(exact, "_nilpotent_powers", counting)
    monkeypatch.setattr(unipotent, "_nilpotent_powers", counting)
    for ell in (1, 2, 3, 4):
        for m in [inverse_E(v, ell) for v in block_reps(d, ell, 3, seed=47)] + \
                [build_example("principal", ell, 1, d)]:
            walks.clear()
            hc._functor_E(m)
            assert len(walks) == 2, (ell, walks)


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_roundtrip_validates_its_input_once(d, monkeypatch):
    """A round trip checks its input rep once (in inverse_E, by the structure
    checks and one cycle composite) and runs no validate_rep, no
    is_nilpotent_rep and no validate_hc: the module inverse_E builds is valid
    by the proof in its docstring, and E's image is checked through the
    witness.  It builds one module and computes its normalizations once.
    (Before the cycle composite, each round trip made one validate_rep call
    and so one is_nilpotent_rep call.)"""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    rep_check = counted("validate_rep", reps.validate_rep)
    monkeypatch.setattr(hc, "validate_rep", rep_check)
    monkeypatch.setattr(reps, "validate_rep", rep_check)
    structure = counted("_validate_structure", reps._validate_structure)
    monkeypatch.setattr(hc, "_validate_structure", structure)
    monkeypatch.setattr(reps, "_validate_structure", structure)
    monkeypatch.setattr(reps, "is_nilpotent_rep",
                        counted("is_nilpotent_rep", reps.is_nilpotent_rep))
    monkeypatch.setattr(hc, "validate_hc", counted("validate_hc", hc.validate_hc))
    monkeypatch.setattr(hc, "normalizations", counted("normalizations", hc.normalizations))
    monkeypatch.setattr(HCModule, "__init__", counted("HCModule", HCModule.__init__))
    for ell in range(4):
        for v in block_reps(d, ell, 2, seed=17):
            calls.clear()
            roundtrip_hc(v, ell)
            assert calls == {"_validate_structure": 1, "HCModule": 1,
                             **({"normalizations": 1} if ell else {})}, ell
            calls.clear()
            inverse_E(v, ell)
            assert calls == {"_validate_structure": 1, "HCModule": 1}, ell


def failed_checks(m):
    return {name for name, _ in validate_hc(m).failures()}


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_validate_hc_rejects_a_wrong_closed_form(d, monkeypatch):
    """inverse_E returns its module unchecked, so the tests' validate_hc must
    catch a construction that breaks the proof in its docstring.

    - The interior closed forms 2X_w = s + w + 1, 2Y_{w+2} = s - w - 1 with
      s + 1 in place of s (ell >= 2, where they are built, and a nonzero star
      space): the bracket at -(ell-1) is off by -(2s + 1), whose eigenvalues
      are -(2 ell + 1), so every such module is rejected.
    - The two tail Casimirs exchanged, phi_+ = ell^2 + 4 Y_{-ell+1} X_{-ell-1}
      and phi_- = ell^2 + 4 X_{ell-1} Y_{ell+1} (for ell = 0 the cycle ba on
      the + tail and ab on the - tail): the bracket at ell+1 then fails
      exactly when the two composites differ, that is, whenever the mutant
      changes the module.
    """
    real_sqrt, real_module = hc.scaled_sqrt, hc.HCModule

    def shifted_sqrt(phi, gamma):
        return real_sqrt(phi, gamma) + QuadMatrix.identity(phi.rows, phi.d)

    def swapped_tails(*args):
        *head, phi_plus, phi_minus, field = args
        return real_module(*head, phi_minus, phi_plus, field)

    rejected = 0
    for ell in (2, 3):
        for v in block_reps(d, ell, 6, seed=23):
            if v.dims[GELFAND_STAR] == 0:
                continue
            with monkeypatch.context() as mp:
                mp.setattr(hc, "scaled_sqrt", shifted_sqrt)
                m = inverse_E(v, ell, 1)
            assert "bracket" in failed_checks(m)
            rejected += 1
    assert rejected >= 4

    # the shift rep first, then random reps, where the composites mostly agree
    rng = random.Random(29 + FIELD_TAGS.index(d))
    cases = [(shift_cyclic_rep(d), 0)] + [(random_cyclic_rep(rng, max_dim=3, d=d), 0) for _ in range(4)] + \
        [(random_gelfand_rep(rng, max_dim=3, d=d), 1) for _ in range(4)]
    for k, (v, ell) in enumerate(cases):
        m = inverse_E(v, ell, 1)
        with monkeypatch.context() as mp:
            mp.setattr(hc, "HCModule", swapped_tails)
            bad = inverse_E(v, ell, 1)
        assert validate_hc(m).ok
        if k == 0:
            assert m.phi_plus != m.phi_minus
        if m.phi_plus == m.phi_minus:
            assert validate_hc(bad).ok
        else:
            assert "bracket" in failed_checks(bad)


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_tail_closed_forms_satisfy_the_module_identities(d):
    """validate_hc checks the core weights and derives the tails from the
    closed forms by the proof in its docstring; here the tail maps x_at and
    y_at derive are checked at every window weight instead: the bracket
    4[X, Y] = 4w, the conjugation swap, and C = phi_+- on the tails."""
    for ell in range(4):
        inputs = block_reps(d, ell, 3, seed=31) + ([shift_cyclic_rep(d)] if ell == 0 else [])
        for v in inputs:
            m = inverse_E(v, ell, 2)
            ws = m.weights()
            for w in ws[:-1]:
                assert m.rat[w + 2] * m.x_at(w).conj() == m.y_at(-w) * m.rat[w], (ell, w)
            for w in ws[1:-1]:
                four_w = QuadMatrix.identity(m.dim(w), d).scale(4 * w)
                assert (m.x_at(w - 2) * m.y_at(w) - m.y_at(w + 2) * m.x_at(w)).scale(4) == four_w
            for w in ws[1:]:
                if abs(w) >= ell + 1:
                    assert casimir_matrix(m, w) == (m.phi_plus if w > 0 else m.phi_minus), (ell, w)


# ---------------------------------------------------------------- the rep check

def check_reps(d, ell, count, seed=41):
    """Seeded reps of the ell-block's quiver over Q(sqrt(d)), dims up to 3,
    moved to a random basis, count of each kind:
    - nilpotent (randomgen);
    - a unipotent cycle: for ell >= 1, a_+ = S (1 + N) and b_+ = S^-1 in the
      gauge rho = 1, with S rational and N strictly upper (b_+ a_+ = 1 + N,
      and a_+ b_+ is rational, so the relation holds); for ell = 0,
      a = p (1 + N) conj(p)^-1 and b = conj(a), so ab = p (1 + N)^2 p^-1;
    - for ell >= 1, a nilpotent cycle that breaks the relation when it is
      nonzero: a_+ = E, the first columns of 1, and b_+ = sqrt(d) N with N
      strictly upper, so b_+ a_+ and a_+ b_+ are strictly upper and
      a_- b_- = -a_+ b_+;
    - one entry of one edge map of a nilpotent draw moved by 1, which mostly
      breaks edge-equivariance."""
    rng = random.Random(1000 * seed + 10 * ell + FIELD_TAGS.index(d))
    make = random_cyclic_rep if ell == 0 else random_gelfand_rep
    ident = [QuadMatrix.identity(n, d) for n in range(4)]
    sqrt_d = QuadElement(0, 1, d)
    out = []
    for _ in range(count):
        nilpotent = make(rng, max_dim=3, d=d)
        n = rng.randint(1, 3)
        unipotent = ident[n] + strictly_upper(rng, n, rational=True, d=d)
        if ell == 0:
            p = random_invertible(rng, n, d=d)
            a = p * unipotent * inverse(p.conj())
            kinds = [(cyclic_quiver(), (n, n), [a, a.conj()])]
        else:
            s = random_invertible(rng, n, rational=True, d=d)
            ds, dp = rng.randint(1, 3), rng.randint(1, 3)
            e = QuadMatrix.from_rows([[int(i == j) for j in range(dp)] for i in range(ds)], d)
            kinds = [(s * unipotent, inverse(s), (n, n, n)),
                     (e, strictly_upper(rng, dp, d=d, rational=True).scale(sqrt_d)
                      * QuadMatrix.from_rows([[int(i == j) for j in range(ds)]
                                              for i in range(dp)], d), (ds, dp, dp))]
            for k, (a_plus, b_plus, dims) in enumerate(kinds):
                edges = [None] * 4
                edges[GELFAND_A_PLUS], edges[GELFAND_A_MINUS] = a_plus, a_plus.conj()
                edges[GELFAND_B_PLUS], edges[GELFAND_B_MINUS] = b_plus, b_plus.conj()
                kinds[k] = (gelfand_quiver(), dims, edges)
        for q, dims, edges in kinds:
            rep = QuiverRep(q, dims, edges, [ident[m] for m in dims], d)
            out.append(change_basis(rep, [random_invertible(rng, m, d=d) for m in dims]))
        out.append(nilpotent)
        edges = list(nilpotent.edge_maps)
        e = rng.randrange(len(edges))
        if edges[e].rows and edges[e].cols:
            i, j = rng.randrange(edges[e].rows), rng.randrange(edges[e].cols)
            edges[e] = edges[e] + QuadMatrix.from_rows(
                [[int((r, c) == (i, j)) for c in range(edges[e].cols)]
                 for r in range(edges[e].rows)], d)
            out.append(QuiverRep(nilpotent.quiver, nilpotent.dims, edges, nilpotent.rho, d))
    return out


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_rep_check_accepts_exactly_what_validate_rep_accepts(d):
    """inverse_E checks its input by the structure checks and the powers of
    one cycle composite (hc._nilpotent_cycle) instead of validate_rep, which
    runs the same structure checks and is_nilpotent_rep's image chain.  On
    every rep of check_reps the check returns X_{ell-1} Y_{ell+1} exactly
    when validate_rep(v).ok, and otherwise inverse_E raises validate_rep's
    failures as its message.  Every kind of verdict shows up: accepted, not
    nilpotent after passing the structure checks, the relation broken, and
    edge-equivariance broken."""
    seen = Counter()
    for ell in range(4):
        ladder = hc._block(ell)[2]
        for v in check_reps(d, ell, 6):
            report = validate_rep(v)
            cycle = hc._nilpotent_cycle(v, ell)
            if report.ok:
                seen["ok"] += 1
                assert cycle == v.edge_maps[ladder.index((2, ell - 1))] \
                    * v.edge_maps[ladder.index((-2, ell + 1))]
                inverse_E(v, ell)
                continue
            assert cycle is None
            seen[report.failures()[0][0]] += 1
            with pytest.raises(ValueError) as exc:
                inverse_E(v, ell)
            assert str(exc.value) == f"invalid representation: {report.failures()}"
    assert set(seen) == {"ok", "nilpotent", "relations-literal", "edge-equivariance"}, seen


def test_functor_E_names_a_broken_image_by_validate_rep(monkeypatch):
    """functor_E checks its image as inverse_E checks its input, and a
    rejected image is a construction bug named by validate_rep's failures."""
    one = QuadMatrix.identity(1)
    looped = QuiverRep(gelfand_quiver(), (1, 1, 1), [one] * 4, [one] * 3)
    module = build_example("principal", 1)
    monkeypatch.setattr(hc, "_functor_E", lambda m: BlockFunctorResult(looped, None, 0))
    with pytest.raises(AssertionError) as exc:
        functor_E(module)
    assert str(exc.value) == f"construction bug: {validate_rep(looped).failures()}"
    assert str(exc.value) == \
        "construction bug: [('nilpotent', 'a cyclic composite is not nilpotent')]"

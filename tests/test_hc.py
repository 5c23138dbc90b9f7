import json
import math
import random
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from certificate import assert_E_bijective_on_hom, assert_same_certificate

import rquiver.hc as hc
from rquiver.exact import QuadElement, QuadMatrix, inverse, nilpotency_exponent
from rquiver.hc import (
    BadParity,
    HCModule,
    NotApplicable,
    OutOfWindow,
    build_example,
    casimir_matrix,
    functor_E,
    functor_E_map,
    hc_hom_space,
    inverse_E,
    normalizations,
    power_product_identity,
    roundtrip_hc,
    validate_hc,
)
from rquiver.quiver import (
    CYCLIC_PLUS,
    GELFAND_A_MINUS,
    GELFAND_A_PLUS,
    GELFAND_B_MINUS,
    GELFAND_B_PLUS,
    GELFAND_MINUS,
    GELFAND_PLUS,
    GELFAND_STAR,
    gelfand_quiver,
)
from rquiver.randomgen import random_cyclic_rep, random_gelfand_rep
from rquiver.reps import QuiverRep, is_morphism, validate_rep
from rquiver.unipotent import scaled_sqrt

FIELD_TAGS = (Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-5, 3))


def pp_ext_rep(ell):
    """Self-extension-like rep: all spaces L^2, b = 1, a = nilpotent."""
    q = gelfand_quiver()
    one = QuadMatrix.identity(2)
    nil = QuadMatrix.from_rows([[0, 1], [0, 0]])
    edges = [None] * 4
    edges[GELFAND_A_PLUS] = nil
    edges[GELFAND_A_MINUS] = nil
    edges[GELFAND_B_PLUS] = one
    edges[GELFAND_B_MINUS] = one
    rep = QuiverRep(q, (2, 2, 2), edges, (one, one, one))
    assert validate_rep(rep).ok
    return rep


# ---------------------------------------------------------------- fixtures

@pytest.mark.parametrize("kind,ell", [
    ("finite", 1), ("finite", 2), ("finite", 3),
    ("discrete", 0), ("discrete", 1), ("discrete", 2),
    ("principal", 1), ("principal", 2), ("principal", 3),
    ("principal_dual", 1), ("principal_dual", 2), ("principal_dual", 3),
])
def test_fixtures_validate(kind, ell):
    m = build_example(kind, ell)
    assert validate_hc(m).ok


def test_finite_dimension_pattern():
    m = build_example("finite", 2)
    assert m.dim(-1) == 1 and m.dim(1) == 1
    assert m.dim(-3) == 0 and m.dim(3) == 0
    assert casimir_matrix(m, 1) == QuadMatrix.identity(1).scale(4)


def test_bad_parity_rejected():
    m = build_example("principal", 1)
    assert m.epsilon == 0
    with pytest.raises(BadParity):
        HCModule(m.ell, 1, m.window, m.spaces, m.x_maps, m.y_maps, m.rat,
                 m.phi_plus, m.phi_minus)
    with pytest.raises(NotApplicable):
        build_example("finite", 0)


@pytest.mark.parametrize("key, value, message", [
    ("ell", 2.0, "ell, epsilon, window must be ints: 2.0, 1, 11"),
    ("epsilon", True, "ell, epsilon, window must be ints: 2, True, 11"),
    ("window", 11.9, "ell, epsilon, window must be ints: 2, 1, 11.9"),
    ("spaces", -1, "dimension -1 is not a nonnegative int"),
    ("spaces", True, "dimension True is not a nonnegative int"),
    ("spaces", 1.0, "dimension 1.0 is not a nonnegative int"),
])
def test_module_fields_must_be_ints(key, value, message):
    """ell, epsilon and window are ints, not truncated by int(), and every
    space dimension is a nonnegative int, as QuiverRep requires of dims."""
    m = build_example("principal", 2)
    fields = {"ell": m.ell, "epsilon": m.epsilon, "window": m.window, "spaces": dict(m.spaces)}
    if key == "spaces":
        fields["spaces"][1] = value
    else:
        fields[key] = value
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        HCModule(fields["ell"], fields["epsilon"], fields["window"], fields["spaces"],
                 m.x_maps, m.y_maps, m.rat, m.phi_plus, m.phi_minus)


def test_validator_catches_bracket_break():
    # scale an interior ladder map whose partner is nonzero
    m = build_example("finite", 3)
    broken = HCModule(m.ell, m.epsilon, m.window, m.spaces,
                      {**m.x_maps, 0: m.x_maps[0].scale(2)},
                      m.y_maps, m.rat, m.phi_plus, m.phi_minus)
    rep = validate_hc(broken)
    assert not rep.ok
    assert any(name == "bracket" for name, _ in rep.failures())


def test_validator_catches_zeroed_boundary_map():
    # zeroing b_+ inside the principal module breaks the conjugation swap
    m = build_example("principal", 2)
    broken = HCModule(m.ell, m.epsilon, m.window, m.spaces,
                      {**m.x_maps, 1: m.x_maps[1].scale(0)},
                      m.y_maps, m.rat, m.phi_plus, m.phi_minus)
    rep = validate_hc(broken)
    assert not rep.ok
    assert any(name == "conjugation-swap" for name, _ in rep.failures())


def test_validator_catches_conjugation_break():
    m = build_example("principal", 2)
    bad_rat = dict(m.rat)
    bad_rat[1] = bad_rat[1].scale(QuadMatrix.identity(1).entries[0] * 2)
    broken = HCModule(m.ell, m.epsilon, m.window, m.spaces, m.x_maps,
                      m.y_maps, bad_rat, m.phi_plus, m.phi_minus)
    rep = validate_hc(broken)
    assert not rep.ok


@pytest.mark.parametrize("tail,failed", [
    # square, but 5 - ell^2 is not nilpotent
    ({"rows": 1, "cols": 1, "entries": [[5, 1, 0, 1]]}, "tail-dims"),
    ({"rows": 1, "cols": 2, "entries": [[1, 1, 0, 1], [0, 1, 0, 1]]}, "shape"),
])
def test_validator_reports_malformed_tail(tmp_path, capsys, tail, failed):
    """A malformed tail Casimir gives a FAIL report, not an exception."""
    from rquiver.cli import main
    from rquiver.serialize import dump_hc, load_hc

    doc = dump_hc(build_example("principal", 1))
    doc["tails"]["plus"] = tail
    rep = validate_hc(load_hc(doc))
    assert [name for name, _ in rep.failures()] == [failed]
    assert rep.checks[-1][0] == failed
    path = tmp_path / "module.json"
    path.write_text(json.dumps(doc))
    assert main(["hc", "validate", "--in", str(path)]) == 1
    assert f"FAIL {failed}" in capsys.readouterr().out


# ---------------------------------------------------------------- casimir

def test_casimir_scalar_on_irreducibles():
    for kind in ("finite", "discrete"):
        for ell in (1, 2, 3):
            m = build_example(kind, ell)
            for w in m.weights():
                if m.dim(w):
                    assert casimir_matrix(m, w) == \
                        QuadMatrix.identity(m.dim(w)).scale(Fraction(ell * ell))


def test_casimir_nilpotent_part_on_extension():
    ell = 2
    m = inverse_E(pp_ext_rep(ell), ell)
    lam = QuadMatrix.identity(2).scale(Fraction(ell * ell))
    seen_nonzero = False
    for w in m.weights():
        dev = casimir_matrix(m, w) - lam
        e = nilpotency_exponent(dev)
        assert e is not None and e <= 2
        if not dev.is_zero():
            seen_nonzero = True
    assert seen_nonzero


def test_casimir_out_of_window():
    m = build_example("finite", 2)
    with pytest.raises(OutOfWindow):
        casimir_matrix(m, m.window + 2)


# ---------------------------------------------------------------- powers

def test_power_product_constants():
    # scalar = prod (ell^2 - (k-2j)^2) = 4^(ell-1) ((ell-1)!)^2 at k = ell-2
    for ell in (1, 2, 3, 4, 5):
        m = build_example("principal", ell)
        ok, scalar, lhs, rhs = power_product_identity(m, ell - 1, ell - 2)
        assert ok
        assert scalar == Fraction(4 ** (ell - 1)) * math.factorial(ell - 1) ** 2
    m = build_example("principal", 2)
    ok, scalar, _, _ = power_product_identity(m, 1, 0)
    assert ok and scalar == 4
    m = build_example("principal", 3)
    ok, scalar, _, _ = power_product_identity(m, 2, 1)
    assert ok and scalar == 64
    ok, scalar, lhs, rhs = power_product_identity(m, 0, 1)
    assert ok and scalar == 1 and lhs.is_identity()


def test_power_product_on_extension():
    ell = 2
    m = inverse_E(pp_ext_rep(ell), ell)
    ok, _, _, _ = power_product_identity(m, 1, 0)
    assert ok


# ---------------------------------------------------------------- norms

def test_normalizations_gamma():
    for ell in (1, 2, 3, 4):
        m = build_example("principal", ell)
        norms = normalizations(m)
        assert norms.gamma_star == math.factorial(ell - 1)


def test_normalizations_finite_exact_identity():
    for ell in (1, 2, 3):
        m = build_example("finite", ell)
        star = normalizations(m).star
        assert (star.phi_plus * star.phi_minus).is_identity()


def test_normalizations_t_unipotent_with_nilpotent_part():
    """T_+ is the + problem's phi_-; T_-, which normalizations does not build,
    is the same Casimir product of phi_-, built here."""
    ell = 2
    m = inverse_E(pp_ext_rep(ell), ell)
    norms = normalizations(m)
    assert norms.plus.phi_plus.is_identity()
    # over the scalar part (2^(ell-1) (ell-1)!)^2 = 4
    t_minus = hc._casimir_product(m.phi_minus, ell - 1, ell - 2, m.d).scale(Fraction(1, 4))
    for t in (norms.plus.phi_minus, t_minus):
        dev = t - QuadMatrix.identity(2)
        assert not dev.is_zero()
        assert nilpotency_exponent(dev) is not None


def test_normalizations_invert_x_star_y_star():
    for ell in (1, 2, 3):
        for m in (build_example("principal", ell), inverse_E(pp_ext_rep(ell), ell)):
            norms = normalizations(m)
            assert (norms.x_star_inv * norms.star.phi_plus).is_identity()
            assert (norms.star.phi_plus * norms.x_star_inv).is_identity()


def test_normalizations_reject_non_unipotent_x_star_y_star():
    for d in FIELD_TAGS:
        m = build_example("principal", 2, d=d)
        m.x_maps[-1] = m.x_maps[-1].scale(2)   # X* Y* = X_-1 Y_1 becomes 2
        with pytest.raises(ValueError, match="^X\\* Y\\* is not unipotent; module is invalid$"):
            normalizations(m)


def test_normalizations_reject_non_unipotent_t():
    """T_+ is checked first: with X* Y* broken too, T_+ is named."""
    for d in FIELD_TAGS:
        m = build_example("principal", 2, d=d)
        m.phi_plus = m.phi_plus.scale(2)   # T_+ = phi_+ / (2^(ell-1) gamma_star)^2 = 8/4 = 2
        with pytest.raises(ValueError, match="^T operator is not unipotent; module is invalid$"):
            normalizations(m)
        m.x_maps[-1] = m.x_maps[-1].scale(2)
        with pytest.raises(ValueError, match="^T operator is not unipotent; module is invalid$"):
            normalizations(m)


def test_normalizations_not_applicable():
    m = build_example("discrete", 0)
    with pytest.raises(NotApplicable):
        normalizations(m)


# ---------------------------------------------------------------- functor E

def test_E_finite():
    for ell in (1, 2, 3):
        m = build_example("finite", ell)
        res = functor_E(m)
        r = res.rep
        assert r.dims[GELFAND_PLUS] == 0 and r.dims[GELFAND_MINUS] == 0
        assert r.dims[GELFAND_STAR] == 1
        # phi_star = c o X* with X* = identity here
        assert r.rho[GELFAND_STAR] == res.x_star
        assert r.rho[GELFAND_STAR].is_identity()


def test_E_discrete():
    for ell in (1, 2):
        m = build_example("discrete", ell)
        r = functor_E(m).rep
        assert r.dims[GELFAND_STAR] == 0
        assert r.rho[GELFAND_PLUS].is_identity()   # phi_+- = c
        assert r.rho[GELFAND_MINUS].is_identity()
        assert all(mat.is_zero() for mat in r.edge_maps)


def test_E_discrete_cyclic_block():
    m = build_example("discrete", 0)
    r = functor_E(m).rep
    assert r.dims == (1, 1)
    assert all(mat.is_zero() for mat in r.edge_maps)
    assert r.rho[0].is_identity() and r.rho[1].is_identity()


def test_E_principal_pattern():
    from rquiver.exact import rank

    for ell in (1, 2, 3):
        r = functor_E(build_example("principal", ell)).rep
        assert r.edge_maps[GELFAND_A_PLUS].is_zero()
        assert r.edge_maps[GELFAND_A_MINUS].is_zero()
        assert rank(r.edge_maps[GELFAND_B_PLUS]) == 1
        assert rank(r.edge_maps[GELFAND_B_MINUS]) == 1
        assert r.rho[GELFAND_PLUS].is_identity()
        assert r.rho[GELFAND_STAR].is_identity()
        dual = functor_E(build_example("principal_dual", ell)).rep
        assert dual.edge_maps[GELFAND_B_PLUS].is_zero()
        assert dual.edge_maps[GELFAND_B_MINUS].is_zero()
        assert rank(dual.edge_maps[GELFAND_A_PLUS]) == 1
        assert rank(dual.edge_maps[GELFAND_A_MINUS]) == 1


def test_E_output_relation_and_nilpotency():
    # outputs always satisfy the literal relation and nilpotency
    rng = random.Random(123)
    for _ in range(10):
        v = random_gelfand_rep(rng, max_dim=2)
        m = inverse_E(v, 2)
        r = functor_E(m).rep
        rep = validate_rep(r)
        assert rep.ok  # includes literal relation, cocycle, nilpotency


def test_E_stabilization_nontrivial_on_extension():
    ell = 2
    m = inverse_E(pp_ext_rep(ell), ell)
    res = functor_E(m)
    assert res.iterations >= 1
    assert validate_rep(res.rep).ok


# ---------------------------------------------------------------- inverse

def test_inverse_E_discrete_shape():
    ell = 2
    d_rep = functor_E(build_example("discrete", ell)).rep
    m = inverse_E(d_rep, ell)
    for w in m.weights():
        if abs(w) <= ell - 1:
            assert m.dim(w) == 0
        else:
            assert m.dim(w) == 1


def test_inverse_E_zero_rep():
    q = gelfand_quiver()
    z = QuadMatrix.zeros(0, 0)
    r = QuiverRep(q, (0, 0, 0), (z, z, z, z), (z, z, z))
    m = inverse_E(r, 1)
    assert all(m.dim(w) == 0 for w in m.weights())


def test_inverse_E_bracket_across_window():
    rng = random.Random(5)
    v = random_gelfand_rep(rng, max_dim=2)
    m = inverse_E(v, 3)
    for w in m.weights():
        lhs = (m.x_at(w - 2) * m.y_at(w) - m.y_at(w + 2) * m.x_at(w)).scale(4)
        assert lhs == QuadMatrix.identity(m.dim(w)).scale(Fraction(4 * w))


def test_E_then_inverse_E_window_identity_on_fixtures():
    for kind in ("finite", "discrete", "principal", "principal_dual"):
        for ell in (1, 2):
            m = build_example(kind, ell)
            r = functor_E(m).rep
            assert_same_certificate(inverse_E(r, ell), m)


def test_certificate_compare_rejects_a_mismatch():
    # conftest.py registers certificate for assert rewriting, so this holds under -O too
    with pytest.raises(AssertionError):
        assert_same_certificate(build_example("finite", 1), build_example("principal", 2))


def test_public_boundaries_reject_invalid_input():
    m = build_example("finite", 3)
    broken = HCModule(m.ell, m.epsilon, m.window, m.spaces,
                      {**m.x_maps, 0: m.x_maps[0].scale(2)},
                      m.y_maps, m.rat, m.phi_plus, m.phi_minus)
    with pytest.raises(ValueError, match="invalid module"):
        functor_E(broken)
    v = pp_ext_rep(1)
    with pytest.raises(ValueError, match="cyclic-quiver"):
        inverse_E(v, 0)
    with pytest.raises(ValueError, match="Gelfand-quiver"):
        inverse_E(random_cyclic_rep(random.Random(1), max_dim=2), 1)
    edges = list(v.edge_maps)
    edges[GELFAND_A_MINUS] = QuadMatrix.identity(2)
    with pytest.raises(ValueError, match="invalid representation"):
        inverse_E(QuiverRep(v.quiver, v.dims, edges, v.rho), 1)


def test_inverse_E_checks_the_quiver_first(monkeypatch):
    """A rep on the wrong quiver is named as such, also when it would fail
    validate_rep too (the golden rep_c2_62_d2 is not nilpotent), and no
    check of the rep, validate_rep or the structure checks that inverse_E
    runs first, runs on it."""
    from pathlib import Path

    from rquiver.serialize import load_rep

    golden = Path(__file__).parent / "golden" / "rep_c2_62_d2.json"
    other = load_rep(json.loads(golden.read_text()))
    assert [name for name, _ in validate_rep(other).failures()] == ["nilpotent"]
    cyclic = random_cyclic_rep(random.Random(1), max_dim=2)

    def no_validation(v):
        raise AssertionError("a rep check ran on a rep of the wrong quiver")

    monkeypatch.setattr(hc, "validate_rep", no_validation)
    monkeypatch.setattr(hc, "_validate_structure", no_validation)
    for rep, ell, match in ((other, 0, "ell = 0 expects a cyclic-quiver"),
                            (pp_ext_rep(1), 0, "ell = 0 expects a cyclic-quiver"),
                            (other, 1, "ell >= 1 expects a Gelfand-quiver"),
                            (other, 3, "ell >= 1 expects a Gelfand-quiver"),
                            (cyclic, 2, "ell >= 1 expects a Gelfand-quiver")):
        with pytest.raises(ValueError, match=match):
            inverse_E(rep, ell)
        with pytest.raises(ValueError, match=match):
            roundtrip_hc(rep, ell)


def test_inverse_E_rejects_a_bad_ell_first(monkeypatch):
    """A negative ell, and one that is not an int, is named as such, on a rep
    of either quiver, before the quiver check and before any check of the
    rep runs."""
    def no_validation(v):
        raise AssertionError("a rep check ran at a bad ell")

    monkeypatch.setattr(hc, "validate_rep", no_validation)
    monkeypatch.setattr(hc, "_validate_structure", no_validation)
    for rep in (random_cyclic_rep(random.Random(1), 2), pp_ext_rep(1)):
        for ell in (-1, -2, 1.0, 2.0, True):
            for call in (inverse_E, roundtrip_hc):
                with pytest.raises(ValueError, match="^ell must be a nonnegative integer$"):
                    call(rep, ell)


# ---------------------------------------------------------------- roundtrip

def test_roundtrip_fixtures_constructive():
    for kind in ("finite", "discrete", "principal", "principal_dual"):
        for ell in (0, 1, 2) if kind == "discrete" else (1, 2, 3):
            v = functor_E(build_example(kind, ell)).rep
            rt = roundtrip_hc(v, ell)
            assert rt.path == "constructive"


def test_roundtrip_random_gelfand():
    rng = random.Random(31)
    for _ in range(8):
        ell = rng.randint(1, 3)
        v = random_gelfand_rep(rng, max_dim=2)
        rt = roundtrip_hc(v, ell)
        assert rt.path.startswith("constructive")


def test_module_field_is_checked_at_construction():
    """HCModule rejects a square d, and a ladder, rational-structure or tail
    matrix with entries over another field than the module's."""
    m, m_2 = build_example("principal", 1), build_example("principal", 1, d=2)
    keys = ("x_maps", "y_maps", "rat", "phi_plus", "phi_minus")

    def module(d, **swapped):
        return HCModule(m.ell, m.epsilon, m.window, m.spaces,
                        **{k: swapped.get(k, getattr(m, k)) for k in keys}, d=d)

    assert module(-1).d == -1
    with pytest.raises(ValueError, match="d = 4 is a square"):
        module(4)
    for key, name in zip(keys, (r"X\[", r"Y\[", r"rational structure\[",
                                r"tail Casimir phi_\+", "tail Casimir phi_-")):
        with pytest.raises(ValueError, match=name + r".* is over sqrt\(2\), not sqrt\(-1\)"):
            module(-1, **{key: getattr(m_2, key)})


def test_E_stabilizes_once_per_conjugation_orbit(monkeypatch):
    """E stabilizes star and the {+, -} orbit once each for ell >= 1, and
    not at all on the cyclic block."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(hc, "stabilize", counted("stabilize", hc.stabilize))
    rng = random.Random(19)
    cases = [(pp_ext_rep(2), 2), (random_cyclic_rep(rng, max_dim=2), 0)]
    cases += [(random_gelfand_rep(rng, max_dim=3), ell) for ell in (1, 2, 3)]
    for v, ell in cases:
        calls.clear()
        functor_E(inverse_E(v, ell))
        assert calls["stabilize"] == (2 if ell else 0)
        calls.clear()
        roundtrip_hc(v, ell)
        assert calls["stabilize"] == (2 if ell else 0)


def test_roundtrip_takes_no_tail_roots(monkeypatch):
    """A round trip takes the star root of inverse_E only where its interior
    maps read it (ell >= 2), and no square root of phi_+-: validate_hc and
    normalizations read phi_+- itself."""
    calls = Counter()

    def counted(*args):
        calls["scaled_sqrt"] += 1
        return scaled_sqrt(*args)

    monkeypatch.setattr(hc, "scaled_sqrt", counted)
    rng = random.Random(23)
    cases = [(pp_ext_rep(2), 2), (random_cyclic_rep(rng, max_dim=2), 0)]
    cases += [(random_gelfand_rep(rng, max_dim=3), ell) for ell in (1, 2, 3, 4)]
    for v, ell in cases:
        calls.clear()
        rt = roundtrip_hc(v, ell)
        assert calls["scaled_sqrt"] == (1 if ell >= 2 else 0)
        assert rt.module._tails == {}


def test_roundtrip_random_cyclic():
    rng = random.Random(41)
    for _ in range(8):
        v = random_cyclic_rep(rng, max_dim=3)
        rt = roundtrip_hc(v, 0)
        assert rt.path == "constructive"


def test_corrupted_E_image_is_a_construction_bug(monkeypatch):
    """functor_E validates E's image; roundtrip_hc does not and relies on its
    witness.  An image whose rational structure is doubled at one vertex
    raises AssertionError in both.  The discrete ell = 2 image is doubled at
    + and at - as well: the witness's - component is forced by the cocycle
    there, so this checks that a broken cocycle still fails the witness."""
    cases = [("discrete", 0, CYCLIC_PLUS), ("principal", 2, GELFAND_STAR),
             ("discrete", 2, GELFAND_PLUS), ("discrete", 2, GELFAND_MINUS)]
    real = hc._functor_E
    for kind, ell, vertex in cases:
        m = build_example(kind, ell)
        v = functor_E(m).rep

        def corrupted(module):
            result = real(module)
            r = result.rep
            rho = list(r.rho)
            rho[vertex] = rho[vertex].scale(2)
            return replace(result, rep=QuiverRep(r.quiver, r.dims, r.edge_maps, rho, r.d))

        with monkeypatch.context() as mp:
            mp.setattr(hc, "_functor_E", corrupted)
            with pytest.raises(AssertionError, match="construction bug"):
                functor_E(m)
            with pytest.raises(AssertionError, match="construction bug"):
                roundtrip_hc(v, ell)


# ---------------------------------------------------------------- hom

def test_hc_hom_dimensions():
    ell = 2
    mods = {k: build_example(k, ell) for k in
            ("finite", "discrete", "principal", "principal_dual")}
    dim = {}
    for a in mods:
        for b in mods:
            k, l, _ = hc_hom_space(mods[a], mods[b])
            assert k == l
            dim[(a, b)] = k
    assert dim[("finite", "finite")] == 1
    assert dim[("discrete", "discrete")] == 2  # endomorphisms by Q(sqrt(-1))
    assert dim[("principal", "finite")] == 1   # the quotient map
    assert dim[("finite", "principal")] == 0
    assert dim[("discrete", "principal")] == 2  # one inclusion per summand
    assert dim[("principal", "discrete")] == 0
    assert dim[("finite", "principal_dual")] == 1
    assert dim[("principal_dual", "discrete")] == 2
    assert dim[("discrete", "principal_dual")] == 0
    assert dim[("principal", "principal")] == 1
    assert dim[("principal", "principal_dual")] == 1
    assert dim[("principal_dual", "principal")] == 2


def test_hc_hom_matches_quiver_hom():
    from rquiver.reps import hom_space

    ell = 2
    kinds = ("finite", "discrete", "principal", "principal_dual")
    mods = {k: build_example(k, ell) for k in kinds}
    reps = {k: functor_E(mods[k]).rep for k in kinds}
    for a in kinds:
        for b in kinds:
            hc_dim = hc_hom_space(mods[a], mods[b])[0]
            quiver_dim = hom_space(reps[a], reps[b]).dim_K
            assert hc_dim == quiver_dim, (a, b)


def _regauged(m, w, g):
    """m with the basis of M_w changed by an invertible g, for |w| <= ell - 1
    so that no tail map moves: the maps into and out of M_w and rat at +-w
    are conjugated, so g at w and 1 elsewhere is an isomorphism m -> result."""
    g_inv = inverse(g)
    x, y, rat = dict(m.x_maps), dict(m.y_maps), dict(m.rat)
    x[w - 2], x[w] = g * m.x_at(w - 2), m.x_at(w) * g_inv
    y[w + 2], y[w] = g * m.y_at(w + 2), m.y_at(w) * g_inv
    rat[w] = rat[w] * g_inv.conj()
    rat[-w] = g * rat[-w]
    return HCModule(m.ell, m.epsilon, m.window, m.spaces, x, y, rat, m.phi_plus,
                    m.phi_minus, m.d)


def _block_modules(ell, seed):
    """The fixtures of the ell-block and modules inverse_E of random reps,
    one of them twice, so that some Hom spaces are large.  For ell >= 1 the
    last module is also regauged at the star weight ell - 1, so that a module
    map differs at +-(ell - 1)."""
    kinds = ("discrete",) if ell == 0 else ("finite", "discrete", "principal",
                                             "principal_dual")
    rng = random.Random(seed)
    if ell == 0:
        vs = [random_cyclic_rep(rng, max_dim=2) for _ in range(3)]
    else:
        vs = [random_gelfand_rep(rng, max_dim=2) for _ in range(2)]
        vs.append(QuiverRep(gelfand_quiver(), (2, 1, 1), [QuadMatrix.zeros(2, 1),
                  QuadMatrix.zeros(2, 1), QuadMatrix.zeros(1, 2), QuadMatrix.zeros(1, 2)],
                  [QuadMatrix.identity(n) for n in (2, 1, 1)]))
    mods = [build_example(k, ell) for k in kinds] + [inverse_E(v, ell) for v in vs + vs[:1]]
    if ell >= 1:
        g = QuadMatrix.from_rows([[1, 2], [QuadElement(0, 1), 3]])
        mods.append(_regauged(mods[-2], ell - 1, g))
        assert validate_hc(mods[-1]).ok
    return mods


@pytest.mark.parametrize("ell", [0, 1, 2, 3])
def test_E_on_maps_keeps_identities_and_composites(ell):
    mods = _block_modules(ell, 40 + ell)
    composites = 0
    for m in mods:
        ident = {w: QuadMatrix.identity(m.dim(w), m.d) for w in m.weights()}
        assert functor_E_map(ident, ell) == tuple(
            QuadMatrix.identity(n, m.d) for n in functor_E(m).rep.dims)
    hom = {(i, j): hc_hom_space(m1, m2)[2]
           for i, m1 in enumerate(mods) for j, m2 in enumerate(mods)}
    for (i, j), fs in hom.items():
        for k in range(len(mods)):
            for f in fs:
                for g in hom[j, k]:
                    gf = {w: g[w] * f[w] for w in mods[i].weights()}
                    assert functor_E_map(gf, ell) == tuple(
                        b * a for a, b in zip(functor_E_map(f, ell), functor_E_map(g, ell)))
                    composites += 1
    assert composites >= 10


@pytest.mark.parametrize("ell", [0, 1, 2, 3])
def test_E_is_bijective_on_hom(ell):
    """Every hc_hom_space basis element maps to a morphism of the E-images,
    the images are independent and the Hom dimensions agree."""
    mods = _block_modules(ell, 50 + ell)
    total = sum(assert_E_bijective_on_hom(m1, m2) for m1 in mods for m2 in mods)
    assert total >= 2 * len(mods)


@pytest.mark.parametrize("ell", [0, 1, 2, 3])
def test_E_on_maps_is_natural_in_the_roundtrip_witness(ell):
    """For M_i = inverse_E(v_i) with round-trip witnesses w_i: E(M_i) -> v_i,
    w_2 E(psi) w_1^-1 is a morphism v_1 -> v_2 for every module map psi."""
    rng = random.Random(60 + ell)
    rand = random_cyclic_rep if ell == 0 else random_gelfand_rep
    vs = [rand(rng, max_dim=3) for _ in range(4)]
    vs.append(vs[0])
    runs = [roundtrip_hc(v, ell) for v in vs]
    checked = 0
    for v1, rt1 in zip(vs, runs):
        w1_inv = [inverse(w) for w in rt1.witness]
        for v2, rt2 in zip(vs, runs):
            for psi in hc_hom_space(rt1.module, rt2.module)[2]:
                mats = [w2 * f * w for w2, f, w in
                        zip(rt2.witness, functor_E_map(psi, ell), w1_inv)]
                assert is_morphism(v1, v2, mats)
                checked += 1
    assert checked >= 10


def test_roundtrip_hc_makes_no_solve_unique_call(monkeypatch):
    """E inverts X* and Y* through the Neumann series of u = X* Y*, so a
    round trip makes no solve_unique call (three per round trip when each
    inverse was an elimination)."""
    import rquiver.exact as exact

    rng = random.Random(10)
    inputs = [(random_gelfand_rep(rng, max_dim=3), 1 + i % 3) for i in range(30)]
    calls = [0]
    solve_unique = exact.solve_unique

    def counting_solve(*args):
        calls[0] += 1
        return solve_unique(*args)

    monkeypatch.setattr(exact, "solve_unique", counting_solve)
    for v, ell in inputs:
        assert roundtrip_hc(v, ell).rep is not None
    assert calls[0] == 0

import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from rquiver.exact import QuadElement, QuadMatrix, column_space_basis, nilpotency_exponent, sqrt_d
from rquiver.gsets import C2, FiniteGroup, Subgroup
from rquiver.quiver import (
    GELFAND_A_MINUS, GELFAND_A_PLUS, GELFAND_B_MINUS, GELFAND_B_PLUS,
    RationalQuiver, ValidationReport, check, cyclic_quiver, gelfand_quiver, split_loop_quiver,
)
from rquiver.reps import (
    NotQuadratic,
    QuiverRep,
    SpeciesRep,
    functor_F,
    functor_H,
    hf_witness,
    hom_space,
    is_morphism,
    is_nilpotent_rep,
    rep_base_change,
    rep_isomorphic,
    summand_domain_cols,
    validate_rep,
    _cocycle_break,
)
from rquiver.species import quiver_conventions, species_of_quiver
from rquiver.randomgen import (
    change_basis,
    random_c2_quiver,
    random_cyclic_rep,
    random_gelfand_rep,
    random_invertible,
    random_species_rep,
)
from rquiver.randomgen import random_matrix as random_tagged_matrix


def qm(rows, d=-1):
    return QuadMatrix.from_rows(rows, d)


def random_quad(rng, span=3):
    return QuadElement(Fraction(rng.randint(-span, span)),
                       Fraction(rng.randint(-span, span)))


def random_matrix(rng, rows, cols, rational=False):
    ent = []
    for _ in range(rows * cols):
        if rational:
            ent.append(QuadElement(Fraction(rng.randint(-3, 3)), 0))
        else:
            ent.append(random_quad(rng))
    return QuadMatrix(rows, cols, ent)


def discrete_like_rep():
    """M(star) = 0, M(+-) = L, all edges zero, plain conjugation structure."""
    q = gelfand_quiver()
    dims = (0, 1, 1)
    zero10 = QuadMatrix.zeros(0, 1)
    zero01 = QuadMatrix.zeros(1, 0)
    edges = (zero10, zero10, zero01, zero01)  # a+, a-, b+, b-
    rho = (QuadMatrix.zeros(0, 0), QuadMatrix.identity(1), QuadMatrix.identity(1))
    return QuiverRep(q, dims, edges, rho)


def principal_like_rep():
    """All spaces L, b-maps identity, a-maps zero, plain conjugation."""
    q = gelfand_quiver()
    dims = (1, 1, 1)
    one = QuadMatrix.identity(1)
    zero = QuadMatrix.zeros(1, 1)
    edges = (zero, zero, one, one)
    rho = (one, one, one)
    return QuiverRep(q, dims, edges, rho)


# --------------------------------------------------------------- validation

def test_discrete_like_valid_and_nilpotent():
    rep = validate_rep(discrete_like_rep())
    assert rep.ok


def test_zero_rep_valid():
    q = gelfand_quiver()
    z = QuadMatrix.zeros(0, 0)
    r = QuiverRep(q, (0, 0, 0), (z, z, z, z), (z, z, z))
    assert validate_rep(r).ok


def test_cocycle_violation_detected():
    q = gelfand_quiver()
    r = discrete_like_rep()
    bad_rho = (r.rho[0], QuadMatrix.from_rows([[-1]]), QuadMatrix.identity(1))
    bad = QuiverRep(q, r.dims, r.edge_maps, bad_rho)
    rep = validate_rep(bad)
    assert any(n == "cocycle" for n, _ in rep.failures())


def test_edge_equivariance_violation():
    r = principal_like_rep()
    edges = list(r.edge_maps)
    edges[2] = QuadMatrix.from_rows([[qe_i()]])  # b+ = i, b- = 1: cb+ = b- breaks
    bad = QuiverRep(r.quiver, r.dims, tuple(edges), r.rho)
    rep = validate_rep(bad)
    assert any(n == "edge-equivariance" for n, _ in rep.failures())


def qe_i():
    return sqrt_d(-1)


def test_relation_literal_vs_conjugacy():
    # relation holds literally for the principal-like rep
    rep = validate_rep(principal_like_rep())
    assert rep.ok
    # build a valid rep where the relation only holds up to phi_star-conjugacy
    q = gelfand_quiver()
    one = QuadMatrix.identity(1)
    i_mat = QuadMatrix.from_rows([[qe_i()]])
    # a+ = i: then a- = conj-transport forces a- = -i; composites differ by sign
    edges = (i_mat, i_mat.conj(), one, one)
    rho = (one, one, one)
    r = QuiverRep(q, (1, 1, 1), edges, rho)
    out = dict((n, ok) for n, ok, _ in validate_rep(r).checks)
    assert out["cocycle"] and out["edge-equivariance"]
    assert not out["relations-literal"]
    assert not out["nilpotent"]  # the cycle composite is invertible here


def test_nilpotency_flag():
    r = principal_like_rep()
    # cycle star -> + -> star is a+ o b+ = 0, so nilpotent
    assert is_nilpotent_rep(r)
    # make the cycle invertible
    one = QuadMatrix.identity(1)
    bad = QuiverRep(r.quiver, r.dims, (one, one, one, one), r.rho)
    assert not is_nilpotent_rep(bad)


def test_rep_base_change():
    r = principal_like_rep()
    full = rep_base_change(r, Subgroup.full(C2))
    assert full.rho is not None
    triv = rep_base_change(r, Subgroup.trivial_in(C2))
    assert triv.rho is None
    assert triv.edge_maps == r.edge_maps
    assert is_nilpotent_rep(triv)


# --------------------------------------------------------------- hom spaces

def test_hom_end_discrete_like():
    r = discrete_like_rep()
    hs = hom_space(r, r)
    assert hs.dim_L == 2 and hs.dim_K == 2


def test_hom_end_principal_like():
    r = principal_like_rep()
    hs = hom_space(r, r)
    # commuting with identity b-maps forces psi_star = psi_+ = psi_-
    assert hs.dim_L == 1 and hs.dim_K == 1


def test_hom_descent_random():
    rng = random.Random(55)
    for _ in range(10):
        q = random_c2_quiver(rng, max_v=3, max_e=4)
        s = species_of_quiver(q)
        w1 = random_species_rep(rng, s, max_dim=2)
        w2 = random_species_rep(rng, s, max_dim=2)
        a, b = functor_H(w1), functor_H(w2)
        hs = hom_space(a, b)
        assert hs.dim_K == hs.dim_L
        for mats in hs.basis:
            assert is_morphism(a, b, mats)


def test_hom_quotient_map_exists():
    # Hom(principal-like, finite-like) contains the quotient map
    p = principal_like_rep()
    q = gelfand_quiver()
    z01, z10 = QuadMatrix.zeros(0, 1), QuadMatrix.zeros(1, 0)
    f = QuiverRep(q, (1, 0, 0), (z10, z10, z01, z01),
                  (QuadMatrix.identity(1), QuadMatrix.zeros(0, 0), QuadMatrix.zeros(0, 0)))
    hs = hom_space(p, f)
    assert hs.dim_K == 1


# --------------------------------------------------------------- functors

def test_functor_F_discrete_like():
    w = functor_F(discrete_like_rep())
    # index 0 = star orbit (over K), index 1 = plus orbit (over L)
    assert w.dims == (0, 1)
    for mats in w.maps.values():
        for m in mats:
            assert m.is_zero()


def test_functor_F_principal_like_inclusion_and_zero():
    w = functor_F(principal_like_rep())
    assert w.dims == (1, 1)
    b_mats = w.summand_matrices(0, 1)   # star -> +- built from b-edges
    a_mats = w.summand_matrices(1, 0)   # +- -> star built from a-edges
    assert len(b_mats) == 1 and len(a_mats) == 1
    assert a_mats[0].is_zero()
    assert not b_mats[0].is_zero()


def test_functor_F_dual_trace():
    # reversed principal: a-maps identity, b-maps zero => trace-shaped matrix
    q = gelfand_quiver()
    one = QuadMatrix.identity(1)
    zero = QuadMatrix.zeros(1, 1)
    r = QuiverRep(q, (1, 1, 1), (one, one, zero, zero), (one, one, one))
    assert validate_rep(r).ok
    w = functor_F(r)
    a_mat = w.summand_matrices(1, 0)[0]
    # trace of Q(i)/Q on the canonical basis (1, sqrt(-1)) of W_1 (x) L:
    # f(1 (x) 1) = 2, f(sqrt(-1) (x) 1) = 0
    assert a_mat == QuadMatrix.from_rows([[2, 0]])
    assert w.summand_matrices(0, 1)[0].is_zero()


def test_functor_H_principal_species():
    # species rep W_star = Q, W_pm = Q(i), inclusion-shaped map on the b-side
    s = species_of_quiver(gelfand_quiver())
    maps = {(0, 1): [QuadMatrix.from_rows([[1]])],
            (1, 0): [QuadMatrix.zeros(1, 2)]}
    w = SpeciesRep(s, (1, 1), maps)
    r = functor_H(w)
    assert validate_rep(r).ok
    # two nonzero edge maps (the b-orbit), two zero (the a-orbit)
    nonzero = [e for e in range(4) if not r.edge_maps[e].is_zero()]
    assert len(nonzero) == 2


def test_functor_H_validates_random():
    rng = random.Random(66)
    for _ in range(15):
        q = random_c2_quiver(rng, max_v=3, max_e=4)
        w = random_species_rep(rng, species_of_quiver(q), max_dim=2)
        r = functor_H(w)
        assert validate_rep(r, require_nilpotent=False).ok


def test_F_after_H_identity():
    rng = random.Random(77)
    for _ in range(15):
        q = random_c2_quiver(rng, max_v=3, max_e=4)
        w = random_species_rep(rng, species_of_quiver(q), max_dim=2)
        back = functor_F(functor_H(w))
        assert back.species == w.species
        assert back.dims == w.dims
        assert back.maps == w.maps


def test_H_after_F_isomorphic():
    rng = random.Random(88)
    fixtures = [discrete_like_rep(), principal_like_rep()]
    for _ in range(12):
        q = random_c2_quiver(rng, max_v=3, max_e=4)
        fixtures.append(functor_H(random_species_rep(rng, species_of_quiver(q), max_dim=2)))
    from rquiver.reps import hf_witness

    for r in fixtures:
        transported, mats = hf_witness(r)
        assert is_morphism(transported, r, mats)
        from rquiver.exact import rank

        assert all(rank(mats[v]) == r.dims[v] for v in range(r.quiver.vertices.size))


def count_calls(monkeypatch, names):
    """Counter of the calls to the named functions of rquiver.species, from
    that module and from rquiver.reps, which imports some of them."""
    import rquiver.reps as reps
    import rquiver.species as species

    calls = Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in names:
        wrapper = counted(name, getattr(species, name))
        monkeypatch.setattr(species, name, wrapper)
        if hasattr(reps, name):
            monkeypatch.setattr(reps, name, wrapper)
    return calls


def hf_fixtures(seed):
    rng = random.Random(seed)
    fixtures = [discrete_like_rep(), principal_like_rep()]
    for _ in range(4):
        q = random_c2_quiver(rng, max_v=3, max_e=4)
        fixtures.append(functor_H(random_species_rep(rng, species_of_quiver(q), max_dim=2)))
    return fixtures


def test_hf_witness_builds_the_species_dictionary_once(monkeypatch):
    """hf_witness computes the species of r's quiver once, and builds no
    second quiver: H(F(r)) is built on r's own quiver."""
    fixtures = hf_fixtures(5)
    calls = count_calls(monkeypatch, ("_species", "species_of_quiver", "quiver_of_species"))
    for r in fixtures:
        calls.clear()
        back, mats = hf_witness(r)
        assert calls == {"_species": 1}
        assert back.quiver is r.quiver
        assert is_morphism(back, r, mats)


def test_conventions_are_built_once_per_quiver(monkeypatch):
    """functor_F and hf_witness build the conventions of r's quiver once,
    and roundtrip_quiver once for q and once for the quiver of its
    species: the species is read off the conventions the caller holds."""
    from rquiver.species import roundtrip_quiver

    fixtures = hf_fixtures(6)
    calls = count_calls(monkeypatch, ("quiver_conventions",))
    for r in fixtures:
        for run, expected in ((functor_F, 1), (hf_witness, 1), (roundtrip_quiver, 2)):
            calls.clear()
            run(r.quiver if run is roundtrip_quiver else r)
            assert calls == {"quiver_conventions": expected}, run.__name__


def test_theta_rational_structure_consistency():
    """The explicit conjugation action on the decomposition of
    W_i (x) iMj (x) L agrees with the canonical one (computed on pure
    tensors, which span)."""
    rng = random.Random(99)
    reps = [principal_like_rep(), discrete_like_rep()]
    for _ in range(6):
        q = random_c2_quiver(rng, max_v=3, max_e=4)
        reps.append(functor_H(random_species_rep(rng, species_of_quiver(q), max_dim=2)))
    tested = 0
    for r in reps:
        q = r.quiver
        s, conv = species_of_quiver(q), quiver_conventions(q)
        for (i, j), summands in s.bimodules.items():
            for summand in summands:
                hi, he, hj = (s.vertex_subgroups[i].order, summand.subgroup.order,
                              s.vertex_subgroups[j].order)
                if not (hj == 2 and he == 1):
                    continue
                v_i = conv.vertex_reps[i]
                g = q.group
                sigma, tau = summand.twist_src, summand.twist_tgt

                def g_eta(eta):
                    return g.mul(eta, g.mul(g.inv(tau), sigma))

                verts = {eta: q.vertices.apply(g_eta(eta), v_i) for eta in (0, 1)}

                def comps(wvec, x, a):
                    out = {}
                    for eta in (0, 1):
                        coords = [c.conj() for c in wvec] if g_eta(eta) == 1 else list(wvec)
                        scal = (x.conj() if eta == 1 else x) * a
                        out[eta] = tuple(scal * c for c in coords)
                    return out

                def theta(z):
                    m1 = r.rho[verts[1]].apply([c.conj() for c in z[1]])
                    mc = r.rho[verts[0]].apply([c.conj() for c in z[0]])
                    return {0: tuple(m1), 1: tuple(mc)}

                n_i = r.dims[v_i]
                one = QuadElement(1)
                rt = sqrt_d(-1)
                for k in range(n_i):
                    e_k = tuple(QuadElement(1 if t == k else 0) for t in range(n_i))
                    for x in (one, rt):
                        for a in (one, rt):
                            lhs = comps(e_k, x, a.conj())
                            rhs = theta(comps(e_k, x, a))
                            assert lhs == rhs
                            tested += 1
    assert tested > 0


def test_rep_isomorphic_basic():
    r = principal_like_rep()
    iso = rep_isomorphic(r, r)
    assert iso is not None and is_morphism(r, r, iso)
    other = discrete_like_rep()
    assert rep_isomorphic(r, other) is None  # different dimension vectors


def test_rep_isomorphic_zero_rep(tmp_path, capsys):
    """The zero representation is isomorphic to itself by the empty maps."""
    import json

    from rquiver.cli import main
    from rquiver.serialize import dump_rep

    z = QuadMatrix.zeros(0, 0)
    r = QuiverRep(gelfand_quiver(), (0, 0, 0), (z,) * 4, (z,) * 3)
    iso = rep_isomorphic(r, r)
    assert iso == (z, z, z) and is_morphism(r, r, iso)
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(dump_rep(r)))
    assert main(["rep", "isomorphic", "--a", str(path), "--b", str(path)]) == 0
    assert "isomorphic: True" in capsys.readouterr().out


def test_not_quadratic_rejected():
    r = rep_base_change(principal_like_rep(), Subgroup.trivial_in(C2))
    with pytest.raises(NotQuadratic):
        functor_F(r)
    with pytest.raises(NotQuadratic):
        hf_witness(r)


def test_rep_field_is_checked_at_construction():
    """A square d, and a matrix with entries over another field than the
    representation's, are rejected when the representation is built, not
    deep inside validate_rep."""
    from rquiver.quiver import cyclic_quiver

    z = QuadMatrix.zeros(0, 0)
    with pytest.raises(ValueError, match="d = 4 is a square"):
        QuiverRep(cyclic_quiver(), (0, 0), (z, z), (z, z), 4)
    one_2, one = QuadMatrix.identity(1, 2), QuadMatrix.identity(1, -1)
    with pytest.raises(ValueError, match=r"edge matrix 0 is over sqrt\(2\), not sqrt\(-1\)"):
        QuiverRep(cyclic_quiver(), (1, 1), (one_2, one_2), (one_2, one_2), -1)
    with pytest.raises(ValueError, match=r"semilinear matrix at vertex 0 is over sqrt\(2\)"):
        QuiverRep(cyclic_quiver(), (1, 1), (one.scale(0), one.scale(0)), (one_2, one), -1)
    # a matrix without entries carries no field
    empty = QuadMatrix.zeros(0, 0, 2)
    assert QuiverRep(cyclic_quiver(), (0, 0), (empty, empty), (empty, empty), -1).d == -1
    species = species_of_quiver(gelfand_quiver())
    w = random_species_rep(random.Random(0), species, max_dim=2, d=2)
    assert any(m._P for mats in w.maps.values() for m in mats)
    with pytest.raises(ValueError, match=r"summand matrix at \(\d,\d\) is over sqrt\(2\)"):
        SpeciesRep(species, w.dims, w.maps, -1)
    with pytest.raises(ValueError, match="d = 9 is a square"):
        SpeciesRep(species, w.dims, w.maps, 9)


def test_rho_needs_one_matrix_per_vertex():
    """A rational structure with fewer or more matrices than vertices is
    rejected when the representation is built, not by an IndexError later."""
    r = principal_like_rep()
    for rho in ((), r.rho[:-1], r.rho + r.rho[:1]):
        with pytest.raises(ValueError, match="^one semilinear matrix per vertex required$"):
            QuiverRep(r.quiver, r.dims, r.edge_maps, rho, r.d)


def test_rho_over_the_trivial_group_is_rejected():
    """A rational structure given over a group of order 1 is rejected when the
    representation is built, not silently dropped: such a rep carries none."""
    q = split_loop_quiver(FiniteGroup.cyclic(1))
    z = QuadMatrix.zeros(2, 2)
    for rho in (["garbage"], [QuadMatrix.identity(2)], ()):
        with pytest.raises(ValueError, match=r"^a rational structure needs a quadratic group"):
            QuiverRep(q, [2], [z], rho)
    assert QuiverRep(q, [2], [z]).rho is None


def test_dims_must_be_nonnegative_ints():
    """A float, bool or negative dimension is rejected when a quiver or
    species representation is built, not by a TypeError later."""
    r = principal_like_rep()
    w = random_species_rep(random.Random(0), species_of_quiver(r.quiver), max_dim=2)
    for bad in (1.0, 0.5, True, False, -1, "1", None):
        dims = (bad,) + r.dims[1:]
        with pytest.raises(ValueError, match=rf"^dimension {re.escape(repr(bad))} is not"):
            QuiverRep(r.quiver, dims, r.edge_maps, r.rho, r.d)
        with pytest.raises(ValueError, match=rf"^dimension {re.escape(repr(bad))} is not"):
            SpeciesRep(w.species, (bad,) + w.dims[1:], w.maps, w.d)


def test_species_is_morphism():
    from rquiver.reps import species_is_morphism

    rng = random.Random(111)
    for _ in range(5):
        q = random_c2_quiver(rng, max_v=3, max_e=4)
        sp = species_of_quiver(q)
        w = random_species_rep(rng, sp, max_dim=2)
        ident = [QuadMatrix.identity(n) for n in w.dims]
        assert species_is_morphism(w, w, ident)
        back = functor_F(functor_H(w))
        assert species_is_morphism(w, back, ident)
    # maps between different indices detect one-sided scaling
    sp = species_of_quiver(gelfand_quiver())
    maps = {(0, 1): [QuadMatrix.from_rows([[1]])],
            (1, 0): [QuadMatrix.zeros(1, 2)]}
    w = SpeciesRep(sp, (1, 1), maps)
    ident = [QuadMatrix.identity(1), QuadMatrix.identity(1)]
    assert species_is_morphism(w, w, ident)
    mixed = [QuadMatrix.identity(1).scale(3), QuadMatrix.identity(1)]
    assert not species_is_morphism(w, w, mixed)


def test_functors_preserve_nilpotency():
    from rquiver.reps import hf_witness

    for r in (discrete_like_rep(), principal_like_rep()):
        assert is_nilpotent_rep(r)
        back, _ = hf_witness(r)
        assert is_nilpotent_rep(back)


# ---------------------------------------------------------------- checks under -O

_BROKEN_CHECKS = """
import rquiver.reps as reps
from rquiver.exact import QuadMatrix
from rquiver.quiver import gelfand_quiver

def principal_like(n):
    one, zero = QuadMatrix.identity(n), QuadMatrix.zeros(n, n)
    return reps.QuiverRep(gelfand_quiver(), (n, n, n), (zero, zero, one, one), (one, one, one))

# rho_star = 2 breaks the cocycle, so conjugation does not act on Hom
good = principal_like(1)
broken = reps.QuiverRep(good.quiver, good.dims, good.edge_maps,
                        (good.rho[0].scale(2),) + good.rho[1:])
try:
    reps.hom_space(broken, good)
except ValueError as exc:
    print("hom_space:", exc)

# no basis vector of End(L^2 principal) is invertible, so the search combines
reps.is_morphism = lambda *args: False
try:
    reps.rep_isomorphic(principal_like(2), principal_like(2))
except AssertionError as exc:
    print("rep_isomorphic:", exc)
"""


def test_library_checks_survive_optimize():
    """The two library correctness checks still raise under python -O."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import rquiver

    env = dict(os.environ, PYTHONPATH=str(Path(rquiver.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", _BROKEN_CHECKS], env=env,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert "hom_space: rational structure breaks the cocycle at vertex 0" in out
    assert "rep_isomorphic: isomorphism witness is not a morphism" in out


@pytest.mark.parametrize("require_nilpotent", [True, False])
def test_validate_rep_full_report(require_nilpotent):
    """Names, order, verdicts, witnesses and flags of rep reports.
    relations-literal reports the last failing relation, the other checks
    their first failure."""
    q = gelfand_quiver()
    one, zero = QuadMatrix.identity(1), QuadMatrix.zeros(1, 1)
    i_mat = QuadMatrix.from_rows([[qe_i()]])
    nil = (("nilpotent", False, "a cyclic composite is not nilpotent"),)
    # a+ = i, a- = -i, b+- = 1: both relations fail literally
    q2 = RationalQuiver(q.vertices, q.edges, q.src, q.tgt,
                        (((3, 1), (2, 0)), ((2, 0), (2, 0, 2, 0))))
    r = QuiverRep(q2, (1, 1, 1), (i_mat, i_mat.conj(), one, one), (one, one, one))
    report = validate_rep(r, require_nilpotent=require_nilpotent)
    assert report.checks == (
        ("cocycle", True, ""), ("edge-equivariance", True, ""),
        ("relations-literal", False, "relation (2, 0) = (2, 0, 2, 0) fails literally"),
    ) + (nil if require_nilpotent else ())
    assert report.flags == ()

    # rho_+ = -1 breaks the cocycle at vertex 1, b+ = i breaks equivariance at
    # edges 2 and 3
    r = QuiverRep(q, (1, 1, 1), (zero, zero, i_mat, one),
                  (one, QuadMatrix.from_rows([[-1]]), one))
    report = validate_rep(r, require_nilpotent=require_nilpotent)
    assert report.checks == (
        ("cocycle", False, "phi_(cv,c) o phi_(v,c) != id at v=1"),
        ("edge-equivariance", False, "edge equivariance fails at e=2"),
        ("relations-literal", True, ""),
    ) + ((("nilpotent", True, ""),) if require_nilpotent else ())
    assert report.flags == ("nilpotent",)

    # over the trivial group only the relations and nilpotency are checked
    r = rep_base_change(QuiverRep(q2, (1, 1, 1), (i_mat, i_mat.conj(), one, one),
                                  (one, one, one)), Subgroup.trivial_in(C2))
    report = validate_rep(r, require_nilpotent=require_nilpotent)
    assert report.checks == (
        ("relations-literal", False, "relation (2, 0) = (2, 0, 2, 0) fails literally"),
    ) + (nil if require_nilpotent else ())
    assert report.flags == ()


# ------------------------------------- nilpotency and validation, reference

FIELD_TAGS = (Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-5, 3))


def ref_is_nilpotent_rep(r):
    """The image chain on column bases: every step hstacks the images
    A_e R_k(src e) into each vertex and takes their column_space_basis, for
    sum(dims) steps without stopping early."""
    q = r.quiver
    current = [QuadMatrix.identity(n, r.d) for n in r.dims]
    for _ in range(sum(r.dims)):
        if not any(m.cols for m in current):
            return True
        nxt = [QuadMatrix.zeros(n, 0, r.d) for n in r.dims]
        for e in range(q.edges.size):
            nxt[q.tgt[e]] = nxt[q.tgt[e]].hstack(r.edge_maps[e] * current[q.src[e]])
        current = [column_space_basis(m) for m in nxt]
    return not any(m.cols for m in current)


def ref_validate_rep(r, require_nilpotent=True):
    """validate_rep with edge-equivariance checked at every edge."""
    q = r.quiver
    checks = []
    if q.group.order == 2:
        checks += [
            check("cocycle", (f"phi_(cv,c) o phi_(v,c) != id at v={v}"
                              for v in [_cocycle_break(r)] if v is not None)),
            check("edge-equivariance", (
                f"edge equivariance fails at e={e}" for e in range(q.edges.size)
                if r.edge_maps[q.edges.apply(1, e)] * r.rho[q.src[e]]
                != r.rho[q.tgt[e]] * r.edge_maps[e].conj())),
        ]
    checks.append(check("relations-literal", [
        f"relation {p} = {qq} fails literally" for p, qq in q.relations
        if r.path_matrix(p) != r.path_matrix(qq)][-1:]))
    nil = ref_is_nilpotent_rep(r)
    if require_nilpotent:
        checks.append(check("nilpotent", [] if nil else ["a cyclic composite is not nilpotent"]))
    return ValidationReport(tuple(checks), ("nilpotent",) if nil else ())


def sparse_matrix(rng, rows, cols, d, allowed=lambda i, j: True):
    """Random matrix over Q(sqrt(d)), about half its allowed entries zero."""
    ent = [QuadElement(rng.randint(-2, 2), rng.randint(-1, 1), d)
           if allowed(i, j) and rng.random() < 0.5 else QuadElement(0, 0, d)
           for i in range(rows) for j in range(cols)]
    return QuadMatrix(rows, cols, ent, d)


def random_chain_rep(rng, d):
    """A rep of a random C2 quiver with sparse edge maps and rho = 1.  Half
    of the draws give every basis vector a level in 0..2 and let the edge
    maps only lower levels, so that every path of length 3 is zero."""
    q = random_c2_quiver(rng, max_v=3, max_e=4)
    orbit_dims = [rng.randint(0, 3) for _ in range(q.vertices.size)]
    dims = [orbit_dims[min(v, q.vertices.apply(1, v))] for v in range(q.vertices.size)]
    graded = rng.random() < 0.5
    levels = [[rng.randint(0, 2) if graded else 0 for _ in range(n)] for n in dims]
    edges = []
    for e in range(q.edges.size):
        s, t = q.src[e], q.tgt[e]
        allowed = ((lambda i, j: levels[t][i] < levels[s][j]) if graded
                   else (lambda i, j: True))
        edges.append(sparse_matrix(rng, dims[t], dims[s], d, allowed))
    return QuiverRep(q, dims, edges, [QuadMatrix.identity(n, d) for n in dims], d)


def stationary_rep(quiver_kind, d):
    """A non-nilpotent rep whose image chain stops moving after a few steps:
    an invertible 1-cycle next to a nilpotent Jordan block of size 2 per
    vertex."""
    one = QuadElement(1, 0, d)
    zero = QuadElement(0, 0, d)
    jordan = QuadMatrix(3, 3, [one, zero, zero, zero, zero, one, zero, zero, zero], d)
    keep = QuadMatrix(3, 3, [one] + [zero] * 8, d)
    eye = QuadMatrix.identity(3, d)
    if quiver_kind == "cyclic":
        return QuiverRep(cyclic_quiver(), (3, 3), (jordan, keep), (eye, eye), d)
    return QuiverRep(gelfand_quiver(), (3, 3, 3), (jordan, keep, keep, jordan),
                     (eye, eye, eye), d)


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_is_nilpotent_rep_matches_column_chain(d):
    """The row-basis chain with its early exit gives the column chain's
    verdict on random reps (both verdicts occur), on their trivial-group
    base changes, on random Gelfand and cyclic reps, on non-nilpotent reps
    whose chain goes stationary early, and on cancelling_paths_rep."""
    rng = random.Random(71)
    rs = [random_chain_rep(rng, d) for _ in range(40)]
    rs += [rep_base_change(r, Subgroup.trivial_in(C2)) for r in rs[:10]]
    rs += [random_gelfand_rep(rng, max_dim=3, d=d) for _ in range(6)]
    rs += [random_cyclic_rep(rng, max_dim=3, d=d) for _ in range(6)]
    rs += [stationary_rep("cyclic", d), stationary_rep("gelfand", d), cancelling_paths_rep()]
    verdicts = [ref_is_nilpotent_rep(r) for r in rs]
    assert [is_nilpotent_rep(r) for r in rs] == verdicts
    assert True in verdicts[:40] and False in verdicts[:40]
    assert verdicts[-3:] == [False, False, False]


def cancelling_paths_rep():
    """Gelfand dims (1,1,1), a+ = b+ = a- = 1, b- = -1."""
    one = QuadMatrix.identity(1)
    edges = [None] * 4
    edges[GELFAND_A_PLUS] = edges[GELFAND_B_PLUS] = edges[GELFAND_A_MINUS] = one
    edges[GELFAND_B_MINUS] = -one
    return QuiverRep(gelfand_quiver(), (1, 1, 1), edges, (one, one, one))


def test_nilpotency_sees_each_path_not_their_sum():
    """The summed adjacency A of cancelling_paths_rep has A^4 = 0, because
    a+ b+ + a- b- = 0, but the path a+ b+ is 1, so the rep is not
    nilpotent."""
    r = cancelling_paths_rep()
    q, edges = r.quiver, r.edge_maps
    adjacency = [[0] * 3 for _ in range(3)]
    for e, m in enumerate(edges):
        adjacency[q.tgt[e]][q.src[e]] += m[0, 0]
    assert nilpotency_exponent(QuadMatrix.from_rows(adjacency)) is not None
    assert (edges[GELFAND_A_PLUS] * edges[GELFAND_B_PLUS]).is_identity()
    assert is_nilpotent_rep(r) is False
    assert ref_is_nilpotent_rep(r) is False


def valid_reps(rng, d, count):
    """Valid reps of random C2 quivers with edges: H of random species reps
    with every dimension 1 or 2, moved to random bases."""
    out = []
    while len(out) < count:
        q = random_c2_quiver(rng, max_v=3, max_e=4)
        if not q.edges.size:
            continue
        s = species_of_quiver(q)
        dims = [rng.randint(1, 2) for _ in range(s.n_indices)]
        maps = {(i, j): [random_tagged_matrix(rng, dims[j], summand_domain_cols(s, i, j, x, dims[i]),
                                              s.realized_field(j) == "K", d=d) for x in summands]
                for (i, j), summands in s.bimodules.items()}
        r = functor_H(SpeciesRep(s, dims, maps, d))
        out.append(change_basis(r, [random_invertible(rng, n, d=d) for n in r.dims]))
    return out


def with_rho(r, v, m):
    rho = list(r.rho)
    rho[v] = m
    return QuiverRep(r.quiver, r.dims, r.edge_maps, rho, r.d)


def with_edge(r, e, m):
    edges = list(r.edge_maps)
    edges[e] = m
    return QuiverRep(r.quiver, r.dims, edges, r.rho, r.d)


def bump(m):
    """m plus 1 at entry (0, 0)."""
    return m + QuadMatrix(m.rows, m.cols, [QuadElement(int(k == 0), 0, m.d)
                                           for k in range(m.rows * m.cols)], m.d)


def corrupted_reps(rng, d):
    """Valid reps and their corruptions: rho doubled at each vertex in turn
    (so at either vertex of every orbit), each edge map in turn changed at
    one entry, and one edge moved to a source that breaks
    src(ce) = c src(e), on quivers whose dims are all equal."""
    out = []
    for r in valid_reps(rng, d, 6):
        q = r.quiver
        out.append(r)
        out += [with_rho(r, v, r.rho[v].scale(2)) for v in range(q.vertices.size) if r.dims[v]]
        out += [with_edge(r, e, bump(m)) for e, m in enumerate(r.edge_maps) if m.rows * m.cols]
    for r in valid_reps(rng, d, 20):
        q = r.quiver
        others = [(e, w) for e in range(q.edges.size) for w in range(q.vertices.size)
                  if w != q.src[e] and r.dims[w] == r.dims[q.src[e]]]
        if len(set(r.dims)) > 1 or not others:
            continue
        e, w = rng.choice(others)
        src = list(q.src)
        src[e] = w
        q2 = RationalQuiver(q.vertices, q.edges, src, q.tgt, q.relations)
        out.append(QuiverRep(q2, r.dims, r.edge_maps, r.rho, r.d))
    return out


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_validate_rep_matches_all_edges_reference(d):
    """Whole reports (names, verdicts, witnesses, flags) equal those of the
    all-edges reference on valid reps and their corruptions; every check
    fails somewhere, and so does edge-equivariance on the moved-edge quivers."""
    rs = corrupted_reps(random.Random(73), d)
    failed = set()
    for r in rs:
        for require_nilpotent in (True, False):
            report = validate_rep(r, require_nilpotent)
            assert report == ref_validate_rep(r, require_nilpotent)
            failed.update(n for n, _ in report.failures())
    assert {"cocycle", "edge-equivariance"} <= failed

"""Rational quiver representations, species representations, Hom spaces with
Galois descent, and the quasi-inverse functors between the two categories;
hf_witness builds H(F(r)) on r's own quiver.

Linear algebra is implemented for quadratic extensions (group of order 2,
optionally order 1 after base change); larger Galois groups are rejected with
NotQuadratic.  A quiver representation stores, per vertex v, the matrix of
the conjugate-semilinear map phi_{v,c}: M(v) -> M(cv); edge maps are plain
L-matrices.

Species representation maps are stored one matrix per bimodule summand, over
the realized codomain field, with respect to a canonical basis of
W_i (x)_{L_i} L_eps.  Writing (hi, he, hj) for the orders of the vertex and
summand subgroups, the five possible shapes and their canonical bases are

    (2,2,2)  u_k (x) 1                          n_j x n_i   rational
    (2,1,2)  u_k (x) 1, u_k (x) sqrt(d)         n_j x 2n_i  rational
    (2,1,1)  u_k (x) 1                          n_j x n_i   over L
    (1,1,2)  e_k (x) 1, (sqrt(d) e_k) (x) 1     n_j x 2n_i  rational
    (1,1,1)  e_k (x) 1                          n_j x n_i   over L
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    QuadElement,
    QuadMatrix,
    _check_field,
    _field_tag,
    descended_kernel,
    fixed_space_matrix,
    intertwining_system,
    inverse,
    row_space_basis,
    vstack,
)
from .quiver import RationalQuiver, ValidationReport, check
from .species import EtaleSpecies, _quiver_of_species, _species, quiver_conventions


class NotQuadratic(ValueError):
    """Representation-level functors require a Galois group of order 2."""


def _dimensions(dims) -> tuple:
    """dims as a tuple, each an int (so no float or bool) and nonnegative."""
    dims = tuple(dims)
    for n in dims:
        if type(n) is not int or n < 0:
            raise ValueError(f"dimension {n!r} is not a nonnegative int")
    return dims


class QuiverRep:
    """K-rational representation: dims, edge matrices, semilinear family."""

    def __init__(self, quiver: RationalQuiver, dims, edge_maps, rho=None, d=-1):
        if quiver.group.order > 2:
            raise NotQuadratic("representations are implemented for |G| <= 2")
        self.quiver = quiver
        self.d = _field_tag(d)
        self.dims = _dimensions(dims)
        if len(self.dims) != quiver.vertices.size:
            raise ValueError("one dimension per vertex required")
        self.edge_maps = tuple(edge_maps)
        if len(self.edge_maps) != quiver.edges.size:
            raise ValueError("one matrix per edge required")
        for e, m in enumerate(self.edge_maps):
            if (m.rows, m.cols) != (self.dims[quiver.tgt[e]], self.dims[quiver.src[e]]):
                raise ValueError(f"edge matrix {e} has wrong shape")
            _check_field(m, self.d, f"edge matrix {e}")
        if quiver.group.order == 2:
            if rho is None:
                raise ValueError("rational structure required over a quadratic group")
            self.rho = tuple(rho)
            if len(self.rho) != quiver.vertices.size:
                raise ValueError("one semilinear matrix per vertex required")
            for v, m in enumerate(self.rho):
                cv = quiver.vertices.apply(1, v)
                if (m.rows, m.cols) != (self.dims[cv], self.dims[v]):
                    raise ValueError(f"semilinear matrix at vertex {v} has wrong shape")
                _check_field(m, self.d, f"semilinear matrix at vertex {v}")
        elif rho is not None:
            raise ValueError("a rational structure needs a quadratic group, not |G| = 1")
        else:
            self.rho = None

    def path_matrix(self, path) -> QuadMatrix:
        m = self.edge_maps[path[0]]
        for e in path[1:]:
            m = self.edge_maps[e] * m
        return m

    def __eq__(self, other):
        return (isinstance(other, QuiverRep) and self.quiver == other.quiver
                and self.dims == other.dims and self.edge_maps == other.edge_maps
                and self.rho == other.rho)

    def __repr__(self):
        return f"QuiverRep(dims={self.dims})"


def _summand_case(s: EtaleSpecies, i, j, summand):
    return (s.vertex_subgroups[i].order, summand.subgroup.order,
            s.vertex_subgroups[j].order)


def _eta_reps(s: EtaleSpecies, i, j, summand):
    hi, he, hj = _summand_case(s, i, j, summand)
    return (0, 1) if (hj == 2 and he == 1) else (0,)


def summand_domain_cols(s: EtaleSpecies, i, j, summand, n_i: int) -> int:
    """n_i columns per eta: 2 n_i in the shapes (2,1,2) and (1,1,2)."""
    return n_i * len(_eta_reps(s, i, j, summand))


class SpeciesRep:
    def __init__(self, species: EtaleSpecies, dims, maps, d=-1):
        if not species.is_quadratic():
            raise NotQuadratic("species representations need a quadratic group")
        self.species = species
        self.d = _field_tag(d)
        self.dims = _dimensions(dims)
        if len(self.dims) != species.n_indices:
            raise ValueError("one dimension per species index required")
        norm = {}
        for (i, j), mats in maps.items():
            mats = tuple(mats)
            summands = species.summands(i, j)
            if len(mats) != len(summands):
                raise ValueError(f"need one matrix per summand at ({i},{j})")
            for m, summand in zip(mats, summands):
                cols = summand_domain_cols(species, i, j, summand, self.dims[i])
                if (m.rows, m.cols) != (self.dims[j], cols):
                    raise ValueError(f"summand matrix at ({i},{j}) has wrong shape")
                _check_field(m, self.d, f"summand matrix at ({i},{j})")
                if species.realized_field(j) == "K" and not m.is_rational():
                    raise ValueError(f"matrix over K at ({i},{j}) must be rational")
            if mats:
                norm[(i, j)] = mats
        for key in species.bimodules:
            if key not in norm:
                raise ValueError(f"missing matrices for bimodule {key}")
        self.maps = norm

    def summand_matrices(self, i, j):
        return self.maps.get((i, j), ())

    def __eq__(self, other):
        return (isinstance(other, SpeciesRep) and self.species == other.species
                and self.dims == other.dims and self.maps == other.maps)

    def __repr__(self):
        return f"SpeciesRep(dims={self.dims})"


# ------------------------------------------------------------------ validate

def validate_rep(r: QuiverRep, require_nilpotent=True) -> ValidationReport:
    """Validation report of r, one (name, ok, witness) per check, in order:
    the checks of _validate_structure, then
    - nilpotent (if require_nilpotent): is_nilpotent_rep(r).
    The flags hold "nilpotent" when r is nilpotent, whether or not checked."""
    checks = _validate_structure(r).checks
    nil = is_nilpotent_rep(r)
    if require_nilpotent:
        checks += (check("nilpotent", [] if nil else ["a cyclic composite is not nilpotent"]),)
    return ValidationReport(checks, ("nilpotent",) if nil else ())


def _validate_structure(r: QuiverRep) -> ValidationReport:
    """The checks of validate_rep(r, require_nilpotent=False), without the
    nilpotency flag, so without running is_nilpotent_rep.  Passing them is
    the precondition of functor_F, hf_witness, hom_space, rep_isomorphic and
    rep_base_change, and the CLI checks it on every rep it loads for them:

    - cocycle (|G| = 2): rho[cv] conj(rho[v]) = 1 at every vertex v; the
      witness is the least failing vertex (see _cocycle_break);
    - edge-equivariance (|G| = 2): A_{ce} rho[src e] = rho[tgt e] conj(A_e)
      at every edge e; the witness is the least failing edge;
    - relations-literal: both sides of each relation give one matrix; the
      witness is the last failing relation.

    Edge-equivariance checks one edge e <= ce per edge orbit when the cocycle
    holds and src(ce) = c src(e), tgt(ce) = c tgt(e) on every edge.  Then
    the check at e implies the one at ce: with s, t = src e, tgt e, conjugate
    A_{ce} rho[s] = rho[t] conj(A_e), multiply by rho[ct] on the left and by
    rho[cs] on the right, and use rho[ct] conj(rho[t]) = 1 and (the cocycle
    at cs, conjugated) conj(rho[s]) rho[cs] = 1; what remains is
    rho[ct] conj(A_{ce}) = A_e rho[cs], the check at ce since c(ce) = e.  So
    the failing edges form whole orbits, and the least of them is still the
    witness.  Otherwise every edge is checked."""
    q = r.quiver
    checks = []
    if q.group.order == 2:
        broken = _cocycle_break(r)
        ce = [q.edges.apply(1, e) for e in range(q.edges.size)]
        cv = [q.vertices.apply(1, v) for v in range(q.vertices.size)]
        per_orbit = broken is None and all(
            (q.src[ce[e]], q.tgt[ce[e]]) == (cv[q.src[e]], cv[q.tgt[e]])
            for e in range(q.edges.size))
        checks += [
            check("cocycle", (f"phi_(cv,c) o phi_(v,c) != id at v={v}"
                              for v in [broken] if v is not None)),
            check("edge-equivariance", (
                f"edge equivariance fails at e={e}" for e in range(q.edges.size)
                if (e <= ce[e] or not per_orbit)
                and r.edge_maps[ce[e]] * r.rho[q.src[e]]
                != r.rho[q.tgt[e]] * r.edge_maps[e].conj())),
        ]
    # reports the last failing relation
    checks.append(check("relations-literal", [
        f"relation {p} = {qq} fails literally" for p, qq in q.relations
        if r.path_matrix(p) != r.path_matrix(qq)][-1:]))
    return ValidationReport(tuple(checks))


def _cocycle_break(r: QuiverRep):
    """Least vertex v with rho[cv] conj(rho[v]) != 1, or None.  It checks the
    minimal vertex of each C2-orbit and dims[v] = dims[cv]: for square rho,
    A conj(B) = 1 iff conj(B) A = 1, the conjugate of the check at cv."""
    q = r.quiver
    if q.group.order == 2:
        for v in range(q.vertices.size):
            cv = q.vertices.apply(1, v)
            if v <= cv and (r.dims[v] != r.dims[cv]
                            or not (r.rho[cv] * r.rho[v].conj()).is_identity()):
                return v
    return None


def is_nilpotent_rep(r: QuiverRep) -> bool:
    """Arrow ideal acts nilpotently: the image chain R_0(v) = M_v,
    R_{k+1}(v) = sum_e edge_e(R_k(src e)) reaches zero.  R_k(v) is spanned by
    the images of the paths of length k into v, so the chain decreases; once a
    step leaves every dimension unchanged it leaves every R_k(v) unchanged,
    and the chain is stationary and nonzero from then on.  Every other step
    drops the total dimension, so the loop ends within sum(dims) steps.

    R_k(v) is kept as the rows of a reduced row basis B_k(v), so that the
    image of edge e is spanned by the rows of B_k(src e) A_e^T: one product
    per nonzero edge map from a nonzero R_k; vstack stacks the products into
    v and row_space_basis reduces them, one elimination per vertex that
    receives any.  The images are taken edge by edge, never through a sum of
    edge maps: paths that meet again can cancel in a sum
    (a+ b+ = -a- b- on the Gelfand quiver) although each of them is a
    nonzero composite."""
    q = r.quiver
    into = [[] for _ in r.dims]
    for e in range(q.edges.size):
        if not r.edge_maps[e].is_zero():  # a zero map adds nothing to an image
            into[q.tgt[e]].append((q.src[e], r.edge_maps[e].transpose()))
    basis = [QuadMatrix.identity(n, r.d) for n in r.dims]
    dims = list(r.dims)
    while any(dims):
        nxt = []
        for n, edges in zip(r.dims, into):
            blocks = [basis[s] * at for s, at in edges if dims[s]]
            if not blocks:
                nxt.append(QuadMatrix.zeros(0, n, r.d))
                continue
            nxt.append(row_space_basis(vstack(blocks, r.d)))
        step = [m.rows for m in nxt]
        if step == dims:
            return False
        basis, dims = nxt, step
    return True


def rep_base_change(r: QuiverRep, sub) -> QuiverRep:
    """Restrict the semilinear family to a subgroup of the Galois group.
    r must pass validate_rep(require_nilpotent=False); that is not checked
    here, and the CLI checks it at the boundary."""
    from .quiver import base_change as quiver_base_change

    if sub.parent != r.quiver.group:
        raise ValueError("subgroup of a different group")
    q2 = quiver_base_change(r.quiver, sub)
    if sub.order == r.quiver.group.order:
        return QuiverRep(q2, r.dims, r.edge_maps, r.rho, r.d)
    return QuiverRep(q2, r.dims, r.edge_maps, None, r.d)


# ------------------------------------------------------------------ Hom

@dataclass
class HomSpace:
    basis: list          # K-basis: each element is a tuple of per-vertex matrices
    dim_L: int
    dim_K: int
    l_basis: list        # L-basis of the classical Hom space


def _check_cocycle(r: QuiverRep):
    """Raise ValueError unless rho[cv] conj(rho[v]) = 1 at every vertex v."""
    v = _cocycle_break(r)
    if v is not None:
        raise ValueError(f"rational structure breaks the cocycle at vertex {v}")


def hom_space(m: QuiverRep, n: QuiverRep) -> HomSpace:
    """K-basis of the rational Hom space: the kernel of the edge-commuting
    system over L, descended by descended_kernel, whose docstring gives the
    order of the solve.

    What hom_space adds is the conjugation and its precondition.
    Conjugation acts on the L-Hom by
    psi |-> (v |-> phi_{N,cv,c} o psi_{cv} o phi_{M,cv,c}^{-1}), and the
    rational homomorphisms are its fixed points.  The cocycle
    phi_{M,cv,c} o phi_{M,v,c} = id gives phi_{M,cv,c}^{-1} = phi_{M,v,c}, so
    the image has the matrix rho_N[cv] conj(psi_cv) conj(rho_M[v]) at v: the
    triple (cv, rho_N[cv], rho_M[v]) of descended_kernel's conjugate.  The
    cocycle checks on m and n run before the solve, so also where the L-Hom
    is zero; they make this conjugation an involution, the precondition of
    descended_kernel.
    Raises ValueError when the rational structure of m or n breaks the
    cocycle, or when conjugation moves the L-Hom out of itself, which only a
    structure that is not edge-equivariant does.  A non-equivariant structure
    can still leave the L-Hom in place (always when it is 0), and then the
    result is returned unchecked: validate_rep is the full check on m and n.
    """
    if m.quiver != n.quiver:
        raise ValueError("representations over different quivers")
    if m.d != n.d:
        raise ValueError(f"representations over different fields sqrt({m.d}) and sqrt({n.d})")
    q = m.quiver
    _check_cocycle(m)
    _check_cocycle(n)
    conjugate = None
    if q.group.order == 2:
        conjugate = [(cv, n.rho[cv], m.rho[v]) for v, cv in enumerate(q.vertices.action[1])]
    shapes = [(n.dims[v], m.dims[v]) for v in range(q.vertices.size)]
    system = intertwining_system(shapes, [(q.tgt[e], q.src[e], m.edge_maps[e], n.edge_maps[e])
                                          for e in range(q.edges.size)], m.d)
    l_basis, k_basis = descended_kernel(system, shapes, conjugate)
    return HomSpace(k_basis, len(l_basis), len(k_basis), l_basis)


def is_morphism(m: QuiverRep, n: QuiverRep, mats) -> bool:
    q = m.quiver
    for e in range(q.edges.size):
        if mats[q.tgt[e]] * m.edge_maps[e] != n.edge_maps[e] * mats[q.src[e]]:
            return False
    if q.group.order == 2:
        for v in range(q.vertices.size):
            cv = q.vertices.apply(1, v)
            if mats[cv] * m.rho[v] != n.rho[v] * mats[v].conj():
                return False
    return True


ISOMORPHISM_TRIES = 64  # seeded combinations rep_isomorphic tries after the basis


def rep_isomorphic(a: QuiverRep, b: QuiverRep, seed=0):
    """Search for an invertible rational morphism a -> b; None if none is
    found.

    Witnesses are verified exactly.  Absence is proved only by dimension
    data or by Hom = 0.  Otherwise the K-basis of Hom is tried, then
    ISOMORPHISM_TRIES seeded combinations sum_i c_i B_i with each c_i drawn
    from [1, 10^6].  The product over the vertices of det(sum_i c_i B_i[v])
    is a polynomial in the c_i of degree at most sum(dims), and it is
    nonzero when an isomorphism exists.  So by Schwartz-Zippel (Schwartz
    1980, Zippel 1979) one draw misses an existing isomorphism with
    probability at most sum(dims) / 10^6.  None after the search therefore means "not found",
    not a proof that a and b are not isomorphic.  Raises ValueError when the
    rational structure of a or b breaks the cocycle, as hom_space does.
    a and b must pass validate_rep(require_nilpotent=False); the rest of
    that check is not made here, and the CLI makes it at the boundary.
    """
    import random as _random

    if a.quiver != b.quiver or a.dims != b.dims:
        _check_cocycle(a)
        _check_cocycle(b)
        return None
    if not any(a.dims):
        return tuple(QuadMatrix.zeros(0, 0, a.d) for _ in a.dims)
    hs = hom_space(a, b)
    if hs.dim_K == 0:
        return None

    def invertible(mats):
        from .exact import rank

        return all(rank(mats[v]) == a.dims[v] for v in range(a.quiver.vertices.size))

    for mats in hs.basis:
        if invertible(mats):
            return mats
    rng = _random.Random(seed)
    for _ in range(ISOMORPHISM_TRIES):
        coeffs = [rng.randint(1, 10 ** 6) for _ in hs.basis]
        mats = []
        for v in range(a.quiver.vertices.size):
            acc = QuadMatrix.zeros(b.dims[v], a.dims[v], a.d)
            for c, base in zip(coeffs, hs.basis):
                acc = acc + base[v].scale(c)
            mats.append(acc)
        mats = tuple(mats)
        if invertible(mats):
            if not is_morphism(a, b, mats):
                raise AssertionError("isomorphism witness is not a morphism")
            return mats
    return None


# ------------------------------------------------------------------ functor F

def functor_F(r: QuiverRep) -> SpeciesRep:
    """Species representation of a rational quiver representation.

    F works in the descent gauge g, one invertible matrix per vertex: at a
    representative v_i, the fixed_space_matrix basis of W_i when the
    stabilizer is the whole group and the standard basis when it is
    trivial; at the conjugate of a free representative v_i, rho[v_i].
    Then g_{cv}^-1 rho[v] conj(g_v) = 1 at every v, so g^-1 r g carries the
    identity rational structure of H(F(r)), and its edge map at the
    representative e of a summand, g_tgt^-1 A_e g_src, is what functor_H
    puts there: the summand's core, conjugated when twist_tgt != 1.  The
    summand matrix is therefore _summand_matrix of that core.  r must pass
    validate_rep(require_nilpotent=False); that is not checked here, and the
    CLI checks it at the boundary.  At a one-eta summand into a K-realized
    index the core of a valid r is rational, and SpeciesRep rejects it
    otherwise.
    """
    if r.quiver.group.order != 2:
        raise NotQuadratic("functor_F needs a quadratic Galois group")
    return _functor_F(r, quiver_conventions(r.quiver))[0]


def _functor_F(r: QuiverRep, conv):
    """functor_F on the species of r.quiver, built from its conventions
    conv; returns (F(r), the descent gauge g, one matrix per vertex)."""
    q = r.quiver
    s = _species(q, conv)
    gauge, gauge_inv = [], []
    for v, (i, t) in enumerate(zip(conv.vertex_orbit_of, conv.vertex_transport)):
        if t:  # v = c v_i with v_i free: the cocycle inverts rho[v_i] by conj(rho[v])
            gauge.append(r.rho[conv.vertex_reps[i]])
            gauge_inv.append(r.rho[v].conj())
        else:
            u = (fixed_space_matrix(r.rho[v]) if s.vertex_subgroups[i].order == 2
                 else QuadMatrix.identity(r.dims[v], r.d))
            gauge.append(u)
            gauge_inv.append(inverse(u))
    maps = {}
    for (i, j), summands in sorted(s.bimodules.items()):
        mats = []
        for summand, e in zip(summands, conv.edge_reps_of(i, j)):
            edge = gauge_inv[q.tgt[e]] * r.edge_maps[e] * gauge[q.src[e]]
            mats.append(_summand_matrix(s, i, j, summand,
                                        edge.conj() if summand.twist_tgt else edge))
        maps[(i, j)] = tuple(mats)
    dims = [r.dims[v] for v in conv.vertex_reps]
    return SpeciesRep(s, dims, maps, r.d), tuple(gauge)


# ------------------------------------------------------------------ functor H

def _relative_twist(s: EtaleSpecies, summand) -> int:
    """p = twist_tgt^-1 twist_src of a summand.  p = 1 flips the sign of the
    sqrt(d) half in _summand_core and _summand_matrix and conjugates psi_i
    in species_is_morphism."""
    g = s.group
    return g.mul(g.inv(summand.twist_tgt), summand.twist_src)


def _summand_core(w: SpeciesRep, i, j, summand, fmat: QuadMatrix) -> QuadMatrix:
    """L-matrix M(tau^-1 sigma v_i) -> M(v_j) of (f (x) 1_L) restricted to the
    eta = 1 component of the canonical decomposition."""
    s = w.species
    if len(_eta_reps(s, i, j, summand)) == 1:
        return fmat
    # two-eta case: for fmat = [L | R] the component is (L -+ R / sqrt(d)) / 2,
    # with - when p = 1
    p = _relative_twist(s, summand)
    n_i, d = w.dims[i], w.d
    eye = QuadMatrix.identity(n_i, d)
    return fmat * vstack([eye.scale(Fraction(1, 2)),
                          eye.scale(QuadElement(0, Fraction(-1 if p else 1, 2) / d, d))], d)


def _summand_matrix(s: EtaleSpecies, i, j, summand, core: QuadMatrix) -> QuadMatrix:
    """Inverse of _summand_core: the summand matrix whose core is core.
    For two eta, core = X + sqrt(d) Y with X, Y rational gives [2X | 2dY],
    with -2dY when p = 1."""
    if len(_eta_reps(s, i, j, summand)) == 1:
        return core
    p = _relative_twist(s, summand)
    x, y = core.parts()
    return x.scale(2).hstack(y.scale(-2 * core.d if p else 2 * core.d))


def functor_H(w: SpeciesRep) -> QuiverRep:
    """Rational quiver representation on the quiver associated to the species.

    Every vertex of the orbit of index i carries M(v) = L^{n_i} with the
    canonical rational structure w (x) a |-> w (x) conj(a) (entrywise
    conjugation); the edge map of a coset point t H_eps conjugates the
    eta = 1 core of f (x) 1_L by the transport t . twist_tgt.  The quiver's
    conventions are read off its coset layout, not derived again.
    """
    if w.species.group.order != 2:
        raise NotQuadratic("functor_H needs a quadratic Galois group")
    return _functor_H(w, *_quiver_of_species(w.species))


def _functor_H(w: SpeciesRep, q: RationalQuiver, conv) -> QuiverRep:
    """functor_H on a quiver q of species w.species, with its conventions."""
    s = w.species
    g = s.group
    dims = [w.dims[i] for i in conv.vertex_orbit_of]
    rho = [QuadMatrix.identity(dims[q.vertices.apply(1, v)], w.d)
           for v in range(q.vertices.size)]
    edge_maps = [None] * q.edges.size
    for (i, j), reps in conv.edge_reps:
        for summand, fmat, e_eps in zip(s.summands(i, j), w.summand_matrices(i, j), reps):
            core = _summand_core(w, i, j, summand, fmat)
            for e in q.edges.orbit_of(e_eps):
                ge = g.mul(conv.edge_transport[e], summand.twist_tgt)
                edge_maps[e] = core if ge == 0 else core.conj()
    return QuiverRep(q, dims, edge_maps, rho, w.d)


# ------------------------------------------------------------------ round trips

def hf_witness(r: QuiverRep):
    """Natural isomorphism H(F(r)) -> r, with H(F(r)) built on r's quiver q.

    Its component at v is the descent gauge g_v of _functor_F, which sends
    the standard basis at v = t . v_i to phi_{v_i, t} of the chosen descent
    basis of W_i.  Returns (H(F(r)), per-vertex matrices); the caller checks
    them with is_morphism and invertibility.  r must pass
    validate_rep(require_nilpotent=False), as for functor_F; that is not
    checked here, and the CLI checks it at the boundary.

    One conventions record conv of q serves both functors: _functor_F reads
    the species s of q off it, and _functor_H lays H(F(r)) out on q with it.
    This is functor_H(F(r)), on q2 = quiver_of_species(s), pulled back
    along roundtrip_quiver's witness, which sends t . v_i to
    t . v2_i and t . e_eps to t . e2, with t the transport in q.  Both put
    dims n_i and identity rho at t . v_i.  At t . e2, H puts the summand's
    core, conjugated when t2 . twist_tgt != 1, with t2 q2's transport of
    t . e2.  As stab(e2) = H_eps = stab(e_eps), t and t2 are both the
    minimal element of t H_eps; so t2 = t, and _functor_H on q with q's
    conventions puts the same edge map at t . e_eps.
    """
    q = r.quiver
    if q.group.order != 2:
        raise NotQuadratic("hf_witness needs a quadratic Galois group")
    conv = quiver_conventions(q)
    w, gauge = _functor_F(r, conv)
    return _functor_H(w, q, conv), gauge


def species_is_morphism(w1: SpeciesRep, w2: SpeciesRep, psis) -> bool:
    """Check that per-index L_i-linear maps psi_i intertwine the summand maps.

    At a summand from i to j the condition is psi_j f1 = f2 (psi_i (x) 1) on
    its canonical domain basis (Dlab-Ringel, Mem. AMS 173, 1976).  It is
    tested on _summand_core's cores as psi_j core(f1) = core(f2) psi_i', with
    psi_i' = conj(psi_i) when p = 1 and psi_i otherwise.  With one eta,
    core(f) = f and psi_i (x) 1 = psi_i' (psi_i is rational in (2,2,2) and
    (2,1,1)).  With two eta, core(f) = f C for C = [1/2; c], c = +-1/(2 sqrt(d))
    (- when p = 1), and (psi_i (x) 1) C = C psi_i', as psi_i (x) 1 is
    diag(psi_i, psi_i) in (2,1,2), where psi_i is rational, and
    [[a, d b], [b, a]] for psi_i = a + sqrt(d) b in (1,1,2).  So the core
    equation is X C = 0 for X = psi_j f1 - f2 (psi_i (x) 1) = [X1 | X2].  As f,
    psi_j and psi_i (x) 1 are rational there, so is X, and the rational and
    sqrt(d) parts of X C = X1 / 2 +- sqrt(d) X2 / (2d) are the two column
    blocks of X, up to nonzero factors: X C = 0 only when X = 0.
    """
    if w1.species != w2.species:
        return False
    s = w1.species
    for i, psi in enumerate(psis):
        if s.realized_field(i) == "K" and not psi.is_rational():
            return False
        if (psi.rows, psi.cols) != (w2.dims[i], w1.dims[i]):
            return False
    for (i, j), summands in s.bimodules.items():
        for summand, f1, f2 in zip(summands, w1.summand_matrices(i, j),
                                   w2.summand_matrices(i, j)):
            psi = psis[i].conj() if _relative_twist(s, summand) else psis[i]
            if (psis[j] * _summand_core(w1, i, j, summand, f1)
                    != _summand_core(w2, i, j, summand, f2) * psi):
                return False
    return True

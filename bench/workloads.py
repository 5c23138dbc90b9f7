"""The three verification workloads: seeded inputs, timed cases, oracles.

Each workload function takes (rquiver modules, seed, number of blocks) and
yields the blocks, lists of cases, one at a time, so that set-up can time
them one by one; an empty list marks a step of a long set-up.  Every input is generated in set-up from the seed.  A case's
``run`` is the timed verdict; its ``check`` is the benchmark's own oracle,
run afterwards and never timed.  ``check`` returns an empty string when the
verdict is right and a reason otherwise.

Inputs come in blocks, and the timed loop runs whole blocks.  The input
properties that set a case's cost (dimension vector, ell, case kind) follow a
schedule that is the same for every seed; the seed draws everything else.
Runs with different seeds then see the same mix of costs, which keeps the
spread between them small, while over a run each property is still spread
as in the acceptance criteria.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

FIELD_TAGS = (Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2))


@dataclass
class Case:
    run: Callable[[], object]
    check: Callable[[object], str]
    inputs: tuple


def fixed_order(items) -> list:
    """items in one shuffled order that does not depend on the seed."""
    items = list(items)
    random.Random(0).shuffle(items)
    return items


def with_dims(make, max_dim, first_draws, dims, rng):
    """make(Random(s), max_dim=max_dim) for the first sub-seed s drawn from
    rng that gives a representation of dimension vector dims.

    randomgen draws the dimensions first, so a sub-seed whose first
    randint(0, max_dim) draws are not first_draws is skipped without
    generating; the check on dims keeps this exact should that order change.
    """
    while True:
        s = rng.getrandbits(64)
        probe = random.Random(s)
        if all(probe.randint(0, max_dim) == x for x in first_draws):
            rep = make(random.Random(s), max_dim=max_dim)
            if rep.dims == dims:
                return rep


def gelfand_with_dims(rq, rng, max_dim, ds, dp):
    return with_dims(rq.randomgen.random_gelfand_rep, max_dim, (ds, dp), (ds, dp, dp), rng)


def cyclic_with_dims(rq, rng, max_dim, n):
    return with_dims(rq.randomgen.random_cyclic_rep, max_dim, (n,), (n, n), rng)


# ------------------------------------------------------------ unipotent_newton

def _binomial_series_sqrt(rq, m):
    """(1 + n)^(1/2) as the finite binomial series in the nilpotent n."""
    QuadMatrix = rq.exact.QuadMatrix
    n = m - QuadMatrix.identity(m.rows, m.d)
    e = rq.exact.nilpotency_exponent(n)
    acc = QuadMatrix.identity(m.rows, m.d)
    term = QuadMatrix.identity(m.rows, m.d)
    coeff = Fraction(1)
    for k in range(1, e):
        coeff = coeff * (Fraction(1, 2) - (k - 1)) / k
        term = term * n
        acc = acc + term.scale(coeff)
    return acc


def _nilpotent(rq, rng, shape_rng, dim, d):
    """random_nilpotent(fast=True), g N g^-1, with the strictly upper N, and
    so the Jordan type that sets the iteration counts, drawn by shape_rng."""
    gen = rq.randomgen
    g = gen.random_unimodular(rng, dim, span=1, d=d)
    return g * gen.strictly_upper(shape_rng, dim, span=1, d=d) * rq.exact.inverse(g)


def unipotent_newton(rq, seed: int, n_blocks: int):
    """One stabilization and one unipotent square root per case, as in
    acceptance criterion 4 (span 1, exponent <= dim <= 6), over four fields.

    Cost grows steeply with the dimension and depends on the field, so a
    block holds each dimension 1..6 once for the stabilizations and once for
    the square roots: in block b a case pairs a stabilization of dimension n
    with a root of dimension (n + b) mod 6 + 1, over the field tag number
    (n + b) mod 4.  The Jordan types and q0, which set the iteration
    counts, come from a generator that does not depend on the seed; the seed
    draws the conjugating matrices g.
    """
    QuadMatrix = rq.exact.QuadMatrix
    rng, shape_rng = random.Random(seed), random.Random(0)
    for b in range(n_blocks):
        dims = list(range(1, 7))
        rng.shuffle(dims)
        block = []
        for dim in dims:
            d = FIELD_TAGS[(dim + b) % len(FIELD_TAGS)]
            ident = QuadMatrix.identity(dim, d)
            n = _nilpotent(rq, rng, shape_rng, dim, d)
            q0 = ident + rq.randomgen.strictly_upper(shape_rng, dim, span=1, d=d)
            p0 = rq.exact.inverse(q0) * (ident + n)
            root_dim = (dim + b) % 6 + 1
            m = QuadMatrix.identity(root_dim, d) + _nilpotent(rq, rng, shape_rng, root_dim, d)
            block.append(_unipotent_case(rq, p0, q0, m))
        yield block


def _unipotent_case(rq, p0, q0, m) -> Case:
    u = rq.unipotent

    def run():
        res = u.stabilize(u.StabilizationProblem(p0, q0))
        return res, u.unipotent_sqrt(m)

    def check(out):
        res, root = out
        e = u.StabilizationProblem(p0, q0).defect_exponent()
        bound = math.ceil(math.log2(e)) + 1 if e > 1 else 1
        if res.iterations > bound:
            return f"{res.iterations} iterations exceed ceil(log2 {e}) + 1"
        if not (res.phi_minus_inf * res.phi_plus_inf).is_identity() or \
                not (res.phi_plus_inf * res.phi_minus_inf).is_identity():
            return "stabilized pair is not mutually inverse"
        if root != _binomial_series_sqrt(rq, m):
            return "square root differs from the binomial series"
        return ""

    return Case(run, check, (p0, q0, m))


# ---------------------------------------------------------------- hc_roundtrip

def _same_module(a, b) -> bool:
    return all(getattr(a, f) == getattr(b, f) for f in (
        "ell", "epsilon", "window", "spaces", "x_maps", "y_maps", "rat",
        "phi_plus", "phi_minus", "d"))


def hc_roundtrip(rq, seed: int, n_blocks: int):
    """The 12 fixtures of ``examples run --all`` as the first block, then
    blocks of three random Gelfand reps, each followed by a random cyclic rep
    at ell 0; max_dim 3, d = -1, as in criterion 8 and ``examples run
    --cases``.  The Gelfand (ell, dims) run through all 48 values of ell in
    1..3 and dims in 0..3 in a fixed order, the cyclic dims through 0..3."""
    hc, io = rq.hc, rq.serialize
    fixtures = []
    for kind in hc.KINDS:
        for ell in ((0, 1, 2) if kind == "discrete" else (1, 2, 3)):
            v = hc.functor_E(hc.build_example(kind, ell)).rep
            fixtures.append(_hc_case(rq, v, io.dump_rep(v), ell))
    yield fixtures
    gelfand = fixed_order((ell, ds, dp) for ell in (1, 2, 3)
                          for ds in range(4) for dp in range(4))
    rng = random.Random(seed)
    for b in range(n_blocks - 1):
        block = []
        for k in range(3 * b, 3 * b + 3):
            ell, ds, dp = gelfand[k % len(gelfand)]
            for v, e in ((gelfand_with_dims(rq, rng, 3, ds, dp), ell),
                         (cyclic_with_dims(rq, rng, 3, k % 4), 0)):
                block.append(_hc_case(rq, v, io.dump_rep(v), e))
        yield block


def _hc_case(rq, v, doc, ell) -> Case:
    hc, io = rq.hc, rq.serialize

    def run():
        r = io.load_rep(doc)
        rt = hc.roundtrip_hc(r, ell)
        w = rq.reps.functor_F(rt.rep)
        dumps = io.dump_hc(rt.module), io.dump_rep(rt.rep)
        return r, rt, w, dumps, rq.cli.render_diagram(rt.rep)

    def check(out):
        r, rt, w, (hc_doc, rep_doc), diagram = out
        if r != v:
            return "loaded representation differs from the generated one"
        if not _same_module(io.load_hc(hc_doc), rt.module):
            return "dump_hc -> load_hc changes the module"
        if io.load_rep(rep_doc) != rt.rep:
            return "dump_rep -> load_rep changes the E-image"
        if sum(w.dims) > sum(rt.rep.dims):
            return "species of the E-image is larger than the representation"
        if not diagram.startswith("spaces"):
            return "diagram is missing its spaces line"
        return ""

    return Case(run, check, (doc, ell))


# ----------------------------------------------------------------- hom_descent

def hom_descent(rq, seed: int, n_blocks: int):
    """Blocks alternate four kind (a) and four kind (b) cases (criteria 3, 7
    and 9).

    (a): F/H and Hom descent on a random C2 quiver with two random species
    reps of max_dim 3, one case per field tag; one (a) case per block also
    round-trips a random C3 or S3 quiver.  Only the reps' entries depend on
    the seed.  (b): Hom dimensions of a pair of
    modules from one block against those of their E-images, one pair per
    block ell in 0..3.  set-up builds, by inverse_E and functor_E, one module
    per block and dimension vector of a random rep of max_dim 2 (max_dim 3
    puts single cases past a second); the ordered pairs of one block come in
    a fixed order.
    """
    gen, species = rq.randomgen, rq.species
    rng = random.Random(seed)
    groups = (rq.gsets.FiniteGroup.cyclic(3), rq.gsets.FiniteGroup.symmetric(3))

    pairs = []
    for ell in range(4):
        if ell == 0:
            reps = [cyclic_with_dims(rq, rng, 2, n) for n in range(3)]
        else:
            reps = [gelfand_with_dims(rq, rng, 2, ds, dp)
                    for ds in range(3) for dp in range(3)]
        built = []
        for v in reps:
            module = rq.hc.inverse_E(v, ell)
            built.append((module, rq.hc.functor_E(module).rep))
            yield []  # a step of set-up, timed on its own
        pairs.append(fixed_order(_hom_block_case(rq, a, b) for a in built for b in built))

    # The quivers and the species reps' dimension vectors set an (a) case's
    # cost; they come from a generator that does not depend on the seed.
    shape_rng = random.Random(0)
    for b in range(n_blocks):
        block = []
        extra_at = shape_rng.randrange(4)
        order = list(range(4))
        rng.shuffle(order)
        for k, ell in enumerate(order):
            q = gen.random_c2_quiver(shape_rng, max_v=3, max_e=4)
            s = species.species_of_quiver(q)
            ws = []
            for _ in range(2):
                dims = tuple(shape_rng.randint(0, 3) for _ in range(s.n_indices))
                ws.append(with_dims(
                    lambda r, max_dim: gen.random_species_rep(r, s, max_dim, FIELD_TAGS[k]),
                    3, dims, dims, rng))
            extra = None
            if k == extra_at:
                extra = gen.random_group_quiver(shape_rng, groups[b % 2], max_v=4, max_e=6)
            block.append(_hom_quiver_case(rq, q, *ws, extra))
            block.append(pairs[ell][b % len(pairs[ell])])
        yield block


def _hom_quiver_case(rq, q, w1, w2, extra) -> Case:
    reps, species, quiver = rq.reps, rq.species, rq.quiver
    quivers = (q,) if extra is None else (q, extra)

    def run():
        reports = []
        for x in quivers:
            reports.append(quiver.validate(x))
            species.roundtrip_quiver(x)
            species.roundtrip_species(species.species_of_quiver(x))
        a, b = reps.functor_H(w1), reps.functor_H(w2)
        return reports, a, b, reps.hf_witness(a), reps.hom_space(a, b)

    def check(out):
        reports, a, b, (transported, mats), hs = out
        for report in reports:
            if not report.ok:
                return f"quiver fails validation: {report.failures()}"
        if not reps.is_morphism(transported, a, mats) or any(
                rq.exact.rank(mats[v]) != a.dims[v] for v in range(len(a.dims))):
            return "H(F(r)) -> r witness is not an isomorphism"
        if hs.dim_K != hs.dim_L:
            return f"dim_K {hs.dim_K} != dim_L {hs.dim_L}"
        if not all(reps.is_morphism(a, b, m) for m in hs.basis):
            return "a Hom basis element is not a morphism"
        return ""

    return Case(run, check, (q, w1, w2, extra))


def _hom_block_case(rq, a, b) -> Case:
    (m1, r1), (m2, r2) = a, b

    def run():
        return rq.hc.hc_hom_space(m1, m2), rq.reps.hom_space(r1, r2)

    def check(out):
        (dim_k, dim_l, _), hs = out
        if not dim_k == dim_l == hs.dim_K == hs.dim_L:
            return (f"HC side dim_K {dim_k} / dim_L {dim_l} against quiver "
                    f"side dim_K {hs.dim_K} / dim_L {hs.dim_L}")
        if not all(rq.reps.is_morphism(r1, r2, m) for m in hs.basis):
            return "a quiver-side Hom basis element is not a morphism"
        return ""

    return Case(run, check, (m1, m2))


WORKLOADS = {
    "unipotent_newton": unipotent_newton,
    "hc_roundtrip": hc_roundtrip,
    "hom_descent": hom_descent,
}

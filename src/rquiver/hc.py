"""Weight-graded sl2 modules over Q(sqrt(-1)) with rational structure, the
block functor onto nilpotent rational Gelfand/cyclic quiver representations,
and its inverse.

A module is a finite certificate: its spaces and rational structure on a
weight window [-N, N], its ladder maps on the core weights |w| <= ell + 1,
and tail data (the Casimir action phi_+- on the two stable outer spaces).
Ladder maps past the core are determined by closed forms derived from
unipotent square roots of the tails; inverse_E stores none of them, and a
module that does store them (build_example and files loaded from it) must
agree with the closed forms.
Conventions: X raises weights by 2, Y lowers by 2, the rational structure is
a family of conjugate-semilinear maps M_w -> M_{-w} swapping X and Y, and the
Casimir acts on M_w as (w - 1)^2 + 4 X Y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from fractions import Fraction

from .exact import QuadElement, QuadMatrix, _check_field, _field_tag, \
    nilpotency_exponent, power_series, rank
from .gsets import C2, GSet
from .quiver import GELFAND_A_MINUS, GELFAND_A_PLUS, GELFAND_B_MINUS, \
    GELFAND_B_PLUS, GELFAND_MINUS, GELFAND_PLUS, GELFAND_STAR, \
    CYCLIC_A, CYCLIC_B, CYCLIC_MINUS, CYCLIC_PLUS, RationalQuiver, \
    ValidationReport, check, cyclic_quiver, gelfand_quiver
from .reps import QuiverRep, _dimensions, _validate_structure, hom_space, is_morphism, \
    validate_rep
from .unipotent import PreconditionViolated, StabilizationProblem, scaled_sqrt, stabilize


class OutOfWindow(ValueError):
    pass


class NotApplicable(ValueError):
    pass


class BadParity(ValueError):
    pass


DEFAULT_TAIL_WEIGHTS = 4  # stable weights kept per side: N = ell + 1 + 2*this


class HCModule:
    """Exact window model of an admissible weight module in one block.

    spaces / X / Y / rat are keyed by weight; tails hold the Casimir action
    phi_+ and phi_- on the stable spaces at weights >= ell+1 and <= -(ell+1).
    X and Y must be stored only where no closed form determines them (see
    x_in_tail / y_in_tail); stored tail maps are optional, since x_at / y_at
    derive them from phi_+-.  The derived tail maps and square roots are
    memoized per module; the memo is neither dumped nor compared.
    """

    def __init__(self, ell, epsilon, window, spaces, x_maps, y_maps, rat,
                 phi_plus, phi_minus, d=-1):
        if any(type(x) is not int for x in (ell, epsilon, window)):  # no float, no bool
            raise ValueError(f"ell, epsilon, window must be ints: {ell!r}, {epsilon!r}, {window!r}")
        self.ell, self.epsilon, self.window = ell, epsilon, window
        self.spaces = dict(zip(spaces, _dimensions(spaces.values())))
        self.x_maps = dict(x_maps)
        self.y_maps = dict(y_maps)
        self.rat = dict(rat)
        self.phi_plus = phi_plus
        self.phi_minus = phi_minus
        self.d = _field_tag(d)
        self._tails = {}
        for name, maps in (("X", self.x_maps), ("Y", self.y_maps),
                           ("rational structure", self.rat)):
            for w, m in maps.items():
                _check_field(m, self.d, f"{name}[{w}]")
        _check_field(phi_plus, self.d, "tail Casimir phi_+")
        _check_field(phi_minus, self.d, "tail Casimir phi_-")
        if self.ell < 0:
            raise ValueError("ell must be a nonnegative integer")
        if self.epsilon not in (0, 1) or (self.epsilon - self.ell - 1) % 2:
            raise BadParity("epsilon must satisfy epsilon = ell + 1 (mod 2)")
        if self.window < self.ell + 3:
            raise ValueError("window must reach at least ell + 3")
        for w in self.weights():
            if w not in self.spaces:
                raise ValueError(f"missing space at weight {w}")

    def weights(self):
        start = -self.window
        if (start - self.epsilon) % 2:
            start += 1
        return range(start, self.window + 1, 2)

    def dim(self, w: int) -> int:
        return self.spaces[w]

    def in_window(self, w: int) -> bool:
        return -self.window <= w <= self.window and (w - self.epsilon) % 2 == 0

    # ---------------------------------------------------------------- tails
    def _tail_x(self, w: int) -> QuadMatrix:
        return self._tail(w + 1, w > 0)

    def _tail_y(self, w: int) -> QuadMatrix:
        return self._tail(1 - w, w > 0)

    def _tail(self, c: int, plus: bool) -> QuadMatrix:
        """The closed form of X_w (c = w + 1) or Y_w (c = 1 - w) on the tail
        of w's sign, memoized: with phi the tail Casimir there, (S + c)/2 for
        S = scaled_sqrt(phi, ell) if ell >= 1, and for ell = 0 c/2 where c > 0
        (X on the + tail, Y on the - tail) and (c - phi/c)/2 elsewhere."""
        m = self._tails.get((c, plus))
        if m is None:
            phi = self.phi_plus if plus else self.phi_minus
            m = QuadMatrix.identity(phi.rows, self.d).scale(c)
            if self.ell >= 1:
                root = self._tails.get(("sqrt", plus))
                if root is None:
                    root = self._tails["sqrt", plus] = scaled_sqrt(phi, self.ell)
                m = m + root
            elif c < 0:
                m = m - phi.scale(Fraction(1, c))
            m = self._tails[c, plus] = m.scale(Fraction(1, 2))
        return m

    def x_in_tail(self, w: int) -> bool:
        """Whether X on M_w is given by the tail closed form."""
        return w >= self.ell + 1 or w + 2 <= -(self.ell + 1)

    def y_in_tail(self, w: int) -> bool:
        """Whether Y on M_w is given by the tail closed form."""
        return w - 2 >= self.ell + 1 or w <= -(self.ell + 1)

    def x_at(self, w: int) -> QuadMatrix:
        """X on M_w (raising w -> w+2), stored or from the tail closed form."""
        if (w - self.epsilon) % 2:
            raise OutOfWindow(f"weight {w} has the wrong parity")
        if w in self.x_maps:
            return self.x_maps[w]
        if self.x_in_tail(w):
            return self._tail_x(w)
        raise OutOfWindow(f"X at weight {w} is not determined")

    def y_at(self, w: int) -> QuadMatrix:
        if (w - self.epsilon) % 2:
            raise OutOfWindow(f"weight {w} has the wrong parity")
        if w in self.y_maps:
            return self.y_maps[w]
        if self.y_in_tail(w):
            return self._tail_y(w)
        raise OutOfWindow(f"Y at weight {w} is not determined")


def casimir_matrix(m: HCModule, w: int) -> QuadMatrix:
    """C = H^2 - 2H + 4XY + 1 evaluated on the weight space M_w; OutOfWindow
    names a weight of the wrong parity as x_at / y_at do, before the range."""
    if (w - m.epsilon) % 2:
        raise OutOfWindow(f"weight {w} has the wrong parity")
    if not m.in_window(w):
        raise OutOfWindow(f"weight {w} outside the window")
    xy = m.x_at(w - 2) * m.y_at(w)
    ident = QuadMatrix.identity(m.dim(w), m.d)
    return ident.scale(Fraction((w - 1) ** 2)) + xy.scale(4)


def validate_hc(m: HCModule) -> ValidationReport:
    """Check a module on its core weights |w| <= ell + 1 and its tail data.

    "shape" asks for X and Y where the tails do not determine them (X at
    -(ell+1) <= w <= ell-1, Y at -(ell-1) <= w <= ell+1) and for rat at every
    window weight, and rejects a space, map or rat stored at any other key.
    "tail-consistency" asks that stored tail maps equal the closed forms and
    that rat is constant along each tail:
    rat[w] = R = rat[ell+1] for w >= ell+1 and rat[w] = R' = rat[-(ell+1)]
    for w <= -(ell+1).  The four per-weight identities (bracket, nilpotent
    Casimir, rational cocycle, conjugation swap) are then checked on
    |w| <= ell + 1 only, because past these weights they follow from the
    checks that run:

    - ell >= 1: on the + tail X_w = (S+w+1)/2 and Y_w = (S-w+1)/2, with
      S = scaled_sqrt(phi_+, ell) and S^2 = phi_+.  So 4 X_{w-2} Y_w =
      phi_+ - (w-1)^2 and 4 Y_{w+2} X_w = phi_+ - (w+1)^2, hence 4[X, Y] = 4w
      and C = (w-1)^2 + 4 X_{w-2} Y_w = phi_+, which is ell^2 + nilpotent by
      "tail-dims".  The - tail is the mirror image with phi_-.
    - ell = 0: on the + tail X_w = (w+1)/2 and Y_w = ((1-w) + phi_+/(w-1))/2
      give the same two products, and so do their mirror images on the -
      tail.
    - The cocycle at a tail weight is the cocycle at +-(ell+1).
      Conjugation swap on the tail reduces to R conj(S_+) = S_- R and, by the
      cocycle, R' conj(S_-) = S_+ R' (for ell = 0, to the same identities
      with phi in place of S).  S = p(phi) for a polynomial p with rational
      coefficients, so both follow from "tail-conjugation"
      phi_- R = R conj(phi_+).
    - The same identity makes rat constant along the tails of every module
      that satisfies conjugation swap at every window weight: there
      rat[w+2] conj(X_w) = Y_{-w} rat[w] with R conj(X_w) = Y_{-w} R, and
      conj(X_w) (w >= ell+1), resp. Y_{-w} (w <= -(ell+3)), is invertible
      (its eigenvalues are (ell + |w| + 1)/2, resp. (|w| - ell - 1)/2 up to
      sign), so rat[w+2] = rat[w].  The constancy check therefore rejects no
      module that a check of every window weight accepts.

    At +-(ell+1) the identities reach one step into the tails, and the same
    products, 4 Y_{ell+3} X_{ell+1} = phi_+ - (ell+2)^2 and
    4 X_{-ell-3} Y_{-ell-1} = phi_- - (ell+2)^2 (ell = 0 included), give them
    from core maps and phi_+- without a square root:

    - the bracket reads ell^2 + 4 X_{ell-1} Y_{ell+1} = phi_+ at ell+1 and
      ell^2 + 4 Y_{-ell+1} X_{-ell-1} = phi_- at -(ell+1);
    - C = phi_- at -(ell+1), which "tail-dims" checked, so the Casimir is
      checked at the other core weights, where it reads core maps only;
    - the swap at ell+1, rat[ell+3] conj(X_{ell+1}) = Y_{-ell-1} rat[ell+1],
      is R conj(S_+) = S_- R by tail constancy.  For ell >= 1 that is
      equivalent to "tail-conjugation" (S = p(phi) one way, S^2 = phi the
      other), and for ell = 0 it holds trivially (X_1 = Y_{-1} = 1).

    So square roots of phi_+- are taken only to compare stored tail maps
    with the closed forms.
    """
    ell = m.ell

    def shape():
        ws = m.weights()
        for name, maps, allowed in (("space", m.spaces, ws), ("X", m.x_maps, ws[:-1]),
                                    ("Y", m.y_maps, ws[1:]), ("rational structure", m.rat, ws)):
            stray = [w for w in maps if w not in allowed]
            if stray:
                yield f"{name} stored at weight {min(stray)}, outside the window"
        for name, maps, sources, step, in_tail in (("X", m.x_maps, ws[:-1], 2, m.x_in_tail),
                                                   ("Y", m.y_maps, ws[1:], -2, m.y_in_tail)):
            for w in sources:
                f = maps.get(w)
                if f is None and not in_tail(w):
                    yield f"{name}[{w}] missing"
                if f is not None and (f.rows, f.cols) != (m.dim(w + step), m.dim(w)):
                    yield f"{name}[{w}] has wrong shape"
        for w in ws:
            r = m.rat.get(w)
            if r is None or (r.rows, r.cols) != (m.dim(-w), m.dim(w)):
                yield f"rational structure at {w} missing or misshapen"
        for name, phi in (("phi_+", m.phi_plus), ("phi_-", m.phi_minus)):
            if phi.rows != phi.cols:
                yield f"tail Casimir {name} is not square"

    checks = [check("shape", shape())]
    if not checks[-1][1]:
        return ValidationReport(tuple(checks))

    # tail-dims and tail-consistency report their last failure
    lam = Fraction(ell * ell)
    checks.append(check("tail-dims", [*(
        f"tail dimension jump at weight {w}" for w in m.weights()
        if abs(w) > ell and m.dim(w) != (m.phi_plus if w > 0 else m.phi_minus).rows), *(
        "tail Casimir is not lambda + nilpotent" for phi in (m.phi_plus, m.phi_minus)
        if nilpotency_exponent(phi - QuadMatrix.identity(phi.rows, m.d).scale(lam)) is None)
    ][-1:]))
    if not checks[-1][1]:
        return ValidationReport(tuple(checks))

    checks.append(check("tail-consistency", [
        wit for w in m.weights() for wit, bad in (
            (f"X[{w}] disagrees with the tail closed form",
             w in m.x_maps and m.x_in_tail(w) and m.x_maps[w] != m._tail_x(w)),
            (f"Y[{w}] disagrees with the tail closed form",
             w in m.y_maps and m.y_in_tail(w) and m.y_maps[w] != m._tail_y(w)),
            (f"rational structure at {w} is not constant along the tail",
             abs(w) > ell + 1 and m.rat[w] != m.rat[ell + 1 if w > 0 else -(ell + 1)]))
        if bad][-1:]))
    if not checks[-1][1]:
        return ValidationReport(tuple(checks))

    top = ell + 1
    core = [w for w in m.weights() if abs(w) <= top]
    ident = {w: QuadMatrix.identity(m.dim(w), m.d) for w in core}
    # 4 X_{w-2} Y_w and 4 Y_{w+2} X_w on M_w; past the core the closed forms
    # give 4 X_{-ell-3} Y_{-ell-1} = phi_- - (ell+2)^2 and 4 Y_{ell+3} X_{ell+1}
    # = phi_+ - (ell+2)^2
    xy = {w: (m.x_at(w - 2) * m.y_at(w)).scale(4) for w in core[1:]}
    xy[-top] = m.phi_minus - ident[-top].scale(Fraction((ell + 2) ** 2))
    yx = {w: (m.y_at(w + 2) * m.x_at(w)).scale(4) for w in core[:-1]}
    yx[top] = m.phi_plus - ident[top].scale(Fraction((ell + 2) ** 2))
    r = m.rat[top]
    tails_conjugate = m.phi_minus * r == r * m.phi_plus.conj()
    checks += [
        check("bracket", (f"4[X,Y] != 4w at weight {w}" for w in core
                          if xy[w] - yx[w] != ident[w].scale(Fraction(4 * w)))),
        # C = phi_- at -(ell+1), which tail-dims checked
        check("casimir-nilpotent", (
            f"(C - ell^2) not nilpotent at weight {w}" for w in core[1:]
            if nilpotency_exponent(ident[w].scale(Fraction((w - 1) ** 2) - lam) + xy[w]) is None)),
        check("rational-cocycle", (f"rational cocycle fails at weight {w}" for w in core
                                   if not (m.rat[-w] * m.rat[w].conj()).is_identity())),
        # at the top weight the swap is R conj(S_+) = S_- R, see the docstring
        check("conjugation-swap", (
            f"conjugation does not swap X and Y at weight {w}" for w in core
            if not ((tails_conjugate or ell == 0) if w == top else
                    m.rat[w + 2] * m.x_at(w).conj() == m.y_at(-w) * m.rat[w]))),
        check("tail-conjugation", [] if tails_conjugate else
              ["tail Casimirs are not conjugate under the rational structure"]),
    ]
    return ValidationReport(tuple(checks))


def _casimir_product(c: QuadMatrix, mpow: int, k: int, d) -> QuadMatrix:
    """The Section-3 product prod_{j < mpow} (C - (k-2j)^2) of a square
    matrix C over Q(sqrt(d)), left to right."""
    acc = ident = QuadMatrix.identity(c.rows, d)
    for j in range(mpow):
        acc = acc * (c - ident.scale(Fraction((k - 2 * j) ** 2)))
    return acc


def power_product_identity(m: HCModule, mpow: int, k: int):
    """Check 4^mpow X^mpow Y^mpow = prod_j (C - (k-2j)^2) on M_{k+1}.

    Returns (ok, scalar, lhs, rhs) where scalar is the rational constant
    prod_j (ell^2 - (k-2j)^2)."""
    w0 = k + 1
    low = w0 - 2 * mpow
    if not (m.in_window(w0) and m.in_window(low)):
        raise OutOfWindow("power product leaves the window")
    down = QuadMatrix.identity(m.dim(w0), m.d)
    w = w0
    for _ in range(mpow):
        down = m.y_at(w) * down
        w -= 2
    up = QuadMatrix.identity(m.dim(w), m.d)
    for _ in range(mpow):
        up = m.x_at(w) * up
        w += 2
    lhs = (up * down).scale(Fraction(4 ** mpow))
    rhs = _casimir_product(casimir_matrix(m, w0), mpow, k, m.d)
    scalar = Fraction(math.prod(m.ell ** 2 - (k - 2 * j) ** 2 for j in range(mpow)))
    return lhs == rhs, scalar, lhs, rhs


@dataclass(frozen=True)
class Normalizations:
    gamma_star: Fraction
    plus: StabilizationProblem  # (1, T_+) on M_{ell+1}
    star: StabilizationProblem  # (X*, Y*) on M_{-(ell-1)}
    x_star_inv: QuadMatrix


def normalizations(m: HCModule) -> Normalizations:
    """gamma_star, E's stabilization problems (1, T_+) on M_{ell+1} and
    (X*, Y*), X* and Y* the normalized extremal powers, and X*^-1.

    T_+ is the Section-3 product prod_{j < ell-1} (C - (ell-2-2j)^2) of
    power_product_identity (criterion 5) at C = phi_+, the bracket at ell+1
    of a valid module, over its scalar part (2^(ell-1) gamma_star)^2.  So
    T_+- - 1 has no constant term as a polynomial in phi_+- - ell^2, which
    validate_hc's "tail-dims" finds nilpotent: both T_+- are unipotent on a
    module it accepts, and T_- is not built.  The library calls this only
    from _functor_E, on what validate_hc accepted or inverse_E proved valid.

    The problems' walks of 1 - phi_- phi_+ are the only unipotence checks; a
    failure raises ValueError, T_+ first.  X*, Y* are square, so Y* X* has
    X* Y*'s characteristic polynomial; X*^-1 = (Y* X*)^-1 Y*, the inverse a
    Neumann series over the star problem's powers.
    """
    ell = m.ell
    if ell < 1:
        raise NotApplicable("normalizations need ell >= 1")
    gamma = Fraction(math.factorial(ell - 1))
    x_star = QuadMatrix.identity(m.dim(-(ell - 1)), m.d)
    y_star = QuadMatrix.identity(m.dim(ell - 1), m.d)
    for k in range(ell - 1):
        x_star = m.x_at(2 * k - (ell - 1)) * x_star
        y_star = m.y_at((ell - 1) - 2 * k) * y_star
    x_star, y_star = x_star.scale(1 / gamma), y_star.scale(1 / gamma)
    norm = 1 / Fraction(2 ** (ell - 1) * math.factorial(ell - 1)) ** 2
    t_plus = _casimir_product(m.phi_plus, ell - 1, ell - 2, m.d).scale(norm)
    try:
        plus = StabilizationProblem(QuadMatrix.identity(t_plus.rows, m.d), t_plus)
    except PreconditionViolated:
        raise ValueError("T operator is not unipotent; module is invalid") from None
    try:
        star = StabilizationProblem(x_star, y_star)
    except PreconditionViolated:
        raise ValueError("X* Y* is not unipotent; module is invalid") from None
    yx_inv = power_series([1] * (len(star.powers) + 1), 1, star.powers, x_star.rows, m.d)
    return Normalizations(gamma, plus, star, yx_inv * y_star)


@dataclass(frozen=True)
class BlockFunctorResult:
    rep: QuiverRep
    x_star: QuadMatrix | None
    iterations: int


def functor_E(m: HCModule) -> BlockFunctorResult:
    """Nilpotent rational quiver representation of a valid module.

    It is the restriction of m to the layout of _block.  For ell >= 1, a_+
    and b_+ are then normalized through star, and the rational structure is
    composed with one unipotent stabilization per conjugation orbit of
    vertices, (X*, Y*) on star and (1, T_+) on {+, -}.  The image is
    checked here, once, by _nilpotent_cycle, which accepts exactly the reps
    of the block's quiver that validate_rep accepts; a rejected image is a
    construction bug, named by validate_rep's failures.  roundtrip_hc checks
    the image through its witness instead.
    """
    report = validate_hc(m)
    if not report.ok:
        raise ValueError(f"invalid module: {report.failures()}")
    result = _functor_E(m)
    if _nilpotent_cycle(result.rep, m.ell) is None:
        raise AssertionError(f"construction bug: {validate_rep(result.rep).failures()}")
    return result


def _block(ell: int) -> tuple:
    """(quiver, weights, ladder) of the ell-block: vertex v of E(M) is the
    space M_{weights[v]}, and edge e is X_w if ladder[e] = (2, w) and Y_w if
    it is (-2, w), validate_hc's step encoding, before functor_E normalizes
    a_+ and b_+ through star.  ell = 0: the cyclic quiver, weights (1, -1),
    a = X_-1 and b = Y_1.  ell >= 1: the Gelfand quiver, weights
    (-(ell-1), ell+1, -(ell+1)), a_+ = Y_ell+1, a_- = X_-(ell+1),
    b_+ = X_ell-1 and b_- = Y_-(ell-1)."""
    if type(ell) is not int or ell < 0:  # no float, no bool, as HCModule
        raise ValueError("ell must be a nonnegative integer")
    if ell == 0:
        q, weights = cyclic_quiver(), {CYCLIC_PLUS: 1, CYCLIC_MINUS: -1}
        ladder = {CYCLIC_A: (2, -1), CYCLIC_B: (-2, 1)}
    else:
        q = gelfand_quiver()
        weights = {GELFAND_STAR: -(ell - 1), GELFAND_PLUS: ell + 1, GELFAND_MINUS: -(ell + 1)}
        ladder = {GELFAND_A_PLUS: (-2, ell + 1), GELFAND_A_MINUS: (2, -(ell + 1)),
                  GELFAND_B_PLUS: (2, ell - 1), GELFAND_B_MINUS: (-2, -(ell - 1))}
    return (q, tuple(weights[v] for v in range(q.vertices.size)),
            tuple(ladder[e] for e in range(q.edges.size)))


def _nilpotent_cycle(v: QuiverRep, ell: int) -> QuadMatrix | None:
    """The cycle composite X_{ell-1} Y_{ell+1} of a rep v of the ell-block's
    quiver (b_+ a_+ on M_+ for ell >= 1, ab for ell = 0, with the edges that
    _block places there) if v passes validate_rep(v), else None.

    It runs _validate_structure(v), the checks validate_rep runs before
    "nilpotent", and then one walk over the powers of the composite (at most
    dim M_+ - 1 products, no elimination) instead of is_nilpotent_rep's
    image chain; inverse_E's docstring proves that on the block's quiver the
    two nilpotency checks agree on every v that passes the structure checks.
    """
    ladder = _block(ell)[2]
    cycle = v.edge_maps[ladder.index((2, ell - 1))] * v.edge_maps[ladder.index((-2, ell + 1))]
    if _validate_structure(v).ok and nilpotency_exponent(cycle) is not None:
        return cycle
    return None


def _functor_E(m: HCModule) -> BlockFunctorResult:
    """functor_E on a module already validated, without validating the
    representation it builds.

    Conjugation fixes star and swaps + and -, so only normalizations'
    problems (1, T_+) and (X*, Y*) are stabilized, and a_+ <- X*^-1 a_+.
    With r_+- = rat[+-(ell+1)] the cocycle gives r_+ conj(r_-) = 1 =
    r_- conj(r_+), so sigma(A) = r_+ conj(A) conj(r_-) is a semilinear ring
    automorphism, and it maps T_+ to T_- (the Casimir commutes with
    conjugation).  The step (p, q) <- ((p + q^-1)/2, (q + p^-1)/2) commutes
    with (p, q) |-> (sigma(q), sigma(p)), so step k of the run of (T_-, 1) is
    (sigma(q_k), sigma(p_k)) for step k (p_k, q_k) of the run of (1, T_+); it
    has the same defect exponents, hence the same length.  So
    phi_-^inf = sigma(q_+^inf) and rho_- = r_- conj(phi_-^inf) = q_+^inf r_-,
    and the image's +- cocycle holds by construction.
    """
    ell = m.ell
    q, weights, ladder = _block(ell)
    dims = [m.dim(w) for w in weights]
    edges = [m.x_at(w) if step > 0 else m.y_at(w) for step, w in ladder]
    rho = [m.rat[w] for w in weights]
    if ell == 0:
        return BlockFunctorResult(QuiverRep(q, dims, edges, rho, m.d), None, 0)

    norms = normalizations(m)
    run_plus, run_star = stabilize(norms.plus), stabilize(norms.star)
    x_star = norms.star.phi_plus
    edges[GELFAND_A_PLUS] = norms.x_star_inv * edges[GELFAND_A_PLUS]
    edges[GELFAND_B_PLUS] = edges[GELFAND_B_PLUS] * x_star
    rho[GELFAND_STAR] = m.rat[ell - 1] * run_star.phi_plus_inf.conj()
    rho[GELFAND_PLUS] = rho[GELFAND_PLUS] * run_plus.phi_plus_inf.conj()
    rho[GELFAND_MINUS] = run_plus.phi_minus_inf * rho[GELFAND_MINUS]
    iterations = max(run_plus.iterations, run_star.iterations)
    return BlockFunctorResult(QuiverRep(q, dims, edges, rho, m.d), x_star, iterations)


def inverse_E(v: QuiverRep, ell: int, tail_weights: int = DEFAULT_TAIL_WEIGHTS) -> HCModule:
    """Module with E(module) isomorphic to the given nilpotent rational rep.

    Boundary ladder maps are the edge maps; the interior and the tails use
    the closed forms  2X|_{M_{j-1}} = s + j,  2Y|_{M_{j+1}} = s - j  built
    from the square roots s of  phi = ell^2 + 4 (cycle composite), taken with
    respect to the root gamma = ell.  For ell = 0 the square root does not
    exist and an asymmetric split with the same composites is used instead:
    on the plus side 2X = (w+1), 2Y = (1-w) + 4n/(w-1), mirrored by
    conjugation on the minus side.

    Raises ValueError on an ell that is not a nonnegative int, then on a
    quiver that does not match ell, both before any check of the rep, and on
    an invalid representation, with validate_rep's failures (it checks the
    Gelfand relation literally).  The rep is checked by _nilpotent_cycle:
    the structure checks of validate_rep (cocycle, edge-equivariance,
    relations-literal), then the nilpotency of the one cycle composite
    X_{ell-1} Y_{ell+1}, which phi_+ reuses.  The arrow ideal acts
    nilpotently, validate_rep's "nilpotent", exactly when every long enough
    path gives a zero matrix, so on a rep that passes the structure checks
    the two agree:
    - ell >= 1.  The out-edges of star are b_+-, and the only out-edge of
      +- is a_+-.  So a path of length 2k + 1 contains k consecutive pairs
      a_e b_e (b_e then a_e), each equal to n = a_+ b_+ by
      "relations-literal", and its matrix factors through n^k.  Hence v is
      nilpotent iff n is, as n^k is itself a path.  And n is nilpotent iff
      X_{ell-1} Y_{ell+1} = b_+ a_+ is, since n^(k+1) = a_+ (b_+ a_+)^k b_+
      and (b_+ a_+)^(k+1) = b_+ n^k a_+.
    - ell = 0.  The paths alternate a and b, so one of length 2k + 1
      factors through (ab)^k or (ba)^k, and (ba)^(k+1) = b (ab)^k a; v is
      nilpotent iff X_{-1} Y_1 = ab is, with no relation needed.

    The module is returned without validate_hc: it passes every check of
    validate_hc whenever v passes validate_rep, as follows.  It stores the
    core ladder maps only, the edge maps where _block places them, and
    x_at / y_at derive the tail maps from phi_+-.

    ell >= 1.  Write a_+-: +- -> star and b_+-: star -> +- for the edge maps,
    rho_v for the rational structure, n = a_+ b_+ and s = scaled_sqrt(ell^2 +
    4n, ell).  The module has X_{-ell-1} = a_-, Y_{ell+1} = a_+,
    X_{ell-1} = b_+, Y_{-ell+1} = b_-, 2X_w = s + w + 1 and
    2Y_{w+2} = s - w - 1 for -(ell-1) <= w <= ell-3, rat[w] = rho_v for v the
    vertex of w (+ for w >= ell+1, - for w <= -(ell+1), star between),
    phi_+ = ell^2 + 4 b_+ a_+ and phi_- = ell^2 + 4 b_- a_-.
    s = ell sum_j binom(1/2, j) (4n/ell^2)^j is a polynomial in n with
    rational coefficients, and s^2 = ell^2 + 4n (unipotent_sqrt checks it).
    - shape, tail-consistency and the dimensions of tail-dims hold by
      construction: the maps stored are exactly the core ones, each with the
      shape of its edge or of star; QuiverRep gives rho_v the shape
      dim(cv) x dim(v), and the vertex of -w is c(vertex of w); nothing is
      stored on the tails, and rat is constant along them.
    - bracket: at +-(ell+1) validate_hc compares phi_+- with
      ell^2 + 4 b_+- a_+-, which is how phi_+- is defined.  At a star weight
      w, 4 X_{w-2} Y_w = s^2 - (w-1)^2 and 4 Y_{w+2} X_w = s^2 - (w+1)^2
      (products of polynomials in s), except that 4 X_{-ell-1} Y_{-ell+1} =
      4 a_- b_- at w = -(ell-1) and 4 Y_{ell+1} X_{ell-1} = 4 a_+ b_+ at
      w = ell-1, where (w -+ 1)^2 = ell^2 and s^2 - ell^2 = 4n.  Since
      a_+ b_+ = n, and a_- b_- = n by "relations-literal", the two formulas
      hold at every star weight, and their difference is 4w.
    - casimir-nilpotent and the nilpotency of tail-dims: "nilpotent" makes
      the cycles n, b_+ a_+ and b_- a_- nilpotent.  phi_+- - ell^2 =
      4 b_+- a_+-, and C - ell^2 is 4 b_+ a_+ at ell+1 and, by the formulas
      above, s^2 - ell^2 = 4n at every star weight.
    - rational-cocycle at w is rho_{cv} conj(rho_v) = 1 for v the vertex of
      w, which is "cocycle".
    - conjugation-swap and tail-conjugation: "edge-equivariance" at a_- and
      at b_+ reads a_+ rho_- = rho_star conj(a_-) and
      b_- rho_star = rho_+ conj(b_+), the swaps at -(ell+1) and at ell-1; at
      a_+ it reads a_- rho_+ = rho_star conj(a_+).  So
      rho_+ conj(b_+ a_+) = b_- rho_star conj(a_+) = b_- a_- rho_+, that is
      phi_- rho_+ = rho_+ conj(phi_+) ("tail-conjugation", which is also the
      swap at ell+1), and rho_star conj(n) = a_- rho_+ conj(b_+) =
      a_- b_- rho_star = n rho_star by the relation.  s is a polynomial in n
      with rational coefficients, so rho_star conj(s) = s rho_star, which is
      the swap 2 rho_star conj(X_w) = (s + w + 1) rho_star = 2 Y_{-w} rho_star
      at -(ell-1) <= w <= ell-3.
    ell = 0.  Write a: - -> + and b: + -> - for the cyclic edges.  The module
    has X_{-1} = a, Y_1 = b, rat[w] = rho_+ for w >= 1 and rho_- for w <= -1,
    phi_+ = 4ab and phi_- = 4ba; the cyclic quiver has no relation.
    - shape, tail-consistency and the dimensions of tail-dims hold by
      construction, as above.
    - bracket at +-1 compares phi_+ with 4ab and phi_- with 4ba, which is
      how they are defined; casimir-nilpotent (at w = 1) and tail-dims ask
      that 4ab and 4ba be nilpotent, which "nilpotent" gives.
    - rational-cocycle is "cocycle", as above.
    - conjugation-swap at -1 is "edge-equivariance" of a,
      b rho_- = rho_+ conj(a), and validate_hc needs no swap at 1 for
      ell = 0.  With the equivariance of b, a rho_+ = rho_- conj(b), it gives
      rho_+ conj(ab) = b rho_- conj(b) = ba rho_+, which is
      "tail-conjugation".
    """
    q, weights, ladder = _block(ell)
    if v.quiver != q:
        raise ValueError("ell = 0 expects a cyclic-quiver representation" if ell == 0
                         else "ell >= 1 expects a Gelfand-quiver representation")
    cycle = _nilpotent_cycle(v, ell)
    if cycle is None:
        raise ValueError(f"invalid representation: {validate_rep(v).failures()}")
    d = v.d
    lam = Fraction(ell * ell)

    def phi(n):
        return QuadMatrix.identity(n.rows, d).scale(lam) + n.scale(4)

    x_maps, y_maps = {}, {}
    for (step, w), f in zip(ladder, v.edge_maps):
        (x_maps if step > 0 else y_maps)[w] = f
    if ell >= 2:  # the interior maps, at -(ell-1) <= w <= ell-3, are all that read s
        s_star = scaled_sqrt(phi(y_maps[ell + 1] * x_maps[ell - 1]), QuadElement(ell, 0, d))
        half = QuadElement(Fraction(1, 2), 0, d)
        ident_s = QuadMatrix.identity(x_maps[ell - 1].cols, d)
        for w in range(-(ell - 1), ell - 2, 2):
            x_maps[w] = (s_star + ident_s.scale(w + 1)).scale(half)
            y_maps[w + 2] = (s_star - ident_s.scale(w + 1)).scale(half)

    top = ell + 1
    n_window = top + 2 * tail_weights
    vertex = {w: i for i, w in enumerate(weights)}
    # the vertex of w: + from top up, - from -top down, star (weight 1 - ell) between
    owner = {w: vertex[top if w >= top else -top if w <= -top else 1 - ell]
             for w in range(-n_window, n_window + 1, 2)}
    return HCModule(ell, top % 2, n_window,
                    {w: v.dims[i] for w, i in owner.items()}, x_maps, y_maps,
                    {w: v.rho[i] for w, i in owner.items()},
                    phi(cycle), phi(y_maps[-(ell - 1)] * x_maps[-(ell + 1)]), d)


@dataclass(frozen=True)
class HCRoundtrip:
    witness: tuple
    path: str
    module: HCModule
    rep: QuiverRep


def roundtrip_hc(v: QuiverRep, ell: int) -> HCRoundtrip:
    """Witness E(inverse_E(v)) ~ v following the essential-surjectivity proof.

    For ell = 0 the witness is the identity.  For ell >= 1 it is read off
    the image r2 = E(inverse_E(v)): psi = (X*', psi_-, 1) on the (star,
    minus, plus) spaces, with X*' = r2's x_star, the normalized extremal power
    of the built module.  Since psi_+ = 1, the morphism condition at + reads
    psi_- rho_2[+] = rho_v[+], and the cocycle rho_2[-] conj(rho_2[+]) = 1
    gives rho_2[+]^-1 = conj(rho_2[-]); so psi_- = rho_v[+] conj(rho_2[-]),
    which is the proof's T_-^(1/2) (T_- the module's unipotent Casimir
    product).  The witness is verified exactly (equal dimensions, full rank
    and is_morphism); if it fails, that is a construction bug and
    AssertionError is raised.  The check at + then tests r2's cocycle, which
    psi_- assumed, so a wrong image still fails it.

    inverse_E checks v, by the structure checks and one cycle composite
    (_nilpotent_cycle, no image chain), and returns a module that is valid
    by the proof in its docstring; E is applied to it without validating it
    or its image.  The image needs no check: a verified witness is an
    isomorphism onto v, which inverse_E checked, and the cocycle,
    edge-equivariance, the relations and nilpotency all carry over along an
    isomorphism of rational representations.
    """
    module = inverse_E(v, ell)
    result = _functor_E(module)
    r2 = result.rep
    same_dims = r2.dims == v.dims
    mats = [QuadMatrix.identity(n, v.d) for n in v.dims]
    if ell >= 1 and same_dims:
        mats[GELFAND_STAR] = result.x_star
        mats[GELFAND_MINUS] = v.rho[GELFAND_PLUS] * r2.rho[GELFAND_MINUS].conj()
    mats = tuple(mats)
    if not (same_dims and all(rank(mats[i]) == v.dims[i] for i in range(len(mats)))
            and is_morphism(r2, v, mats)):
        raise AssertionError("constructive witness is not an isomorphism; construction bug")
    return HCRoundtrip(mats, "constructive", module, r2)


# ------------------------------------------------------------------ fixtures

KINDS = ("finite", "discrete", "principal", "principal_dual")


def build_example(kind: str, ell: int, tail_weights: int = DEFAULT_TAIL_WEIGHTS,
                  d=-1) -> HCModule:
    """The four fundamental block members, as inverse_E of their diagrams.

    Each diagram has spaces 0 or 1 and rho = 1: the finite module lives on
    star, the discrete one on +- (for ell = 0 on the cyclic quiver, with zero
    maps), the principal has a+- = 0, b+- = ell and the dual principal
    a+- = 1, b+- = 0.  Every diagram has a_+ b_+ = 0, so phi = ell^2 and
    S = ell, which gives X = (ell+w+1)/2 and Y = (ell-w+1)/2 wherever both
    spaces are nonzero, except on the dual principal's edges.  X and Y are
    stored at every window weight.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if kind != "discrete" and ell < 1:
        raise NotApplicable(f"kind {kind} needs ell >= 1")
    a, b = {"principal": (0, ell), "principal_dual": (1, 0)}.get(kind, (0, 0))
    q, weights, _ = _block(ell)
    star = [abs(w) < ell + 1 for w in weights]
    dims = [int(kind != ("discrete" if s else "finite")) for s in star]
    edges = []
    for e in range(q.edges.size):
        rows, cols = dims[q.tgt[e]], dims[q.src[e]]
        c = b if star[q.src[e]] else a
        edges.append(QuadMatrix(rows, cols, [QuadElement(c, 0, d)] * (rows * cols), d))
    rho = [QuadMatrix.identity(n, d) for n in dims]
    m = inverse_E(QuiverRep(q, dims, edges, rho, d), ell, tail_weights)
    ws = m.weights()
    m.x_maps.update((w, m.x_at(w)) for w in ws[:-1])
    m.y_maps.update((w, m.y_at(w)) for w in ws[1:])
    return m


# ------------------------------------------------------------------ HC Hom

@cache
def _ladder_quiver(n: int) -> RationalQuiver:
    """The C2 ladder quiver on n vertices: vertex k is the k-th weight of the
    ladder, edge k is X: k -> k+1, edge n-1+k is Y: k+1 -> k, and
    conjugation reverses both lists.  Built once per length and shared, like
    gelfand_quiver(); it is never modified."""
    v, e = list(range(n)), list(range(2 * n - 2))
    return RationalQuiver(GSet(C2, n, [v, v[::-1]]), GSet(C2, len(e), [e, e[::-1]]),
                          v[:-1] + v[1:], v[1:] + v[:-1])


def hc_hom_space(m1: HCModule, m2: HCModule):
    """Hom between two modules of one block, as quiver Hom on their ladders.

    The weights |w| <= ell+1 of a module form a representation of a C2
    ladder quiver: a vertex per weight, edges X_w: w -> w+2 and Y_w: w -> w-2,
    conjugation w |-> -w and X_w |-> Y_{-w}, rational structure rat.  Its
    edges are the core ladder maps, which every module stores.
    reps.hom_space solves it, and each basis element is extended constantly
    along the tails (psi_w = psi_{+-(ell+1)} past +-(ell+1)).  For valid
    modules that is Hom of the whole modules.  Take the + tail; the - tail is
    its mirror image.
    - X_w (w >= ell+1) is invertible, with eigenvalues (ell+w+1)/2, so
      psi_{w+2} X1_w = X2_w psi_w fixes psi_{w+2}: restriction is injective.
    - The bracket at ell+1 reads 4 X_{ell-1} Y_{ell+1} - 4 Y_{ell+3} X_{ell+1}
      = 4(ell+1), and the tail closed forms give 4 Y_{ell+3} X_{ell+1} =
      phi_+ - (ell+2)^2 (see validate_hc; for ell = 0, X_1 = 1 and
      Y_3 = (phi_+/2 - 2)/2 give 4 Y_3 X_1 = phi_+ - 4).  So
      4 X_{ell-1} Y_{ell+1} = phi_+ - ell^2, that is C = phi_+ on M_{ell+1}.
      With psi = psi_{ell+1}, the X_{ell-1} and Y_{ell+1} equations give
      psi X1_{ell-1} Y1_{ell+1} = X2_{ell-1} psi_{ell-1} Y1_{ell+1} =
      X2_{ell-1} Y2_{ell+1} psi, so psi phi1_+ = phi2_+ psi.
    - Each tail map is one rational polynomial in phi_+ for both modules:
      X_w = (S+w+1)/2, Y_w = (S-w+1)/2 with S = ell sum_j binom(1/2, j)
      (phi_+/ell^2 - 1)^j, j below both dimensions, for ell >= 1, and
      X_w = (w+1)/2, Y_w = ((1-w) + phi_+/(w-1))/2 for ell = 0.  So psi
      intertwines every tail map, and the constant extension meets every
      tail equation (psi_{w+2} X1_w = psi X1_w = X2_w psi).
    - rat is constant along the tails, so conjugation commutes with the
      extension, and so does the reduced echelon basis (the constant blocks
      keep the free coordinates in place): the result equals a solve over the
      whole window and does not depend on it.
    Returns (dim_K, dim_L, K-basis as weight->matrix dicts on the window).
    """
    if (m1.ell, m1.epsilon, m1.window) != (m2.ell, m2.epsilon, m2.window):
        raise ValueError("modules live in different blocks or windows")
    if m1.d != m2.d:
        raise ValueError(f"modules over different fields sqrt({m1.d}) and sqrt({m2.d})")
    top = m1.ell + 1
    ladder = range(-top, top + 1, 2)
    quiver = _ladder_quiver(len(ladder))

    def rep(m):
        return QuiverRep(quiver, [m.dim(w) for w in ladder],
                         [m.x_at(w) for w in ladder[:-1]] + [m.y_at(w) for w in ladder[1:]],
                         [m.rat[w] for w in ladder], m.d)

    hs = hom_space(rep(m1), rep(m2))
    basis = [{w: psi[(max(-top, min(w, top)) + top) // 2] for w in m1.weights()}
             for psi in hs.basis]
    return hs.dim_K, hs.dim_L, basis


def functor_E_map(psi: dict, ell: int) -> tuple:
    """E on a module map psi: M -> M' of the ell-block, given as a weight ->
    matrix dict (as hc_hom_space returns): the restriction to the vertex
    weights of _block(ell), (psi_{-(ell-1)}, psi_{ell+1}, psi_{-(ell+1)}) for
    ell >= 1 and (psi_1, psi_{-1}) for ell = 0.  It is a morphism
    E(M) -> E(M').

    Naturality.  psi commutes with X and Y and with the rational structures,
    psi_{-w} rat[w] = rat'[w] conj(psi_w).  The edges of E(M) are ladder
    maps, except that for ell >= 1 functor_E normalizes a_+ and b_+ through
    X*^-1 and X* and composes rho with stabilization limits.  X* and Y* are
    rational multiples of ladder products, X*^-1 = (Y* X*)^-1 Y* with
    (Y* X*)^-1 a Neumann series in 1 - Y* X*, and T_+ is a rational
    polynomial in C = phi_+ on M_{ell+1}, so psi intertwines them and the
    starting pairs (X*, Y*) and (1, T_+).  Step k of a stabilization run is
    p <- p c_k, q <- c_k q with c_k = sum_j gamma_(k,j) s^j a fixed
    polynomial in s = 1 - u_0, u_0 = phi_- phi_+ of the starting pair: its
    coefficients gamma_(k,j) are dyadic rationals that depend on k and j
    only, not on the module (unipotent's module docstring), and truncating
    at s^e for both nilpotency exponents e of M and M' changes no term that
    survives.  psi intertwines u_0 and so s and every c_k; so psi
    intertwines each step, the limits and the rho built from them, and
    E(psi) meets the morphism condition at every edge and vertex.
    """
    return tuple(psi[w] for w in _block(ell)[1])

"""Unipotent stabilization and unipotent square roots.

Both run on exact matrices without a single elimination: every inverse they
need is that of a unipotent matrix u = 1 - s with s nilpotent, which is the
finite Neumann series u^{-1} = sum_k s^k, and the series stops at the first
zero power s^e, e the nilpotency exponent of s.  exact's one walk over the
powers s, ..., s^(e-1) gives e, and exact.power_series sums any polynomial
in s over that walk in one pass, so this module multiplies no powers itself.

Stabilization.  phi_+ and phi_- are square and u = phi_- phi_+ is unipotent,
so phi_- (phi_+ u^{-1}) = 1 and (u^{-1} phi_-) phi_+ = 1; for square matrices
a one-sided inverse is the inverse, hence

    phi_-^{-1} = phi_+ u^{-1},        phi_+^{-1} = u^{-1} phi_-.

The step phi_+ <- (phi_+ + phi_-^{-1})/2, phi_- <- (phi_- + phi_+^{-1})/2 is
therefore phi_+ <- phi_+ c, phi_- <- c phi_- with c = (1 + u^{-1})/2, a
polynomial in u.  The next u is c u c = c^2 u.  So, by induction, every u_k
and c_k of a run is a polynomial in s = 1 - u_0 whose coefficients do not
depend on the matrices: the run is Heron's iteration for u_0^(-1/2) in
Q[s]/(s^e_0) (Higham, Functions of Matrices, ch. 6).  The coefficients lie
in Z[1/2]: u_0 = 1 - s and u_0^{-1} = sum s^j have integer ones, halving
keeps Z[1/2], and so does inverting a series with constant term 1.

So one walk over the powers of s, made when the problem is checked, serves
the whole run; it is also the only unipotence check that hc's normalizations
makes for E's pairs (1, T_+) and (X*, Y*).  stabilize keeps u_k and c_k as
integer numerators over one power of two, builds each c_k from the stored
powers, and spends two products per step, p <- p c_k and q <- c_k q.  The
defect exponents are read off the coefficients (stabilize's docstring
proves both facts used): u_k - 1 = s^m g(s) with g(0) != 0 has nilpotency
exponent ceil(e_0/m), and m = 2^k.  A run of at least one step ends with
one exact check that phi_- phi_+ = 1, so the verdict never rests on the
coefficient arithmetic alone; a run of no steps starts from the exact
phi_- phi_+ = 1 that the walk found.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd

from .exact import QuadElement, QuadMatrix, _nilpotent_powers, power_series


class PreconditionViolated(ValueError):
    pass


class SingularIterate(RuntimeError):
    """An iteration or its final exact check failed; an arithmetic bug."""


def neumann_inverse(u: QuadMatrix) -> QuadMatrix:
    """Inverse of a unipotent u = 1 - s, the series sum s^k over s's powers."""
    if u.rows != u.cols:
        raise PreconditionViolated("Neumann inverse of a non-square matrix")
    powers = _nilpotent_powers(QuadMatrix.identity(u.rows, u.d) - u)
    if powers is None:
        raise PreconditionViolated("matrix is not unipotent")
    return power_series([1] * (len(powers) + 1), 1, powers, u.rows, u.d)


@dataclass(frozen=True)
class StabilizationProblem:
    """Pair of mutually inverse-up-to-nilpotent square maps phi_+: W_+ -> W_-'
    and phi_-: W_-' -> W_+ (the primes record that the target is read through
    the ambient conjugation; the matrices themselves are plain).  powers is
    [s, ..., s^(e-1)] for s = 1 - phi_- phi_+ of nilpotency exponent e, from
    the one walk that checks s is nilpotent; stabilize runs on it."""
    phi_plus: QuadMatrix
    phi_minus: QuadMatrix
    powers: list = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        p, q = self.phi_plus, self.phi_minus
        if p.rows != q.cols or p.cols != q.rows:
            raise PreconditionViolated("phi_+ and phi_- have incompatible shapes")
        if p.rows != p.cols:
            raise PreconditionViolated("phi_+ and phi_- must be square")
        powers = _nilpotent_powers(QuadMatrix.identity(p.rows, p.d) - q * p)
        if powers is None:
            raise PreconditionViolated("phi_- o phi_+ - 1 is not nilpotent")
        object.__setattr__(self, "powers", powers)

    def defect_exponent(self) -> int:
        """The nilpotency exponent of phi_- phi_+ - 1."""
        return len(self.powers) + 1


@dataclass(frozen=True)
class StabilizationResult:
    phi_plus_inf: QuadMatrix
    phi_minus_inf: QuadMatrix
    iterations: int
    trace: tuple  # (phi_plus, phi_minus, defect_exponent) per step, step 0 first


# A dyadic series is (a, t): the coefficients a[j] / 2^t of s^j, j < len(a).

def _reduced(a: list, t: int) -> tuple:
    """(a, t) with the common power of two taken out of a and 2^t."""
    g = gcd(*a)
    z = min(t, (g & -g).bit_length() - 1) if g else t
    return [x >> z for x in a], t - z


def _times(a: list, ta: int, b: list, tb: int) -> tuple:
    """The product of two dyadic series of one length, truncated to it."""
    return _reduced([sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(len(a))],
                    ta + tb)


def _inverse(a: list, t: int) -> tuple:
    """The inverse of a dyadic series with constant term 1 (a[0] = 2^t).

    b_j = beta_j / 2^(t j) solves sum_i a_i b_(j-i) = 0 for j >= 1 with
    beta_0 = 1 and beta_j = -sum_(1 <= i <= j) a[i] beta_(j-i) 2^(t (i-1)),
    all integers; over 2^(t (len(a) - 1)), b_j has numerator
    beta_j 2^(t (len(a) - 1 - j))."""
    beta = [1]
    for j in range(1, len(a)):
        beta.append(-sum(a[i] * beta[j - i] << t * (i - 1) for i in range(1, j + 1)))
    last = len(a) - 1
    return _reduced([x << t * (last - j) for j, x in enumerate(beta)], t * last)


def stabilize(problem: StabilizationProblem) -> StabilizationResult:
    """Iterate phi_+ <- (phi_+ + phi_-^{-1})/2 (and symmetrically) until the
    pair is exactly mutually inverse.

    Each step is phi_+ <- phi_+ c_k, phi_- <- c_k phi_- with c_k =
    (1 + u_k^{-1})/2 and u_k = phi_- phi_+, a dyadic series in s = 1 - u_0
    truncated at s^e_0 (module docstring).  The step takes c_k as a matrix
    from the problem's powers of s in one pass (exact.power_series) and
    sets u_(k+1) = c_k^2 u_k on the coefficients.

    Order doubling.  Write ord f for the least j with a nonzero coefficient
    of s^j in f.  As c_k commutes with u_k,
    u_(k+1) - 1 = (u_k + 1)^2 u_k^{-1}/4 - 1 = (u_k - 1)^2 u_k^{-1}/4, and
    u_k^{-1} has constant term 1; so ord(u_(k+1) - 1) = 2 ord(u_k - 1), and
    ord(u_0 - 1) = ord(-s) = 1 gives ord(u_k - 1) = 2^k, until it reaches
    e_0 and the truncated series u_k - 1 is 0.  The loop checks this order
    at every step and raises SingularIterate if it differs.

    Defect exponents.  If u_k - 1 = s^m g(s) with g(0) != 0, g(s) is
    invertible and commutes with s, so (u_k - 1)^j = s^(m j) g(s)^j is 0
    exactly when m j >= e_0: the nilpotency exponent of u_k - 1 is
    ceil(e_0/m) = ceil(e_0/2^k), and 1 once 2^k >= e_0.  The loop stops
    there, after exactly (e_0 - 1).bit_length() = ceil(log2 e_0) iterations.

    Closing check.  e = 1 means phi_- phi_+ = 1, and a run of at least one
    step confirms it with one exact product (q p).is_identity(), else
    SingularIterate; phi_+ and phi_- are square, so the one-sided inverse is
    two-sided and phi_+ phi_- = 1 needs no check.  A run of no steps has
    e_0 = 1: the problem's walk found s = 1 - phi_- phi_+ to be exactly
    zero, so it is not checked again.  A run makes 2 iterations products,
    plus one if iterations > 0.
    Each c_k is a unipotent polynomial in u_0, so their product r is
    unipotent with r^2 u_0 = 1: phi_+^inf = phi_+ r and phi_-^inf = r phi_-
    with r the unique unipotent root unipotent_sqrt(neumann_inverse(u_0)).
    """
    p, q = problem.phi_plus, problem.phi_minus
    powers = problem.powers
    e0 = len(powers) + 1
    u, t = [1, -1] + [0] * (e0 - 2), 0
    trace = [(p, q, e0)]
    order, e = 1, e0
    while e != 1:
        inv, ti = _inverse(u, t)
        c, tc = [inv[0] + (1 << ti)] + inv[1:], ti + 1
        c_matrix = power_series(c, 1 << tc, powers, p.cols, p.d)
        p, q = p * c_matrix, c_matrix * q
        c2, t2 = _times(c, tc, c, tc)
        u, t = _times(c2, t2, u, t)
        order = min(2 * order, e0)
        defect = [u[0] - (1 << t)] + u[1:]
        m = next((j for j, x in enumerate(defect) if x), e0)
        if m != order:
            raise SingularIterate(f"u - 1 has order {m}, not {order}; arithmetic bug")
        e = -(-e0 // m)
        trace.append((p, q, e))
    if e0 != 1 and not (q * p).is_identity():
        raise SingularIterate("stabilized pair is not mutually inverse; arithmetic bug")
    return StabilizationResult(p, q, len(trace) - 1, tuple(trace))


def unipotent_sqrt(phi: QuadMatrix) -> QuadMatrix:
    """The unique unipotent square root of a unipotent matrix.

    With n = phi - 1 nilpotent of exponent e, the root is the finite binomial
    series sum_{k < e} binom(1/2, k) n^k, summed over exact's one walk over
    the powers of n, which also finds that n is not nilpotent.  For k >= 1,
    binom(1/2, k) = (-1)^(k+1) 2 C_(k-1) / 4^k with C_j = binom(2j, j)/(j+1)
    the Catalan numbers, so over 4^(e-1) every coefficient is an integer.
    The root is unique: a unipotent x is exp of the nilpotent log x, and
    x^2 = phi forces 2 log x = log phi, so x = exp(log(phi)/2) is the series
    above.
    """
    if phi.rows != phi.cols:
        raise PreconditionViolated("square root of a non-square matrix")
    powers = _nilpotent_powers(phi - QuadMatrix.identity(phi.rows, phi.d))
    if powers is None:
        raise PreconditionViolated("phi - 1 is not nilpotent")
    last = len(powers)
    coefficients = [1 << 2 * last] + [
        (-1) ** (k + 1) * 2 * (comb(2 * k - 2, k - 1) // k) << 2 * (last - k)
        for k in range(1, last + 1)]
    root = power_series(coefficients, 1 << 2 * last, powers, phi.rows, phi.d)
    if root * root != phi:
        raise SingularIterate("square root does not square back; arithmetic bug")
    return root


def scaled_sqrt(phi: QuadMatrix, gamma: QuadElement) -> QuadMatrix:
    """Square root of gamma^2 + nilpotent, normalized by the choice of gamma."""
    if isinstance(gamma, (int, Fraction)):
        gamma = QuadElement(gamma, 0, phi.d)
    if not gamma:
        raise PreconditionViolated("gamma must be nonzero")
    inv = gamma.inv()
    return unipotent_sqrt(phi.scale(inv * inv)).scale(gamma)

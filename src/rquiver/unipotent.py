"""Unipotent stabilization and unipotent square roots.

Both run on exact matrices without a single elimination: every inverse they
need is that of a unipotent matrix u = 1 + n, which is the finite Neumann
series u^{-1} = sum_k (-n)^k, and the series stops at the first zero power.
That zero power is (-n)^e with e the nilpotency exponent of n, so exact's
one pass over the powers of 1 - u gives both u^{-1} and e.

Stabilization.  phi_+ and phi_- are square and u = phi_- phi_+ is unipotent,
so phi_- (phi_+ u^{-1}) = 1 and (u^{-1} phi_-) phi_+ = 1; for square matrices
a one-sided inverse is the inverse, hence

    phi_-^{-1} = phi_+ u^{-1},        phi_+^{-1} = u^{-1} phi_-.

The step phi_+ <- (phi_+ + phi_-^{-1})/2, phi_- <- (phi_- + phi_+^{-1})/2 is
therefore phi_+ <- phi_+ c, phi_- <- c phi_- with c = (1 + u^{-1})/2, a
polynomial in u.  The next u is c u c = c^2 u, again unipotent, so one
Neumann pass per step gives both the next c and the defect exponent that the
trace records.  Termination is detected by exact fixed-point equality, never
by the iteration cap (a safety cap of 64 only guards against arithmetic
bugs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exact import QuadElement, QuadMatrix, _nilpotent_powers

MAX_ITERATIONS = 64


class PreconditionViolated(ValueError):
    pass


class SingularIterate(RuntimeError):
    """An iteration or its final exact check failed; an arithmetic bug."""


def _neumann(u: QuadMatrix) -> tuple:
    """(u^{-1}, e) for a unipotent u, with e the nilpotency exponent of u - 1.

    u^{-1} is 1 plus the nonzero powers (-n)^k of -n = 1 - u.
    """
    acc = QuadMatrix.identity(u.rows, u.d)
    powers = _nilpotent_powers(acc - u)
    if powers is None:
        raise PreconditionViolated("matrix is not unipotent")
    for term in powers:
        acc = acc + term
    return acc, len(powers) + 1


def neumann_inverse(u: QuadMatrix) -> QuadMatrix:
    """Inverse of a unipotent matrix via the finite series sum (-n)^k."""
    return _neumann(u)[0]


@dataclass(frozen=True)
class StabilizationProblem:
    """Pair of mutually inverse-up-to-nilpotent square maps phi_+: W_+ -> W_-'
    and phi_-: W_-' -> W_+ (the primes record that the target is read through
    the ambient conjugation; the matrices themselves are plain).  neumann is
    (u^{-1}, e) for u = phi_- phi_+, from the one Neumann pass that checks u
    is unipotent; stabilize starts from it."""
    phi_plus: QuadMatrix
    phi_minus: QuadMatrix
    neumann: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        p, q = self.phi_plus, self.phi_minus
        if p.rows != q.cols or p.cols != q.rows:
            raise PreconditionViolated("phi_+ and phi_- have incompatible shapes")
        if p.rows != p.cols:
            raise PreconditionViolated("phi_+ and phi_- must be square")
        try:
            object.__setattr__(self, "neumann", _neumann(q * p))
        except PreconditionViolated:
            raise PreconditionViolated("phi_- o phi_+ - 1 is not nilpotent") from None

    def defect_exponent(self) -> int:
        """The nilpotency exponent of phi_- phi_+ - 1."""
        return self.neumann[1]


@dataclass(frozen=True)
class StabilizationResult:
    phi_plus_inf: QuadMatrix
    phi_minus_inf: QuadMatrix
    iterations: int
    trace: tuple  # (phi_plus, phi_minus, defect_exponent) per step, step 0 first


def stabilize(problem: StabilizationProblem) -> StabilizationResult:
    """Iterate phi_+ <- (phi_+ + phi_-^{-1})/2 (and symmetrically) until the
    pair is exactly mutually inverse.

    Each step is phi_+ <- phi_+ c, phi_- <- c phi_- with c = (1 + u^{-1})/2
    and u = phi_- phi_+ (module docstring).  The next u is c^2 u, so
    u' - 1 = (u - 1)^2 u^{-1}/4 with u^{-1} invertible and commuting with
    u - 1: the defect exponent goes e -> ceil(e/2).  The loop stops at e = 1
    after exactly (e - 1).bit_length() = ceil(log2 e) iterations.  e = 1
    means u - 1 = 0, so phi_- phi_+ = 1 exactly; phi_+ and phi_- are square,
    so the one-sided inverse is two-sided and phi_+ phi_- = 1 needs no check.
    Each c is a unipotent polynomial in u, so their product r is unipotent
    with r^2 u = 1: phi_+^inf = phi_+ r and phi_-^inf = r phi_- with r the
    unique unipotent root unipotent_sqrt(neumann_inverse(u)).
    """
    p, q = problem.phi_plus, problem.phi_minus
    d = p.d
    half = QuadElement(Fraction(1, 2), 0, d)
    ident = QuadMatrix.identity(p.cols, d)
    u_inv, e = problem.neumann
    trace = [(p, q, e)]
    iterations = 0
    while e != 1:
        if iterations >= MAX_ITERATIONS:
            raise SingularIterate("stabilization did not converge; arithmetic bug")
        c = (ident + u_inv).scale(half)
        p, q = p * c, c * q
        iterations += 1
        u_inv, e = _neumann(q * p)
        trace.append((p, q, e))
    return StabilizationResult(p, q, iterations, tuple(trace))


def unipotent_sqrt(phi: QuadMatrix) -> QuadMatrix:
    """The unique unipotent square root of a unipotent matrix.

    With n = phi - 1 nilpotent of exponent e, the root is the finite binomial
    series sum_{k < e} binom(1/2, k) n^k, summed over exact's one pass over
    the powers of n, which also finds that n is not nilpotent.  The root is
    unique: a unipotent x is exp of the nilpotent log x, and x^2 = phi forces
    2 log x = log phi, so x = exp(log(phi)/2) is the series above.
    """
    if phi.rows != phi.cols:
        raise PreconditionViolated("square root of a non-square matrix")
    acc = QuadMatrix.identity(phi.rows, phi.d)
    powers = _nilpotent_powers(phi - acc)
    if powers is None:
        raise PreconditionViolated("phi - 1 is not nilpotent")
    coeff = Fraction(1, 2)
    for k, term in enumerate(powers, 1):
        acc = acc + term.scale(coeff)
        coeff = coeff * (Fraction(1, 2) - k) / (k + 1)
    if acc * acc != phi:
        raise SingularIterate("square root does not square back; arithmetic bug")
    return acc


def scaled_sqrt(phi: QuadMatrix, gamma: QuadElement) -> QuadMatrix:
    """Square root of gamma^2 + nilpotent, normalized by the choice of gamma."""
    if isinstance(gamma, (int, Fraction)):
        gamma = QuadElement(gamma, 0, phi.d)
    if not gamma:
        raise PreconditionViolated("gamma must be nonzero")
    scaled = phi.scale(gamma.inv() * gamma.inv())
    root = unipotent_sqrt(scaled)
    return root.scale(gamma)

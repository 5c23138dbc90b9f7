"""Unipotent stabilization and unipotent square roots.

Both are Newton-style iterations on exact matrices that terminate in finitely
many steps because every defect is nilpotent; termination is detected by
exact fixed-point equality, never by an iteration cap (a safety cap of 64
only guards against arithmetic bugs).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import QuadElement, QuadMatrix, inverse, nilpotency_exponent

MAX_ITERATIONS = 64


class PreconditionViolated(ValueError):
    pass


class SingularIterate(RuntimeError):
    """The iteration failed to stabilize within the safety cap."""


def neumann_inverse(u: QuadMatrix) -> QuadMatrix:
    """Inverse of a unipotent matrix via the finite series sum (-n)^k.

    The powers of -n are summed until one is zero; n = u - 1 is nilpotent
    exactly when n^rows = 0 (n^1 for the empty matrix).
    """
    acc = term = QuadMatrix.identity(u.rows, u.d)
    minus_n = acc - u
    for _ in range(max(u.rows, 1)):
        term = term * minus_n
        if term.is_zero():
            return acc
        acc = acc + term
    raise PreconditionViolated("matrix is not unipotent")


@dataclass(frozen=True)
class StabilizationProblem:
    """Pair of mutually inverse-up-to-nilpotent maps phi_+: W_+ -> W_-' and
    phi_-: W_-' -> W_+ (the primes record that the target is read through the
    ambient conjugation; the matrices themselves are plain)."""
    phi_plus: QuadMatrix
    phi_minus: QuadMatrix

    def __post_init__(self):
        p, q = self.phi_plus, self.phi_minus
        if p.rows != q.cols or p.cols != q.rows:
            raise PreconditionViolated("phi_+ and phi_- have incompatible shapes")
        defect = q * p - QuadMatrix.identity(p.cols, p.d)
        if nilpotency_exponent(defect) is None:
            raise PreconditionViolated("phi_- o phi_+ - 1 is not nilpotent")

    def defect_exponent(self) -> int:
        defect = self.phi_minus * self.phi_plus - QuadMatrix.identity(
            self.phi_plus.cols, self.phi_plus.d)
        return nilpotency_exponent(defect)


@dataclass(frozen=True)
class StabilizationResult:
    phi_plus_inf: QuadMatrix
    phi_minus_inf: QuadMatrix
    iterations: int
    trace: tuple  # (phi_plus, phi_minus, defect_exponent) per step, step 0 first


def stabilize(problem: StabilizationProblem) -> StabilizationResult:
    """Iterate phi_+ <- (phi_+ + phi_-^{-1})/2 (and symmetrically) until the
    pair is exactly mutually inverse.

    The defect exponent at least halves each step, so the fixed point is
    reached within ceil(log2 e) + 1 iterations.
    """
    p, q = problem.phi_plus, problem.phi_minus
    d = p.d
    half = QuadElement(Fraction(1, 2), 0, d)
    ident = QuadMatrix.identity(p.cols, d)
    qp = q * p
    trace = [(p, q, nilpotency_exponent(qp - ident))]
    iterations = 0
    while not (qp == ident and p * q == QuadMatrix.identity(p.rows, d)):
        if iterations >= MAX_ITERATIONS:
            raise SingularIterate("stabilization did not converge; arithmetic bug")
        try:
            p_next = (p + inverse(q)).scale(half)
            q_next = (q + inverse(p)).scale(half)
        except ValueError as exc:
            raise SingularIterate(f"iterate became singular: {exc}") from exc
        p, q = p_next, q_next
        iterations += 1
        qp = q * p
        trace.append((p, q, nilpotency_exponent(qp - ident)))
    return StabilizationResult(p, q, iterations, tuple(trace))


def unipotent_sqrt(phi: QuadMatrix) -> QuadMatrix:
    """The unique unipotent square root of a unipotent matrix.

    Iterates x <- (x + x^{-1} phi)/2 from x = phi; every iterate is unipotent
    and commutes with phi, and x^2 - phi has at-least-halving nilpotency
    exponent, so the sequence is eventually constant.
    """
    if phi.rows != phi.cols:
        raise PreconditionViolated("square root of a non-square matrix")
    n = phi - QuadMatrix.identity(phi.rows, phi.d)
    if nilpotency_exponent(n) is None:
        raise PreconditionViolated("phi - 1 is not nilpotent")
    half = QuadElement(Fraction(1, 2), 0, phi.d)
    x = phi
    for _ in range(MAX_ITERATIONS):
        if x * x == phi:
            return x
        x = (x + neumann_inverse(x) * phi).scale(half)
    raise SingularIterate("square-root iteration did not converge; arithmetic bug")


def scaled_sqrt(phi: QuadMatrix, gamma: QuadElement) -> QuadMatrix:
    """Square root of gamma^2 + nilpotent, normalized by the choice of gamma."""
    if isinstance(gamma, (int, Fraction)):
        gamma = QuadElement(gamma, 0, phi.d)
    if not gamma:
        raise PreconditionViolated("gamma must be nonzero")
    scaled = phi.scale(gamma.inv() * gamma.inv())
    root = unipotent_sqrt(scaled)
    return root.scale(gamma)

"""Exact arithmetic over Q and quadratic extensions Q(sqrt(d)).

No rounding ever occurs.  Elements a + b*sqrt(d) live in the field tagged by
a non-square rational d = dn/dd in lowest terms (default -1); their
coefficients are :class:`fractions.Fraction`.

Matrices are dense and row-major, and store integers only: with D = dn*dd
(so that sqrt(D) = dd*sqrt(d)), entry k is (P[k] + Q[k]*sqrt(D)) / den with
den > 0 and gcd(den, P, Q) = 1.  That form is canonical, so equality is a
comparison of integer lists, and every matrix operation runs on Python
integers without a Fraction per entry.  Rank, kernels, solving and inverses
share one fraction-free Gauss-Jordan elimination.  Field elements are built
from the integers only when entries are read.  This module is the only one
that reads or writes the integer arrays: other modules build matrices from
integers with ``from_coefficients``, the inverse of
``QuadMatrix.coefficients``, and reach the elimination only through its
public functions (``rank``, ``row_space_basis``, ...).

Products with a sqrt(D) term in either factor are packed (Kronecker
substitution): each entry p + q*sqrt(D) becomes the integer p + q*2^s, with
s wide enough that one integer dot product of a packed row and a packed
column holds sum(p*p'), sum(p*q' + q*p') and sum(q*q') as three separate
base-2^s digits.  So an entry costs one dot product instead of four; the
bound on s is stated and proved in ``_product``.

Trivial operands cost no arithmetic: a product with an identity factor is
the other factor when both carry the same tag object, and a product with an
empty inner dimension or result is built as the zero matrix; a sum with an
empty or zero right operand and the inverse of an identity are read off the
same way.  ``_field_tag`` interns the tags it has validated, so matrices over
one field share one tag object.  Returning an operand is safe because no
code writes to a matrix's integer lists in place: every operation builds new
lists, and a matrix may share them with its operands (``conj`` relies on
this too).

A conjugate-semilinear map is its matrix a, v |-> a . conj(v), with conj
applied entrywise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import mul
from typing import Sequence


class CocycleViolation(ValueError):
    """A claimed order-2 semilinear structure failed phi o phi = id."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def is_rational_square(x: Fraction) -> bool:
    if x < 0:
        return False
    p, q = x.numerator, x.denominator
    return math.isqrt(p) ** 2 == p and math.isqrt(q) ** 2 == q


_FIELD_TAGS = {}
_MAX_FIELD_TAGS = 64


def _field_tag(d) -> Fraction:
    """d as a field tag, one shared Fraction per field.  Only int and
    Fraction inputs (exact types, so no bool) are looked up and stored, by
    (numerator, denominator); a square d is never stored, so it raises on
    every call.  At most _MAX_FIELD_TAGS tags are stored; past that a tag is
    validated but not shared, which only costs the identity shortcuts."""
    kind = type(d)
    key = (d, 1) if kind is int else (d.numerator, d.denominator) if kind is Fraction else None
    tag = _FIELD_TAGS.get(key)
    if tag is not None:
        return tag
    d = _as_fraction(d)
    if is_rational_square(d):
        raise ValueError(f"d = {d} is a square in Q; not a quadratic extension")
    if key is not None and len(_FIELD_TAGS) < _MAX_FIELD_TAGS:
        _FIELD_TAGS[key] = d
    return d


class QuadElement:
    """a + b*sqrt(d) with exact rational a, b and non-square rational d."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=-1):
        a = _as_fraction(a)
        b = _as_fraction(b)
        d = _field_tag(d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *args):
        raise AttributeError("QuadElement is immutable")

    def _check(self, other: "QuadElement"):
        if self.d != other.d:
            raise ValueError(f"mixing fields sqrt({self.d}) and sqrt({other.d})")

    def _coerce(self, other):
        if isinstance(other, QuadElement):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElement(other, 0, self.d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElement(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadElement(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElement(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElement(
            self.a * o.a + self.d * self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def conj(self) -> "QuadElement":
        return QuadElement(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        # x * conj(x) = a^2 - d b^2, always in Q
        return self.a * self.a - self.d * self.b * self.b

    def inv(self) -> "QuadElement":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        return QuadElement(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadElement):
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def is_rational(self) -> bool:
        return self.b == 0

    def __repr__(self):
        if self.b == 0:
            return f"{self.a}"
        return f"({self.a}+{self.b}*sqrt({self.d}))"


def qe(a, b=0, d=-1) -> QuadElement:
    return QuadElement(a, b, d)


def sqrt_d(d=-1) -> QuadElement:
    return QuadElement(0, 1, d)


def conj(x: QuadElement) -> QuadElement:
    """Non-trivial Galois automorphism a + b*sqrt(d) -> a - b*sqrt(d)."""
    return x.conj()


_ZERO = Fraction(0)
_SET_A, _SET_B, _SET_D = (QuadElement.__dict__[s].__set__ for s in QuadElement.__slots__)


def _element(a: Fraction, b: Fraction, d: Fraction) -> QuadElement:
    """a + b*sqrt(d) for a tag d that a matrix has already validated."""
    x = object.__new__(QuadElement)
    _SET_A(x, a)
    _SET_B(x, b)
    _SET_D(x, d)
    return x


def _ratio(p: int, den: int) -> Fraction:
    if not p:
        return _ZERO
    return Fraction(p) if den == 1 else Fraction(p, den)


def _integer_element(p: int, q: int, den: int, d: Fraction) -> QuadElement:
    """(p + q*sqrt(D)) / den as a + b*sqrt(d), with sqrt(D) = dd*sqrt(d)."""
    return _element(_ratio(p, den), _ratio(q * d.denominator, den), d)


def _matrix(rows: int, cols: int, d: Fraction, D: int, P: list, Q: list,
            den: int) -> "QuadMatrix":
    """QuadMatrix from integer arrays with den > 0, put in canonical form."""
    if den != 1:
        g = gcd(den, *P, *Q)
        if g != 1:
            den //= g
            P = [x // g for x in P]
            Q = [x // g for x in Q]
    m = object.__new__(QuadMatrix)
    _SET_ROWS(m, rows)
    _SET_COLS(m, cols)
    _SET_TAG(m, d)
    _SET_RADICAND(m, D)
    _SET_P(m, P)
    _SET_Q(m, Q)
    _SET_DEN(m, den)
    _SET_ENTRIES(m, None)
    return m


def from_coefficients(rows: int, cols: int, coefficients, d=-1) -> "QuadMatrix":
    """Inverse of QuadMatrix.coefficients(): the rows x cols matrix over
    Q(sqrt(d)) whose row-major entries are a_num/a_den + (b_num/b_den)*sqrt(d),
    given as one integer 4-tuple (a_num, a_den, b_num, b_den) per entry.  The
    denominators need not be reduced or positive; a zero one raises
    ZeroDivisionError.  As b*sqrt(d) = (b/dd)*sqrt(D), den is the lcm of the
    a_den and b_den*dd, and _matrix puts the arrays in lowest terms."""
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    if len(coefficients) != rows * cols:
        raise ValueError("entries length does not match rows*cols")
    d = _field_tag(d)
    dd = d.denominator
    a, a_den, b, b_den = zip(*coefficients) if coefficients else ((),) * 4
    # lcm(dd x, dd y) = dd lcm(x, y); a zero denominator makes den zero, and
    # the divisions below raise
    den = lcm(*a_den, dd * lcm(*b_den))
    return _matrix(rows, cols, d, d.numerator * dd,
                   [x * (den // y) for x, y in zip(a, a_den)],
                   [x * (den // (y * dd)) for x, y in zip(b, b_den)], den)


def _check_fields(x: "QuadMatrix", y: "QuadMatrix"):
    if x.d is not y.d and x.d != y.d and x._P and y._P:
        raise ValueError(f"mixing fields sqrt({x.d}) and sqrt({y.d})")


def _check_field(m: "QuadMatrix", d: Fraction, what: str):
    """Raise ValueError if m has entries and lives over a field other than
    Q(sqrt(d)); d is a field tag, so the test is one tag comparison."""
    if m.d is not d and m.d != d and m._P:
        raise ValueError(f"{what} is over sqrt({m.d}), not sqrt({d})")


class QuadMatrix:
    """Dense matrix over Q(sqrt(d)), row-major, supporting 0-dimensional shapes.

    Stored as integer lists: entry k is (P[k] + Q[k]*sqrt(D)) / den with
    D = dn*dd for d = dn/dd, in the canonical form described in the module
    docstring.  ``entries`` materializes the QuadElements on first access.
    """

    __slots__ = ("rows", "cols", "d", "_D", "_P", "_Q", "_den", "_entries")

    def __new__(cls, rows: int, cols: int, entries: Sequence[QuadElement], d=None):
        entries = tuple(entries)
        if entries:
            d0 = entries[0].d
            for e in entries:
                if e.d != d0:
                    raise ValueError("mixed field tags inside one matrix")
            if d is not None and _as_fraction(d) != d0:
                raise ValueError("matrix field tag disagrees with entries")
            d = d0
        return from_coefficients(rows, cols, [
            (e.a.numerator, e.a.denominator, e.b.numerator, e.b.denominator)
            for e in entries], -1 if d is None else d)

    def __setattr__(self, *args):
        raise AttributeError("QuadMatrix is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_rows(rows_data: Sequence[Sequence], d=-1) -> "QuadMatrix":
        rows = len(rows_data)
        cols = len(rows_data[0]) if rows else 0
        ent = []
        for r in rows_data:
            if len(r) != cols:
                raise ValueError("ragged rows")
            for x in r:
                ent.append(x if isinstance(x, QuadElement) else QuadElement(x, 0, d))
        return QuadMatrix(rows, cols, ent, d)

    @staticmethod
    def identity(n: int, d=-1) -> "QuadMatrix":
        if n < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        d = _field_tag(d)
        P = [0] * (n * n)
        P[::n + 1] = [1] * n
        return _matrix(n, n, d, d.numerator * d.denominator, P, [0] * (n * n), 1)

    @staticmethod
    def zeros(rows: int, cols: int, d=-1) -> "QuadMatrix":
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        d = _field_tag(d)
        return _matrix(rows, cols, d, d.numerator * d.denominator,
                       [0] * (rows * cols), [0] * (rows * cols), 1)

    # -- access -------------------------------------------------------
    @property
    def entries(self) -> tuple:
        ent = self._entries
        if ent is None:
            d, den = self.d, self._den
            ent = tuple(_integer_element(p, q, den, d) for p, q in zip(self._P, self._Q))
            _SET_ENTRIES(self, ent)
        return ent

    def __getitem__(self, rc) -> QuadElement:
        r, c = rc
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> tuple:
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def col(self, c: int) -> tuple:
        return tuple(self.entries[r * self.cols + c] for r in range(self.rows))

    # -- algebra ------------------------------------------------------
    def _sum(self, other: "QuadMatrix", sign: int, op: str) -> "QuadMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch in {op}")
        _check_fields(self, other)
        if not self._P or other.is_zero():
            return self
        den = lcm(self._den, other._den)
        f, g = den // self._den, sign * (den // other._den)
        return _matrix(self.rows, self.cols, self.d, self._D,
                       [x * f + y * g for x, y in zip(self._P, other._P)],
                       [x * f + y * g for x, y in zip(self._Q, other._Q)], den)

    def __add__(self, other: "QuadMatrix") -> "QuadMatrix":
        return self._sum(other, 1, "+")

    def __sub__(self, other: "QuadMatrix") -> "QuadMatrix":
        return self._sum(other, -1, "-")

    def __neg__(self) -> "QuadMatrix":
        return _matrix(self.rows, self.cols, self.d, self._D, [-x for x in self._P],
                       [-x for x in self._Q], self._den)

    def scale(self, s) -> "QuadMatrix":
        if isinstance(s, QuadElement):
            if s.d is not self.d and s.d != self.d and self._P:
                raise ValueError(f"mixing fields sqrt({s.d}) and sqrt({self.d})")
            a, b = s.a, s.b / self.d.denominator
        else:
            a, b = _as_fraction(s), _ZERO
        # s = (sp + sq*sqrt(D)) / sden
        sden = lcm(a.denominator, b.denominator)
        sp = a.numerator * (sden // a.denominator)
        sq = b.numerator * (sden // b.denominator)
        P, Q = self._P, self._Q
        if sq:
            Dq = self._D * sq
            P, Q = ([sp * x + Dq * y for x, y in zip(P, Q)],
                    [sp * y + sq * x for x, y in zip(P, Q)])
        else:
            P, Q = [sp * x for x in P], [sp * y for y in Q]
        return _matrix(self.rows, self.cols, self.d, self._D, P, Q, self._den * sden)

    def __mul__(self, other):
        if isinstance(other, QuadMatrix):
            return _product(self, other)
        if isinstance(other, (int, Fraction, QuadElement)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QuadElement)):
            return self.scale(other)
        return NotImplemented

    def conj(self) -> "QuadMatrix":
        if not any(self._Q):
            return self
        return _matrix(self.rows, self.cols, self.d, self._D, self._P,
                       [-y for y in self._Q], self._den)

    def parts(self) -> tuple:
        """Rational matrices (a, b) with self = a + sqrt(d) b."""
        zeros, dd = [0] * len(self._P), self.d.denominator
        return (_matrix(self.rows, self.cols, self.d, self._D, self._P, zeros, self._den),
                _matrix(self.rows, self.cols, self.d, self._D, [dd * y for y in self._Q],
                        zeros, self._den))

    def coefficients(self) -> list:
        """[a.numerator, a.denominator, b.numerator, b.denominator] of each
        entry a + b*sqrt(d), row-major, read off the integer form without
        building elements: a = P/den and b = Q*dd/den, as sqrt(D) = dd*sqrt(d)."""
        den, dd = self._den, self.d.denominator
        out = []
        for p, q in zip(self._P, self._Q):
            g, h = gcd(p, den), gcd(q * dd, den)
            out.append([p // g, den // g, q * dd // h, den // h])
        return out

    def transpose(self) -> "QuadMatrix":
        c = self.cols
        return _matrix(self.cols, self.rows, self.d, self._D,
                       [x for j in range(c) for x in self._P[j::c]],
                       [x for j in range(c) for x in self._Q[j::c]], self._den)

    def apply(self, v: Sequence[QuadElement]) -> tuple:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        column = QuadMatrix(len(v), 1, [x if isinstance(x, QuadElement)
                                        else QuadElement(x, 0, self.d) for x in v], self.d)
        return _product(self, column).entries

    def is_zero(self) -> bool:
        return not any(self._P) and not any(self._Q)

    def is_identity(self) -> bool:
        n = self.rows
        return (n == self.cols and self._den == 1 and not any(self._Q)
                and self._P.count(0) == n * n - n and self._P[::n + 1] == [1] * n)

    def is_rational(self) -> bool:
        return not any(self._Q)

    def __eq__(self, other):
        if not isinstance(other, QuadMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self._den == other._den and self._P == other._P
                and self._Q == other._Q
                and (not self._P or self.d is other.d or self.d == other.d))

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self._P), tuple(self._Q), self._den))

    def __repr__(self):
        body = "; ".join(" ".join(repr(x) for x in self.row(r)) for r in range(self.rows))
        return f"QuadMatrix[{self.rows}x{self.cols}]({body})"

    def hstack(self, other: "QuadMatrix") -> "QuadMatrix":
        if self.rows != other.rows:
            raise ValueError("hstack row mismatch")
        _check_fields(self, other)
        base = self if self._P or not other._P else other
        den = lcm(self._den, other._den)
        f, g = den // self._den, den // other._den
        c1, c2 = self.cols, other.cols
        P, Q = [], []
        for r in range(self.rows):
            P += [x * f for x in self._P[r * c1:(r + 1) * c1]]
            P += [x * g for x in other._P[r * c2:(r + 1) * c2]]
            Q += [x * f for x in self._Q[r * c1:(r + 1) * c1]]
            Q += [x * g for x in other._Q[r * c2:(r + 1) * c2]]
        return _matrix(self.rows, c1 + c2, base.d, base._D, P, Q, den)


(_SET_ROWS, _SET_COLS, _SET_TAG, _SET_RADICAND, _SET_P, _SET_Q, _SET_DEN,
 _SET_ENTRIES) = (QuadMatrix.__dict__[s].__set__ for s in QuadMatrix.__slots__)


def _product(x: QuadMatrix, y: QuadMatrix) -> QuadMatrix:
    """x . y on the integers, one dot product per entry.

    Without sqrt(D) terms the entries are the dot products of the P arrays.
    Otherwise each entry p + q*sqrt(D) of both factors is packed into the
    integer p + q*2^s, and a packed row times a packed column is
    A + B*2^s + C*2^(2s) with A = sum(p*p'), B = sum(p*q' + q*p') and
    C = sum(q*q'); the product entry is P = A + D*C, Q = B.

    The digits are exact.  With k the inner dimension and M, M' the largest
    |P| or |Q| of x and y, |A| and |C| are at most k*M*M' and |B| at most
    2*k*M*M', which is below 2^(s-1) for s = bit_length(2*k*M*M') + 1.  So
    A + 2^(s-1) and B + 2^(s-1) lie in [0, 2^s): once 2^(s-1)*(1 + 2^s) is
    added to the dot product they are its two lowest base-2^s digits, read
    off by masks, and C is what remains above the low 2s bits.
    """
    if x.cols != y.rows:
        raise ValueError(f"shape mismatch {x.rows}x{x.cols} * {y.rows}x{y.cols}")
    _check_fields(x, y)
    k, m = x.cols, y.cols
    # trivial operands (module docstring): no arithmetic
    if not (k and x.rows and m):
        return _matrix(x.rows, m, x.d, x._D, [0] * (x.rows * m), [0] * (x.rows * m), 1)
    if x.d is y.d:
        if y.is_identity():
            return x
        if x.is_identity():
            return y
    xs, ys = x._P, y._P
    irrational = any(x._Q) or any(y._Q)
    if irrational:
        hx = max(map(abs, x._P + x._Q), default=0)
        hy = max(map(abs, y._P + y._Q), default=0)
        s = (2 * k * hx * hy).bit_length() + 1
        xs = [p + (q << s) for p, q in zip(xs, x._Q)]
        ys = [p + (q << s) for p, q in zip(ys, y._Q)]
    x_rows = [xs[i * k:(i + 1) * k] for i in range(x.rows)]
    y_cols = [ys[j::m] for j in range(m)]
    if not irrational:
        P = [sum(map(mul, r, c)) for r in x_rows for c in y_cols]
        return _matrix(x.rows, m, x.d, x._D, P, [0] * len(P), x._den * y._den)
    half, mask, s2, D = 1 << (s - 1), (1 << s) - 1, 2 * s, x._D
    bias = half + (half << s)
    P, Q = [], []
    for r in x_rows:
        for c in y_cols:
            w = sum(map(mul, r, c), bias)
            P.append((w & mask) - half + D * (w >> s2))
            Q.append(((w >> s) & mask) - half)
    return _matrix(x.rows, m, x.d, x._D, P, Q, x._den * y._den)


def kron(a: QuadMatrix, b: QuadMatrix) -> QuadMatrix:
    """Kronecker product: entry (i b.rows + k, j b.cols + l) is a[i, j] b[k, l].
    In row-major vec form, vec(A X B) = (A (x) B^T) vec(X)."""
    _check_fields(a, b)
    base = a if a._P or not b._P else b
    D, ac, bc = base._D, a.cols, b.cols
    P, Q = [], []
    for i in range(a.rows):
        ap, aq = a._P[i * ac:(i + 1) * ac], a._Q[i * ac:(i + 1) * ac]
        for k in range(b.rows):
            bp, bq = b._P[k * bc:(k + 1) * bc], b._Q[k * bc:(k + 1) * bc]
            for x, y in zip(ap, aq):
                Dy = D * y
                P += [x * u + Dy * z for u, z in zip(bp, bq)]
                Q += [x * z + y * u for u, z in zip(bp, bq)]
    return _matrix(a.rows * b.rows, ac * bc, base.d, D, P, Q, a._den * b._den)


def block_matrix(row_sizes, col_sizes, blocks, d=-1) -> QuadMatrix:
    """Matrix over Q(sqrt(d)) assembled from blocks (i, j, m): m, of shape
    row_sizes[i] x col_sizes[j], is added at block row i and block column j,
    over one common denominator; entries outside every block are zero."""
    d = _field_tag(d)
    blocks = list(blocks)
    r0, c0 = list(accumulate(row_sizes, initial=0)), list(accumulate(col_sizes, initial=0))
    cols, den = c0[-1], lcm(*(m._den for _, _, m in blocks))
    P, Q = [0] * (r0[-1] * cols), [0] * (r0[-1] * cols)
    for i, j, m in blocks:
        if (m.rows, m.cols) != (row_sizes[i], col_sizes[j]):
            raise ValueError(f"block ({i},{j}) has the wrong shape")
        if m._P and m.d != d:
            raise ValueError(f"mixing fields sqrt({m.d}) and sqrt({d})")
        f, mc = den // m._den, m.cols
        for r in range(m.rows):
            k, src = (r0[i] + r) * cols + c0[j], slice(r * mc, (r + 1) * mc)
            P[k:k + mc] = [u + f * v for u, v in zip(P[k:k + mc], m._P[src])]
            Q[k:k + mc] = [u + f * v for u, v in zip(Q[k:k + mc], m._Q[src])]
    return _matrix(r0[-1], cols, d, d.numerator * d.denominator, P, Q, den)


def intertwining_system(shapes, equations, d=-1) -> QuadMatrix:
    """Linear system in the row-major entries of blocks psi_0, psi_1, ...
    (psi_b of shape shapes[b]) whose kernel is the set of psi with
    psi_t A - B psi_s = 0 for every (t, s, A, B) in equations.

    In row-major vec form the equation is (I (x) A^T) at block t and
    -(B (x) I) at block s; row (r, c) of it holds column c of A at the
    entries psi_t[r, :] and -B[r, k] at psi_s[k, c].  All rows share one
    denominator.
    """
    d = _field_tag(d)
    c0 = list(accumulate((r * c for r, c in shapes), initial=0))
    total = c0[-1]
    den = lcm(*(x._den for _, _, a, b in equations for x in (a, b)))
    P, Q = [], []
    for t, s, a, b in equations:
        for x in (a, b):
            if x._P and x.d != d:
                raise ValueError(f"mixing fields sqrt({x.d}) and sqrt({d})")
        fa, fb = den // a._den, -(den // b._den)
        mt, ms, bc = a.rows, a.cols, b.cols
        for r in range(b.rows):
            bp, bq = b._P[r * bc:(r + 1) * bc], b._Q[r * bc:(r + 1) * bc]
            for c in range(ms):
                rp, rq, o = [0] * total, [0] * total, c0[t] + r * mt
                rp[o:o + mt] = [fa * x for x in a._P[c::ms]]
                rq[o:o + mt] = [fa * x for x in a._Q[c::ms]]
                for k in range(bc):
                    rp[c0[s] + k * ms + c] += fb * bp[k]
                    rq[c0[s] + k * ms + c] += fb * bq[k]
                P += rp
                Q += rq
    rows = sum(b.rows * a.cols for _, _, a, b in equations)
    return _matrix(rows, total, d, d.numerator * d.denominator, P, Q, den)


def _rref(m: QuadMatrix):
    """Reduced row echelon form of m by fraction-free Gauss-Jordan elimination.

    A row is a pair of integer lists (P, Q) standing for P + Q*sqrt(D) up to a
    nonzero factor, so rows are rescaled freely: each pivot row is first
    multiplied by the conjugate of its pivot, which makes the pivot an
    integer, and every other row is updated as  row <- a*row - f*pivot_row
    (a the pivot, f the row's entry, both divided by their gcd) and then
    divided by the gcd of its integers.  Returns (pivots, rows), where rows[i]
    = (P, Q, den) is the i-th nonzero row of the reduced form, scaled to 1 at
    column pivots[i] and in lowest terms.  The reduced form is unique, so the
    result does not depend on the pivot choices.
    """
    n, cols, D = m.rows, m.cols, m._D
    rp = [m._P[i * cols:(i + 1) * cols] for i in range(n)]
    rq = [m._Q[i * cols:(i + 1) * cols] for i in range(n)] if any(m._Q) else None
    pivots = []
    for pc in range(cols):
        top = len(pivots)
        if top == n:
            break
        piv = next((r for r in range(top, n) if rp[r][pc] or (rq and rq[r][pc])), None)
        if piv is None:
            continue
        rp[top], rp[piv] = rp[piv], rp[top]
        if rq:
            rq[top], rq[piv] = rq[piv], rq[top]
            a, b = rp[top][pc], rq[top][pc]
            if b:
                xp, xq = rp[top], rq[top]
                xp, xq = ([a * u - D * b * v for u, v in zip(xp, xq)],
                          [a * v - b * u for u, v in zip(xp, xq)])
                g = gcd(*xp, *xq)
                rp[top], rq[top] = [u // g for u in xp], [v // g for v in xq]
        pp, a = rp[top], rp[top][pc]
        pq = rq[top] if rq else None
        for r in range(n):
            if r == top:
                continue
            fa, fb = rp[r][pc], (rq[r][pc] if rq else 0)
            if not (fa or fb):
                continue
            g = gcd(a, fa, fb)
            s, fa, fb = a // g, fa // g, fb // g
            if rq is None:
                xp = [s * u - fa * w for u, w in zip(rp[r], pp)]
                g = gcd(*xp)
                rp[r] = [u // g for u in xp] if g > 1 else xp
                continue
            Dfb = D * fb
            xp = [s * u - fa * w - Dfb * z for u, w, z in zip(rp[r], pp, pq)]
            xq = [s * v - fa * z - fb * w for v, w, z in zip(rq[r], pp, pq)]
            g = gcd(*xp, *xq)
            if g > 1:
                xp, xq = [u // g for u in xp], [v // g for v in xq]
            rp[r], rq[r] = xp, xq
        pivots.append(pc)
    rows = []
    for i, pc in enumerate(pivots):
        xp, xq = rp[i], (rq[i] if rq else [0] * cols)
        den = xp[pc]
        g = gcd(den, *xp, *xq)
        if den < 0:
            g = -g
        rows.append(([u // g for u in xp], [v // g for v in xq], den // g))
    return pivots, rows


def _rows_matrix(rows: list, ncols: int, d: Fraction, D: int) -> QuadMatrix:
    """The matrix whose rows are the (P, Q, den) rows of an echelon form."""
    den = lcm(*(r[2] for r in rows))
    P, Q = [], []
    for xp, xq, rden in rows:
        f = den // rden
        P += [u * f for u in xp]
        Q += [v * f for v in xq]
    return _matrix(len(rows), ncols, d, D, P, Q, den)


def _kernel_matrix(m: QuadMatrix) -> tuple:
    """Right kernel of m as the columns of a cols x nullity matrix: per free
    column of the reduced form, the vector with 1 there.  Returns the matrix
    and the free columns; its rows at the free columns form the identity."""
    pivots, rows = _rref(m)
    free = sorted(set(range(m.cols)).difference(pivots))
    h = len(free)
    den = lcm(*(r[2] for r in rows))
    P, Q = [0] * (m.cols * h), [0] * (m.cols * h)
    for j, fc in enumerate(free):
        P[fc * h + j] = den
    for pc, (xp, xq, rden) in zip(pivots, rows):
        f = -(den // rden)
        P[pc * h:(pc + 1) * h] = [xp[fc] * f for fc in free]
        Q[pc * h:(pc + 1) * h] = [xq[fc] * f for fc in free]
    return _matrix(m.cols, h, m.d, m._D, P, Q, den), free


def rank(m: QuadMatrix) -> int:
    return len(_rref(m)[0])


def kernel_basis(m: QuadMatrix) -> list:
    """Basis of the right kernel over Q(sqrt(d)); empty iff m is injective."""
    k = _kernel_matrix(m)[0]
    return [k.col(j) for j in range(k.cols)]


def solve_unique(a: QuadMatrix, b: QuadMatrix) -> QuadMatrix:
    """Solve a X = b when a has full column rank (raises otherwise)."""
    aug = a.hstack(b)
    pivots, rows = _rref(aug)
    if any(p >= a.cols for p in pivots):
        raise ValueError("inconsistent system")
    if pivots != list(range(a.cols)):
        raise ValueError("matrix does not have full column rank")
    n = a.cols
    return _rows_matrix([(xp[n:], xq[n:], den) for xp, xq, den in rows],
                        b.cols, aug.d, aug._D)


def inverse(m: QuadMatrix) -> QuadMatrix:
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    if m.is_identity():
        return m
    return solve_unique(m, QuadMatrix.identity(m.rows, m.d))


def row_space_basis(m: QuadMatrix) -> QuadMatrix:
    """Matrix whose rows are the nonzero rows of the reduced row echelon form
    of m: the canonical basis of its row space, so matrices with one row
    space give one basis."""
    return _rows_matrix(_rref(m)[1], m.cols, m.d, m._D)


def column_space_basis(m: QuadMatrix) -> QuadMatrix:
    """Matrix whose columns are a basis of the column space of m."""
    return row_space_basis(m.transpose()).transpose()


def nilpotency_exponent(m: QuadMatrix):
    """Smallest e with m^e = 0, or None if m is not nilpotent."""
    if m.rows != m.cols:
        raise ValueError("nilpotency of non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    p = m
    e = 1
    while e <= n:
        if p.is_zero():
            return e
        p = p * m
        e += 1
    return None


def fixed_space_matrix(a: QuadMatrix) -> QuadMatrix:
    """Matrix whose columns are a K-basis of {v : a.conj(v) = v}, for the
    matrix a of a conjugate-semilinear involution v |-> a.conj(v).

    Galois descent guarantees exactly n = a.cols basis vectors, which are
    returned in L-coordinates and span L^n over L.  The identity is returned
    unchanged: its fixed vectors are the rational ones, and the reduced
    kernel of _fixed_space_core's system [[0, 0], [0, -2 I]] is [I; 0].

    Raises CocycleViolation when a is not square or a conj(a) differs from
    the identity.
    """
    if a.rows != a.cols:
        raise CocycleViolation("fixed_space needs a square map")
    if a.is_identity():
        return a
    if not (a * a.conj()).is_identity():
        raise CocycleViolation("phi o phi is not the identity; no K-structure")
    return _fixed_space_core(a)


def _fixed_space_core(a: QuadMatrix) -> QuadMatrix:
    """fixed_space_matrix of a square a with a conj(a) = 1, which the caller
    guarantees; it is not checked here.

    Splitting v = x + sqrt(d) y and the matrix A = P_d + sqrt(d) Q_d turns
    A.conj(v) = v into the rational system
        (P_d - 1) x - d Q_d y = 0,   Q_d x - (P_d + 1) y = 0,
    solved here scaled by den, where P_d = P/den and Q_d = dd Q/den.
    """
    n, d, den = a.rows, a.d, a._den
    P = []
    for i in range(n):
        # (P - den) x - dn Q y = 0
        row = a._P[i * n:(i + 1) * n] + [-d.numerator * v for v in a._Q[i * n:(i + 1) * n]]
        row[i] -= den
        P += row
    for i in range(n):
        # dd Q x - (P + den) y = 0
        row = [d.denominator * v for v in a._Q[i * n:(i + 1) * n]] + \
            [-u for u in a._P[i * n:(i + 1) * n]]
        row[n + i] -= den
        P += row
    k = _kernel_matrix(_matrix(2 * n, 2 * n, d, a._D, P, [0] * len(P), 1))[0]
    if k.cols != n:
        raise CocycleViolation(
            f"descent failure: expected {n} fixed vectors, found {k.cols}")
    # x + sqrt(d) y = (dd x + sqrt(D) y) / dd, x and y the halves of k
    dd = d.denominator
    return _matrix(n, n, d, a._D, [dd * p for p in k._P[:n * n]], k._P[n * n:], k._den * dd)


def fixed_space(a: QuadMatrix) -> list:
    """The columns of fixed_space_matrix(a), as coordinate tuples.

    No library code calls this; it stays because the benchmark's tracer
    (bench/spans.py) wraps exact.fixed_space by name.
    """
    f = fixed_space_matrix(a)
    return [f.col(j) for j in range(f.cols)]


def _split_columns(m: QuadMatrix, shapes) -> list:
    """Each column of m cut into row-major blocks of the given shapes."""
    h, out = m.cols, []
    for j in range(h):
        blocks, o = [], 0
        for r, c in shapes:
            sl = slice(o * h + j, (o + r * c) * h, h)
            blocks.append(_matrix(r, c, m.d, m._D, m._P[sl], m._Q[sl], m._den))
            o += r * c
        out.append(tuple(blocks))
    return out


def descended_kernel(system: QuadMatrix, shapes, conjugate=None) -> tuple:
    """L-basis of ker(system) and K-basis of its conjugation-fixed part.

    The unknowns of system are the row-major entries of blocks of the given
    shapes, one block after the other, and both bases come as tuples of
    per-block matrices.  conjugate describes the conjugate-semilinear
    involution sigma that defines the K-structure, one triple (s, A, B) per
    block b: block b of sigma(x) is A conj(x_s B), which in row-major vec
    form is (A (x) conj(B)^T) conj(vec x_s).  Those Kronecker matrices are
    formed only when the kernel is nonzero.  With V the kernel matrix and
    W = sigma(V), theta solves V theta = W, and the K-basis is V F for F the
    fixed-space matrix of theta.  V is the identity on its free rows (the
    free columns of the reduced system), so those rows of V theta = W read
    theta = W there; the whole of V theta = W is then checked exactly.  It
    fails when W leaves the span of V, which for a Hom space means that a
    rational structure is not edge-equivariant, and raises ValueError.
    Without conjugate (trivial Galois group) the K-basis is the L-basis.

    Precondition: sigma o sigma = 1 (for Hom, both rational structures meet
    the cocycle).  Then theta conj(theta) = 1 holds without a product: apply
    sigma, which is conjugate-semilinear, to V theta = W = sigma(V) column by
    column to get sigma(V) conj(theta) = sigma(W) = V, so
    V theta conj(theta) = W conj(theta) = V, and V has full column rank.  So
    the descent calls _fixed_space_core, which skips that product check.
    """
    v, free = _kernel_matrix(system)
    l_basis = _split_columns(v, shapes)
    if conjugate is None or not l_basis:
        return l_basis, (l_basis if conjugate is None else [])
    h, sizes = v.cols, [r * c for r, c in shapes]
    o, vc = list(accumulate(sizes, initial=0)), v.conj()
    images = [(b, 0, kron(a, m.conj().transpose()) * _matrix(
                   sizes[s], h, v.d, v._D, vc._P[o[s] * h:o[s + 1] * h],
                   vc._Q[o[s] * h:o[s + 1] * h], vc._den))
              for b, (s, a, m) in enumerate(conjugate) if sizes[b]]
    w = block_matrix(sizes, [h], images, v.d)
    theta = _matrix(h, h, v.d, v._D, [x for fc in free for x in w._P[fc * h:(fc + 1) * h]],
                    [x for fc in free for x in w._Q[fc * h:(fc + 1) * h]], w._den)
    if v * theta != w:
        raise ValueError("conjugation does not preserve Hom: "
                         "a rational structure is not edge-equivariant")
    return l_basis, _split_columns(v * _fixed_space_core(theta), shapes)


"""The integer matrix kernel against the element-by-element reference.

The reference below is the QuadElement arithmetic the kernel replaced: a
triple-loop multiply and a Gauss-Jordan reduction that divides by each pivot.
Both kernels compute the same reduced row echelon form, which is unique, so
every result must agree exactly, for every field tag.
"""

import json
import random
from fractions import Fraction
from math import lcm
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rquiver.exact import (
    QuadElement,
    QuadMatrix,
    _field_tag,
    _fixed_space_core,
    _matrix,
    column_space_basis,
    fixed_space,
    fixed_space_matrix,
    from_coefficients,
    inverse,
    kernel_basis,
    kron,
    nilpotency_exponent,
    rank,
    row_space_basis,
    solve_unique,
)

FIELD_TAGS = (Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-5, 3))


# ---------------------------------------------------------------- reference

def ref_mul(a: QuadMatrix, b: QuadMatrix) -> list:
    zero = QuadElement(0, 0, a.d)
    ent = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = zero
            for k in range(a.cols):
                acc = acc + a[i, k] * b[k, j]
            ent.append(acc)
    return ent


def ref_echelon(rows: list, ncols: int):
    """Reduced row echelon form of a list of rows (QuadElements or Fractions)."""
    rows = [list(r) for r in rows]
    pivots = []
    pr = 0
    for pc in range(ncols):
        pivot = None
        for r in range(pr, len(rows)):
            if rows[r][pc]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[pr], rows[pivot] = rows[pivot], rows[pr]
        inv = 1 / rows[pr][pc]
        rows[pr] = [inv * x for x in rows[pr]]
        for r in range(len(rows)):
            if r != pr and rows[r][pc]:
                f = rows[r][pc]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == len(rows):
            break
    return rows, pivots


def matrix_rows(m: QuadMatrix) -> list:
    return [list(m.row(r)) for r in range(m.rows)]


def ref_kernel(rows: list, ncols: int, zero, one) -> list:
    rref, pivots = ref_echelon(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(tuple(v))
    return basis


def ref_solve(a: QuadMatrix, b: QuadMatrix) -> list:
    rows = [list(a.row(r)) + list(b.row(r)) for r in range(a.rows)]
    rref, pivots = ref_echelon(rows, a.cols + b.cols)
    if any(p >= a.cols for p in pivots):
        raise ValueError("inconsistent system")
    if pivots != list(range(a.cols)):
        raise ValueError("matrix does not have full column rank")
    return [x for r in range(a.cols) for x in rref[r][a.cols:]]


def ref_column_space(m: QuadMatrix) -> QuadMatrix:
    rref, pivots = ref_echelon(matrix_rows(m.transpose()), m.rows)
    t = QuadMatrix(len(pivots), m.rows, [x for r in rref[:len(pivots)] for x in r], m.d)
    return t.transpose()


def ref_nilpotency(m: QuadMatrix):
    if m.rows == 0:
        return 1
    p = m
    for e in range(1, m.rows + 1):
        if all(not x for x in p.entries):
            return e
        p = QuadMatrix(m.rows, m.cols, ref_mul(p, m), m.d)
    return None


def ref_fixed_space(a: QuadMatrix) -> list:
    n, d = a.rows, a.d
    rows = []
    for i in range(n):
        rows.append([a[i, j].a - (1 if i == j else 0) for j in range(n)]
                    + [-d * a[i, j].b for j in range(n)])
    for i in range(n):
        rows.append([a[i, j].b for j in range(n)]
                    + [-(a[i, j].a + (1 if i == j else 0)) for j in range(n)])
    rows = [[Fraction(x) for x in r] for r in rows]
    sols = ref_kernel(rows, 2 * n, Fraction(0), Fraction(1))
    return [tuple(QuadElement(v[j], v[n + j], d) for j in range(n)) for v in sols]


# ---------------------------------------------------------------- inputs

def random_element(rng, d, rational=False):
    def coeff():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6)))
    return QuadElement(coeff(), 0 if rational else coeff(), d)


def random_matrix(rng, rows, cols, d, rational=False):
    return QuadMatrix(rows, cols, [random_element(rng, d, rational)
                                   for _ in range(rows * cols)], d)


def low_rank_matrix(rng, rows, cols, d):
    inner = rng.randint(0, min(rows, cols))
    left = random_matrix(rng, rows, inner, d)
    right = random_matrix(rng, inner, cols, d)
    return left * right


def invertible_matrix(rng, n, d, rational=False):
    while True:
        m = random_matrix(rng, n, n, d, rational)
        if rank(m) == n:
            return m


def cases(count=12, seed=0):
    """(rng, d, rows, cols) over every field tag and shapes 0-6."""
    rng = random.Random(seed)
    for d in FIELD_TAGS:
        for _ in range(count):
            yield rng, d, rng.randint(0, 6), rng.randint(0, 6)


# ---------------------------------------------------------------- differential

@pytest.mark.parametrize("d", FIELD_TAGS)
def test_arithmetic_matches_reference(d):
    rng = random.Random(str(d))
    for _ in range(15):
        r, k, c = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        rational = rng.random() < 0.3
        a = random_matrix(rng, r, k, d, rational)
        b = random_matrix(rng, k, c, d, rng.random() < 0.3)
        a2 = random_matrix(rng, r, k, d)
        assert (a * b).entries == tuple(ref_mul(a, b))
        assert (a + a2).entries == tuple(x + y for x, y in zip(a.entries, a2.entries))
        assert (a - a2).entries == tuple(x - y for x, y in zip(a.entries, a2.entries))
        assert (-a).entries == tuple(-x for x in a.entries)
        s = random_element(rng, d)
        assert a.scale(s).entries == tuple(s * x for x in a.entries)
        assert a.scale(Fraction(-3, 4)).entries == tuple(Fraction(-3, 4) * x for x in a.entries)
        assert (a * 3).entries == tuple(3 * x for x in a.entries)
        assert a.conj().entries == tuple(x.conj() for x in a.entries)
        assert a.transpose().entries == tuple(a[i, j] for j in range(k) for i in range(r))
        assert a.hstack(a2).entries == tuple(
            x for i in range(r) for x in a.row(i) + a2.row(i))
        v = [random_element(rng, d) for _ in range(k)]
        assert a.apply(v) == tuple(ref_mul(a, QuadMatrix(k, 1, v, d)))
        assert (a == a2) == (a.entries == a2.entries)
        assert a.is_zero() == all(not x for x in a.entries)
        assert a.is_rational() == all(x.b == 0 for x in a.entries)


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_equality_follows_entries(d):
    rng = random.Random(str(d))
    for _ in range(10):
        r, c = rng.randint(0, 5), rng.randint(0, 5)
        a = random_matrix(rng, r, c, d)
        rebuilt = QuadMatrix(r, c, list(a.entries), d)
        detour = (a.scale(Fraction(7, 3)) + a).scale(Fraction(3, 10))
        for other in (rebuilt, detour, a.conj().conj(), a.transpose().transpose()):
            assert other == a and hash(other) == hash(a)
        assert QuadMatrix.identity(r, d).is_identity()
        assert not (QuadMatrix.identity(r, d).scale(2)).is_identity() or r == 0


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_kron_matches_reference(d):
    """Entry (i b.rows + k, j b.cols + l) is a[i, j] b[k, l], and
    vec(A X B^T) = (A (x) B) vec(X) in row-major vec form."""
    rng = random.Random(f"kron {d}")
    for (ar, ac), (br, bc) in (((2, 3), (1, 2)), ((0, 2), (2, 2)), ((2, 2), (3, 0)),
                               ((1, 1), (2, 3)), ((3, 2), (2, 2))):
        a, b = random_matrix(rng, ar, ac, d), random_matrix(rng, br, bc, d)
        k = kron(a, b)
        assert (k.rows, k.cols, k.d) == (ar * br, ac * bc, Fraction(d))
        assert k.entries == tuple(a[i, j] * b[r, c] for i in range(ar) for r in range(br)
                                  for j in range(ac) for c in range(bc))
        x = random_matrix(rng, ac, bc, d)
        lhs = a * x * b.transpose()
        assert k * QuadMatrix(ac * bc, 1, x.entries, d) == QuadMatrix(ar * br, 1, lhs.entries, d)


def test_negative_dimensions_rejected():
    for rows, cols, entries in ((-1, -1, [QuadElement(1)]), (-2, 0, []), (0, -1, [])):
        with pytest.raises(ValueError, match="nonnegative"):
            QuadMatrix(rows, cols, entries)
    for make in (lambda: QuadMatrix.zeros(-1, 2), lambda: QuadMatrix.zeros(2, -1),
                 lambda: QuadMatrix.identity(-1)):
        with pytest.raises(ValueError, match="^matrix dimensions must be nonnegative$"):
            make()


def test_elimination_matches_reference():
    for rng, d, rows, cols in cases():
        m = low_rank_matrix(rng, rows, cols, d) if rng.random() < 0.5 \
            else random_matrix(rng, rows, cols, d, rng.random() < 0.3)
        zero, one = QuadElement(0, 0, d), QuadElement(1, 0, d)
        ref_rows, pivots = ref_echelon(matrix_rows(m), cols)
        assert rank(m) == len(pivots)
        assert kernel_basis(m) == ref_kernel(matrix_rows(m), cols, zero, one)
        assert column_space_basis(m) == ref_column_space(m)
        assert row_space_basis(m.transpose()) == ref_column_space(m).transpose()


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_from_coefficients_inverts_coefficients(d):
    """from_coefficients(coefficients()) is the matrix, also when each
    fraction is written with a common factor k (negative or not) in its
    numerator and denominator; any zero denominator raises."""
    rng = random.Random(5)
    for rows, cols in ((0, 0), (0, 3), (2, 0), (1, 1), (2, 3), (4, 4)):
        m = random_matrix(rng, rows, cols, d)
        coefficients = m.coefficients()
        assert from_coefficients(rows, cols, coefficients, d) == m
        scaled = [[x * k for x in c] for c in coefficients
                  for k in [rng.choice((-3, -1, 2, 5))]]
        assert from_coefficients(rows, cols, scaled, d) == m
        for k in range(2 * rows * cols):
            zeroed = [list(c) for c in coefficients]
            zeroed[k // 2][1 + 2 * (k % 2)] = 0
            with pytest.raises(ZeroDivisionError):
                from_coefficients(rows, cols, zeroed, d)


def test_solve_and_inverse_match_reference():
    for rng, d, rows, cols in cases(seed=1):
        rows = max(rows, cols)
        a = random_matrix(rng, rows, cols, d, rng.random() < 0.3)
        x0 = random_matrix(rng, cols, rng.randint(0, 3), d)
        for b in (a * x0, random_matrix(rng, rows, x0.cols, d)):
            try:
                expected = ref_solve(a, b)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    solve_unique(a, b)
            else:
                assert solve_unique(a, b).entries == tuple(expected)
        n = rng.randint(0, 6)
        m = invertible_matrix(rng, n, d, rng.random() < 0.3)
        inv = inverse(m)
        assert inv.entries == tuple(ref_solve(m, QuadMatrix.identity(n, d)))
        assert (inv * m).is_identity() and (m * inv).is_identity()
    singular = QuadMatrix.from_rows([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        inverse(singular)


def test_nilpotency_matches_reference():
    rng = random.Random(5)
    for d in FIELD_TAGS:
        for n in range(0, 7):
            upper = QuadMatrix(n, n, [random_element(rng, d) if j > i else QuadElement(0, 0, d)
                                      for i in range(n) for j in range(n)], d)
            g = invertible_matrix(rng, n, d)
            for m in (upper, g * upper * inverse(g), random_matrix(rng, n, n, d, n > 3)):
                assert nilpotency_exponent(m) == ref_nilpotency(m)


def test_fixed_space_matches_reference():
    rng = random.Random(9)
    for d in FIELD_TAGS:
        for n in range(0, 6):
            b = invertible_matrix(rng, n, d)
            a = b * inverse(b.conj())
            f = fixed_space_matrix(a)
            assert fixed_space(a) == [f.col(j) for j in range(n)] == ref_fixed_space(a)


def test_fixed_space_of_the_identity_is_the_identity():
    """fixed_space_matrix returns the identity unchanged, and that is what
    the eliminating core finds: the reduced kernel of [[0, 0], [0, -2 I]] is
    [I; 0]."""
    for d in FIELD_TAGS:
        for n in range(5):
            ident = QuadMatrix.identity(n, d)
            assert fixed_space_matrix(ident) is ident
            core = _fixed_space_core(ident)
            assert core == ident and core is not ident


# ---------------------------------------------------------------- properties

tags = st.sampled_from(FIELD_TAGS)
coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@st.composite
def matrices(draw, max_dim=4, square=False):
    d = draw(tags)
    rows = draw(st.integers(0, max_dim))
    cols = rows if square else draw(st.integers(0, max_dim))
    ent = draw(st.lists(st.tuples(coeffs, coeffs), min_size=rows * cols,
                        max_size=rows * cols))
    return QuadMatrix(rows, cols, [QuadElement(a, b, d) for a, b in ent], d)


@settings(max_examples=30, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    ker = kernel_basis(m)
    assert rank(m) + len(ker) == m.cols
    for v in ker:
        assert all(not x for x in m.apply(v))


@settings(max_examples=30, deadline=None)
@given(matrices(square=True))
def test_inverse_times_matrix(m):
    if rank(m) < m.rows:
        with pytest.raises(ValueError):
            inverse(m)
        return
    assert (inverse(m) * m).is_identity()


@settings(max_examples=30, deadline=None)
@given(matrices(), st.integers(0, 3), st.randoms(use_true_random=False))
def test_solve_unique_solves(a, extra, rnd):
    x0 = random_matrix(rnd, a.cols, extra, a.d)
    b = a * x0
    if rank(a) < a.cols:
        with pytest.raises(ValueError):
            solve_unique(a, b)
        return
    assert solve_unique(a, b) == x0


@settings(max_examples=20, deadline=None)
@given(matrices(max_dim=4, square=True))
def test_fixed_space_spans(b):
    if rank(b) < b.rows:
        return
    a = b * inverse(b.conj())
    basis = fixed_space(a)
    assert len(basis) == b.rows
    # the basis vectors as rows: their rank is the rank of the basis
    assert rank(QuadMatrix(len(basis), b.rows, [x for v in basis for x in v], b.d)) == b.rows
    for v in basis:
        assert a.apply([x.conj() for x in v]) == v


@settings(max_examples=30, deadline=None)
@given(matrices(), coeffs.filter(bool))
def test_equal_matrices_hash_equal(m, c):
    other = m.scale(c).scale(1 / c)
    assert other == m and hash(other) == hash(m)
    assert QuadMatrix(m.rows, m.cols, m.entries, m.d) == m


# ---------------------------------------------------------------- fields

def test_field_mixing_rejected():
    a = QuadMatrix.identity(2, -1)
    b = QuadMatrix.identity(2, 2)
    for op in (lambda: a * b, lambda: a + b, lambda: a - b, lambda: a.hstack(b),
               lambda: a.scale(QuadElement(1, 1, 2)), lambda: solve_unique(a, b),
               lambda: a.apply([QuadElement(1, 0, 2)] * 2)):
        with pytest.raises(ValueError):
            op()
    with pytest.raises(ValueError):
        QuadMatrix(1, 2, [QuadElement(1, 0, -1), QuadElement(1, 0, 2)])
    with pytest.raises(ValueError):
        QuadMatrix(1, 1, [QuadElement(1, 0, -1)], 2)
    # d = 2 and d = 1/2 name the same field but are different tags
    assert QuadMatrix.identity(1, 2) != QuadMatrix.identity(1, Fraction(1, 2))


@pytest.mark.parametrize("d", (4, Fraction(9, 4), 0, 1))
def test_square_tag_rejected(d):
    with pytest.raises(ValueError):
        QuadMatrix.identity(2, d)
    with pytest.raises(ValueError):
        QuadMatrix.zeros(1, 1, d)
    with pytest.raises(ValueError):
        QuadMatrix.from_rows([[1]], d)


# ---------------------------------------------------------------- packed products

def ref_product(x: QuadMatrix, y: QuadMatrix) -> QuadMatrix:
    """x . y by four integer dot products per irrational entry: the kernel
    that packed products replaced."""
    k, m = x.cols, y.cols
    x_p = [x._P[i * k:(i + 1) * k] for i in range(x.rows)]
    y_p = [y._P[j::m] for j in range(m)]
    P = [sum(map(mul, r, c)) for r in x_p for c in y_p]
    x_irrational, y_irrational = any(x._Q), any(y._Q)
    if x_irrational:
        x_q = [x._Q[i * k:(i + 1) * k] for i in range(x.rows)]
    if y_irrational:
        y_q = [y._Q[j::m] for j in range(m)]
    if x_irrational and y_irrational:
        D = x._D
        P = [s + D * sum(map(mul, r, c)) for s, (r, c) in
             zip(P, ((r, c) for r in x_q for c in y_q))]
        Q = [sum(map(mul, rp, cq)) + sum(map(mul, rq, cp))
             for rp, rq in zip(x_p, x_q) for cp, cq in zip(y_p, y_q)]
    elif x_irrational:
        Q = [sum(map(mul, r, c)) for r in x_q for c in y_p]
    elif y_irrational:
        Q = [sum(map(mul, r, c)) for r in x_p for c in y_q]
    else:
        Q = [0] * len(P)
    return _matrix(x.rows, m, x.d, x._D, P, Q, x._den * y._den)


def integer_matrix(rows, cols, d, P, Q, den=1) -> QuadMatrix:
    """(P + Q*sqrt(D)) / den with D = dn*dd, in canonical form."""
    d = Fraction(d)
    return _matrix(rows, cols, d, d.numerator * d.denominator, list(P), list(Q), den)


def random_integer_matrix(rng, rows, cols, d, kind, bits):
    """kind is "rational", "irrational" or "zero"; entries up to 2^bits."""
    def draw():
        return rng.randint(-2 ** bits, 2 ** bits) if rng.random() < 0.8 else 0

    n = rows * cols
    P = [0] * n if kind == "zero" else [draw() for _ in range(n)]
    Q = [draw() for _ in range(n)] if kind == "irrational" else [0] * n
    return integer_matrix(rows, cols, d, P, Q, rng.choice((1, 1, 2, 6, 2 ** bits + 1)))


def assert_product_matches(x, y):
    got, want = x * y, ref_product(x, y)
    assert (got.rows, got.cols, got._P, got._Q, got._den) == \
        (want.rows, want.cols, want._P, want._Q, want._den)


KINDS = ("rational", "irrational", "zero")


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_packed_product_matches_four_dot_products(d):
    rng = random.Random(f"packed {d}")
    for kx in KINDS:
        for ky in KINDS:
            for bits in (1, 20, 64, 300):
                for r, k, c in ((rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6))
                                for _ in range(4)):
                    x = random_integer_matrix(rng, r, k, d, kx, bits)
                    y = random_integer_matrix(rng, k, c, d, ky, rng.choice((1, 20, 64, 300)))
                    assert_product_matches(x, y)
    for r, k, c in ((0, 0, 0), (3, 0, 2), (0, 4, 3), (2, 5, 0), (1, 1, 1), (6, 6, 6)):
        x = random_integer_matrix(rng, r, k, d, "irrational", 300)
        y = random_integer_matrix(rng, k, c, d, "irrational", 300)
        assert_product_matches(x, y)
        assert x * y == QuadMatrix(r, c, ref_mul(x, y), d)


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_packed_product_at_the_digit_bound(d):
    """Entries of one magnitude and one sign pattern put every digit of the
    packed dot product at its extreme: |A| = |C| = k*M*M', |B| = 2*k*M*M'.

    With s = bit_length(2*k*M*M') + 1, 2*k*M*M' is even and below 2^(s-1),
    so every digit has |digit| <= 2^(s-1) - 2; a digit of -2^(s-1) + 1
    cannot occur.  k*M*M' = 2^j - 1 reaches the bound: B = -(2^(s-1) - 2)
    when the signs of p*q' and q*p' agree and are negative."""
    for k, M, M2 in ((1, 1, 1), (3, 1, 1), (1, 2 ** 64 - 1, 1), (2 ** 5 - 1, 1, 1),
                     (2, 2 ** 100, 2 ** 100 - 1), (6, 2 ** 300, 2 ** 300)):
        for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            for qx, qy in ((1, 1), (1, -1), (-1, 1)):
                x = integer_matrix(3, k, d, [sx * M] * (3 * k), [qx * sx * M] * (3 * k))
                y = integer_matrix(k, 2, d, [sy * M2] * (2 * k), [qy * sy * M2] * (2 * k))
                assert_product_matches(x, y)
                assert_product_matches(y.transpose(), x.transpose())
                # one factor rational: B = sum p*q' alone reaches k*M*M'
                assert_product_matches(x, y.parts()[0])
    # k*M*M' = 2^6 - 1, so s = 8 and B = -126 = -2^(s-1) + 2
    x = integer_matrix(1, 1, d, [-63], [-63])
    y = integer_matrix(1, 1, d, [1], [1])
    assert_product_matches(x, y)
    assert (x * y)._Q == [-126]


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 4), (4, 1, 3), (5, 6, 2), (6, 6, 6)])
def test_packed_product_makes_one_multiply_per_term(shape, monkeypatch):
    """An r x k by k x c product makes r*c*k integer multiplies with or
    without sqrt(D) terms (the four-dot-product kernel made 4*r*c*k when
    both factors were irrational and 2*r*c*k when one was)."""
    import rquiver.exact as exact
    calls = [0]

    def counting_mul(a, b):
        calls[0] += 1
        return a * b

    monkeypatch.setattr(exact, "mul", counting_mul)
    r, k, c = shape
    rng = random.Random(str(shape))
    for kx, ky in (("irrational", "irrational"), ("irrational", "rational"),
                   ("rational", "irrational"), ("rational", "rational")):
        x = random_integer_matrix(rng, r, k, -1, kx, 20)
        y = random_integer_matrix(rng, k, c, -1, ky, 20)
        calls[0] = 0
        x * y
        assert calls[0] == r * c * k, (kx, ky)


# ---------------------------------------------------------------- trivial operands

def ref_sum(x: QuadMatrix, y: QuadMatrix, sign: int) -> QuadMatrix:
    """x + sign*y over the common denominator, with x's tag: the arithmetic
    that _sum skips for an empty or zero right operand."""
    den = lcm(x._den, y._den)
    f, g = den // x._den, sign * (den // y._den)
    return _matrix(x.rows, x.cols, x.d, x._D, [a * f + b * g for a, b in zip(x._P, y._P)],
                   [a * f + b * g for a, b in zip(x._Q, y._Q)], den)


def assert_same_matrix(got: QuadMatrix, want: QuadMatrix, same_tag_object=True):
    """Equal integer arrays, denominator and tag; by default the tag must be
    the very object the full computation used."""
    assert (got.rows, got.cols, got._P, got._Q, got._den, got._D, got.d) == \
        (want.rows, want.cols, want._P, want._Q, want._den, want._D, want.d)
    if same_tag_object:
        assert got.d is want.d


def trivial_pool(rng, d) -> list:
    """Identities, zeros, empties and general matrices over tag d, each both
    with the interned tag and with a fresh Fraction equal to it, plus empty
    matrices over another field."""
    other = Fraction(3) if Fraction(d) != 3 else Fraction(5)
    pool = []
    for fresh in (False, True):
        tag = Fraction(d) if fresh else _field_tag(d)
        assert (tag is _field_tag(d)) != fresh

        def make(rows, cols, P, Q=None, den=1):
            n = rows * cols
            return _matrix(rows, cols, tag, tag.numerator * tag.denominator,
                           list(P), list(Q) if Q else [0] * n, den)

        for n in range(4):
            ident = QuadMatrix.identity(n, d)
            pool.append(make(n, n, ident._P))
            pool.append(make(n, n, [0] * (n * n)))
        for r, c in ((0, 2), (2, 0), (0, 3), (3, 0)):
            pool.append(make(r, c, []))
        for r, c in ((2, 2), (2, 3), (3, 2), (3, 3), (1, 3)):
            g = random_integer_matrix(rng, r, c, d, rng.choice(KINDS[:2]), 20)
            pool.append(make(r, c, g._P, g._Q, g._den))
    for r, c in ((0, 0), (0, 2), (2, 0), (0, 3), (3, 0)):
        pool.append(QuadMatrix.zeros(r, c, other))
    return pool


def compatible(x: QuadMatrix, y: QuadMatrix) -> bool:
    return x.d == y.d or not x._P or not y._P


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_trivial_products_match_full_computation(d):
    rng = random.Random(f"trivial product {d}")
    pool = trivial_pool(rng, d)
    shortcuts = 0
    for x in pool:
        for y in pool:
            if x.cols != y.rows or not compatible(x, y):
                continue
            got = x * y
            assert_same_matrix(got, ref_product(x, y))
            if x.d is y.d and (x.is_identity() or y.is_identity()) and got._P:
                assert got is (y if x.is_identity() else x)
                shortcuts += 1
            elif x.is_identity() and x.rows and x.d is not y.d:
                assert got is not y
    assert shortcuts > 20


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_trivial_sums_match_full_computation(d):
    rng = random.Random(f"trivial sum {d}")
    pool = trivial_pool(rng, d)
    shortcuts = 0
    for x in pool:
        for y in pool:
            if (x.rows, x.cols) != (y.rows, y.cols) or not compatible(x, y):
                continue
            for sign, got in ((1, x + y), (-1, x - y)):
                assert_same_matrix(got, ref_sum(x, y, sign))
                if not x._P or y.is_zero():
                    assert got is x
                    shortcuts += 1
    assert shortcuts > 20


@pytest.mark.parametrize("d", FIELD_TAGS)
def test_inverse_of_identity_matches_elimination(d):
    for n in range(4):
        for ident in (QuadMatrix.identity(n, d), integer_matrix(n, n, d, QuadMatrix.identity(n)._P,
                                                                [0] * (n * n))):
            got = inverse(ident)
            assert got is ident
            assert_same_matrix(got, solve_unique(ident, QuadMatrix.identity(n, d)),
                               same_tag_object=False)


def test_field_tags_are_interned_and_checked():
    assert _field_tag(-1) is _field_tag(Fraction(-1)) is QuadMatrix.identity(2).d
    assert _field_tag(Fraction(-5, 3)) is QuadElement(1, 0, Fraction(-5, 3)).d
    for d in FIELD_TAGS:
        fresh = Fraction(d.numerator, d.denominator)
        assert _field_tag(fresh) is _field_tag(d) and _field_tag(fresh) is not fresh
    for square in (4, Fraction(9, 4), 0, 1):
        for _ in range(3):
            with pytest.raises(ValueError, match="is a square in Q"):
                _field_tag(square)
    for bad, exc in ((-1.0, TypeError), (True, ValueError), (False, ValueError), ("2", TypeError)):
        with pytest.raises(exc):
            _field_tag(bad)
        with pytest.raises(exc):
            QuadMatrix.identity(1, bad)
    assert type(_field_tag(-1)) is Fraction

    class Tag(Fraction):
        pass

    # only exact int and Fraction inputs are interned
    tag = Tag(-7, 11)
    assert _field_tag(tag) is tag
    assert type(_field_tag(Fraction(-7, 11))) is Fraction


def test_field_tag_store_is_bounded(monkeypatch):
    import rquiver.exact as exact

    monkeypatch.setattr(exact, "_FIELD_TAGS", {})
    tags = [_field_tag(-n) for n in range(1, 2 * exact._MAX_FIELD_TAGS)]
    assert len(exact._FIELD_TAGS) == exact._MAX_FIELD_TAGS
    assert all(_field_tag(-n) is tags[n - 1] for n in range(1, exact._MAX_FIELD_TAGS + 1))
    # past the bound a tag is still checked and equal, only not shared
    late = -2 * exact._MAX_FIELD_TAGS + 1
    assert _field_tag(late) == late and _field_tag(late) is not _field_tag(late)
    with pytest.raises(ValueError, match="is a square in Q"):
        _field_tag(4 * exact._MAX_FIELD_TAGS ** 2)
    assert len(exact._FIELD_TAGS) == exact._MAX_FIELD_TAGS
    x = QuadMatrix.identity(2, late)
    assert_same_matrix(x * x, ref_product(x, x), same_tag_object=False)


def test_roundtrip_multiply_count(monkeypatch):
    """roundtrip_hc of the golden Jordan-block extension rep at ell = 2 makes
    1080 integer multiplies through exact.mul (1404 while inverse_E ran
    validate_hc on its own output, 3186 before products with an identity or
    empty operand were skipped)."""
    import rquiver.exact as exact
    from rquiver.hc import roundtrip_hc
    from rquiver.serialize import load_rep

    calls = [0]

    def counting_mul(a, b):
        calls[0] += 1
        return a * b

    golden = Path(__file__).parent / "golden" / "hc_ext_rep_d-1.json"
    rep = load_rep(json.loads(golden.read_text()))
    monkeypatch.setattr(exact, "mul", counting_mul)
    roundtrip_hc(rep, 2)
    assert calls[0] == 1080

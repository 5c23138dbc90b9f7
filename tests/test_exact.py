import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rquiver.exact import (
    CocycleViolation,
    QuadElement,
    QuadMatrix,
    conj,
    fixed_space,
    inverse,
    kernel_basis,
    nilpotency_exponent,
    qe,
    rank,
    sqrt_d,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)
elements = st.builds(lambda a, b: QuadElement(a, b, -1), rationals, rationals)


def basis_matrix(vectors: list, n: int, d=-1) -> QuadMatrix:
    """Columns = the given coordinate vectors (n rows); a test helper since
    the library builds no matrix from coordinate tuples."""
    return QuadMatrix(n, len(vectors), [v[r] for r in range(n) for v in vectors], d)


def rational_rank_oracle(m: QuadMatrix) -> int:
    """Independent rank: embed L-columns as pairs of rational columns.

    For v in L^n, the L-span of the columns equals the Q-span of
    {col, sqrt(d)*col} intersected-as-real; rank_L = rank_Q / 2 when d is not
    a square because multiplication by sqrt(d) pairs up the Q-dimensions.
    """
    cols = []
    for c in range(m.cols):
        col = m.col(c)
        scol = tuple(sqrt_d(m.d) * x for x in col)
        for v in (col, scol):
            cols.append([y for x in v for y in (x.a, x.b)])
    # rational row reduction on the transpose
    rows = [list(r) for r in cols]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        f = rows[r][c]
        rows[r] = [x / f for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                g = rows[i][c]
                rows[i] = [x - g * y for x, y in zip(rows[i], rows[r])]
        r += 1
    assert r % 2 == 0
    return r // 2


def random_matrix(rng, rows, cols, d=-1, span=3):
    ent = [QuadElement(Fraction(rng.randint(-span, span)),
                       Fraction(rng.randint(-span, span)), d)
           for _ in range(rows * cols)]
    return QuadMatrix(rows, cols, ent, d)


# ---------------------------------------------------------------- elements

def test_conj_examples():
    x = qe(3, 2)
    assert conj(x) == qe(3, -2)
    assert conj(qe(5)) == qe(5)


@given(elements)
def test_conj_involution(x):
    assert conj(conj(x)) == x


@given(elements, elements)
def test_conj_multiplicative(x, y):
    assert conj(x * y) == conj(x) * conj(y)


@given(elements)
def test_norm_is_rational(x):
    n = x * conj(x)
    assert n.is_rational()
    assert n.a == x.a * x.a + x.b * x.b  # d = -1


@given(elements)
def test_field_inverse(x):
    if x:
        assert x * x.inv() == 1


def test_square_discriminant_rejected():
    with pytest.raises(ValueError):
        QuadElement(1, 1, 4)
    with pytest.raises(ValueError):
        QuadElement(1, 1, Fraction(9, 4))
    QuadElement(1, 1, 2)  # fine


def test_mixed_fields_rejected():
    with pytest.raises(ValueError):
        qe(1, 1, -1) * qe(1, 1, 2)


# ---------------------------------------------------------------- matrices

def test_kernel_identity_empty():
    assert kernel_basis(QuadMatrix.identity(2)) == []


def test_kernel_visible():
    m = QuadMatrix.from_rows([[0, 1], [0, 0]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    assert basis[0] == (qe(1), qe(0))


def test_rank_plus_kernel_random():
    rng = random.Random(7)
    for _ in range(20):
        m = random_matrix(rng, 4, 6)
        ker = kernel_basis(m)
        assert rank(m) + len(ker) == 6
        assert rank(m) == rational_rank_oracle(m)
        for v in ker:
            assert all(not x for x in m.apply(v))


def test_inverse_and_solve():
    rng = random.Random(3)
    for _ in range(10):
        while True:
            m = random_matrix(rng, 3, 3)
            if rank(m) == 3:
                break
        assert (m * inverse(m)).is_identity()


def test_zero_dimensional_shapes():
    z = QuadMatrix.zeros(0, 3)
    w = QuadMatrix.zeros(3, 0)
    assert (w * z).rows == 3 and (w * z).cols == 3
    assert (z * w).rows == 0
    assert kernel_basis(w) == []
    assert nilpotency_exponent(QuadMatrix.zeros(0, 0)) == 1


def test_nilpotency_exponent():
    assert nilpotency_exponent(QuadMatrix.zeros(2, 2)) == 1
    n = QuadMatrix.from_rows([[0, 1], [0, 0]])
    assert nilpotency_exponent(n) == 2
    # full superdiagonal 5x5: oracle by repeated multiplication
    rows = [[1 if j == i + 1 else 0 for j in range(5)] for i in range(5)]
    m = QuadMatrix.from_rows(rows)
    p, e = m, 1
    while not p.is_zero():
        p, e = p * m, e + 1
    assert e == 5
    assert nilpotency_exponent(m) == 5
    assert nilpotency_exponent(QuadMatrix.identity(3)) is None


# ---------------------------------------------------------------- fixed space

def test_fixed_space_entrywise_conjugation():
    basis = fixed_space(QuadMatrix.identity(2))
    assert len(basis) == 2
    assert (qe(1), qe(0)) in basis and (qe(0), qe(1)) in basis


def test_fixed_space_swap():
    # phi(v) = [[0,1],[1,0]] conj(v); fixed space contains (1,1), (i,-i)
    a = QuadMatrix.from_rows([[0, 1], [1, 0]])
    basis = fixed_space(a)
    assert len(basis) == 2
    bm = basis_matrix(basis, 2)
    assert rank(bm) == 2  # L-linearly independent
    for cand in [(qe(1), qe(1)), (qe(0, 1), qe(0, -1))]:
        aug = bm.hstack(basis_matrix([cand], 2))
        assert rank(aug) == 2  # candidate lies in the L-span
    for v in basis:
        assert a.apply([x.conj() for x in v]) == v


def test_fixed_space_pure_imaginary_line():
    # phi = -conj on L^1: fixed line is spanned by sqrt(-1)
    basis = fixed_space(QuadMatrix.from_rows([[-1]]))
    assert len(basis) == 1
    v = basis[0][0]
    assert v.a == 0 and v.b != 0


def test_fixed_space_cocycle_violation():
    # matrix * conj(matrix) = i * (-i) = 1 -> fine; break it with 2*conj
    ok = fixed_space(QuadMatrix.from_rows([[qe(0, 1)]]))
    assert len(ok) == 1
    with pytest.raises(CocycleViolation):
        fixed_space(QuadMatrix.from_rows([[2]]))


def test_fixed_space_random_involutions():
    # build involutions as A = B * conj(B)^-1 so that A conj(A) = 1
    rng = random.Random(23)
    count = 0
    while count < 10:
        b = random_matrix(rng, 3, 3)
        if rank(b) < 3:
            continue
        a = b * inverse(b.conj())
        basis = fixed_space(a)
        assert len(basis) == 3
        assert rank(basis_matrix(basis, 3)) == 3
        for v in basis:
            assert a.apply([x.conj() for x in v]) == v
        count += 1

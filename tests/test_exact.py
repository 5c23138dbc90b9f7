import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rquiver.exact import (
    CocycleViolation,
    QuadElement,
    QuadMatrix,
    fixed_space,
    inverse,
    kernel_basis,
    nilpotency_exponent,
    rank,
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
        scol = tuple(QuadElement(0, 1, m.d) * x for x in col)
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
    x = QuadElement(3, 2)
    assert x.conj() == QuadElement(3, -2)
    assert QuadElement(5).conj() == QuadElement(5)


@given(elements)
def test_conj_involution(x):
    assert x.conj().conj() == x


@given(elements, elements)
def test_conj_multiplicative(x, y):
    assert (x * y).conj() == x.conj() * y.conj()


@given(elements)
def test_norm_is_rational(x):
    n = x * x.conj()
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
        QuadElement(1, 1, -1) * QuadElement(1, 1, 2)


# ---------------------------------------------------------------- matrices

def test_kernel_identity_empty():
    assert kernel_basis(QuadMatrix.identity(2)) == []


def test_kernel_visible():
    m = QuadMatrix.from_rows([[0, 1], [0, 0]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    assert basis[0] == (QuadElement(1), QuadElement(0))


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


@pytest.mark.parametrize("d", [Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2),
                               Fraction(-5, 3)], ids=["d-1", "d2", "d-3", "d1_2", "d-5_3"])
def test_rational_element_hashes_as_its_rational_part(d):
    """x == QuadElement(x, 0, d), so sets and dicts must not tell them apart."""
    for x in (0, 1, -3, Fraction(1, 2), Fraction(-7, 3)):
        e = QuadElement(x, 0, d)
        assert e == x and hash(e) == hash(x)
        assert len({e, x}) == 1
        assert {e: 0}.get(x) == 0 and {x: 0}.get(e) == 0
    root = QuadElement(1, 1, d)
    assert {root: 0}.get(QuadElement(1, 1, d)) == 0
    assert len({root, root.conj(), 1}) == 3


def test_nilpotent_powers():
    """The one walk over a matrix's powers: n, ..., n^(e-1) for n^e = 0,
    [] for the empty and the zero matrix, None when n^rows != 0."""
    from rquiver.exact import _nilpotent_powers
    j = QuadMatrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]], 2)
    assert _nilpotent_powers(j) == [j, j * j]
    assert _nilpotent_powers(QuadMatrix.zeros(0, 0)) == []
    assert _nilpotent_powers(QuadMatrix.zeros(2, 2)) == []
    assert _nilpotent_powers(QuadMatrix.from_rows([[0, 1], [1, 0]])) is None


def test_nilpotent_powers_stop_at_the_last_power(monkeypatch):
    """Once n^rows != 0 the walk returns None without forming n^(rows+1):
    the 3x3 unipotent Jordan block costs the products n^2 and n^3 only."""
    import rquiver.exact as exact

    product, calls = exact._product, []
    monkeypatch.setattr(exact, "_product", lambda x, y: calls.append(x) or product(x, y))
    j = QuadMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert nilpotency_exponent(j) is None
    assert len(calls) == 2
    calls.clear()
    assert nilpotency_exponent(j - QuadMatrix.identity(3)) == 3
    assert len(calls) == 2


def scale_and_add(numerators, den, powers, n, d):
    """Reference for power_series: c_0 1 + c_1 x + ... as a chain of scales
    and sums, one matrix at a time."""
    acc = QuadMatrix.identity(n, d).scale(Fraction(numerators[0], den))
    for c, x in zip(numerators[1:], powers):
        acc = acc + x.scale(Fraction(c, den))
    return acc


@pytest.mark.parametrize("d", [Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2),
                               Fraction(-5, 3)], ids=["d-1", "d2", "d-3", "d1_2", "d-5_3"])
def test_power_series_is_the_scale_and_add_sum(d):
    """power_series equals the scale-and-add sum on the 0x0 matrix, on the
    powers of random matrices with sqrt(d) parts and fractional entries, and
    on lists of unrelated matrices whose denominators 2, 3 and 4 have an lcm
    above each of them; coefficients are zero, negative or positive, over
    denominators 1..6."""
    from rquiver.exact import power_series

    rng = random.Random(808)
    empty = QuadMatrix.zeros(0, 0, d)
    for numerators in ([3], [0, 0], [-2, 5, 0]):
        powers = [empty] * (len(numerators) - 1)
        assert power_series(numerators, 2, powers, 0, d) == empty
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(0, 4)
        x = random_matrix(rng, n, n, d).scale(Fraction(1, rng.randint(1, 4)))
        powers = [x]
        while len(powers) < m:
            powers.append(powers[-1] * x)
        powers = powers[:m]
        numerators = [rng.randint(-5, 5) for _ in range(m + 1)]
        den = rng.randint(1, 6)
        assert power_series(numerators, den, powers, n, d) == \
            scale_and_add(numerators, den, powers, n, d)
    for den in (1, 5):
        powers = [random_matrix(rng, 3, 3, d).scale(Fraction(1, k)) for k in (2, 3, 4)]
        for numerators in ([1, 1, 1, 1], [0, -1, 2, -3], [4, 0, 0, 7]):
            assert power_series(numerators, den, powers, 3, d) == \
                scale_and_add(numerators, den, powers, 3, d)


def test_power_series_rejects_bad_input():
    from rquiver.exact import power_series

    x = QuadMatrix.from_rows([[0, 1], [0, 0]])
    with pytest.raises(ValueError, match="positive int"):
        power_series([1, 1], 0, [x], 2)
    with pytest.raises(ValueError, match="one coefficient per power"):
        power_series([1], 1, [x], 2)
    with pytest.raises(ValueError, match="not 3x3"):
        power_series([1, 1], 1, [x], 3)
    with pytest.raises(ValueError, match="not sqrt"):
        power_series([1, 1], 1, [QuadMatrix.from_rows([[0, 1], [0, 0]], 2)], 2, -1)


# ---------------------------------------------------------------- fixed space

def test_fixed_space_entrywise_conjugation():
    basis = fixed_space(QuadMatrix.identity(2))
    assert len(basis) == 2
    assert (QuadElement(1), QuadElement(0)) in basis and (QuadElement(0), QuadElement(1)) in basis


def test_fixed_space_swap():
    # phi(v) = [[0,1],[1,0]] conj(v); fixed space contains (1,1), (i,-i)
    a = QuadMatrix.from_rows([[0, 1], [1, 0]])
    basis = fixed_space(a)
    assert len(basis) == 2
    bm = basis_matrix(basis, 2)
    assert rank(bm) == 2  # L-linearly independent
    for cand in [(QuadElement(1), QuadElement(1)), (QuadElement(0, 1), QuadElement(0, -1))]:
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
    ok = fixed_space(QuadMatrix.from_rows([[QuadElement(0, 1)]]))
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

import math
import random
from fractions import Fraction

import pytest

import rquiver.exact
import rquiver.unipotent as unipotent
from rquiver.exact import QuadElement, QuadMatrix, inverse, nilpotency_exponent
from rquiver.randomgen import random_unimodular
from rquiver.unipotent import (
    PreconditionViolated,
    SingularIterate,
    StabilizationProblem,
    StabilizationResult,
    neumann_inverse,
    scaled_sqrt,
    stabilize,
    unipotent_sqrt,
)


def binomial_series_sqrt(m: QuadMatrix) -> QuadMatrix:
    """Oracle: truncated binomial series for (1 + n)^(1/2), n = m - 1.

    Terminates because n is nilpotent; independent of the Newton iteration.
    """
    n = m - QuadMatrix.identity(m.rows, m.d)
    e = nilpotency_exponent(n)
    acc = QuadMatrix.identity(m.rows, m.d)
    term = QuadMatrix.identity(m.rows, m.d)
    coeff = Fraction(1)
    for k in range(1, e):
        coeff = coeff * (Fraction(1, 2) - (k - 1)) / k
        term = term * n
        acc = acc + term.scale(coeff)
    return acc


def strict_upper(rng, n, span=2):
    ent = []
    for i in range(n):
        for j in range(n):
            if j > i:
                ent.append(QuadElement(Fraction(rng.randint(-span, span)),
                                       Fraction(rng.randint(-span, span))))
            else:
                ent.append(QuadElement(0))
    return QuadMatrix(n, n, ent)


def random_invertible(rng, n, span=2):
    from rquiver.exact import rank

    while True:
        ent = [QuadElement(Fraction(rng.randint(-span, span)),
                           Fraction(rng.randint(-span, span))) for _ in range(n * n)]
        m = QuadMatrix(n, n, ent)
        if rank(m) == n:
            return m


def random_nilpotent(rng, n, span=2):
    """Conjugated strictly-triangular matrix: nilpotent of varied exponent."""
    g = random_invertible(rng, n, span)
    return g * strict_upper(rng, n, span) * inverse(g)


def test_neumann_inverse():
    rng = random.Random(1)
    for n in (0, 1, 2, 4):
        u = QuadMatrix.identity(n) + random_nilpotent(rng, n)
        assert (u * neumann_inverse(u)).is_identity()
        assert neumann_inverse(u) == reference_neumann_inverse(u)
    with pytest.raises(PreconditionViolated, match="^matrix is not unipotent$"):
        neumann_inverse(QuadMatrix.from_rows([[2]]))


def test_neumann_inverse_rejects_a_non_square_matrix():
    """A non-square matrix is no unipotent matrix; the check comes before the
    walk, which would fail on the shape of 1 - u with a plain ValueError."""
    for rows in ([[1, 0]], [[1], [0]]):
        with pytest.raises(PreconditionViolated,
                           match="^Neumann inverse of a non-square matrix$"):
            neumann_inverse(QuadMatrix.from_rows(rows))


def test_stabilize_identity_immediate():
    p = StabilizationProblem(QuadMatrix.identity(3), QuadMatrix.identity(3))
    res = stabilize(p)
    assert res.iterations == 0
    assert res.phi_plus_inf.is_identity()


def test_stabilize_2x2_symbolic_oracle():
    # phi_+ = 1 + n with n = [[0,1],[0,0]], phi_- = 1; e = 2
    n = QuadMatrix.from_rows([[0, 1], [0, 0]])
    p0 = QuadMatrix.identity(2) + n
    q0 = QuadMatrix.identity(2)
    res = stabilize(StabilizationProblem(p0, q0))
    assert res.iterations == 1
    # symbolic oracle: one step is ((p + q^{-1})/2, (q + p^{-1})/2)
    half = QuadElement(Fraction(1, 2))
    p1 = (p0 + inverse(q0)).scale(half)
    q1 = (q0 + inverse(p0)).scale(half)
    assert res.phi_plus_inf == p1 and res.phi_minus_inf == q1
    assert (res.phi_minus_inf * res.phi_plus_inf).is_identity()
    # explicit value: p1 = 1 + n/2, q1 = 1 - n/2
    assert p1 == QuadMatrix.identity(2) + n.scale(half)


def test_stabilize_exponent_sequence():
    # 5x5 defect of exponent 4: sequence 4 -> <=2 -> 1
    rows = [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]]
    n = QuadMatrix.from_rows(rows)
    assert nilpotency_exponent(n) == 4
    res = stabilize(StabilizationProblem(QuadMatrix.identity(5) + n,
                                         QuadMatrix.identity(5)))
    exps = [t[2] for t in res.trace]
    assert exps[0] == 4
    for before, after in zip(exps, exps[1:]):
        assert after <= math.ceil(before / 2)
    assert exps[-1] == 1


def test_stabilize_random_and_bounds():
    rng = random.Random(97)
    for _ in range(60):
        dim = rng.randint(1, 6)
        n = random_nilpotent(rng, dim)
        q0 = QuadMatrix.identity(dim) + random_nilpotent(rng, dim)
        # phi_- = q0, phi_+ = q0^{-1} (1 + n): defect = n
        p0 = inverse(q0) * (QuadMatrix.identity(dim) + n)
        prob = StabilizationProblem(p0, q0)
        e = prob.defect_exponent()
        res = stabilize(prob)
        assert res.iterations <= math.ceil(math.log2(e)) + 1 if e > 1 else True
        assert (res.phi_minus_inf * res.phi_plus_inf).is_identity()
        exps = [t[2] for t in res.trace]
        for before, after in zip(exps, exps[1:]):
            assert after <= math.ceil(before / 2)


def test_stabilization_walks_the_powers_once_per_run(monkeypatch):
    """The problem's walk over the powers of s = 1 - phi_- phi_+ checks the
    pair and serves every step of the run, so a problem and its run make one
    walk (k + 1 for a run of k iterations while each step formed its u_k and
    walked its powers again); the powers are no part of the problem's value."""
    walk, calls = unipotent._nilpotent_powers, []

    def counting(n):
        calls.append(n)
        return walk(n)

    monkeypatch.setattr(unipotent, "_nilpotent_powers", counting)
    rng = random.Random(5)
    iterations = []
    for dim in (1, 3, 5):
        n = random_nilpotent(rng, dim)
        p0, q0 = QuadMatrix.identity(dim) + n, QuadMatrix.identity(dim)
        calls.clear()
        prob = StabilizationProblem(p0, q0)
        assert prob.defect_exponent() == nilpotency_exponent(n)
        res = stabilize(prob)
        assert len(calls) == 1
        iterations.append(res.iterations)
        assert prob == StabilizationProblem(p0, q0) and "powers" not in repr(prob)
    assert max(iterations) >= 2
    with pytest.raises(PreconditionViolated, match="^phi_- o phi_\\+ - 1 is not nilpotent$"):
        StabilizationProblem(QuadMatrix.from_rows([[2]]), QuadMatrix.identity(1))


def test_stabilize_transposition_symmetry():
    rng = random.Random(13)
    dim = 3
    n = random_nilpotent(rng, dim)
    p0 = QuadMatrix.identity(dim) + n
    q0 = QuadMatrix.identity(dim)
    res = stabilize(StabilizationProblem(p0, q0))
    swapped = stabilize(StabilizationProblem(q0, p0))
    assert swapped.phi_plus_inf == res.phi_minus_inf
    assert swapped.phi_minus_inf == res.phi_plus_inf


def test_stabilize_addendum_commuting_unipotent():
    # W_+ = W_-: commuting unipotent inputs stay unipotent each step
    rng = random.Random(21)
    for _ in range(10):
        dim = rng.randint(2, 4)
        n = random_nilpotent(rng, dim)
        # powers of one unipotent commute
        u = QuadMatrix.identity(dim) + n
        p0 = u * u
        q0 = inverse(u)
        assert p0 * q0 == q0 * p0
        res = stabilize(StabilizationProblem(p0, q0))
        for pk, qk, _ in res.trace:
            assert pk * qk == qk * pk
            assert nilpotency_exponent(pk - QuadMatrix.identity(dim)) is not None
            assert nilpotency_exponent(qk - QuadMatrix.identity(dim)) is not None


def test_stabilize_precondition():
    with pytest.raises(PreconditionViolated):
        StabilizationProblem(QuadMatrix.from_rows([[2]]), QuadMatrix.identity(1))


def test_sqrt_identity():
    assert unipotent_sqrt(QuadMatrix.identity(3)).is_identity()


def test_sqrt_single_block():
    n = QuadMatrix.from_rows([[0, 1], [0, 0]])
    root = unipotent_sqrt(QuadMatrix.identity(2) + n)
    assert root == QuadMatrix.identity(2) + n.scale(QuadElement(Fraction(1, 2)))
    assert root * root == QuadMatrix.identity(2) + n


def test_sqrt_4x4_jordan_matches_series():
    rows = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
    m = QuadMatrix.identity(4) + QuadMatrix.from_rows(rows)
    root = unipotent_sqrt(m)
    assert root == binomial_series_sqrt(m)
    assert root * root == m


def test_sqrt_random_against_series():
    rng = random.Random(31)
    for _ in range(60):
        dim = rng.randint(1, 6)
        m = QuadMatrix.identity(dim) + random_nilpotent(rng, dim)
        root = unipotent_sqrt(m)
        assert root * root == m
        assert root == binomial_series_sqrt(m)
        assert nilpotency_exponent(root - QuadMatrix.identity(dim)) is not None


def test_sqrt_uniqueness_perturb_and_reject():
    rng = random.Random(41)
    for dim in (2, 3):
        m = QuadMatrix.identity(dim) + random_nilpotent(rng, dim)
        root = unipotent_sqrt(m)
        for _ in range(25):
            pert = strict_upper(rng, dim)
            if pert.is_zero():
                continue
            cand = root + pert
            # candidate is unipotent but must fail to square to m
            assert cand * cand != m


def test_sqrt_commutes_with_commutant():
    rng = random.Random(51)
    n = random_nilpotent(rng, 4)
    m = QuadMatrix.identity(4) + n
    root = unipotent_sqrt(m)
    # anything commuting with m: polynomials in m
    psi = m * m + m.scale(3) + QuadMatrix.identity(4)
    assert root * psi == psi * root


def test_sqrt_conjugation_equivariance():
    rng = random.Random(61)
    n = random_nilpotent(rng, 3)
    m = QuadMatrix.identity(3) + n
    g = random_invertible(rng, 3)
    lhs = unipotent_sqrt(g * m * inverse(g))
    assert lhs == g * unipotent_sqrt(m) * inverse(g)
    # Galois equivariance: conj of the root is root of the conj
    assert unipotent_sqrt(m.conj()) == unipotent_sqrt(m).conj()


def test_scaled_sqrt():
    m = QuadMatrix.identity(2).scale(4)
    assert scaled_sqrt(m, QuadElement(2)) == QuadMatrix.identity(2).scale(2)
    assert scaled_sqrt(m, QuadElement(-2)) == QuadMatrix.identity(2).scale(-2)
    n = QuadMatrix.from_rows([[0, 1], [0, 0]])
    phi = QuadMatrix.identity(2).scale(9) + n.scale(4)
    root = scaled_sqrt(phi, QuadElement(3))
    assert root * root == phi
    # against the series: 3 * (1 + (4/9) n)^(1/2)
    inner = QuadMatrix.identity(2) + n.scale(Fraction(4, 9))
    assert root == binomial_series_sqrt(inner).scale(3)
    with pytest.raises(PreconditionViolated):
        scaled_sqrt(phi, QuadElement(0))


def test_scaled_sqrt_inverse_compatibility():
    rng = random.Random(71)
    n = random_nilpotent(rng, 3)
    phi = QuadMatrix.identity(3).scale(4) + n
    root = scaled_sqrt(phi, QuadElement(2))
    lhs = inverse(root)
    rhs = scaled_sqrt(inverse(phi), QuadElement(Fraction(1, 2)))
    assert lhs == rhs


# ------------------------------------------- references: the eliminating kernels

MAX_ITERATIONS = 64  # the references' safety cap; stabilize needs none

def reference_neumann_inverse(u: QuadMatrix) -> QuadMatrix:
    acc = term = QuadMatrix.identity(u.rows, u.d)
    minus_n = acc - u
    for _ in range(max(u.rows, 1)):
        term = term * minus_n
        if term.is_zero():
            return acc
        acc = acc + term
    raise PreconditionViolated("matrix is not unipotent")


def reference_stabilize(problem: StabilizationProblem) -> StabilizationResult:
    """The stabilization step as first written: two eliminations per step,
    phi_+ <- (phi_+ + inverse(phi_-))/2 and phi_- <- (phi_- + inverse(phi_+))/2,
    and the defect exponent taken separately."""
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
        p, q = (p + inverse(q)).scale(half), (q + inverse(p)).scale(half)
        iterations += 1
        qp = q * p
        trace.append((p, q, nilpotency_exponent(qp - ident)))
    return StabilizationResult(p, q, iterations, tuple(trace))


def reference_sqrt(phi: QuadMatrix) -> QuadMatrix:
    """The square root as first written: the Newton iteration
    x <- (x + x^{-1} phi)/2 from x = phi, one Neumann series per step."""
    n = phi - QuadMatrix.identity(phi.rows, phi.d)
    if nilpotency_exponent(n) is None:
        raise PreconditionViolated("phi - 1 is not nilpotent")
    half = QuadElement(Fraction(1, 2), 0, phi.d)
    x = phi
    for _ in range(MAX_ITERATIONS):
        if x * x == phi:
            return x
        x = (x + reference_neumann_inverse(x) * phi).scale(half)
    raise SingularIterate("square-root iteration did not converge; arithmetic bug")


PARITY_TAGS = (Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2))


def jordan_nilpotent(rng, sizes, d):
    """g J g^{-1} with J the nilpotent Jordan matrix of block sizes `sizes`."""
    dim = sum(sizes)
    rows = [[0] * dim for _ in range(dim)]
    start = 0
    for size in sizes:
        for i in range(start, start + size - 1):
            rows[i][i + 1] = 1
        start += size
    g = random_unimodular(rng, dim, span=1, d=d)
    return g * QuadMatrix.from_rows(rows, d) * inverse(g)


def random_jordan_type(rng, dim, whole):
    """One block of size dim when whole, else a random composition of dim."""
    if whole:
        return [dim] if dim else []
    sizes = []
    while dim:
        sizes.append(rng.randint(1, dim))
        dim -= sizes[-1]
    return sizes


def parity_inputs(count=210):
    """(problem, unipotent matrix, gamma) triples over four field tags and
    dimensions 0..6; every third round of dimensions is a single Jordan
    block, so defect exponents reach 6."""
    rng = random.Random(2024)
    out = []
    for i in range(count):
        d = PARITY_TAGS[i % len(PARITY_TAGS)]
        dim = i % 7
        whole = (i // 7) % 3 == 0
        ident = QuadMatrix.identity(dim, d)
        n = jordan_nilpotent(rng, random_jordan_type(rng, dim, whole), d)
        q0 = random_unimodular(rng, dim, span=1, d=d)
        problem = StabilizationProblem(inverse(q0) * (ident + n), q0)
        m = ident + jordan_nilpotent(rng, random_jordan_type(rng, dim, not whole), d)
        gamma = QuadElement(Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4)),
                            Fraction(rng.randint(-1, 1)), d)
        out.append((problem, m, gamma))
    return out


@pytest.fixture(scope="module")
def parity_cases():
    return parity_inputs()


def test_parity_inputs_cover_exponents(parity_cases):
    assert len(parity_cases) >= 200
    exps = {prob.defect_exponent() for prob, _, _ in parity_cases}
    assert exps == {1, 2, 3, 4, 5, 6}
    roots = {nilpotency_exponent(m - QuadMatrix.identity(m.rows, m.d))
             for _, m, _ in parity_cases}
    assert roots == {1, 2, 3, 4, 5, 6}


def test_stabilize_matches_eliminating_reference(parity_cases):
    for prob, _, _ in parity_cases:
        res, ref = stabilize(prob), reference_stabilize(prob)
        assert res.phi_plus_inf == ref.phi_plus_inf
        assert res.phi_minus_inf == ref.phi_minus_inf
        assert res.iterations == ref.iterations
        assert res.trace == ref.trace
        e = prob.defect_exponent()
        steps = (e - 1).bit_length()
        assert (res.iterations, [t[2] for t in res.trace]) == \
            (steps, [-(-e // 2 ** k) for k in range(steps + 1)])


def test_sqrt_matches_newton_reference(parity_cases):
    for _, m, gamma in parity_cases:
        root = unipotent_sqrt(m)
        assert root == reference_sqrt(m)
        phi = m.scale(gamma * gamma)
        assert scaled_sqrt(phi, gamma) == reference_sqrt(
            phi.scale(gamma.inv() * gamma.inv())).scale(gamma)


def test_unipotent_layer_runs_no_elimination(parity_cases, monkeypatch):
    def no_elimination(*args):
        raise AssertionError("the unipotent layer ran an elimination")

    expected = [(reference_stabilize(prob), reference_sqrt(m)) for prob, m, _ in parity_cases]
    monkeypatch.setattr(rquiver.exact, "_rref", no_elimination)
    for (prob, m, gamma), (ref, root) in zip(parity_cases, expected):
        assert stabilize(prob).trace == ref.trace
        assert unipotent_sqrt(m) == root
        scaled_sqrt(m.scale(gamma * gamma), gamma)


def test_unipotent_layer_product_counts(parity_cases, monkeypatch):
    """Matrix products (exact._product calls) on the parity problems, pinned
    at the counts of the power loops that each function once ran itself: a
    walk over the powers of an n of exponent e costs e - 1 products, and
    summing a series over the walk costs none.  stabilize makes
    2 iterations products per run, plus the closing check when
    iterations > 0, as it takes each c_k from the problem's powers (738
    while a run of no steps also ran the closing check, 951 while each step
    formed u_k = phi_- phi_+ and walked its powers again)."""
    product, calls = rquiver.exact._product, [0]

    def counting(x, y):
        calls[0] += 1
        return product(x, y)

    monkeypatch.setattr(rquiver.exact, "_product", counting)
    runs = {
        "nilpotency_exponent":
            lambda prob, m, gamma: nilpotency_exponent(m - QuadMatrix.identity(m.rows, m.d)),
        "StabilizationProblem":
            lambda prob, m, gamma: StabilizationProblem(prob.phi_plus, prob.phi_minus),
        "stabilize": lambda prob, m, gamma: stabilize(prob),
        "unipotent_sqrt": lambda prob, m, gamma: unipotent_sqrt(m),
        "scaled_sqrt": lambda prob, m, gamma: scaled_sqrt(m.scale(gamma * gamma), gamma),
    }
    counts = {}
    for name, run in runs.items():
        calls[0] = 0
        for case in parity_cases:
            run(*case)
        counts[name] = calls[0]
    assert counts == {"nilpotency_exponent": 390, "StabilizationProblem": 547,
                      "stabilize": 664, "unipotent_sqrt": 600, "scaled_sqrt": 600}


@pytest.mark.parametrize("d", [Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2),
                               Fraction(-5, 3)], ids=["d-1", "d2", "d-3", "d1_2", "d-5_3"])
def test_stabilize_limit_closed_form(d):
    """phi_+^inf = phi_+ r and phi_-^inf = r phi_- with r the unipotent square
    root of u^{-1}, u = phi_- phi_+ (stabilize's docstring), on dimensions
    0..6, single Jordan blocks and random Jordan types."""
    rng = random.Random(300)
    for dim in range(7):
        for whole in (True, False, False):
            ident = QuadMatrix.identity(dim, d)
            n = jordan_nilpotent(rng, random_jordan_type(rng, dim, whole), d)
            q0 = random_unimodular(rng, dim, span=1, d=d)
            p, q = inverse(q0) * (ident + n), q0
            res = stabilize(StabilizationProblem(p, q))
            r = unipotent_sqrt(neumann_inverse(q * p))
            assert (res.phi_plus_inf, res.phi_minus_inf) == (p * r, r * q)


@pytest.mark.parametrize("d", [Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2),
                               Fraction(-5, 3)], ids=["d-1", "d2", "d-3", "d1_2", "d-5_3"])
def test_stabilize_trace_exponents_are_measured(d):
    """stabilize reads each defect exponent off the coefficients of u_k as
    ceil(e_0 / 2^k); each equals the nilpotency exponent of q_k p_k - 1
    measured on the trace's own matrices."""
    rng = random.Random(310)
    seen = set()
    for dim in range(7):
        for whole in (True, False):
            ident = QuadMatrix.identity(dim, d)
            n = jordan_nilpotent(rng, random_jordan_type(rng, dim, whole), d)
            q0 = random_unimodular(rng, dim, span=1, d=d)
            res = stabilize(StabilizationProblem(inverse(q0) * (ident + n), q0))
            for pk, qk, e in res.trace:
                assert e == nilpotency_exponent(qk * pk - ident)
                seen.add(e)
    assert seen == {1, 2, 3, 4, 5, 6}


def test_stabilize_rejects_a_perturbed_coefficient(monkeypatch):
    """A wrong coefficient cannot pass: one added to the s-coefficient of
    c_0 fails the closing check q p = 1, and one added to the s-coefficient
    of u_1 fails the order check."""
    rows = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
    prob = StabilizationProblem(QuadMatrix.identity(4) + QuadMatrix.from_rows(rows),
                                QuadMatrix.identity(4))
    assert stabilize(prob).iterations == 2
    series = unipotent.power_series

    def perturbed_c(numerators, den, powers, n, d):
        return series([numerators[0], numerators[1] + 1, *numerators[2:]], den, powers, n, d)

    with monkeypatch.context() as m:
        m.setattr(unipotent, "power_series", perturbed_c)
        with pytest.raises(SingularIterate, match="not mutually inverse"):
            stabilize(prob)
    times = unipotent._times

    def perturbed_u(a, ta, b, tb):
        out, t = times(a, ta, b, tb)
        return [out[0], out[1] + 1, *out[2:]], t

    monkeypatch.setattr(unipotent, "_times", perturbed_u)
    with pytest.raises(SingularIterate, match="has order 1, not 2"):
        stabilize(prob)


def test_stabilize_makes_two_products_per_step_and_one_check(parity_cases, monkeypatch):
    """p <- p c_k and q <- c_k q per step, and q p once at the end of a run
    of at least one step; a run of no steps (e_0 = 1) makes no product, as
    its problem's walk found phi_- phi_+ = 1 exactly."""
    product, calls = rquiver.exact._product, [0]

    def counting(x, y):
        calls[0] += 1
        return product(x, y)

    monkeypatch.setattr(rquiver.exact, "_product", counting)
    for prob, _, _ in parity_cases:
        calls[0] = 0
        res = stabilize(prob)
        assert calls[0] == 2 * res.iterations + (res.iterations > 0)


def test_sqrt_rejects_non_unipotent():
    for m in (QuadMatrix.from_rows([[2]]), QuadMatrix.from_rows([[1, 1], [1, 1]], 2)):
        with pytest.raises(PreconditionViolated, match="phi - 1 is not nilpotent"):
            unipotent_sqrt(m)
    with pytest.raises(PreconditionViolated, match="non-square"):
        unipotent_sqrt(QuadMatrix.from_rows([[1, 0]]))


def test_stabilize_rejects_non_square_pair():
    """q p = 1 for the 2x1 column (1, 0) and the 1x2 row (1, 0), but p q is
    not 1; a non-square pair is no stabilization problem."""
    p = QuadMatrix.from_rows([[1], [0]])
    q = QuadMatrix.from_rows([[1, 0]])
    assert (q * p).is_identity()
    with pytest.raises(PreconditionViolated, match="square"):
        StabilizationProblem(p, q)
    with pytest.raises(PreconditionViolated, match="square"):
        StabilizationProblem(q, p)

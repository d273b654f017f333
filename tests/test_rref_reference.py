"""QQ matrix kernels checked against plain ``Fraction`` references.

``Matrix.rref`` and ``Matrix.is_invertible`` over QQ work fraction-free on
integers.  The references below are the textbook per-step loops over
``Fraction``s: Gauss-Jordan pivoting on the first nonzero entry, and
row-by-column sums of products for ``Matrix.__mul__``.  The rref is
unique, so the two must agree entry for entry and on the pivot columns;
``inverse`` and ``kernel`` must give what the reference rref implies, and
``is_invertible`` must agree with whether ``inverse`` raises, over every
field.  ``sub_scalar`` must equal ``m - I.scale(lam)``, bit for bit over
CC.  Needs only the standard library.
"""

import random
from fractions import Fraction

import pytest

from braidrep import CC, Matrix, QQ, QW, QZ, SingularMatrixError

from _gen import rand_omega, rand_ratfunc


def reference_rref(rows):
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, tuple(pivots)


def entry(rng):
    if rng.random() < 0.2:
        return Fraction(0)
    height = rng.choice((9, 99, 10 ** 6))
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def random_rows(rng, nrows, ncols):
    """Random rational rows, often rank-deficient in one of several ways.

    Some rows are replaced by combinations of others, some columns are
    zeroed (so a pivot column is missing in the middle) or copied from a
    combination of earlier columns, and zero rows are mixed in.
    """
    m = [[entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.5:
        for i in rng.sample(range(nrows), rng.randint(1, nrows - 1)):
            a, b = rng.sample(range(nrows), 2)
            fa, fb = entry(rng), entry(rng)
            m[i] = [fa * x + fb * y for x, y in zip(m[a], m[b])]
    if ncols > 2 and rng.random() < 0.4:
        j = rng.randrange(1, ncols - 1)
        for row in m:
            row[j] = Fraction(0)
    if ncols > 2 and rng.random() < 0.4:
        j = rng.randrange(2, ncols)
        fa, fb = entry(rng), entry(rng)
        for row in m:
            row[j] = fa * row[0] + fb * row[1]
    if rng.random() < 0.3:
        m[rng.randrange(nrows)] = [Fraction(0)] * ncols
    return m


def shapes(seed, count, max_rows=6, max_cols=12):
    rng = random.Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(1, max_rows), rng.randint(1, max_cols)
        yield random_rows(rng, nrows, ncols)


def test_rational_rref_matches_fraction_reference():
    for rows in shapes(401, 300):
        red, pivots = Matrix.from_rows(rows, QQ).rref()
        ref, ref_pivots = reference_rref(rows)
        assert pivots == ref_pivots, rows
        assert red.to_rows() == ref, rows
        assert all(type(x) is Fraction for x in red.entries)


def test_rational_inverse_matches_fraction_reference():
    rng = random.Random(402)
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = random_rows(rng, n, n) if rng.random() < 0.5 else \
            [[entry(rng) for _ in range(n)] for _ in range(n)]
        ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        ref, pivots = reference_rref([r + e for r, e in zip(rows, ident)])
        m = Matrix.from_rows(rows, QQ)
        if pivots[:n] != tuple(range(n)):
            with pytest.raises(SingularMatrixError):
                m.inverse()
            continue
        inv = m.inverse()
        assert inv.to_rows() == [r[n:] for r in ref], rows
        assert m * inv == Matrix.identity(n, QQ)


def test_rational_kernel_matches_fraction_reference():
    for rows in shapes(403, 300):
        m = Matrix.from_rows(rows, QQ)
        ref, pivots = reference_rref(rows)
        ncols = len(rows[0])
        expected = []
        for j in (j for j in range(ncols) if j not in pivots):
            v = [Fraction(0)] * ncols
            v[j] = Fraction(1)
            for k, pc in enumerate(pivots):
                v[pc] = -ref[k][j]
            lead = next(x for x in v if x != 0)
            expected.append([x / lead for x in v])
        basis = m.kernel()
        assert [list(v.entries) for v in basis] == expected, rows
        for v in basis:
            assert all(x == 0 for x in (m * v).entries)


def reference_product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def test_rational_product_matches_fraction_reference():
    rng = random.Random(404)
    for _ in range(300):
        # inner dimension 1 gives outer products, outer dimensions 1 give
        # 1 x n times n x 1; random_rows mixes in zero rows and columns
        nrows, inner, ncols = (rng.choice((1, rng.randint(1, 6))) for _ in range(3))
        a = random_rows(rng, nrows, inner)
        b = random_rows(rng, inner, ncols)
        if ncols > 1 and rng.random() < 0.3:
            j = rng.randrange(ncols)
            for row in b:
                row[j] = Fraction(0)
        prod = Matrix.from_rows(a, QQ) * Matrix.from_rows(b, QQ)
        assert (prod.rows, prod.cols) == (nrows, ncols)
        assert prod.to_rows() == reference_product(a, b), (a, b)
        assert all(type(x) is Fraction for x in prod.entries)


def test_rational_product_of_mixed_denominators():
    a = [[Fraction(1, 6), Fraction(-5, 4), Fraction(7, 10 ** 9)],
         [Fraction(0), Fraction(0), Fraction(0)]]
    b = [[Fraction(3, 7), Fraction(0)], [Fraction(2, 9), Fraction(-1, 8)],
         [Fraction(10 ** 9, 11), Fraction(1, 12)]]
    assert (Matrix.from_rows(a, QQ) * Matrix.from_rows(b, QQ)).to_rows() == \
        reference_product(a, b)


def raises_singular(m):
    try:
        m.inverse()
    except SingularMatrixError:
        return True
    return False


def test_rational_is_invertible_agrees_with_inverse():
    rng = random.Random(405)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = random_rows(rng, n, n) if rng.random() < 0.6 else \
            [[entry(rng) for _ in range(n)] for _ in range(n)]
        m = Matrix.from_rows(rows, QQ)
        singular = raises_singular(m)
        assert m.is_invertible() is not singular, rows
        seen.add(singular)
    assert seen == {True, False}


def test_rational_is_invertible_on_planted_singular_matrices():
    q = Fraction
    dependent = [[q(1, 2), q(2, 3), q(5)], [q(-3, 7), q(1), q(0)],
                 [q(1, 2) * q(4, 9) - q(3, 7), q(2, 3) * q(4, 9) + q(1), q(20, 9)]]
    zero_column = [[q(1), q(0), q(2)], [q(3, 5), q(0), q(-1)], [q(7), q(0), q(1, 9)]]
    late_pivot = [[q(0), q(0), q(1)], [q(0), q(2, 3), q(4)], [q(5, 8), q(1), q(1)]]
    for rows, invertible in ((dependent, False), (zero_column, False), (late_pivot, True)):
        m = Matrix.from_rows(rows, QQ)
        assert m.is_invertible() is invertible
        assert raises_singular(m) is not invertible


@pytest.mark.parametrize("field, sampler", [(QZ, lambda rng: rand_ratfunc(rng, 2)),
                                            (QW, rand_omega)], ids=["QQ(z)", "QQ(omega)"])
def test_exact_is_invertible_agrees_with_inverse(field, sampler):
    rng = random.Random(406)
    for n in (1, 2, 3):
        m = Matrix(n, n, [sampler(rng) for _ in range(n * n)], field)
        rows = m.to_rows()
        rows[-1] = [field.zero] * n
        dependent = Matrix.from_rows(rows[:-1] + [[2 * x for x in rows[0]]], field) \
            if n > 1 else Matrix.zero(1, 1, field)
        for case in (m, Matrix.from_rows(rows, field), dependent):
            assert case.is_invertible() is not raises_singular(case)
    assert not dependent.is_invertible()


def test_float_is_invertible_agrees_with_inverse():
    near = Matrix.from_rows([[1.0, 2.0], [0.5, 1.0 + 1e-12]], CC)  # within eps of singular
    far = Matrix.from_rows([[1.0, 2.0], [0.5, 1.5]], CC)
    assert not near.is_invertible() and raises_singular(near)
    assert far.is_invertible() and not raises_singular(far)


def test_sub_scalar_matches_subtracting_scaled_identity():
    rng = random.Random(407)
    cases = [(QQ, lambda: entry(rng)), (QZ, lambda: rand_ratfunc(rng, 2)),
             (QW, lambda: rand_omega(rng))]
    for field, sample in cases:
        for n in (1, 2, 3, 4):
            m = Matrix(n, n, [sample() for _ in range(n * n)], field)
            lam = sample()
            assert m.sub_scalar(lam) == m - Matrix.identity(n, field).scale(lam)


def test_sub_scalar_over_floats_is_bit_identical():
    # 0.0 * lam can be -0.0, and -0.0 - (-0.0) is +0.0: the entry-by-entry
    # difference is what prints, so the floating result must match it exactly
    values = [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0), complex(1.5, -2.0)]
    rng = random.Random(408)
    for _ in range(50):
        m = Matrix(3, 3, [rng.choice(values) for _ in range(9)], CC)
        lam = complex(rng.choice((-2.0, 0.5, -0.0)), rng.choice((0.25, -0.0, -1.0)))
        got = m.sub_scalar(lam)
        want = m - Matrix.identity(3, CC).scale(lam)
        assert [repr(x) for x in got.entries] == [repr(x) for x in want.entries]

"""Gauss-Jordan over QQ checked against a plain ``Fraction`` reference.

``Matrix.rref`` over QQ eliminates fraction-free on integers.  The
reference below is the textbook per-step loop over ``Fraction``s, pivoting
on the first nonzero entry.  The rref is unique, so the two must agree
entry for entry and on the pivot columns; ``inverse`` and ``kernel`` must
give what the reference rref implies.  Needs only the standard library.
"""

import random
from fractions import Fraction

import pytest

from braidrep import Matrix, QQ, SingularMatrixError


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

"""Tests for exact dense matrices: arithmetic, elimination, tensor products."""

import random
from fractions import Fraction
from math import comb

import pytest

from braidrep import (CC, Matrix, Poly, QQ, QW, QZ, RatFunc, SingularMatrixError,
                      char_poly, conjugate, vstack, xi)
from braidrep.fields import _reduced

from _gen import rand_fraction, rand_invertible, rand_matrix, rand_omega, rand_ratfunc


Z = RatFunc.gen()
ONE = QZ.one
ZERO = QZ.zero


def burau_sigma1():
    return Matrix.from_rows([[-Z, ZERO], [ONE, ONE]], QZ)


def burau_sigma2():
    return Matrix.from_rows([[ONE, Z], [ZERO, -Z]], QZ)


def mu_sigma2():
    d = (Z + ONE) ** 2
    w = Z * Z + Z + ONE
    return Matrix.from_rows([
        [Z ** 4 / d, (Z * Z) * w / d, w * w / d],
        [2 * Z ** 3 / d, Z * (Z * Z + ONE) / d, -(2 * w) / d],
        [(Z * Z) / d, -Z / d, ONE / d]], QZ)


# -- oracles used below ------------------------------------------------------

def adjugate_inverse_2x2(m):
    # independent of Gaussian elimination
    a, b, c, d = m.entries
    det = a * d - b * c
    i = m.field.inv(det)
    return Matrix.from_rows([[d * i, -b * i], [-c * i, a * i]], m.field)


def poly_from_roots(roots, field):
    # coefficient convolution of (t - r) factors, ascending in t
    out = [field.one]
    for r in roots:
        factor = [-r, field.one]
        prod = [field.zero] * (len(out) + 1)
        for i, x in enumerate(out):
            for j, y in enumerate(factor):
                prod[i + j] = prod[i + j] + x * y
        out = prod
    return out


def tpoly_eq(a, b, field):
    if len(a) != len(b):
        return False
    return all(field.eq(x, y) for x, y in zip(a, b))


# -- arithmetic --------------------------------------------------------------

def test_identity_neutral():
    m = burau_sigma1()
    assert Matrix.identity(2, QZ) * m == m


def test_inverse_roundtrip():
    a = burau_sigma1()
    assert a * a.inverse() == Matrix.identity(2, QZ)


def test_braid_identity_of_burau_matrices():
    a, b = burau_sigma1(), burau_sigma2()
    assert a * b * a == b * a * b


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        burau_sigma1() * Matrix.identity(3, QZ)


# -- inverse -----------------------------------------------------------------

def test_inverse_matches_adjugate_formula():
    p = Matrix.from_rows([[-(Z + ONE), ZERO], [ONE, ONE]], QZ)
    expected = adjugate_inverse_2x2(p)
    assert p.inverse() == expected
    # frozen closed form: [[-1/(z+1), 0], [1/(z+1), 1]]
    inv = p.inverse()
    assert inv[0, 0] == -ONE / (Z + ONE)
    assert inv[1, 0] == ONE / (Z + ONE)
    assert inv[0, 1] == ZERO and inv[1, 1] == ONE


def test_inverse_of_identity():
    ident = Matrix.identity(3, QQ)
    assert ident.inverse() == ident


def test_singular_matrix_rejected():
    m = Matrix.from_rows([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]], QQ)
    with pytest.raises(SingularMatrixError, match="not invertible"):
        m.inverse()


def _verdict(m, decide):
    try:
        return decide(m)
    except OverflowError as exc:
        return type(exc)


def _by_inverse(m):
    try:
        m.inverse()
    except SingularMatrixError:
        return False
    return True


def _float_cases(rng):
    """Seeded n x n matrices over CC, n = 1..4: random, rank-deficient, with a
    pivot just inside or just outside the 1e-9 tolerance, and near 1e150."""
    def gauss():
        return complex(rng.gauss(0, 1), rng.gauss(0, 1) * rng.choice((0, 1)))

    def randm(n, scale=1.0):
        return Matrix(n, n, [scale * gauss() for _ in range(n * n)], CC)

    for n in range(1, 5):
        for _ in range(30):
            yield randm(n)
            yield randm(n, 1e150)
            # rank n - 1: the last row is a combination of the others
            m = randm(n)
            rows = m.to_rows()
            coef = [gauss() for _ in range(n - 1)]
            rows[-1] = [sum((c * r[j] for c, r in zip(coef, rows)), 0j) for j in range(n)]
            yield Matrix.from_rows(rows, CC)
            yield Matrix.from_rows(rows, CC).scale(1e150)
        for t in (0.999e-9, 1.0e-9, 1.001e-9, 0.5e-9, 2e-9):
            for _ in range(10):
                diag = Matrix.diagonal([1.0] * (n - 1) + [t], CC)
                yield diag
                # the small pivot behind unit triangular changes of basis
                lower = Matrix(n, n, [1.0 if i == j else (rng.randint(-3, 3) if i > j else 0)
                                      for i in range(n) for j in range(n)], CC)
                upper = lower.transpose()
                yield lower * diag * upper
                yield (lower * diag * upper).scale(1e150)


def test_float_is_invertible_agrees_with_inverse():
    rng = random.Random(1616)
    verdicts = set()
    for m in _float_cases(rng):
        verdict = _verdict(m, Matrix.is_invertible)
        assert verdict == _verdict(m, _by_inverse), m.to_rows()
        verdicts.add(verdict)
    assert verdicts >= {True, False}


def test_float_singular_matrix_whose_inverse_overflows():
    # The elimination of [M | I] scales the second pivot row by 1/2e-8 and
    # clears the first row with it, which writes -1e301 * 5e7 = -inf into the
    # identity block, and a later zero test there raises OverflowError.  M's
    # own elimination has no identity block: its pivots say singular (the
    # last two rows are equal).
    m = Matrix.from_rows([[1.0, 1e301, 0.0], [0.0, 2e-8, 0.0], [0.0, 2e-8, 0.0]], CC)
    assert m.is_invertible() is False
    assert _verdict(m, _by_inverse) is OverflowError


@pytest.mark.parametrize("t, invertible", [(0.999e-9, False), (1.0e-9, False),
                                           (1.001e-9, True), (1.1e-9, True)])
def test_float_pivot_at_the_tolerance(t, invertible):
    for n in range(1, 5):
        m = Matrix.diagonal([1.0] * (n - 1) + [t], CC)
        assert m.is_invertible() is invertible
        assert _by_inverse(m) is invertible


def test_one_by_one_is_invertible_agrees_with_inverse():
    rng = random.Random(1717)
    cases = {
        QQ: [Fraction(0), Fraction(-3, 7), Fraction(10 ** 40, 3)]
        + [rand_fraction(rng) for _ in range(20)],
        QZ: [ZERO, ONE, Z, (Z + ONE) ** 3 / (Z - 2)]
        + [rand_ratfunc(rng, 3) for _ in range(20)],
        QW: [QW.zero, QW.one, QW.omega, QW.one + QW.omega]
        + [rand_omega(rng) for _ in range(20)],
        CC: [0j, 1.0, -2.5j, 1e300, 1e-300, 0.999e-9, 1.0e-9, 1.001e-9, -1.001e-9j,
             complex(0.8e-9, 0.6e-9), complex(0.8e-9, 0.7e-9)]
        + [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(20)],
    }
    for field, values in cases.items():
        verdicts = set()
        for v in values:
            m = Matrix(1, 1, [v], field)
            verdict = m.is_invertible()
            assert verdict is _by_inverse(m), (field, v)
            verdicts.add(verdict)
        assert verdicts == {True, False}, field


def test_one_by_one_high_degree_image_is_certified_without_inverse(monkeypatch):
    # (3/7*z + 1)^1024 / (z - 5/9)^1024, written from its binomial
    # coefficients as coprime parts: the power and the parse take seconds,
    # and inverting the 1x1 image (elimination of [M | I] at degree 1024 with
    # coefficients of about 3,900 bits) took about 110 s.
    n = 1024
    num = Poly([comb(n, k) * Fraction(3, 7) ** k for k in range(n + 1)])
    den = Poly([comb(n, k) * Fraction(-5, 9) ** (n - k) for k in range(n + 1)])
    entry = _reduced(num, den)

    def refuse(self):
        raise AssertionError("Matrix.inverse called")

    monkeypatch.setattr(Matrix, "inverse", refuse)
    assert Matrix(1, 1, [entry], QZ).is_invertible()
    assert xi(entry).images[0][0, 0] is entry


# -- kernel ------------------------------------------------------------------

def test_kernel_of_dense_generator_minus_identity():
    d = mu_sigma2()
    shifted = d - Matrix.identity(3, QZ)
    basis = shifted.kernel()
    assert len(basis) == 1
    assert basis[0] == Matrix.column([ONE, QZ.lift(-2), ONE], QZ)


def test_kernel_of_identity_empty():
    assert Matrix.identity(4, QQ).kernel() == []


def test_kernel_eigenvalue_minus_z():
    d = mu_sigma2()
    shifted = d - Matrix.identity(3, QZ).scale(-Z)
    basis = shifted.kernel()
    w = Z * Z + Z + ONE
    reference = Matrix.column([-w / Z, (Z * Z + ONE) / Z, ONE], QZ)
    normalized = reference.scale(QZ.inv(reference.entries[0]))
    assert basis == [normalized]


def test_kernel_vectors_annihilated_and_rank_nullity():
    rng = random.Random(7)
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = Matrix(rows, cols, [rand_fraction(rng, -3, 3) for _ in range(rows * cols)], QQ)
        basis = m.kernel()
        zero_col = Matrix.zero(rows, 1, QQ)
        for v in basis:
            assert m * v == zero_col
        _, pivots = m.rref()
        assert len(pivots) + len(basis) == cols


# -- kronecker ---------------------------------------------------------------

def test_kron_of_burau_sigma1():
    got = burau_sigma1().kron(burau_sigma1())
    expected = Matrix.from_rows([
        [Z * Z, ZERO, ZERO, ZERO],
        [-Z, -Z, ZERO, ZERO],
        [-Z, ZERO, -Z, ZERO],
        [ONE, ONE, ONE, ONE]], QZ)
    assert got == expected


def test_kron_of_burau_sigma2():
    got = burau_sigma2().kron(burau_sigma2())
    expected = Matrix.from_rows([
        [ONE, Z, Z, Z * Z],
        [ZERO, -Z, ZERO, -(Z * Z)],
        [ZERO, ZERO, -Z, -(Z * Z)],
        [ZERO, ZERO, ZERO, Z * Z]], QZ)
    assert got == expected


def kron_by_definition(a, b):
    return [[a[i // b.rows, j // b.cols] * b[i % b.rows, j % b.cols]
             for j in range(a.cols * b.cols)] for i in range(a.rows * b.rows)]


def test_kron_of_rectangular_matrices_with_zeros_matches_definition():
    rng = random.Random(47)
    for _ in range(10):
        a = Matrix(2, 3, [rand_fraction(rng, -2, 2) for _ in range(6)], QQ)
        b = Matrix(3, 2, [rand_fraction(rng) for _ in range(6)], QQ)
        assert a.kron(b).to_rows() == kron_by_definition(a, b)
    # floating products are taken even for zeros: 0.0 * -2.0 is -0.0
    a = Matrix.from_rows([[0.0, 1.5]], CC)
    b = Matrix.from_rows([[-2.0], [3.0]], CC)
    got = a.kron(b)
    assert [repr(x) for x in got.entries] == \
        [repr(x) for row in kron_by_definition(a, b) for x in row]
    assert repr(got[0, 0]) == "(-0+0j)"


def test_kron_identities():
    i2 = Matrix.identity(2, QQ)
    assert i2.kron(i2) == Matrix.identity(4, QQ)


def test_kron_mixed_product_property():
    rng = random.Random(31)
    for _ in range(15):
        a, b, c, d = (rand_matrix(rng, 2, QQ, rand_fraction) for _ in range(4))
        assert a.kron(b) * c.kron(d) == (a * c).kron(b * d)


def test_trace_of_kron_multiplies():
    rng = random.Random(43)
    for _ in range(15):
        a = rand_matrix(rng, 2, QQ, rand_fraction)
        b = rand_matrix(rng, 3, QQ, rand_fraction)
        assert a.kron(b).trace() == a.trace() * b.trace()


# -- conjugation -------------------------------------------------------------

def test_conjugation_diagonalizes_first_burau_generator():
    p = Matrix.from_rows([[-(Z + ONE), ZERO], [ONE, ONE]], QZ)
    got = conjugate(p, burau_sigma1())
    assert got == Matrix.diagonal([-Z, ONE], QZ)


def test_conjugation_of_second_burau_generator():
    p = Matrix.from_rows([[-(Z + ONE), ZERO], [ONE, ONE]], QZ)
    got = conjugate(p, burau_sigma2())
    w = Z * Z + Z + ONE
    expected = Matrix.from_rows([
        [ONE / (Z + ONE), -Z / (Z + ONE)],
        [-w / (Z + ONE), -(Z * Z) / (Z + ONE)]], QZ)
    assert got == expected


def test_conjugation_by_identity():
    m = burau_sigma2()
    assert conjugate(Matrix.identity(2, QZ), m) == m


def test_conjugation_is_multiplicative():
    rng = random.Random(3)
    for _ in range(12):
        p = rand_invertible(rng, 3, QQ, rand_fraction)
        m = rand_matrix(rng, 3, QQ, rand_fraction)
        n = rand_matrix(rng, 3, QQ, rand_fraction)
        assert conjugate(p, m * n) == conjugate(p, m) * conjugate(p, n)


def test_conjugation_by_singular_matrix_rejected():
    p = Matrix.from_rows([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]], QQ)
    with pytest.raises(SingularMatrixError):
        conjugate(p, Matrix.identity(2, QQ))


# -- characteristic polynomials ----------------------------------------------

def test_char_poly_of_two_by_two_diagonal():
    m = Matrix.diagonal([-Z, ONE], QZ)
    assert tpoly_eq(char_poly(m), poly_from_roots([-Z, ONE], QZ), QZ)
    # frozen expansion: t^2 + (z-1)t - z
    assert char_poly(m) == [-Z, Z - ONE, ONE]


def test_char_poly_of_three_by_three_diagonal():
    m = Matrix.diagonal([ONE, -Z, Z * Z], QZ)
    assert tpoly_eq(char_poly(m), poly_from_roots([ONE, -Z, Z * Z], QZ), QZ)


def test_char_poly_of_burau_generator_matches_trace_det_formula():
    m = burau_sigma1()
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    assert char_poly(m) == [det, -tr, ONE]
    # same spectrum as the diagonalized form
    assert char_poly(m) == char_poly(Matrix.diagonal([-Z, ONE], QZ))


def test_char_poly_invariant_under_conjugation():
    rng = random.Random(17)
    for _ in range(10):
        m = rand_matrix(rng, 3, QQ, rand_fraction)
        p = rand_invertible(rng, 3, QQ, rand_fraction)
        assert tpoly_eq(char_poly(m), char_poly(conjugate(p, m)), QQ)


def test_char_poly_size_cap():
    with pytest.raises(ValueError):
        char_poly(Matrix.identity(5, QQ))


# -- structure helpers -------------------------------------------------------

def test_triangularity_predicates():
    assert burau_sigma1().is_lower_triangular()
    assert burau_sigma2().is_upper_triangular()
    assert not burau_sigma2().is_lower_triangular()


def test_delete_row_col():
    m = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]], QQ)
    assert m.delete_row_col(1, 1) == Matrix.from_rows([[1, 3], [7, 9]], QQ)


def test_vstack_kernel_intersects():
    a = Matrix.from_rows([[1, 1, 0]], QQ)
    b = Matrix.from_rows([[0, 1, 1]], QQ)
    basis = vstack([a, b]).kernel()
    assert basis == [Matrix.column([Fraction(1), Fraction(-1), Fraction(1)], QQ)]

"""Tests for exact dense matrices: arithmetic, elimination, tensor products."""

import random
from fractions import Fraction

import pytest

from braidrep import (Matrix, QQ, QZ, RatFunc, SingularMatrixError,
                      char_poly, conjugate, vstack)

from _gen import rand_fraction, rand_invertible, rand_matrix


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


# -- kernel ------------------------------------------------------------------

def test_kernel_of_dense_generator_minus_identity():
    d = mu_sigma2()
    shifted = d - Matrix.identity(3, QZ)
    basis = shifted.kernel()
    assert len(basis) == 1
    assert basis[0] == Matrix.column([ONE, QZ.of_int(-2), ONE], QZ)


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

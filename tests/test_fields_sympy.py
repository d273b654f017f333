"""The exact kernel checked against sympy as an independent oracle.

Polynomial gcd, division with remainder, the canonical form of a rational
function, powers, and Gauss-Jordan services over QQ(z) are each computed
by braidrep and by sympy on seeded random inputs; the results must agree
exactly.  sympy is used only here, never by the library.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.matrices import DomainMatrix  # noqa: E402

from braidrep import Matrix, Poly, QQ, QZ, RatFunc, poly_gcd  # noqa: E402

from _gen import rand_fraction, rand_matrix, rand_poly, rand_ratfunc  # noqa: E402

z = sympy.symbols("z")
KZ = sympy.QQ.frac_field(z)


def sp_poly(p: Poly):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly.from_list(coeffs or [0], z, domain="QQ")


def coeff_list(P) -> list:
    """Ascending Fraction coefficients of a sympy polynomial, [] for zero."""
    if P.is_zero:
        return []
    return [Fraction(int(c.p), int(c.q)) for c in reversed(P.all_coeffs())]


def canonical(N, D):
    """sympy's reduced form of N/D with a monic denominator, as coefficient lists."""
    if N.is_zero:
        return [], [Fraction(1)]
    g = sympy.gcd(N, D)
    N, D = N.exquo(g), D.exquo(g)
    lc = D.LC()
    return coeff_list(N.quo_ground(lc)), coeff_list(D.quo_ground(lc))


def to_kz(v: RatFunc):
    return KZ.convert(sp_poly(v.num).as_expr()) / KZ.convert(sp_poly(v.den).as_expr())


def sp_entry(field, v):
    return to_kz(v) if field is QZ else sympy.QQ(v.numerator, v.denominator)


def to_dm(m: Matrix):
    domain = KZ if m.field is QZ else sympy.QQ
    rows = [[sp_entry(m.field, m[i, j]) for j in range(m.cols)] for i in range(m.rows)]
    return DomainMatrix(rows, (m.rows, m.cols), domain)


def varied_polys(rng, count, max_degree=4):
    """Random polynomials, with zero, constants and negative leads among them."""
    fixed = [Poly(), Poly([3]), Poly([Fraction(-2, 5)]), Poly([0, -1]), Poly([1, 0, -4])]
    out = list(fixed)
    while len(out) < count:
        p = rand_poly(rng, max_degree)
        out.append(-p if rng.random() < 0.5 else p)
    return out


# -- polynomials ---------------------------------------------------------------

def test_gcd_matches_sympy():
    rng = random.Random(301)
    polys = varied_polys(rng, 30)
    pairs = [(a, b) for a in polys[:6] for b in polys[:6]]
    for _ in range(120):
        d = rand_poly(rng, 2, nonzero=True)
        a, b = rng.choice(polys), rng.choice(polys)
        pairs.append((d * a, d * b))
        pairs.append((-(d * a), d * b * d))
    for a, b in pairs:
        g = poly_gcd(a, b)
        assert g.coeffs == tuple(coeff_list(sympy.gcd(sp_poly(a), sp_poly(b)))), (a, b)


def test_divmod_matches_sympy():
    rng = random.Random(302)
    polys = varied_polys(rng, 40, max_degree=6)
    for a in polys:
        for _ in range(4):
            b = rand_poly(rng, 3, nonzero=True)
            b = -b if rng.random() < 0.5 else b
            q, r = divmod(a, b)
            sq, sr = sympy.div(sp_poly(a), sp_poly(b))
            assert (list(q.coeffs), list(r.coeffs)) == (coeff_list(sq), coeff_list(sr)), (a, b)
            assert q * b + r == a


def test_poly_powers_match_sympy():
    rng = random.Random(303)
    for p in varied_polys(rng, 20, max_degree=3):
        for n in range(7):
            assert list((p ** n).coeffs) == coeff_list(sp_poly(p) ** n), (p, n)
        with pytest.raises(ValueError):
            p ** -1


# -- canonical rational functions -------------------------------------------------

def test_normalization_matches_sympy():
    rng = random.Random(304)
    cases = []
    for num in varied_polys(rng, 12):
        cases.append((num, Poly([Fraction(-3, 7)])))  # constant, negative denominator
        cases.append((num, Poly([5])))
    for _ in range(150):
        d = rand_poly(rng, 2, nonzero=True)
        num, den = rand_poly(rng, 3), rand_poly(rng, 3, nonzero=True)
        if rng.random() < 0.5:
            den = -den
        cases.append((num, den))
        cases.append((d * num, d * den))
    for num, den in cases:
        r = RatFunc(num, den)
        expected = canonical(sp_poly(num), sp_poly(den))
        assert (list(r.num.coeffs), list(r.den.coeffs)) == expected, (num, den)


def test_ratfunc_powers_match_sympy():
    rng = random.Random(305)
    values = [rand_ratfunc(rng, 2) for _ in range(25)] + [RatFunc(Poly([0, -2]), Poly([3, 1]))]
    for v in values:
        for n in range(-4, 5):
            if n < 0 and v.is_zero():
                with pytest.raises(ZeroDivisionError):
                    v ** n
                continue
            got = v ** n
            base = to_kz(v) if n >= 0 else 1 / to_kz(v)
            assert to_kz(got) == base ** abs(n), (v, n)
            # the power is already in canonical form
            parts = (list(got.num.coeffs), list(got.den.coeffs))
            assert parts == canonical(sp_poly(got.num), sp_poly(got.den)), (v, n)


def test_ratfunc_arithmetic_matches_sympy():
    rng = random.Random(306)
    for _ in range(60):
        a, b = rand_ratfunc(rng, 3), rand_ratfunc(rng, 3, nonzero=True)
        A, B = to_kz(a), to_kz(b)
        assert to_kz(a + b) == A + B
        assert to_kz(a - b) == A - B
        assert to_kz(a * b) == A * B
        assert to_kz(a / b) == A / B


# -- Gauss-Jordan over QQ(z) and QQ ------------------------------------------------

def small_ratfunc(rng):
    return rand_ratfunc(rng, 1)


def rank_deficient(rng, field, sampler, rows, cols):
    """A rows x cols matrix whose last row combines the ones above it."""
    top = rand_matrix(rng, cols, field, sampler).to_rows()[:rows - 1]
    a, b = sampler(rng), sampler(rng)
    last = [a * x + b * y for x, y in zip(top[0], top[-1])]
    return Matrix.from_rows(top + [last], field)


FIELDS = [(QZ, small_ratfunc), (QQ, lambda rng: rand_fraction(rng))]


@pytest.mark.parametrize("field,sampler", FIELDS, ids=["QQ(z)", "QQ"])
def test_rref_matches_sympy(field, sampler):
    rng = random.Random(307)
    mats = [rand_matrix(rng, 3, field, sampler) for _ in range(4)]
    mats += [rank_deficient(rng, field, sampler, 3, 4) for _ in range(4)]
    for m in mats:
        red, pivots = m.rref()
        sred, spivots = to_dm(m).rref()
        assert pivots == tuple(spivots)
        assert to_dm(red) == sred


@pytest.mark.parametrize("field,sampler", FIELDS, ids=["QQ(z)", "QQ"])
def test_inverse_matches_sympy(field, sampler):
    rng = random.Random(308)
    checked = 0
    while checked < 4:
        m = rand_matrix(rng, 3, field, sampler)
        sm = to_dm(m)
        if sm.rank() < 3:
            continue
        assert to_dm(m.inverse()) == sm.inv()
        checked += 1


@pytest.mark.parametrize("field,sampler", FIELDS, ids=["QQ(z)", "QQ"])
def test_kernel_matches_sympy(field, sampler):
    rng = random.Random(309)
    for _ in range(4):
        m = rank_deficient(rng, field, sampler, 3, 4)
        basis = m.kernel()
        sm = to_dm(m)
        assert len(basis) == len(sm.nullspace().to_Matrix().tolist())
        for v in basis:
            assert (sm * to_dm(v)).is_zero_matrix
            lead = next(e for e in v.entries if not field.is_zero(e))
            assert lead == field.one
        if basis:
            stacked = DomainMatrix.hstack(*[to_dm(v) for v in basis])
            assert stacked.rank() == len(basis)

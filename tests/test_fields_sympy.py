"""The exact kernel checked against sympy as an independent oracle.

Polynomial gcd, division with remainder, the canonical form of a rational
function, powers, arithmetic in QQ(omega), and Gauss-Jordan services over
QQ, QQ(z) and QQ(omega) are each computed by braidrep and by sympy on
seeded random inputs; the results must agree exactly.  sympy is used only
here, never by the library.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.matrices import DomainMatrix  # noqa: E402

from braidrep import (Matrix, Omega, Poly, QQ, QW, QZ, RatFunc, char_poly,  # noqa: E402
                      poly_gcd)

from _gen import (rand_fraction, rand_matrix, rand_omega, rand_poly,  # noqa: E402
                  rand_ratfunc)

z = sympy.symbols("z")
KZ = sympy.QQ.frac_field(z)
KW = sympy.QQ.algebraic_field(sympy.sqrt(-3))
OMEGA = KW.from_sympy((-1 + sympy.sqrt(-3)) / 2)


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


def to_kw(v: Omega):
    return KW.convert(sympy.QQ(v.a.numerator, v.a.denominator)) + \
        KW.convert(sympy.QQ(v.b.numerator, v.b.denominator)) * OMEGA


def sp_entry(field, v):
    if field is QZ:
        return to_kz(v)
    if field is QW:
        return to_kw(v)
    return sympy.QQ(v.numerator, v.denominator)


def to_dm(m: Matrix):
    domain = {QZ: KZ, QW: KW}.get(m.field, sympy.QQ)
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


# -- QQ(omega) --------------------------------------------------------------------

def test_omega_arithmetic_matches_sympy():
    rng = random.Random(310)
    values = [rand_omega(rng) for _ in range(40)]
    values += [Omega(0, 0), Omega(1, 0), Omega(0, 1), Omega(-1, -1),
               Omega(Fraction(1, 2), Fraction(-1, 2)), Omega(Fraction(-7, 6), Fraction(5, 4))]
    for _ in range(80):
        a, b = rng.choice(values), rng.choice(values)
        A, B = to_kw(a), to_kw(b)
        assert to_kw(a + b) == A + B, (a, b)
        assert to_kw(a - b) == A - B, (a, b)
        assert to_kw(a * b) == A * B, (a, b)
        assert to_kw(-a) == -A, a
        if not b.is_zero():
            assert to_kw(b.inv()) == KW.one / B, b
            assert to_kw(a / b) == A / B, (a, b)
    for v in values:
        for n in range(-5, 6):
            if n < 0 and v.is_zero():
                with pytest.raises(ZeroDivisionError):
                    v ** n
                continue
            base = to_kw(v) if n >= 0 else KW.one / to_kw(v)
            assert to_kw(v ** n) == base ** abs(n), (v, n)


# -- Gauss-Jordan over QQ(z), QQ and QQ(omega) ------------------------------------

def small_ratfunc(rng):
    return rand_ratfunc(rng, 1)


def rank_deficient(rng, field, sampler, rows, cols):
    """A rows x cols matrix whose last row combines the ones above it."""
    top = rand_matrix(rng, cols, field, sampler).to_rows()[:rows - 1]
    a, b = sampler(rng), sampler(rng)
    last = [a * x + b * y for x, y in zip(top[0], top[-1])]
    return Matrix.from_rows(top + [last], field)


FIELDS = [(QZ, small_ratfunc), (QQ, lambda rng: rand_fraction(rng)),
          (QW, lambda rng: rand_omega(rng))]
FIELD_IDS = ["QQ(z)", "QQ", "QQ(omega)"]


@pytest.mark.parametrize("field,sampler", FIELDS, ids=FIELD_IDS)
def test_rref_matches_sympy(field, sampler):
    rng = random.Random(307)
    mats = [rand_matrix(rng, 3, field, sampler) for _ in range(4)]
    mats += [rank_deficient(rng, field, sampler, 3, 4) for _ in range(4)]
    for m in mats:
        red, pivots = m.rref()
        sred, spivots = to_dm(m).rref()
        assert pivots == tuple(spivots)
        assert to_dm(red) == sred


@pytest.mark.parametrize("field,sampler", FIELDS, ids=FIELD_IDS)
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


@pytest.mark.parametrize("field,sampler", FIELDS, ids=FIELD_IDS)
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


def shaped_rational(rng, rows, cols, pivots, zero_rows=()):
    """A rows x cols rational matrix whose rref has exactly the given pivots.

    The rows of a random echelon matrix with those pivot columns are mixed
    by random rational combinations, then zero rows are put in at the
    requested places, so pivot columns can be missing anywhere.
    """
    rank = len(pivots)
    echelon = []
    for k, p in enumerate(pivots):
        row = [Fraction(0)] * cols
        row[p] = Fraction(1)
        for j in range(p + 1, cols):
            if j not in pivots:
                row[j] = rand_fraction(rng, -40, 40)
        echelon.append(row)
    while True:
        mix = [[rand_fraction(rng) for _ in range(rank)] for _ in range(rows - len(zero_rows))]
        if DomainMatrix([[sympy.QQ(c.numerator, c.denominator) for c in r] for r in mix],
                        (len(mix), rank), sympy.QQ).rank() == rank:
            break
    out = [[sum((mix[i][k] * echelon[k][j] for k in range(rank)), Fraction(0))
            for j in range(cols)] for i in range(len(mix))]
    for i in sorted(zero_rows):
        out.insert(i, [Fraction(0)] * cols)
    return Matrix.from_rows(out, QQ)


def test_rref_of_shaped_rank_deficient_rationals_matches_sympy():
    rng = random.Random(311)
    mats = [shaped_rational(rng, 4, 6, (0, 2, 5)),
            shaped_rational(rng, 5, 7, (1, 3, 4), zero_rows=(2,)),
            shaped_rational(rng, 3, 5, (0, 4), zero_rows=(0,)),
            shaped_rational(rng, 6, 9, (0, 1, 4, 6, 8), zero_rows=(5,)),
            shaped_rational(rng, 4, 4, (2,), zero_rows=(1, 3)),
            Matrix.zero(3, 4, QQ)]
    for _ in range(30):
        rows, cols = rng.randint(2, 6), rng.randint(2, 9)
        rank = rng.randint(1, min(rows, cols))
        pivots = tuple(sorted(rng.sample(range(cols), rank)))
        zero_rows = tuple(sorted(rng.sample(range(rows), rng.randint(0, rows - rank))))
        mats.append(shaped_rational(rng, rows, cols, pivots, zero_rows))
    # wide [M | I] blocks, as inverse builds them, with M invertible or not
    for _ in range(10):
        n = rng.randint(2, 5)
        m = rand_matrix(rng, n, QQ, lambda r: rand_fraction(r))
        if rng.random() < 0.5:
            m = shaped_rational(rng, n, n, tuple(sorted(rng.sample(range(n), n - 1))))
        ident = Matrix.identity(n, QQ)
        mats.append(Matrix.from_rows([list(m.row(i)) + list(ident.row(i)) for i in range(n)], QQ))
    for m in mats:
        red, pivots = m.rref()
        sred, spivots = to_dm(m).rref()
        assert pivots == tuple(spivots), m.to_rows()
        assert to_dm(red) == sred, m.to_rows()
        basis = m.kernel()
        assert len(basis) == m.cols - len(pivots)
        for v in basis:
            assert (to_dm(m) * to_dm(v)).is_zero_matrix


# -- characteristic polynomials ---------------------------------------------------

@pytest.mark.parametrize("field,sampler", FIELDS, ids=FIELD_IDS)
def test_char_poly_matches_sympy(field, sampler):
    rng = random.Random(312)
    mats = []
    for n in range(1, 5):
        mats += [rand_matrix(rng, n, field, sampler) for _ in range(8)]
        mats.append(Matrix.zero(n, n, field))
        if n > 1:
            mats.append(rank_deficient(rng, field, sampler, n, n))
    for m in mats:
        got = char_poly(m)
        assert len(got) == m.rows + 1
        assert [sp_entry(field, c) for c in reversed(got)] == to_dm(m).charpoly(), m.to_rows()

"""Tests for the exact scalar kernel: polynomials, QQ(z), QQ(omega), floats."""

import random
from fractions import Fraction

import pytest

from braidrep import (CC, Omega, Poly, PoleError, QQ, QW, QZ, RatFunc, field_of,
                      format_scalar, join, poly_gcd, TagMismatchError)
from braidrep.fields import Field, common_denominator

from _gen import rand_fraction, rand_omega, rand_poly, rand_ratfunc


Z = Poly.gen()


# -- polynomial gcd ----------------------------------------------------------

def test_gcd_common_linear_factor():
    # (z-1)(z+1) and (z+1)^2 share exactly z+1
    assert poly_gcd(Poly([-1, 0, 1]), Poly([1, 2, 1])) == Poly([1, 1])


def test_gcd_with_zero_is_monic_multiple():
    p = Poly([2, 4])
    g = poly_gcd(p, Poly())
    assert g == Poly([Fraction(1, 2), 1]).scale(2).monic()
    assert g.lead == 1
    assert poly_gcd(Poly(), Poly()) == Poly()


def test_gcd_quadratic_divides_cubic():
    # z^3 - 1 = (z - 1)(z^2 + z + 1)
    assert poly_gcd(Poly([1, 1, 1]), Poly([-1, 0, 0, 1])) == Poly([1, 1, 1])


def test_gcd_divides_both_and_is_divided_by_common_divisors():
    rng = random.Random(11)
    for _ in range(60):
        d = rand_poly(rng, 2, nonzero=True)
        p = d * rand_poly(rng, 2)
        q = d * rand_poly(rng, 2)
        g = poly_gcd(p, q)
        if g.is_zero():
            assert p.is_zero() and q.is_zero()
            continue
        assert divmod(p, g)[1].is_zero()
        assert divmod(q, g)[1].is_zero()
        assert divmod(g, d)[1].is_zero()


def test_poly_built_from_ints_or_fractions_is_one_value():
    pairs = [(Poly([1, 2, 3]), Poly([Fraction(1), Fraction(4, 2), Fraction(3)])),
             (Poly([0, 0]), Poly([Fraction(0)])),
             (Poly([Fraction(1, 2), 1]), Poly([1, 2]).scale(Fraction(1, 2))),
             (Poly([6, 0, 0]), Poly.const(Fraction(12, 2)))]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
    assert Poly([1, 2]) != Poly([Fraction(1, 2), 1])
    assert RatFunc(Poly([2, 4])) == RatFunc(Poly([Fraction(2), Fraction(4)]), Poly([1]))
    assert hash(RatFunc(Poly([2, 4]), Poly([2]))) == hash(RatFunc(Poly([1, 2])))


def test_omega_built_from_ints_or_fractions_is_one_value():
    half = Fraction(1, 2)
    pairs = [(Omega(3, 0), Omega(Fraction(6, 2), Fraction(0))),
             (Omega(half, -1), Omega(Fraction(2, 4), Fraction(-3, 3))),
             (Omega(0, 1) * Omega(0, 1), Omega(-1, -1)),
             (Omega(half, half) * 2, Omega(1, 1)),
             (Omega(0, 0), Omega(Fraction(0), 0))]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
    assert Omega(3, 0) == 3 and 3 == Omega(3, 0)
    assert Omega(half, 0) == half and half == Omega(half, 0)
    assert Omega(half, 1) != half and Omega(3, 1) != 3
    assert Omega(1, half) != Omega(1, 1)
    for v in (Omega(half, Fraction(-4, 3)), Omega(5, 0), Omega(0, 0)):
        assert type(v.a) is Fraction and type(v.b) is Fraction


def test_poly_coefficients_are_fractions():
    p = Poly([Fraction(1, 2), 0, 3]) * 2
    assert p.coeffs == (Fraction(1), Fraction(0), Fraction(6))
    assert all(type(c) is Fraction for c in p.coeffs)
    assert type(p.coeff(1)) is Fraction and type(p.coeff(7)) is Fraction
    assert type(p.lead) is Fraction and p.lead == 6
    assert Poly().coeffs == () and Poly([0, 0]).degree == -1
    assert repr(Poly([Fraction(1, 2), 1])) == "Poly([Fraction(1, 2), Fraction(1, 1)])"


# -- canonical fractions -----------------------------------------------------

def test_normalize_cancels():
    r = RatFunc(Poly([-1, 0, 1]), Poly([-1, 1]))
    assert r == RatFunc(Poly([1, 1]))
    assert r.den == Poly([1])


def test_normalize_removes_content():
    assert RatFunc(Poly([0, 2]), Poly([2])) == RatFunc.gen()


def test_normalize_monic_denominator():
    num = Poly([0, 1]) * Poly([1, 1, 1])
    r = RatFunc(num, Poly([1, 1]) ** 2)
    assert r.den == Poly([1, 2, 1])
    assert r.den.lead == 1
    assert r.num == Poly([0, 1, 1, 1])


def test_normalize_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError, match="division by zero polynomial"):
        RatFunc(Poly([1]), Poly())


def test_normalize_idempotent():
    rng = random.Random(5)
    for _ in range(80):
        num, den = rand_poly(rng, 3), rand_poly(rng, 3, nonzero=True)
        once = RatFunc(num, den)
        again = RatFunc(once.num, once.den)
        assert once == again


# -- field operations --------------------------------------------------------

def test_omega_inverse_is_square():
    w = Omega(0, 1)
    assert w.inv() == Omega(-1, -1)
    assert w * w == Omega(-1, -1)
    assert w ** 3 == Omega(1, 0)


def test_omega_defining_relation():
    w = Omega(0, 1)
    assert w * w + w + 1 == Omega(0, 0)


def test_ratfunc_inverse():
    r = RatFunc(Poly([1]), Poly([1, 1]))
    assert r * (RatFunc.gen() + 1) == RatFunc(1)


def test_tag_mixing_rejected():
    with pytest.raises(TypeError):
        RatFunc.gen() + Omega(0, 1)
    with pytest.raises(TagMismatchError):
        join(RatFunc.gen(), Omega(1, 0))
    with pytest.raises(TagMismatchError):
        QW.coerce(RatFunc.gen())


def test_exact_fields_share_one_descriptor_and_accept_what_they_embed():
    assert all(isinstance(f, Field) for f in (QQ, QZ, QW, CC))
    assert QQ.coerce(3) == Fraction(3) and QQ.coerce(Fraction(1, 2)) == Fraction(1, 2)
    assert QZ.coerce(Z + 1) == RatFunc(Poly([1, 1]))
    assert QZ.coerce(Fraction(2)) == QZ.lift(2) == RatFunc(2)
    assert QW.coerce(-1) == Omega(-1, 0)
    assert CC.coerce(3) == CC.lift(Fraction(3)) == complex(3.0)
    assert CC.coerce(Fraction(1, 3)) == complex(1 / 3) and CC.coerce(0.5) == complex(0.5)
    rejected = [(QQ, True), (QQ, Z), (QQ, RatFunc.gen()), (QQ, 0.5), (QZ, False),
                (QZ, Omega(0, 1)), (QZ, 0.5), (QW, True), (QW, Z), (QW, complex(1)),
                (CC, True), (CC, Z), (CC, Omega(0, 1)), (CC, "1")]
    for field, value in rejected:
        with pytest.raises(TagMismatchError, match=r"^cannot place .* in "):
            field.coerce(value)
    frac = Fraction(5, 7)
    assert QQ.lift(frac) is frac


def test_rationals_lift_into_larger_fields():
    a, b, field = join(Fraction(1, 2), RatFunc.gen())
    assert field is QZ
    assert a == RatFunc(Fraction(1, 2))
    a, b, field = join(Omega(0, 1), Fraction(3))
    assert field is QW
    assert b == Omega(3, 0)


@pytest.mark.parametrize("sampler", [rand_ratfunc, rand_omega])
def test_field_axioms(sampler):
    rng = random.Random(23)
    for _ in range(40):
        a, b, c = sampler(rng), sampler(rng), sampler(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        n = sampler(rng, nonzero=True)
        assert n * n.inv() == n.inv() * n
        assert (n * n.inv()) * a == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        RatFunc(0).inv()
    with pytest.raises(ZeroDivisionError):
        Omega(0, 0).inv()
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


# -- evaluation --------------------------------------------------------------

def hump():
    # z(z^2+z+1)/(z+1)^2
    return RatFunc(Poly([0, 1]) * Poly([1, 1, 1]), Poly([1, 1]) ** 2)


def test_evaluate_at_one():
    assert hump().evaluate(Fraction(1)) == Fraction(3, 4)


def test_evaluate_at_omega_kills_quadratic_factor():
    assert hump().evaluate(Omega(0, 1)) == Omega(0, 0)


def test_evaluate_pole():
    r = RatFunc(Poly([1]), Poly([1, 1]))
    with pytest.raises(PoleError, match="pole"):
        r.evaluate(Fraction(-1))


def _value_by_fractions(poly, q):
    return sum((c * q ** k for k, c in enumerate(poly.coeffs)), Fraction(0))


def _exact_cases(rng):
    """Seeded (function, point) pairs: random functions at Fraction and int
    points, plus a zero numerator and constant and non-integral
    denominators."""
    z = Poly.gen()
    fixed = [RatFunc(0), RatFunc(Poly([3, -2, 5])), RatFunc(z + 1, Fraction(3, 7)),
             RatFunc(Poly([1, 0, 4]), Poly([Fraction(-2, 3), 1])),
             RatFunc(Poly([Fraction(5, 2), 1]), Poly([Fraction(1, 6), Fraction(-5, 9), 1]))]
    for r in fixed:
        for q in (0, 1, -2, Fraction(7, 3), Fraction(-11, 12)):
            yield r, q
    for _ in range(300):
        r = rand_ratfunc(rng, max_degree=5)
        yield r, rand_fraction(rng, -30, 30)
        yield r, rng.randint(-20, 20)


def test_evaluate_at_rationals_is_fraction_arithmetic():
    rng = random.Random(16)
    poles = 0
    for r, q in _exact_cases(rng):
        den = _value_by_fractions(r.den, q)
        if den == 0:
            poles += 1
            with pytest.raises(PoleError, match="pole"):
                r.evaluate(q)
            continue
        value = r.evaluate(q)
        assert type(value) is Fraction
        assert value == _value_by_fractions(r.num, q) / den
    assert poles > 0


@pytest.mark.parametrize("den, root", [
    (Poly([Fraction(-2, 3), 1]), Fraction(2, 3)),
    (Poly([-2, 3]), Fraction(2, 3)),
    (Poly([10, 7, 1]), -5),
    (Poly([10, 7, 1]), Fraction(-2)),
    (Poly([0, 0, 1]), 0),
])
def test_evaluate_at_a_root_of_the_denominator_is_a_pole(den, root):
    r = RatFunc(Poly([1, 1, 1]), den)
    with pytest.raises(PoleError, match="pole at specialization point"):
        r.evaluate(root)


def test_evaluate_float_tag():
    v = hump().evaluate(complex(1.0))
    assert abs(v - 0.75) < 1e-12


def test_exact_float_agreement():
    rng = random.Random(99)
    checked = 0
    while checked < 60:
        r = rand_ratfunc(rng)
        c = rand_fraction(rng)
        try:
            exact = r.evaluate(c)
        except PoleError:
            continue
        floated = r.evaluate(complex(float(c)))
        assert abs(floated - float(exact)) < 1e-9 * (1 + abs(float(exact)))
        checked += 1


# -- misc --------------------------------------------------------------------

def test_field_of_dispatch():
    assert field_of(Fraction(1)) is QQ
    assert field_of(RatFunc.gen()) is QZ
    assert field_of(Omega(0, 1)) is QW
    assert field_of(complex(2)) is CC


def test_float_equality_is_scale_relative():
    assert CC.eq(complex(1e12), complex(1e12 + 1))
    assert not CC.eq(complex(0), complex(1e-3))


@pytest.mark.parametrize("value", [complex(float("inf")), complex(1e308, float("-inf")),
                                   complex(float("nan"))], ids=["inf", "inf-imag", "nan"])
def test_float_equality_and_zero_test_refuse_non_finite_values(value):
    with pytest.raises(OverflowError, match="floating-point overflow"):
        CC.eq(value, value)
    with pytest.raises(OverflowError, match="floating-point overflow"):
        CC.eq(complex(1), value)
    with pytest.raises(OverflowError, match="floating-point overflow"):
        CC.is_zero(value)
    assert CC.eq(complex(1e308), complex(1e308)) and not CC.is_zero(complex(1e308))


# -- common denominators -----------------------------------------------------

def test_common_denominator_over_qq_is_the_lcm():
    values = [Fraction(1, 6), Fraction(0), Fraction(-3, 4), Fraction(5)]
    assert common_denominator(values) == (12, [2, 0, -9, 60])


def test_common_denominator_keeps_only_the_highest_power_of_a_factor():
    z, one = QZ.gen, QZ.one
    values = [one / (z + 1), z / (z + 1) ** 3, (z + 2) / (2 * (z + 1) ** 2), QZ.zero, z]
    d, nums = common_denominator(values)
    assert d == 2 * (Z + 1) ** 3
    assert nums == [2 * (Z + 1) ** 2, 2 * Z, (Z + 2) * (Z + 1), Poly(), 2 * Z * (Z + 1) ** 3]


@pytest.mark.parametrize("seed", range(5))
def test_common_denominator_over_qz_clears_every_denominator(seed):
    rng = random.Random(seed)
    values = [rand_ratfunc(rng, 2) for _ in range(9)]
    d, nums = common_denominator(values)
    assert all(p.den == 1 for p in [d] + nums)
    assert [RatFunc(p, d) for p in nums] == values


def test_format_scalar_basics():
    assert format_scalar(RatFunc.gen()) == "z"
    assert format_scalar(hump()) == "(z^3 + z^2 + z)/(z^2 + 2*z + 1)"
    assert format_scalar(Omega(-1, -1)) == "-1 - omega"
    assert format_scalar(Fraction(-3, 4)) == "-3/4"

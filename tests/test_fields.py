"""Tests for the exact scalar kernel: polynomials, QQ(z), QQ(omega), floats."""

import random
from fractions import Fraction

import pytest

from braidrep import (CC, ExactField, FloatField, Omega, Poly, PoleError, QQ,
                      QW, QZ, RatFunc, field_of, format_scalar, join, poly_gcd,
                      TagMismatchError)

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
        assert (p % g).is_zero()
        assert (q % g).is_zero()
        assert (g % d).is_zero()


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
    assert r * (RatFunc.gen() + 1) == RatFunc.const(1)


def test_tag_mixing_rejected():
    with pytest.raises(TypeError):
        RatFunc.gen() + Omega(0, 1)
    with pytest.raises(TagMismatchError):
        join(RatFunc.gen(), Omega(1, 0))
    with pytest.raises(TagMismatchError):
        QW.coerce(RatFunc.gen())


def test_exact_fields_share_one_descriptor_and_accept_what_they_embed():
    assert all(isinstance(f, ExactField) for f in (QQ, QZ, QW))
    assert QQ.coerce(3) == Fraction(3) and QQ.coerce(Fraction(1, 2)) == Fraction(1, 2)
    assert QZ.coerce(Z + 1) == RatFunc(Poly([1, 1]))
    assert QZ.coerce(Fraction(2)) == QZ.of_int(2) == RatFunc.const(2)
    assert QW.coerce(-1) == Omega(-1, 0)
    rejected = [(QQ, True), (QQ, Z), (QQ, RatFunc.gen()), (QQ, 0.5), (QZ, False),
                (QZ, Omega(0, 1)), (QZ, 0.5), (QW, True), (QW, Z), (QW, complex(1))]
    for field, value in rejected:
        with pytest.raises(TagMismatchError, match=r"^cannot place .* in "):
            field.coerce(value)
    frac = Fraction(5, 7)
    assert QQ.lift(frac) is frac


def test_rationals_lift_into_larger_fields():
    a, b, field = join(Fraction(1, 2), RatFunc.gen())
    assert field is QZ
    assert a == RatFunc.const(Fraction(1, 2))
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
        RatFunc.const(0).inv()
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


def test_float_field_equals_itself_even_with_nan_eps():
    nan_field = FloatField(float("nan"))
    assert nan_field == nan_field
    assert FloatField(1e-6) == FloatField(1e-6) != CC


def test_float_equality_is_scale_relative():
    assert CC.eq(complex(1e12), complex(1e12 + 1))
    assert not CC.eq(complex(0), complex(1e-3))


def test_format_scalar_basics():
    assert format_scalar(RatFunc.gen()) == "z"
    assert format_scalar(hump()) == "(z^3 + z^2 + z)/(z^2 + 2*z + 1)"
    assert format_scalar(Omega(-1, -1)) == "-1 - omega"
    assert format_scalar(Fraction(-3, 4)) == "-3/4"

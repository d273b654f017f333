"""Exact scalar arithmetic behind one small field interface.

Everything downstream works over one of four coefficient fields: the
rationals QQ (stdlib ``Fraction``), the rational-function field QQ(z), the
quadratic extension QQ(omega) with omega^2 + omega + 1 = 0, and the complex
floating field CC, where equality holds within the scale-relative DEFAULT_EPS
and a value that is not finite raises OverflowError.
All four are instances of one descriptor class that differ only in data.
Integers and rationals embed canonically into every field; any other
mixing of scalar kinds is rejected.

Polynomials over QQ keep integer numerators over one common denominator,
so their arithmetic runs on Python ints rather than on a ``Fraction`` per
coefficient.  The gcd that keeps every element of QQ(z) reduced is a
primitive remainder sequence over ZZ, and powers of a reduced fraction are
taken part by part, with no gcd.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, isfinite, lcm
from typing import Iterable

DEFAULT_EPS = 1e-9


class PoleError(ValueError):
    """A specialization point zeroes a reduced denominator."""


class TagMismatchError(TypeError):
    """Scalars from two different fields met in one operation."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TagMismatchError(f"expected a rational, got {value!r}")


# ---------------------------------------------------------------------------
# Polynomials over QQ
#
# Integer polynomials are lists or tuples of Python ints, ascending by degree
# with no trailing zeros; the helpers below work on them directly.


def _strip(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _primitive(cs: list) -> list:
    """The integer polynomial divided by the gcd of its coefficients."""
    g = gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _pdivmod(a, b) -> tuple:
    """Pseudo-division over ZZ: q, r and an integer m > 0 with m*a = q*b + r.

    Each step scales the partial remainder only as far as it must for the
    leading coefficient of b to divide exactly, so m is 1 whenever b
    divides a over ZZ.
    """
    r = list(a)
    db, lc = len(b) - 1, b[-1]
    q = [0] * max(len(r) - db, 0)
    m = 1
    while len(r) > db:
        top = r[-1]
        c, rest = divmod(top, lc)
        if rest:
            s = abs(lc) // gcd(top, lc)
            r, q, m = [x * s for x in r], [x * s for x in q], m * s
            c = top * s // lc
        k = len(r) - 1 - db
        q[k] = c
        for j in range(db):
            r[k + j] -= c * b[j]
        r.pop()
        _strip(r)
    return q, r, m


def _poly(nums: list, den: int = 1) -> "Poly":
    """The polynomial (sum of nums[k] z^k) / den, brought to canonical form."""
    _strip(nums)
    if den < 0:
        nums, den = [-c for c in nums], -den
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums, den = [c // g for c in nums], den // g
    p = object.__new__(Poly)
    p.nums = tuple(nums)
    p.den = den
    return p


class Poly:
    """Dense univariate polynomial in z over the rationals.

    Stored as integer numerators ``nums``, ascending by degree with trailing
    zeros stripped, over one positive common denominator ``den`` that shares
    no factor with all of them.  Every polynomial therefore has exactly one
    representation (the zero polynomial is ``nums == ()``, ``den == 1``),
    and all arithmetic runs on Python ints.  ``coeffs``, ``coeff`` and
    ``lead`` present the coefficients as ``Fraction``s.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        p = _poly([c.numerator * (den // c.denominator) for c in cs], den)
        self.nums, self.den = p.nums, p.den

    @classmethod
    def const(cls, c) -> "Poly":
        c = _as_fraction(c)
        return _poly([c.numerator], c.denominator)

    @classmethod
    def gen(cls) -> "Poly":
        return _poly([0, 1])

    @property
    def coeffs(self) -> tuple:
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    @property
    def lead(self) -> Fraction:
        if not self.nums:
            raise ValueError("the zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def coeff(self, k: int) -> Fraction:
        return Fraction(self.nums[k], self.den) if 0 <= k < len(self.nums) else Fraction(0)

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return Poly.const(other)
        return None

    def _sum(self, other: "Poly", sign: int) -> "Poly":
        ad, bd = self.den, other.den
        if ad == bd:
            den, fa, fb = ad, 1, sign
        else:
            g = gcd(ad, bd)
            den, fa, fb = ad // g * bd, bd // g, sign * (ad // g)
        out = [c * fa for c in self.nums] if fa != 1 else list(self.nums)
        bn = other.nums
        if len(bn) > len(out):
            out.extend([0] * (len(bn) - len(out)))
        for k, c in enumerate(bn):
            out[k] += fb * c
        return _poly(out, den)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._sum(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _poly([-c for c in self.nums], self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        an, bn = self.nums, other.nums
        if not an or not bn:
            return _poly([])
        out = [0] * (len(an) + len(bn) - 1)
        for i, a in enumerate(an):
            if a:
                for j, b in enumerate(bn):
                    out[i + j] += a * b
        return _poly(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """Binary powering: about log2(n) products instead of n."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        out, base = _poly([1]), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        # m*A = q*B + r for the numerators A, B, so with the denominators
        # ad, bd: self = A/ad = (q*bd/(m*ad)) * other + r/(m*ad)
        q, r, m = _pdivmod(self.nums, other.nums)
        m *= self.den
        return _poly([x * other.den for x in q], m), _poly(r, m)

    def scale(self, c) -> "Poly":
        c = _as_fraction(c)
        return _poly([a * c.numerator for a in self.nums], self.den * c.denominator)

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return _poly(list(self.nums), self.nums[-1])

    def evaluate(self, point, field):
        """Horner evaluation at ``point``, an element of ``field``.

        Over the floating field each coefficient becomes its correctly
        rounded float (int true division rounds correctly, as
        ``float(Fraction)`` does), highest degree first, so float results
        depend only on the coefficients' values.  Exact fields run Horner on
        the integer numerators and divide by the common denominator once.
        A rational point is evaluated in ints by ``RatFunc.evaluate``.
        """
        nums, den = self.nums, self.den
        acc = field.zero
        if field is CC:
            for c in reversed(nums):
                acc = acc * point + complex(c / den)
            return acc
        for c in reversed(nums):
            acc = acc * point + c
        return acc / den if den != 1 else acc

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash(("Poly", self.nums, self.den))

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        return signed_sum(poly_terms(self, "z^{}"), _TEXT_STYLE)


_ZERO, _ONE = _poly([]), _poly([1])


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor by a primitive remainder sequence over ZZ.

    Works on the integer numerators: each pseudo-remainder is divided by the
    gcd of its coefficients (Collins 1967; Brown 1971), so coefficients stay
    near the size of the inputs' instead of growing as Euclid's over QQ do.
    gcd(p, 0) is the monic multiple of p and gcd(0, 0) is 0.
    """
    a, b = _primitive(list(p.nums)), _primitive(list(q.nums))
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return _ONE
        a, b = b, _primitive(_pdivmod(a, b)[1])
    return _poly(a, a[-1]) if a else _ZERO


# ---------------------------------------------------------------------------
# The rational-function field QQ(z)


def _homogeneous(nums, p: int, q: int) -> int:
    """q^n times the integer polynomial of degree n at p/q, by Horner."""
    acc, qk = 0, 1
    for c in reversed(nums):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _reduced(num: Poly, den: Poly) -> "RatFunc":
    """A RatFunc from coprime parts whose denominator is already monic."""
    r = object.__new__(RatFunc)
    r.num = num
    r.den = den
    return r


class RatFunc:
    """Reduced fraction of two polynomials with monic denominator.

    The constructor normalizes, so two equal fractions are structurally
    identical; equality is therefore decidable by comparing parts.  A
    constant denominator needs no gcd; otherwise both parts are divided
    exactly, over ZZ, by their primitive gcd.  Negation, inversion and
    powers of a reduced fraction are reduced already and skip the gcd.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            num = Poly.const(num)
        if den is None:
            den = _ONE
        elif not isinstance(den, Poly):
            den = Poly.const(den)
        dn = den.nums
        if not dn:
            raise ZeroDivisionError("division by zero polynomial")
        if not num.nums:
            num, den = _ZERO, _ONE
        elif len(dn) == 1:
            # num / (dn[0] / den.den)
            if dn[0] != 1 or den.den != 1:
                num = _poly([c * den.den for c in num.nums], num.den * dn[0])
            den = _ONE
        else:
            nn = num.nums
            g = poly_gcd(num, den)
            if len(g.nums) > 1:
                # g.nums is primitive, so it divides both numerators over ZZ
                nn, dn = _pdivmod(nn, g.nums)[0], _pdivmod(dn, g.nums)[0]
            # num/den = (nn * den.den) / (dn * num.den); make dn monic
            lc = dn[-1]
            num = _poly([c * den.den for c in nn], num.den * lc)
            den = _poly(list(dn), lc)
        self.num = num
        self.den = den

    @classmethod
    def gen(cls) -> "RatFunc":
        return cls(Poly.gen())

    def is_zero(self) -> bool:
        return not self.num.nums

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (Poly, int, Fraction)) and not isinstance(other, bool):
            return RatFunc(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return RatFunc(self.num - other.num, self.den)
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _reduced(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        lc = self.num.lead
        return _reduced(self.den.scale(1 / lc), self.num.scale(1 / lc))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ValueError("exponent must be an integer")
        base = self if n >= 0 else self.inv()
        return _reduced(base.num ** abs(n), base.den ** abs(n))

    def evaluate(self, point):
        """Substitute ``point`` for z; the result carries the point's field.

        At a rational p/q both parts run Horner on their integer numerators,
        N = sum of c_k p^k q^(n-k) for a part of degree n, and the value is
        built as one ``Fraction``.  Raises PoleError when the reduced
        denominator vanishes at the point.
        """
        field = field_of(point)
        if field is QQ:
            p, q = point.numerator, point.denominator
            num, den = _homogeneous(self.num.nums, p, q), _homogeneous(self.den.nums, p, q)
            if not den:
                raise PoleError("pole at specialization point")
            # (num / (q^a * num.den)) / (den / (q^b * den.den)), a and b the degrees
            num, den = num * self.den.den, den * self.num.den
            shift = len(self.den.nums) - len(self.num.nums)
            if shift > 0:
                num *= q ** shift
            elif shift < 0:
                den *= q ** -shift
            return Fraction(num, den)
        den = self.den.evaluate(point, field)
        if field.is_zero(den):
            raise PoleError("pole at specialization point")
        num = self.num.evaluate(point, field)
        return num / den

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RatFunc", self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"

    def __str__(self):
        return format_scalar(self)


def common_denominator(values) -> tuple:
    """(d, nums) with values[k] = nums[k] / d and no denominator in d or nums.

    For rationals d is the lcm of the denominators and nums are ints.  For
    elements of QQ(z), d and nums are polynomials with integer
    coefficients.  Each x = (x.num.nums * x.den.den) / (x.num.den * q) with
    q = x.den.nums primitive, because x.den is monic in lowest terms.  d is
    the lcm of the integers x.num.den times a product of the distinct q,
    taken largest degree first, where a q that divides the product so far
    is left out; so the powers of one factor cost only the highest.  By
    Gauss's lemma every quotient is exact over ZZ, and no gcd of
    polynomials is taken.
    """
    if not values or not isinstance(values[0], RatFunc):
        d = lcm(*(x.denominator for x in values))
        return d, [x.numerator * (d // x.denominator) for x in values]
    scale = lcm(*(x.num.den for x in values))
    qs = sorted(dict.fromkeys(x.den.nums for x in values), key=len, reverse=True)
    prod = _ONE
    for q in qs:
        if _pdivmod(prod.nums, q)[1]:
            prod = prod * _poly(list(q))
    cofactor = {q: _poly(_pdivmod(prod.nums, q)[0]) for q in qs}
    nums = []
    for x in values:
        k = x.den.den * (scale // x.num.den)
        nums.append(_poly([c * k for c in x.num.nums]) * cofactor[x.den.nums])
    return _poly([c * scale for c in prod.nums]), nums


# ---------------------------------------------------------------------------
# The quadratic extension QQ(omega)


class Omega:
    """Element a + b*omega of QQ(omega), omega a primitive cube root of unity.

    Products are reduced through omega^2 = -1 - omega, so omega satisfies
    omega^2 + omega + 1 = 0 exactly.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = _as_fraction(a)
        self.b = _as_fraction(b)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def _coerce(self, other):
        if isinstance(other, Omega):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return Omega(other, 0)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Omega(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Omega(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Omega(-self.a, -self.b)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return Omega(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 - b1 * b2)

    __rmul__ = __mul__

    def inv(self) -> "Omega":
        n = self.a * self.a - self.a * self.b + self.b * self.b
        if n == 0:
            raise ZeroDivisionError("division by zero")
        return Omega((self.a - self.b) / n, -self.b / n)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ValueError("exponent must be an integer")
        base = self if n >= 0 else self.inv()
        out = Omega(1, 0)
        for _ in range(abs(n)):
            out = out * base
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash(("Omega", self.a, self.b))

    def __repr__(self):
        return f"Omega({self.a!r}, {self.b!r})"

    def __str__(self):
        return format_scalar(self)

    def __complex__(self):
        root = complex(-0.5, 0.75 ** 0.5)
        return float(self.a) + float(self.b) * root


# ---------------------------------------------------------------------------
# Field descriptors


class Field:
    """A coefficient field, described by data.

    ``scalar`` is the type of the field's elements, ``lift`` embeds an
    integer or a rational (and whatever else the field admits) and raises
    TagMismatchError for anything it cannot place, ``is_zero`` tests for
    zero, ``inv`` inverts a nonzero element and ``eq`` decides equality.
    """

    def __init__(self, name: str, scalar: type, lift, is_zero, inv, eq=operator.eq):
        self.name = name
        self.scalar = scalar
        self.lift = lift
        self.is_zero = is_zero
        self.inv = inv
        self.eq = eq
        self.zero = lift(Fraction(0))
        self.one = lift(Fraction(1))

    def coerce(self, value):
        if isinstance(value, self.scalar):
            return value
        try:
            return self.lift(value)
        except TagMismatchError:
            raise TagMismatchError(f"cannot place {value!r} in {self.name}") from None

    def __repr__(self):
        return self.name


def _reciprocal(a):
    if a == 0:
        raise ZeroDivisionError("division by zero")
    return 1 / a


def _float_lift(value) -> complex:
    if isinstance(value, (int, float, Fraction)) and not isinstance(value, bool):
        return complex(float(value))
    raise TagMismatchError(f"expected a real number, got {value!r}")


def _float_eq(a, b) -> bool:
    """The tolerance test; an infinite or nan value, where no tolerance test
    means anything, raises OverflowError."""
    size_a, size_b = abs(a), abs(b)
    if not (isfinite(size_a) and isfinite(size_b)):
        bad = b if isfinite(size_a) else a
        raise OverflowError(f"floating-point overflow: {format_scalar(bad)} is not finite")
    return abs(a - b) <= DEFAULT_EPS * (1 + max(size_a, size_b))


_is_zero, _inv = operator.methodcaller("is_zero"), operator.methodcaller("inv")
QQ = Field("QQ", Fraction, _as_fraction, lambda a: a == 0, _reciprocal)
QZ = Field("QQ(z)", RatFunc, RatFunc, _is_zero, _inv)  # the constructor also lifts a Poly
QZ.gen = RatFunc.gen()
QW = Field("QQ(omega)", Omega, Omega, _is_zero, _inv)
QW.omega = Omega(0, 1)
CC = Field("CC", complex, _float_lift, lambda a: _float_eq(a, 0j), _reciprocal, _float_eq)


def field_of(value):
    """The field descriptor a scalar value belongs to."""
    if isinstance(value, Fraction) or (isinstance(value, int) and not isinstance(value, bool)):
        return QQ
    if isinstance(value, RatFunc):
        return QZ
    if isinstance(value, Omega):
        return QW
    if isinstance(value, (complex, float)):
        return CC
    raise TagMismatchError(f"{value!r} is not a supported scalar")


def join(a, b):
    """Bring two scalars to one common field, lifting rationals if needed.

    Returns (a, b, field); anything other than a rational meeting a larger
    field is a tag mismatch.
    """
    fa, fb = field_of(a), field_of(b)
    if fa is QQ and fb is not QQ:
        return fb.coerce(a if isinstance(a, Fraction) else Fraction(a)), b, fb
    if fb is QQ and fa is not QQ:
        return a, fa.coerce(b if isinstance(b, Fraction) else Fraction(b)), fa
    if fa != fb:
        raise TagMismatchError(f"cannot mix scalars from {fa.name} and {fb.name}")
    return fa.coerce(a), fb.coerce(b), fa


def to_complex(value) -> complex:
    """Numeric value of an exact scalar (not defined for QQ(z))."""
    if isinstance(value, (complex, float, int)):
        return complex(value)
    if isinstance(value, Fraction):
        return complex(float(value))
    if isinstance(value, Omega):
        return complex(value)
    raise TagMismatchError(f"{value!r} has no numeric value without a specialization point")


# ---------------------------------------------------------------------------
# Canonical text forms


def signed_sum(terms, style) -> str:
    """Join (coefficient, monomial) pairs into one sum with explicit signs.

    Coefficients are rationals, in print order; the monomial None marks the
    constant term, and zero coefficients are skipped.  ``style`` is
    (constant form, coefficient form, spacing around signs): the constant
    form writes a magnitude standing alone, the coefficient form one set
    before a monomial, where a magnitude of 1 is left out.  The empty sum
    is "0".
    """
    const, coeff, pad = style
    out = ""
    for c, mono in terms:
        if not c:
            continue
        mag = abs(c)
        body = const(mag) if mono is None else mono if mag == 1 else coeff(mag) + mono
        if out:
            out += f"{pad}{'+' if c > 0 else '-'}{pad}{body}"
        else:
            out = body if c > 0 else "-" + body
    return out or "0"


def poly_terms(p: Poly, power: str) -> list:
    """The (coefficient, monomial) pairs of p, highest degree first;
    ``power`` formats z^k for k > 1."""
    return [(p.coeff(k), None if k == 0 else "z" if k == 1 else power.format(k))
            for k in range(p.degree, -1, -1)]


_TEXT_STYLE = (str, lambda c: f"{c}*" if c.denominator == 1 else f"({c})*", " ")


def format_scalar(v) -> str:
    """Parseable canonical text for any scalar value."""
    if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
        return signed_sum([(v, None)], _TEXT_STYLE)
    if isinstance(v, RatFunc):
        return str(v.num) if v.den.degree == 0 else f"({v.num})/({v.den})"
    if isinstance(v, Omega):
        return signed_sum([(v.a, None), (v.b, "omega")], _TEXT_STYLE)
    if isinstance(v, (complex, float)):
        v = complex(v)
        return repr(v.real) if v.imag == 0 else repr(v)
    raise TagMismatchError(f"{v!r} is not a supported scalar")

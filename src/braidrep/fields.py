"""Exact scalar arithmetic behind one small field interface.

Everything downstream works over one of four coefficient fields: the
rationals QQ (stdlib ``Fraction``), the rational-function field QQ(z), the
quadratic extension QQ(omega) with omega^2 + omega + 1 = 0, and a complex
floating field whose equality test is tolerance-based.  The three exact
fields are instances of one descriptor class that differ only in data.
Integers and rationals embed canonically into every field; any other
mixing of scalar kinds is rejected.
"""

from __future__ import annotations

import operator
from fractions import Fraction
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


class Poly:
    """Dense univariate polynomial in z over the rationals.

    Coefficients are stored ascending by degree with trailing zeros
    stripped; the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((_as_fraction(c),))

    @classmethod
    def gen(cls) -> "Poly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return Poly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.coeff(k) + other.coeff(k) for k in range(n))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.coeff(k) - other.coeff(k) for k in range(n))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        out = Poly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        dd, dlead = other.degree, other.lead
        quot = [Fraction(0)] * max(len(rem) - dd, 0)
        while len(rem) - 1 >= dd and rem:
            k = len(rem) - 1 - dd
            c = rem[-1] / dlead
            quot[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= c * b
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def scale(self, c) -> "Poly":
        c = _as_fraction(c)
        return Poly(a * c for a in self.coeffs)

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(1 / self.lead)

    def evaluate(self, point, field):
        """Horner evaluation; coefficients are lifted into ``field``."""
        acc = field.zero
        for c in reversed(self.coeffs):
            acc = acc * point + field.lift(c)
        return acc

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        return format_poly(self)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean algorithm.

    gcd(p, 0) is the monic multiple of p and gcd(0, 0) is 0.
    """
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


# ---------------------------------------------------------------------------
# The rational-function field QQ(z)


class RatFunc:
    """Reduced fraction of two polynomials with monic denominator.

    The constructor normalizes, so two equal fractions are structurally
    identical; equality is therefore decidable by comparing parts.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            num = Poly.const(num)
        if den is None:
            den = Poly.const(1)
        elif not isinstance(den, Poly):
            den = Poly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if num.is_zero():
            num, den = Poly(), Poly.const(1)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            lc = den.lead
            if lc != 1:
                num, den = num.scale(1 / lc), den.scale(1 / lc)
        self.num = num
        self.den = den

    @classmethod
    def const(cls, c) -> "RatFunc":
        return cls(Poly.const(c))

    @classmethod
    def gen(cls) -> "RatFunc":
        return cls(Poly.gen())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc(other)
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return RatFunc.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        return RatFunc(self.den, self.num)

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
        out = RatFunc.const(1)
        for _ in range(abs(n)):
            out = out * base
        return out

    def evaluate(self, point):
        """Substitute ``point`` for z; the result carries the point's field.

        Raises PoleError when the reduced denominator vanishes at the point.
        """
        field = field_of(point)
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
        return hash(("RatFunc", self.num.coeffs, self.den.coeffs))

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"

    def __str__(self):
        return format_scalar(self)


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


class ExactField:
    """An exact coefficient field, described by data.

    ``scalar`` is the type of the field's elements, ``lift`` embeds a
    rational (and whatever else the field admits) and raises
    TagMismatchError for anything it cannot place, ``is_zero`` tests for
    zero and ``inv`` inverts a nonzero element.
    """

    uses_magnitude_pivot = False
    eq = staticmethod(operator.eq)

    def __init__(self, name: str, scalar: type, lift, is_zero, inv):
        self.name = name
        self.scalar = scalar
        self.lift = lift
        self.is_zero = is_zero
        self.inv = inv
        self.zero = lift(Fraction(0))
        self.one = lift(Fraction(1))

    def of_int(self, n: int):
        return self.lift(Fraction(n))

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


class FloatField:
    """Complex floating pairs; equality is scale-relative within eps."""

    name = "CC"
    uses_magnitude_pivot = True
    zero = complex(0)
    one = complex(1)

    def __init__(self, eps: float = DEFAULT_EPS):
        self.eps = eps

    def of_int(self, n: int):
        return complex(n)

    def lift(self, fr: Fraction):
        return complex(float(fr))

    def coerce(self, value):
        if isinstance(value, complex):
            return value
        if isinstance(value, (int, float, Fraction)) and not isinstance(value, bool):
            return complex(float(value))
        raise TagMismatchError(f"cannot place {value!r} in {self.name}")

    def eq(self, a, b) -> bool:
        return abs(a - b) <= self.eps * (1 + max(abs(a), abs(b)))

    def is_zero(self, a) -> bool:
        return self.eq(a, complex(0))

    inv = staticmethod(_reciprocal)

    def __eq__(self, other):
        # identity first, so that a field whose eps is nan still equals itself
        return self is other or (isinstance(other, FloatField) and self.eps == other.eps)

    def __hash__(self):
        return hash(("CC", self.eps))

    def __repr__(self):
        return f"CC(eps={self.eps:g})"


_is_zero, _inv = operator.methodcaller("is_zero"), operator.methodcaller("inv")
QQ = ExactField("QQ", Fraction, _as_fraction, lambda a: a == 0, _reciprocal)
QZ = ExactField("QQ(z)", RatFunc, RatFunc, _is_zero, _inv)  # the constructor also lifts a Poly
QZ.gen = RatFunc.gen()
QW = ExactField("QQ(omega)", Omega, Omega, _is_zero, _inv)
QW.omega = Omega(0, 1)
CC = FloatField()


def field_of(value, eps: float = DEFAULT_EPS):
    """The field descriptor a scalar value belongs to."""
    if isinstance(value, Fraction) or (isinstance(value, int) and not isinstance(value, bool)):
        return QQ
    if isinstance(value, RatFunc):
        return QZ
    if isinstance(value, Omega):
        return QW
    if isinstance(value, (complex, float)):
        return CC if eps == DEFAULT_EPS else FloatField(eps)
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


def _coeff_factor(c: Fraction) -> str:
    return str(c) if c.denominator == 1 else f"({c})"


def _signed_terms(terms) -> str:
    """Join (coefficient, body) pairs with explicit signs, descending order."""
    parts = []
    for c, body in terms:
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


def format_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    terms = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "z" if k == 1 else f"z^{k}"
            body = var if mag == 1 else f"{_coeff_factor(mag)}*{var}"
        terms.append((c, body))
    return _signed_terms(terms)


def _format_omega(v: Omega) -> str:
    if v.b == 0:
        return str(v.a)
    terms = []
    if v.a != 0:
        terms.append((v.a, str(abs(v.a))))
    mag = abs(v.b)
    terms.append((v.b, "omega" if mag == 1 else f"{_coeff_factor(mag)}*omega"))
    return _signed_terms(terms)


def _format_complex(v: complex) -> str:
    if v.imag == 0:
        return repr(v.real)
    return repr(v)


def format_scalar(v) -> str:
    """Parseable canonical text for any scalar value."""
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return str(v)
    if isinstance(v, RatFunc):
        if v.den == Poly.const(1):
            return format_poly(v.num)
        return f"({format_poly(v.num)})/({format_poly(v.den)})"
    if isinstance(v, Omega):
        return _format_omega(v)
    if isinstance(v, (complex, float)):
        return _format_complex(complex(v))
    raise TagMismatchError(f"{v!r} is not a supported scalar")

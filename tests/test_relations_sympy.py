"""The named families, written out independently in sympy, as the certificate of their relations.

The constructors in ``braidrep.families`` only evaluate their formulas; they
do not check the braid relation.  This module is where the relation is
proved: each family's images are written here with free symbols z, f and e,
s1*s2*s1 - s2*s1*s2 is shown to vanish identically (in two variables for
the two families of Theorem 1), and braidrep's constructors are shown to
agree with these formulas at seeded rational, omega and QQ(z) parameters.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from braidrep import (Omega, ParameterError, QW, RatFunc, burau3, burau3_diag, mu,  # noqa: E402
                      mu_pascal, standard_s3, theorem1_i, theorem1_ii, xi)
from braidrep import families  # noqa: E402

from _gen import rand_fraction, rand_ratfunc  # noqa: E402

z, f, e, w = sympy.symbols("z f e w")  # w stands for omega: w^2 + w + 1 = 0
M = sympy.Matrix


def xi_images(z):
    return M([[z]]), M([[z]])


def burau_images(z):
    return M([[-z, 0], [1, 1]]), M([[1, z], [0, -z]])


def burau_diag_images(z):
    return (M([[-z, 0], [0, 1]]),
            M([[1, -z], [-(z**2 + z + 1), -z**2]]) / (z + 1))


def thm1_i_images(z, f):
    g = z * (z**2 + z + 1) / ((z + 1)**2 * f)
    return M([[-z, 0], [0, 1]]), M([[1 / (z + 1), f], [g, -z**2 / (z + 1)]])


def thm1_ii_images(z, e):
    return M([[1, z], [0, 1]]), M([[e, z * (e - 1)**2], [-1 / z, 2 - e]])


def mu_images(z):
    q = z**2 + z + 1
    s2 = M([[z**4, z**2 * q, q**2],
            [2 * z**3, z * (z**2 + 1), -2 * q],
            [z**2, -z, 1]]) / (z + 1)**2
    return M.diag(1, -z, z**2), s2


def mu_pascal_images(z):
    return (M([[z**2, 0, 0], [-z, -z, 0], [1, 2, 1]]),
            M([[1, 2 * z, z**2], [0, -z, -z**2], [0, 0, z**2]]))


ONE_PARAMETER = {"xi": (xi, xi_images), "burau": (burau3, burau_images),
                 "burau_diag": (burau3_diag, burau_diag_images),
                 "mu": (mu, mu_images), "mu_pascal": (mu_pascal, mu_pascal_images)}
TWO_PARAMETER = {"thm1_i": (theorem1_i, thm1_i_images, f),
                 "thm1_ii": (theorem1_ii, thm1_ii_images, e)}


def vanishes(expr) -> bool:
    """Exact zero test in QQ(z, f, e) with w reduced modulo w^2 + w + 1."""
    num = sympy.numer(sympy.together(expr))
    return sympy.expand(sympy.rem(num, w**2 + w + 1, w) if num.has(w) else num) == 0


def braid_defect(images):
    a, b = images
    return a * b * a - b * a * b


@pytest.mark.parametrize("name", sorted(ONE_PARAMETER))
def test_one_parameter_family_relation_is_an_identity(name):
    _, formula = ONE_PARAMETER[name]
    assert all(vanishes(x) for x in braid_defect(formula(z)))


@pytest.mark.parametrize("name", sorted(TWO_PARAMETER))
def test_two_parameter_family_relation_is_an_identity(name):
    _, formula, second = TWO_PARAMETER[name]
    assert all(vanishes(x) for x in braid_defect(formula(z, second)))


def test_standard_s3_is_burau_at_one_and_involutive():
    s1, s2 = burau_images(sympy.Integer(1))
    assert s1 * s1 == s2 * s2 == sympy.eye(2)
    assert [to_sympy_matrix(m) for m in standard_s3().images] == [s1, s2]


# -- braidrep's constructors evaluate these formulas --------------------------------

def to_sympy(v):
    if isinstance(v, Fraction):
        return sympy.Rational(v.numerator, v.denominator)
    if isinstance(v, Omega):
        return to_sympy(v.a) + to_sympy(v.b) * w
    if isinstance(v, RatFunc):
        num, den = ([to_sympy(c) for c in p.coeffs] for p in (v.num, v.den))
        return sum(c * z**k for k, c in enumerate(num)) / sum(c * z**k for k, c in enumerate(den))
    raise TypeError(v)


def to_sympy_matrix(m):
    return M(m.rows, m.cols, [to_sympy(x) for x in m.entries])


def seeded_points():
    """Rational, omega and QQ(z) parameters, with the excluded values left out."""
    rng = random.Random(2019)
    points = []
    while len(points) < 6:
        q = rand_fraction(rng, nonzero=True)
        if q != -1:
            points.append(q)
    points += [QW.omega, QW.omega + 2, RatFunc.gen(), RatFunc.gen() ** 2 + 1]
    while len(points) < 12:
        r = rand_ratfunc(rng, 2)
        if r.num.degree > 0 or r.den.degree > 0:
            points.append(r)
    return points


def second_parameter(rng, point):
    """A nonzero second parameter in the field of ``point``."""
    if isinstance(point, Omega):
        return point * rand_fraction(rng, nonzero=True) + 1
    if isinstance(point, RatFunc):
        return rand_ratfunc(rng, 2, nonzero=True)
    return rand_fraction(rng, nonzero=True)


def agrees(rep, images):
    return all(vanishes(x - y) for m, s in zip(rep.images, images)
               for x, y in zip(to_sympy_matrix(m), s))


@pytest.mark.parametrize("name", sorted(ONE_PARAMETER))
def test_one_parameter_constructor_matches_formula(name):
    build, formula = ONE_PARAMETER[name]
    for p in seeded_points():
        assert agrees(build(p), formula(to_sympy(p))), (name, str(p))


@pytest.mark.parametrize("name", sorted(TWO_PARAMETER))
def test_two_parameter_constructor_matches_formula(name):
    build, formula, _ = TWO_PARAMETER[name]
    rng = random.Random(7)
    for p in seeded_points():
        s = second_parameter(rng, p)
        assert agrees(build(p, s), formula(to_sympy(p), to_sympy(s))), (name, str(p), str(s))


# -- every pole and singular point is excluded ---------------------------------------

def critical_points(images):
    """The z at which an entry has a pole or an image is singular.

    Factors free of z, such as the second parameter of Theorem 1, are
    skipped; they are that parameter's own condition.
    """
    exprs = [sympy.denom(sympy.together(x)) for m in images for x in m]
    exprs += [sympy.numer(sympy.together(m.det())) for m in images]
    points = set()
    for expr in exprs:
        for factor, _ in sympy.factor_list(expr)[1]:
            if factor.has(z):
                assert not factor.has(f, e), factor
                points.update(sympy.roots(factor, z))
    return points


@pytest.mark.parametrize("name", sorted(ONE_PARAMETER) + sorted(TWO_PARAMETER))
def test_excluded_parameters_cover_poles_and_singular_points(name):
    if name in ONE_PARAMETER:
        build, formula = ONE_PARAMETER[name]
        images, rest = formula(z), ()
    else:
        build, formula, second = TWO_PARAMETER[name]
        images, rest = formula(z, second), (Fraction(5, 4),)
    points = critical_points(images)
    assert sympy.Integer(0) in points
    for r in points:
        assert r.is_rational, (name, r)
        with pytest.raises(ParameterError, match="excluded parameter"):
            build(Fraction(int(r.p), int(r.q)), *rest)


# -- the written excluded lists against the set derived from the QQ(z) build ---------

# (derived set, written list) where they differ: mu_pascal's images are
# polynomial in z with determinant -z^3, yet its list also excludes -1.
KNOWN_MISMATCHES = {"mu_pascal": ({0}, (0, -1))}


# A value for each parameter after z; none of them adds a critical point.
SECOND = {"f": Fraction(5, 4), "e": Fraction(5, 4), "n": 3}


@pytest.mark.parametrize("name", sorted(families.FAMILIES))
def test_excluded_list_is_the_derived_set(name):
    """Rational roots of the entry denominators and image determinants of the
    family built over QQ(z), against the excluded integers ``families.FAMILIES``
    declares for it."""
    build, params, written = families.FAMILIES[name]
    rep = build(RatFunc.gen(), *(SECOND[p] for p in params[1:]))
    images = [to_sympy_matrix(m) for m in rep.images]
    derived = {Fraction(int(r.p), int(r.q)) for r in critical_points(images) if r.is_rational}
    if name in KNOWN_MISMATCHES:
        assert (derived, written) == KNOWN_MISMATCHES[name]
    else:
        assert derived == set(written)

"""Tests for the text grammar, JSON round trips, and LaTeX output."""

import random
from fractions import Fraction

import pytest

from braidrep import (CC, Matrix, Omega, ParseError, QQ, QW, QZ, RatFunc,
                      burau3, format_scalar, format_spec, matrix_from_json,
                      matrix_to_json, matrix_to_latex, mu, parse_family_spec,
                      parse_point, parse_scalar, representation_from_json,
                      representation_to_json, representation_to_latex,
                      scalar_from_json, scalar_to_json, scalar_to_latex,
                      specialize, theorem1_i, verify_braid_relations)

from _gen import rand_fraction, rand_omega, rand_ratfunc


# -- scalar expressions -------------------------------------------------------

def test_parse_rational():
    assert parse_scalar("5/7") == Fraction(5, 7)
    assert parse_scalar("-2") == Fraction(-2)
    assert parse_scalar("(3 + 1)/8") == Fraction(1, 2)


def test_parse_symbolic():
    z = RatFunc.gen()
    assert parse_scalar("z") == z
    assert parse_scalar("-z/(z+1)") == -z / (z + 1)
    assert parse_scalar("z^2 + z + 1") == z * z + z + 1
    assert parse_scalar("z*(z^2+z+1)/(z+1)^2") == z * (z * z + 1 + z) / (z + 1) ** 2


def test_parse_omega():
    w = Omega(0, 1)
    assert parse_scalar("omega") == w
    assert parse_scalar("omega^2") == Omega(-1, -1)
    assert parse_scalar("1 - omega") == Omega(1, -1)


def test_parse_float_forces_floating_field():
    v = parse_scalar("0.25")
    assert isinstance(v, complex)
    assert v == 0.25
    assert isinstance(parse_scalar("1e-3"), complex)


def test_parse_precedence():
    assert parse_scalar("1/2*4") == Fraction(2)  # left-associative
    assert parse_scalar("2^3^1") == Fraction(8)
    assert parse_scalar("-z^2") == -(RatFunc.gen() ** 2)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError, match="position"):
        parse_scalar("1 + $")
    with pytest.raises(ParseError, match="position"):
        parse_scalar("z +")
    with pytest.raises(ParseError):
        parse_scalar("z + omega")
    with pytest.raises(ParseError):
        parse_scalar("q + 1")


def test_point_rejects_symbols():
    with pytest.raises(ParseError, match="cannot contain z"):
        parse_point("z + 1")
    assert parse_point("omega") == Omega(0, 1)
    assert parse_point("5/7") == Fraction(5, 7)
    assert isinstance(parse_point("2.5"), complex)


def test_scalar_print_parse_round_trip():
    rng = random.Random(61)
    for _ in range(50):
        r = rand_ratfunc(rng)
        assert parse_scalar(format_scalar(r)) == r
        w = rand_omega(rng)
        assert parse_scalar(format_scalar(w)) == w
        q = rand_fraction(rng)
        assert parse_scalar(format_scalar(q)) == q


# -- family specs -------------------------------------------------------------

def test_parse_named_families():
    z = RatFunc.gen()
    assert parse_family_spec("burau(z)").images[0] == burau3(z).images[0]
    rep = parse_family_spec("thm1_i(z; f=-z/(z+1))")
    assert rep.images[1] == theorem1_i(z, -z / (z + 1)).images[1]
    rep = parse_family_spec("thm1_ii(2; e=0)")
    assert rep.meta.params["e"] == Fraction(0)
    assert parse_family_spec("mu(z)").dimension == 3
    assert parse_family_spec("xi(-z)").images[0][0, 0] == -z
    assert parse_family_spec("burau(5/7)").field is QQ
    assert parse_family_spec("standard_s3").braid_index == 3
    assert parse_family_spec("xi(2; n=5)").braid_index == 5


def test_parse_combinators():
    rep = parse_family_spec("tensor(burau(z),burau(z))")
    assert rep.dimension == 4
    rep = parse_family_spec("direct_sum(xi(-z), mu(z))")
    assert rep.dimension == 4
    rep = parse_family_spec("dual(burau(z))")
    assert verify_braid_relations(rep).overall


def test_parse_spec_errors():
    with pytest.raises(ParseError, match="unknown family"):
        parse_family_spec("nosuch(z)")
    with pytest.raises(ParseError):
        parse_family_spec("thm1_i(z)")  # missing f
    with pytest.raises(ParseError):
        parse_family_spec("burau(z")  # unbalanced
    with pytest.raises(ParseError):
        parse_family_spec("thm1_i(z; q=1)")  # unknown parameter
    with pytest.raises(ParseError):
        parse_family_spec("standard_s3(1)")


def test_integer_keyword_must_be_an_integer():
    for bad in ("abc", "2.5", ""):
        with pytest.raises(ParseError, match="parameter 'n' must be an integer"):
            parse_family_spec(f"xi(z; n={bad})")


def test_spec_print_parse_round_trip():
    specs = ["burau(z)", "burau(5/7)", "burau_diag(z)", "mu(z)", "mu_pascal(z)",
             "xi(-z)", "xi(2; n=5)", "thm1_i(z; f=-z/(z+1))", "thm1_ii(2; e=0)",
             "standard_s3", "tensor(burau(z),burau(z))", "dual(mu(z))"]
    for text in specs:
        rep = parse_family_spec(text)
        reparsed = parse_family_spec(format_spec(rep.meta))
        assert reparsed.meta == rep.meta
        assert all(a == b for a, b in zip(reparsed.images, rep.images))


# -- JSON ----------------------------------------------------------------------

def test_scalar_json_forms():
    z = RatFunc.gen()
    r = z * (z * z + z + 1) / (z + 1) ** 2
    assert scalar_to_json(r) == {"num": ["0", "1", "1", "1"], "den": ["1", "2", "1"]}
    assert scalar_from_json(scalar_to_json(r)) == r
    assert scalar_to_json(Fraction(-3, 4)) == "-3/4"
    assert scalar_from_json("-3/4") == Fraction(-3, 4)
    assert scalar_from_json(scalar_to_json(Omega(1, -2))) == Omega(1, -2)
    back = scalar_from_json(scalar_to_json(complex(1.5, -0.5)))
    assert back == complex(1.5, -0.5)


def test_matrix_json_round_trip_all_tags():
    rng = random.Random(71)
    z = RatFunc.gen()
    samples = [
        Matrix.from_rows([[Fraction(1, 2), Fraction(-3)], [Fraction(0), Fraction(7)]], QQ),
        burau3(z).images[1],
        Matrix.from_rows([[Omega(1, 1), Omega(0, -1)]], QW),
        Matrix.from_rows([[complex(0.5, 1.0)], [complex(-2.0)]], CC),
    ]
    for m in samples:
        back = matrix_from_json(matrix_to_json(m))
        assert back.rows == m.rows and back.cols == m.cols
        assert back == m


def test_matrix_json_errors():
    with pytest.raises(ParseError):
        matrix_from_json({"rows": 1, "cols": 1})
    with pytest.raises(ParseError):
        matrix_from_json({"rows": 1, "cols": 1, "entries": [[{"bogus": 1}]]})
    for ragged in ([["1", "0"], ["0"]], [["1", "0", "0"], ["1"]], [["1", "0"]]):
        with pytest.raises(ParseError, match="expected 2 rows of 2 entries"):
            matrix_from_json({"rows": 2, "cols": 2, "entries": ragged})


def test_representation_json_round_trip():
    rep = parse_family_spec("thm1_i(z; f=1)")
    back = representation_from_json(representation_to_json(rep))
    assert back.braid_index == rep.braid_index
    assert all(a == b for a, b in zip(back.images, rep.images))
    assert back.meta.family == "thm1_i"
    assert back.meta.params["f"] == QZ.one


def test_representation_json_of_specialized_rep():
    rep = specialize(parse_family_spec("mu(z)"), Fraction(2))
    back = representation_from_json(representation_to_json(rep))
    assert all(a == b for a, b in zip(back.images, rep.images))


# -- LaTeX -----------------------------------------------------------------------

def test_scalar_latex():
    z = RatFunc.gen()
    assert scalar_to_latex(Fraction(3, 4)) == r"\frac{3}{4}"
    assert scalar_to_latex(-z / (z + 1)) == r"\frac{-z}{z+1}"
    assert scalar_to_latex(z * z + z + 1) == "z^{2}+z+1"
    assert scalar_to_latex(Omega(-1, -1)) == r"-1-\omega"


def test_matrix_latex_layout():
    m = burau3(RatFunc.gen()).images[0]
    tex = matrix_to_latex(m)
    assert tex.startswith(r"\left[ \begin{array}{cc}")
    assert "-z & 0" in tex
    assert tex.endswith(r"\end{array} \right]")


def test_representation_latex_lists_generators():
    tex = representation_to_latex(mu(RatFunc.gen()))
    assert tex.count(r"\mapsto") == 2
    assert r"\sigma_{1}" in tex and r"\sigma_{2}" in tex
    assert r"\frac{z^{4}}{z^{2}+2z+1}" in tex

"""Tests for the text grammar, JSON round trips, and LaTeX output."""

import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from braidrep import (CC, Matrix, Omega, ParseError, Poly, QQ, QW, QZ, RatFunc,
                      burau3, format_scalar, format_spec, matrix_from_json,
                      matrix_to_json, matrix_to_latex, mu, parse_family_spec,
                      parse_point, parse_scalar, representation_from_json,
                      representation_to_json, representation_to_latex,
                      scalar_from_json, scalar_to_json, scalar_to_latex,
                      specialize, theorem1_i, verify_braid_relations)

from braidrep import families
from braidrep.grammar import MAX_BRAID_INDEX, MAX_POWER_BITS, MAX_POWER_DEGREE

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
    with pytest.raises(ParseError, match="^expected a value at end of input$"):
        parse_scalar("z +")
    with pytest.raises(ParseError, match="^exponent must be an integer literal at end of input$"):
        parse_scalar("z^")
    with pytest.raises(ParseError, match="^expected '\\)' at end of input$"):
        parse_scalar("(z")
    with pytest.raises(ParseError):
        parse_scalar("z + omega")
    with pytest.raises(ParseError):
        parse_scalar("q + 1")


def test_zero_divisor_is_a_parse_error_naming_the_slash():
    for text, at in [("1/0", 1), ("z/(z-z)", 1), ("omega/(omega-omega)", 5), ("2.0/0.0", 3)]:
        with pytest.raises(ParseError, match=f"^division by zero at position {at}$"):
            parse_scalar(text)
    with pytest.raises(ParseError, match=r"^division by zero in scalar JSON '3/0'$"):
        scalar_from_json("3/0")


def test_powers_are_capped_before_they_are_computed():
    assert parse_scalar(f"z^{MAX_POWER_DEGREE}").num.degree == MAX_POWER_DEGREE
    assert parse_scalar(f"(z^2)^{MAX_POWER_DEGREE // 2}") == parse_scalar(f"z^{MAX_POWER_DEGREE}")
    for text in [f"z^{MAX_POWER_DEGREE + 1}", f"(z^2)^{MAX_POWER_DEGREE // 2 + 1}",
                 f"(3/2)^{MAX_POWER_BITS // 2 + 1}", f"(z+1000)^{MAX_POWER_BITS // 10 + 1}",
                 f"omega^{MAX_POWER_BITS + 1}", "z^1000^1000"]:
        with pytest.raises(ParseError, match="exceeds the size limit"):
            parse_scalar(text)
    assert parse_scalar(f"(3/2)^{MAX_POWER_BITS // 2}") == Fraction(3, 2) ** (MAX_POWER_BITS // 2)
    assert parse_scalar("1.0^100000") == complex(1.0)  # floats do not grow


def test_qqz_operators_are_capped_before_they_are_computed():
    half = MAX_POWER_DEGREE // 2
    assert parse_scalar(f"z^{half}*z^{half}").num.degree == MAX_POWER_DEGREE
    assert parse_scalar(f"(z+1)^{half}/(z-1)^{half}").den.degree == half
    assert parse_scalar(f"z^{MAX_POWER_DEGREE}*(1/z)").num.degree == MAX_POWER_DEGREE - 1
    for text, at in [(f"(z+1)^{MAX_POWER_DEGREE}*(z+1)^{MAX_POWER_DEGREE}", "'*' at position 10"),
                     (f"z^{MAX_POWER_DEGREE}*z", "'*' at position 6"),
                     ("z^1000/(1/z^100)", "'/' at position 6"),
                     ("z^1000/(z+1)^100+1/(z-1)^100", "'+' at position 16"),
                     ("z^1000/(z+1)^100-1/(z-1)^100", "'-' at position 16"),
                     (f"(2^{MAX_POWER_BITS // 2}*z)*(2^{MAX_POWER_BITS // 2}*z)",
                      "'*' at position 10")]:
        with pytest.raises(ParseError, match=f"^{re.escape(at)} exceeds the size limit"):
            parse_scalar(text)
    # QQ and QQ(omega) values keep only the power cap
    big = f"(3/2)^{MAX_POWER_BITS // 2}"
    assert parse_scalar(f"{big}*{big}") == Fraction(3, 2) ** MAX_POWER_BITS
    assert parse_scalar(f"omega^{MAX_POWER_BITS}*omega^{MAX_POWER_BITS}") == parse_scalar("omega^2")


def test_xi_braid_index_is_capped():
    assert parse_family_spec(f"xi(z; n={MAX_BRAID_INDEX})").braid_index == MAX_BRAID_INDEX
    with pytest.raises(ParseError, match="above the limit"):
        parse_family_spec(f"xi(z; n={MAX_BRAID_INDEX + 1})")


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
    for text in ("thm1_i(z; f=1, f=2)", "thm1_ii(z; e=1; e=2)", "xi(z; n=4, n=5)"):
        with pytest.raises(ParseError, match="parameter '[fen]' is given twice"):
            parse_family_spec(text)


def test_integer_keyword_must_be_an_integer():
    for bad in ("abc", "2.5", ""):
        with pytest.raises(ParseError, match="parameter 'n' must be an integer"):
            parse_family_spec(f"xi(z; n={bad})")


# a value for each family parameter after z
SPEC_VALUES = {"f": "-z/(z+1)", "e": "0", "n": "5"}


def family_specs():
    """Every family in ``families.FAMILIES`` at a symbolic and a rational z."""
    for name, (_, params, _) in families.FAMILIES.items():
        rest = "".join(f"; {p}={SPEC_VALUES[p]}" for p in params[1:])
        for z in ("z", "5/7"):
            yield f"{name}({z}{rest})"


def test_spec_print_parse_round_trip():
    specs = [*family_specs(), "xi(-z)", "standard_s3", "tensor(burau(z),burau(z))",
             "dual(mu(z))"]
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


def test_representation_json_round_trip_keeps_children():
    rep = parse_family_spec("tensor(burau(2),dual(xi(3; n=3)))")
    assert representation_from_json(representation_to_json(rep)).meta == rep.meta


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


# -- printed forms ---------------------------------------------------------------

_Z = RatFunc.gen()

# value, text (format_scalar and str), LaTeX, JSON
PRINTED_FORMS = [
    (RatFunc(0), "0", "0", {"num": [], "den": ["1"]}),
    (RatFunc(Fraction(-3, 4)), "-3/4", r"-\frac{3}{4}", {"num": ["-3/4"], "den": ["1"]}),
    (_Z * _Z - _Z + 1, "z^2 - z + 1", "z^{2}-z+1", {"num": ["1", "-1", "1"], "den": ["1"]}),
    (3 * _Z * _Z - Fraction(1, 2) * _Z, "3*z^2 - (1/2)*z", r"3z^{2}-\frac{1}{2}z",
     {"num": ["0", "-1/2", "3"], "den": ["1"]}),
    (-_Z ** 3 + 2, "-z^3 + 2", "-z^{3}+2", {"num": ["2", "0", "0", "-1"], "den": ["1"]}),
    (-Fraction(2, 3) * _Z, "-(2/3)*z", r"-\frac{2}{3}z", {"num": ["0", "-2/3"], "den": ["1"]}),
    (RatFunc(_Z.num + 1, 2), "(1/2)*z + 1/2", r"\frac{1}{2}z+\frac{1}{2}",
     {"num": ["1/2", "1/2"], "den": ["1"]}),
    (_Z / (2 * _Z + 1), "((1/2)*z)/(z + 1/2)", r"\frac{\frac{1}{2}z}{z+\frac{1}{2}}",
     {"num": ["0", "1/2"], "den": ["1/2", "1"]}),
    ((-_Z * _Z + Fraction(1, 3)) / (_Z * _Z - 4), "(-z^2 + 1/3)/(z^2 - 4)",
     r"\frac{-z^{2}+\frac{1}{3}}{z^{2}-4}",
     {"num": ["1/3", "0", "-1"], "den": ["-4", "0", "1"]}),
    (Omega(0, 0), "0", "0", {"a": "0", "b": "0"}),
    (Omega(-3, 0), "-3", "-3", {"a": "-3", "b": "0"}),
    (Omega(Fraction(1, 3), 0), "1/3", r"\frac{1}{3}", {"a": "1/3", "b": "0"}),
    (Omega(0, 1), "omega", r"\omega", {"a": "0", "b": "1"}),
    (Omega(0, -1), "-omega", r"-\omega", {"a": "0", "b": "-1"}),
    (Omega(0, -5), "-5*omega", r"-5\omega", {"a": "0", "b": "-5"}),
    (Omega(2, 1), "2 + omega", r"2+\omega", {"a": "2", "b": "1"}),
    (Omega(Fraction(-1, 2), -1), "-1/2 - omega", r"-\frac{1}{2}-\omega",
     {"a": "-1/2", "b": "-1"}),
    (Omega(-2, Fraction(3, 4)), "-2 + (3/4)*omega", r"-2+\frac{3}{4}\omega",
     {"a": "-2", "b": "3/4"}),
    (Fraction(0), "0", "0", "0"),
    (Fraction(-7), "-7", "-7", "-7"),
    (Fraction(5, 3), "5/3", r"\frac{5}{3}", "5/3"),
    (Fraction(-5, 3), "-5/3", r"-\frac{5}{3}", "-5/3"),
]


@pytest.mark.parametrize("value, text, latex, as_json", PRINTED_FORMS)
def test_printed_forms(value, text, latex, as_json):
    assert format_scalar(value) == text
    assert str(value) == text
    assert scalar_to_latex(value) == latex
    assert scalar_to_json(value) == as_json


def test_polynomial_str():
    assert [str(p) for p in (Poly(), Poly([Fraction(-3, 4)]), Poly([0, -1]),
                             Poly([Fraction(1, 2), 0, -3]))] == ["0", "-3/4", "-z", "-3*z^2 + 1/2"]


def test_printed_forms_of_seeded_scalars_are_pinned():
    """Every printed form of 3,000 seeded scalars, pinned by digest."""
    rng = random.Random(20190520)
    values = []
    for _ in range(1000):
        values.append(rand_ratfunc(rng, max_degree=4))
        values.append(rand_omega(rng))
        values.append(rand_fraction(rng, -99, 99))
    digest = hashlib.sha256()
    for v in values:
        for form in (format_scalar(v), str(v), scalar_to_latex(v),
                     json.dumps(scalar_to_json(v))):
            digest.update(form.encode() + b"\n")
        if isinstance(v, RatFunc):
            digest.update(f"{v.num}\n{v.den}\n".encode())
    assert digest.hexdigest() == "df626ec727849c55283f4d4321ddd322ee3dba69e5dd19d350b15b3e8939302b"

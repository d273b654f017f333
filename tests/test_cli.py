"""End-to-end tests of the command-line interface and its exit-code contract."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import braidrep
from braidrep import analysis, cli, families, grammar
from braidrep.grammar import matrix_to_json, representation_to_json, scalar_from_json
from braidrep.matrices import Matrix
from braidrep.fields import QQ


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- show ----------------------------------------------------------------------

def test_show_latex(capsys):
    code, out, _ = run(capsys, "show", "burau(z)", "--format", "latex")
    assert code == 0
    assert r"\begin{array}{cc}" in out
    assert out.count(r"\mapsto") == 2


def test_show_json_pins_mu_entry(capsys):
    code, out, _ = run(capsys, "show", "mu(z)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    entry = payload["images"][1]["entries"][2][2]
    assert scalar_from_json(entry) == scalar_from_json({"num": ["1"], "den": ["1", "2", "1"]})


def test_show_text(capsys):
    code, out, _ = run(capsys, "show", "burau(5/7)")
    assert code == 0
    assert "family: burau(5/7)" in out
    assert "-5/7" in out


def test_show_constructor_error_is_exit_3(capsys):
    code, _, err = run(capsys, "show", "burau(0)")
    assert code == 3
    assert "excluded parameter" in err


def test_show_parse_error_is_exit_2(capsys):
    code, _, err = run(capsys, "show", "nosuch(z)")
    assert code == 2
    assert "parse error" in err


def test_usage_error_is_exit_2(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_non_integer_braid_index_is_exit_2(capsys):
    code, _, err = run(capsys, "show", "xi(z; n=abc)")
    assert code == 2
    assert "parse error: parameter 'n' must be an integer" in err


@pytest.mark.parametrize("spec,message", [
    ("burau(1/0)", "division by zero at position 1"),
    ("xi(z/(z-z))", "division by zero at position 1"),
    ("xi(z; n=201)", "parameter 'n' is 201, above the limit 200"),
    ("xi(z^1025)", "power ^1025 at position 2 exceeds the size limit"),
    ("xi(z^1000^1000)", "power ^1000 at position 7 exceeds the size limit"),
])
def test_zero_divisors_and_oversized_specs_are_exit_2(capsys, spec, message):
    code, out, err = run(capsys, "show", spec)
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: {message}")


def test_chained_in_cap_powers_are_exit_2_before_the_product(capsys):
    start = time.perf_counter()
    result = run(capsys, "verify", "xi((z+1)^1024*(z+1)^1024)")
    assert time.perf_counter() - start < 1
    assert result == (2, "", "parse error: '*' at position 10 exceeds the size limit "
                             "(degree 1024, 4096 bits)\n")


# one digit more than the interpreter converts from a string to an int
LONG_LITERAL = "7" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no integer string limit")
@pytest.mark.parametrize("argv,message", [
    (("show", "xi(1.5^100000)"), "power ^100000 at position 4 overflows the floating field"),
    (("show", f"xi({LONG_LITERAL})"), "integer literal of {} digits at position 0 is too long"),
    (("show", f"xi(z^{LONG_LITERAL})"), "integer literal of {} digits at position 2 is too long"),
    (("specialize", "mu(z)", LONG_LITERAL),
     "integer literal of {} digits at position 0 is too long"),
], ids=["float-power-overflow", "long-literal", "long-exponent", "long-point"])
def test_float_overflow_and_overlong_literals_are_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"parse error: {message.format(len(LONG_LITERAL))}\n"


# under the interpreter's integer string limit, so each literal parses; the
# product and mu's z^4 hold more digits than the limit lets print
DIGITS_4000 = "7" * 4000


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no integer string limit")
@pytest.mark.parametrize("argv", [
    ("show", f"xi({DIGITS_4000}*{DIGITS_4000})"),
    ("show", f"xi({DIGITS_4000}*{DIGITS_4000})", "--format", "json"),
    ("show", f"mu({DIGITS_4000}/3)"),
    ("specialize", "mu(z)", f"{DIGITS_4000}/3", "--format", "latex"),
], ids=["text", "json", "mu", "specialize-latex"])
def test_output_over_the_digit_limit_is_a_render_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == (f"error: render: the result holds an integer of more than "
                   f"{sys.get_int_max_str_digits()} digits, the limit for printing one\n")


def test_spec_and_point_length_caps(capsys):
    cap = grammar.MAX_SPEC_CHARS
    at_cap = "xi(" + " " * (cap - 5) + "2)"
    assert len(at_cap) == cap
    assert run(capsys, "show", at_cap)[0] == 0
    code, out, err = run(capsys, "show", at_cap + " ")
    assert (code, out) == (2, "")
    assert err == f"parse error: spec of {cap + 1} characters is longer than the limit {cap}\n"
    code, _, err = run(capsys, "isomorphic", "xi(2)", at_cap + " ")
    assert code == 2 and "spec of" in err
    code, _, err = run(capsys, "specialize", "mu(z)", " " * (cap - 1) + "2")
    assert code == 0
    code, out, err = run(capsys, "specialize", "mu(z)", " " * cap + "2")
    assert (code, out) == (2, "")
    assert err == f"parse error: point of {cap + 1} characters is longer than the limit {cap}\n"


def test_raw_file_size_cap(capsys, tmp_path):
    cap = grammar.MAX_RAW_BYTES
    text = json.dumps(representation_to_json(families.burau3(Fraction(5, 7))))
    path = tmp_path / "rep.json"
    path.write_text(text + " " * (cap - len(text)))
    assert path.stat().st_size == cap
    assert run(capsys, "verify", "--raw", str(path))[0] == 0
    path.write_text(text + " " * (cap + 1 - len(text)))
    code, out, err = run(capsys, "verify", "--raw", str(path))
    assert (code, out) == (2, "")
    assert err == f"parse error: --raw file is larger than the limit of {cap} bytes\n"


# each kind of nesting at the limit, one level above it, and far above it
NESTED = {
    "dual": lambda k: "dual(" * k + "burau(z)" + ")" * k,
    "parentheses": lambda k: "xi(" + "(" * k + "z" + ")" * k + ")",
    "unary-minus": lambda k: "xi(" + "-" * k + "z)",
}


@pytest.mark.parametrize("kind", sorted(NESTED))
def test_nesting_limit(capsys, kind):
    limit = grammar.MAX_NESTING
    for fmt in ("text", "json", "latex"):
        assert run(capsys, "show", NESTED[kind](limit), "--format", fmt)[0] == 0
    for depth in (limit + 1, {"dual": 1200, "parentheses": 3000, "unary-minus": 5000}[kind]):
        code, out, err = run(capsys, "show", NESTED[kind](depth))
        assert (code, out) == (2, "")
        assert err.startswith(f"parse error: nesting deeper than {limit} levels at position ")


def test_point_nesting_limit(capsys):
    limit = grammar.MAX_NESTING
    assert run(capsys, "specialize", "mu(z)", "(" * limit + "2" + ")" * limit)[0] == 0
    assert run(capsys, "specialize", "--", "mu(z)", "-" * limit + "2")[0] == 0
    for point in ("(" * (limit + 1) + "2" + ")" * (limit + 1), "-" * (limit + 1) + "2"):
        code, out, err = run(capsys, "specialize", "--", "mu(z)", point)
        assert (code, out) == (2, "")
        assert err.startswith(f"parse error: nesting deeper than {limit} levels at position ")


@pytest.mark.parametrize("content,message", [
    (None, "cannot read --raw file {}: No such file or directory"),
    ("directory", "cannot read --raw file {}: Is a directory"),
    (b"\xff{}", "--raw file {} is not UTF-8 JSON: 'utf-8' codec can't decode byte 0xff"),
    (b'{"braid_index": 3, "images": [', "--raw file {} is not UTF-8 JSON: Expecting value"),
    (b"[" * 200_000, "--raw file {} is not UTF-8 JSON: maximum recursion depth exceeded"),
], ids=["missing", "directory", "not-utf-8", "truncated", "deep"])
def test_unloadable_raw_file_is_exit_2_naming_it(capsys, tmp_path, content, message):
    path = tmp_path / "rep.json"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    code, out, err = run(capsys, "verify", "--raw", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: " + message.format(path))


@pytest.mark.parametrize("spec,message", [
    ("xi(z^)", "exponent must be an integer literal at end of input"),
    ("xi(z+)", "expected a value at end of input"),
])
def test_parse_error_at_end_of_input_says_so(capsys, spec, message):
    assert run(capsys, "show", spec) == (2, "", f"parse error: {message}\n")


# a float beyond the double range, and an integer beyond it
HUGE_FLOAT = "7" * 401 + ".5"
HUGE_INT = "7" * 401


@pytest.mark.parametrize("argv,message", [
    (("show", "xi(1e400)"), "number at position 0 is not a finite float"),
    (("show", "xi(1e308*10)"), "the value is not a finite float"),
    (("show", "xi(1e308*10-1e308*10)"), "the value is not a finite float"),
    (("show", f"xi(1.5+{HUGE_INT})"), "number at position 4 is not a finite float"),
    (("specialize", "mu(z)", HUGE_FLOAT), "number at position 0 is not a finite float"),
], ids=["inf-literal", "inf-result", "nan-result", "huge-int", "huge-point"])
def test_non_finite_floats_are_exit_2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"parse error: {message}\n")


def test_float_overflow_after_parsing_is_exit_3(capsys):
    assert run(capsys, "show", "mu(1e200)") == (3, "", "error: complex exponentiation\n")


# Products or powers that leave the double range: no tolerance test decides
# inf or nan, so the floating field's equality raises instead of answering.
@pytest.mark.parametrize("argv,shown", [
    (("verify", "xi(1e200)"), "(inf+nanj)"),
    (("verify", "burau(1e160)"), "(nan+nanj)"),
    (("verify", "tensor(burau(1e100),burau(1e100))"), "(nan+nanj)"),
    (("specialize", "mu(z)", "1e200"), "inf"),
    (("specialize", "mu(z)", "1e100"), "(inf+nanj)"),
], ids=["verify-xi", "verify-burau", "verify-tensor", "specialize-denominator",
        "specialize-entry"])
def test_float_overflow_in_a_check_is_exit_3(capsys, argv, shown):
    assert run(capsys, *argv) == (
        3, "", f"error: floating-point overflow: {shown} is not finite\n")


def test_decompose_at_a_huge_float_loses_precision_without_overflow(capsys):
    # Every value stays finite (at most 1e200); the basis change holds 1e-100
    # next to 1, which rounds away, so the split is not block-diagonal.
    assert run(capsys, "decompose", "tensor(burau(1e100),burau(1e100))") == (
        1, "decomposition failed: splitting failed to block-diagonalize\n", "")


@pytest.mark.parametrize("re_text,shown", [
    ("Infinity", "scalar JSON {'re': inf, 'im': 0.0} is not a finite float"),
    ("1e400", "scalar JSON {'re': inf, 'im': 0.0} is not a finite float"),
    ("NaN", "scalar JSON {'re': nan, 'im': 0.0} is not a finite float"),
    (HUGE_INT, "int too large to convert to float"),
], ids=["infinity", "overflowing-literal", "nan", "huge-int"])
def test_raw_non_finite_float_is_exit_2(capsys, tmp_path, re_text, shown):
    one = '{"rows": 1, "cols": 1, "entries": [[{"re": 2.0, "im": 0.0}]]}'
    bad = '{"rows": 1, "cols": 1, "entries": [[{"re": %s, "im": 0.0}]]}' % re_text
    path = tmp_path / "rep.json"
    path.write_text('{"braid_index": 3, "images": [%s, %s]}' % (bad, one))
    assert run(capsys, "verify", "--raw", str(path)) == (
        2, "", f"parse error: bad matrix JSON: {shown}\n")


def tensor_power(base, k):
    spec = base
    for _ in range(k - 1):
        spec = f"tensor({spec},{base})"
    return spec


def test_dimension_cap(capsys, tmp_path):
    cap = grammar.MAX_DIMENSION
    assert cap == 16
    at_cap = tensor_power("burau(2)", 4)
    assert run(capsys, "verify", at_cap)[0] == 0
    for spec, shown in [(f"direct_sum({at_cap},xi(2))", "direct_sum of dimensions 16, 1"),
                        (f"tensor({at_cap},burau(2))", "tensor of dimensions 16, 2")]:
        assert run(capsys, "verify", spec) == (
            2, "", f"parse error: {shown} is above the limit {cap}\n")
    for n, expect in [(cap, 0), (cap + 1, 2)]:
        image = matrix_to_json(Matrix.identity(n, QQ))
        path = tmp_path / f"rep{n}.json"
        path.write_text(json.dumps({"braid_index": 3, "images": [image, image]}))
        code, _, err = run(capsys, "verify", "--raw", str(path))
        assert code == expect
        if expect:
            assert err == (f"parse error: bad matrix JSON: {n} x {n} is above the "
                           f"dimension limit {cap}\n")


def test_isomorphic_unknowns_cap(capsys):
    cap = grammar.MAX_ISOMORPHIC_UNKNOWNS
    assert cap == 64
    eight = tensor_power("burau(2)", 3)
    assert run(capsys, "isomorphic", eight, eight)[0] == 0
    assert run(capsys, "isomorphic", eight, f"direct_sum({eight},xi(2))") == (
        2, "", f"parse error: isomorphic has 72 unknowns, above the limit {cap}\n")


def raw_rep(tmp_path, **changes):
    payload = representation_to_json(families.burau3(Fraction(5, 7)))
    payload.update(changes)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("braid_index", ["3", 3.0, True, None])
def test_verify_raw_non_integer_braid_index_is_exit_2(capsys, tmp_path, braid_index):
    code, _, err = run(capsys, "verify", "--raw", raw_rep(tmp_path, braid_index=braid_index))
    assert code == 2
    assert "parse error: bad representation JSON: braid_index must be an integer" in err


def test_verify_raw_zero_divisor_is_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--raw",
                       raw_rep(tmp_path, meta={"family": "burau", "params": {"z": "1/0"}}))
    assert code == 2
    assert "parse error: division by zero at position 1" in err
    entries = [[{"num": ["1"], "den": ["0"]}]]
    images = [{"rows": 1, "cols": 1, "entries": entries}] * 2
    code, _, err = run(capsys, "verify", "--raw", raw_rep(tmp_path, images=images))
    assert code == 2
    assert "division by zero in scalar JSON {'num': ['1'], 'den': ['0']}" in err


def nested_meta(depth):
    meta = {"family": "raw"}
    for _ in range(depth):
        meta = {"family": "dual", "children": [meta]}
    return meta


@pytest.mark.parametrize("meta,message", [
    (5, "meta must be an object, got 5"),
    ({"family": "burau", "params": [1, 2]}, "meta params must be an object, got [1, 2]"),
    ({"family": "burau", "params": {"z": [1]}},
     "meta param 'z' must be a string or an integer, got [1]"),
    ({"family": "mu", "params": {}}, "meta family 'mu' needs param 'z'"),
    ({"family": 5, "params": {"z": "2"}}, "meta family must be a string, got 5"),
    ({"family": "xi", "params": {"z": "2", "n": True}},
     "meta param 'n' must be a string or an integer, got True"),
    ({"family": "burau", "params": {"z": "1" + "+1" * (grammar.MAX_SPEC_CHARS // 2)}},
     f"meta param 'z' of {grammar.MAX_SPEC_CHARS + 1} characters is longer than the "
     f"limit {grammar.MAX_SPEC_CHARS}"),
    ({"family": "tensor", "children": "ab"}, "meta children must be a list, got 'ab'"),
    ({"family": "tensor", "children": [{"family": "burau"}, 5]},
     "meta family 'burau' needs param 'z'"),
    (nested_meta(grammar.MAX_NESTING + 1),
     f"meta children nest deeper than {grammar.MAX_NESTING} levels"),
], ids=["not-object", "params-list", "param-list", "missing-z", "family-int", "param-bool",
        "param-too-long", "children-string", "bad-child", "too-deep"])
def test_malformed_raw_meta_is_exit_2(capsys, tmp_path, meta, message):
    assert run(capsys, "show", "--raw", raw_rep(tmp_path, meta=meta)) == (
        2, "", f"parse error: bad representation JSON: {message}\n")


@pytest.mark.parametrize("meta,family", [
    (None, "raw"),
    ({"family": "raw", "params": {}}, "raw"),
    ({"family": "xi", "params": {"z": "z+1", "n": 4}}, "xi(z + 1; n=4)"),
    (nested_meta(grammar.MAX_NESTING),
     "dual(" * grammar.MAX_NESTING + "raw" + ")" * grammar.MAX_NESTING),
])
def test_raw_meta_is_printed(capsys, tmp_path, meta, family):
    code, out, _ = run(capsys, "show", "--raw", raw_rep(tmp_path, meta=meta))
    assert (code, out.splitlines()[0]) == (0, f"family: {family}")


def test_show_raw_round_trip_prints_children(capsys, tmp_path):
    out = run(capsys, "show", "tensor(burau(2),burau(2))", "--format", "json")[1]
    path = tmp_path / "rep.json"
    path.write_text(out)
    assert run(capsys, "show", "--raw", str(path))[1].startswith(
        "family: tensor(burau(2),burau(2))\n")


@pytest.mark.parametrize("module", ["braidrep", "braidrep.cli"])
def test_python_dash_m_runs_the_cli(capsys, module):
    env = dict(os.environ, PYTHONPATH=str(Path(braidrep.__file__).parents[1]))

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    shown = python_m("show", "burau(z)")
    assert (shown.returncode, shown.stdout) == run(capsys, "show", "burau(z)")[:2]
    bad = python_m("show", "bad(")
    assert bad.returncode == 2
    assert "parse error" in bad.stderr


# -- verify ----------------------------------------------------------------------

def test_verify_burau(capsys):
    code, out, _ = run(capsys, "verify", "burau(z)")
    assert code == 0
    assert "overall: holds" in out


def test_verify_family_ii(capsys):
    code, out, _ = run(capsys, "verify", "thm1_ii(z; e=0)", "--format", "json")
    assert code == 0
    assert json.loads(out)["overall"] is True


def test_verify_raw_perturbed_fails_with_exit_1(capsys, tmp_path):
    rep = families.burau3(Fraction(5, 7))
    bump = Matrix.from_rows([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]], QQ)
    perturbed = families.raw([rep.images[0], rep.images[1] + bump])
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(representation_to_json(perturbed)))
    code, out, _ = run(capsys, "verify", "--raw", str(path))
    assert code == 1
    assert "violated" in out


def test_verify_raw_round_trip_of_valid_rep(capsys, tmp_path):
    rep = families.mu(Fraction(3, 2))
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(representation_to_json(rep)))
    code, out, _ = run(capsys, "verify", "--raw", str(path))
    assert code == 0


def test_verify_raw_ragged_rows_is_exit_2(capsys, tmp_path):
    payload = {"braid_index": 3, "images": [
        {"rows": 2, "cols": 2, "entries": [["1", "0"], ["0"]]},
        {"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "1"]]}]}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "verify", "--raw", str(path))
    assert code == 2
    assert "parse error: bad matrix JSON: expected 2 rows of 2 entries" in err


def test_verify_raw_singular_image_is_exit_3(capsys, tmp_path):
    payload = {"braid_index": 3, "images": [
        {"rows": 1, "cols": 1, "entries": [["1"]]},
        {"rows": 1, "cols": 1, "entries": [["0"]]}]}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "verify", "--raw", str(path))
    assert code == 3
    assert "not invertible" in err


# -- decompose ---------------------------------------------------------------------

def test_decompose_tensor_square(capsys):
    code, out, _ = run(capsys, "decompose", "tensor(burau(z),burau(z))", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [len(b["images"][0]["entries"]) for b in payload["blocks"]] == [1, 3]
    assert payload["witnesses"][0]["eigenvalue"] == {"num": ["0", "-1"], "den": ["1"]}


def test_decompose_mu_at_one(capsys):
    code, out, _ = run(capsys, "decompose", "mu(1)")
    assert code == 0
    assert "block 1 (1-dimensional)" in out
    assert "block 2 (2-dimensional)" in out


def test_decompose_with_a_wrong_complement_is_exit_1(capsys, monkeypatch):
    real_lines = analysis.common_invariant_lines

    def wrong_left_lines(rep, side="right"):
        lines = real_lines(rep, side)
        if side == "left":  # swap in e2, which pairs with the line but is not invariant
            e2 = Matrix.column([0, 1, 0, 0], rep.field)
            lines = [analysis.InvariantLine(lines[0].eigenvalue, e2, "left")]
        return lines

    monkeypatch.setattr(analysis, "common_invariant_lines", wrong_left_lines)
    code, out, err = run(capsys, "decompose", "tensor(burau(z),burau(z))")
    assert code == 1
    assert "decomposition failed: splitting failed to block-diagonalize" in out
    assert err == ""


def test_decompose_burau_reports_no_line(capsys):
    code, out, _ = run(capsys, "decompose", "burau(z)")
    assert code == 1
    assert "no 1-dim invariant subspace" in out


# -- specialize ---------------------------------------------------------------------

def test_specialize_at_rational(capsys):
    code, out, _ = run(capsys, "specialize", "burau(z)", "1")
    assert code == 0
    assert "family: burau(1)" in out


def test_specialize_at_omega(capsys):
    code, out, _ = run(capsys, "specialize", "mu(z)", "omega")
    assert code == 0
    assert "omega" in out


def test_specialize_at_float(capsys):
    code, out, _ = run(capsys, "specialize", "burau(z)", "0.5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["images"][0]["entries"][0][0] == {"re": -0.5, "im": 0.0}


def test_specialize_pole_is_exit_3(capsys):
    code, _, err = run(capsys, "specialize", "burau_diag(z)", "-1")
    assert code == 3
    assert "pole" in err


# -- isomorphic ---------------------------------------------------------------------

def test_isomorphic_pascal(capsys):
    code, out, _ = run(capsys, "isomorphic", "mu(z)", "mu_pascal(z)")
    assert code == 0
    assert "verdict: yes" in out


def test_not_isomorphic_is_exit_1(capsys):
    code, out, _ = run(capsys, "isomorphic", "xi(z)", "xi(-z)", "--format", "json")
    assert code == 1
    assert json.loads(out)["verdict"] == "no"


def test_undecided_isomorphism_is_exit_1(capsys):
    code, out, _ = run(capsys, "isomorphic", "direct_sum(direct_sum(xi(2),xi(2)),xi(3))",
                       "direct_sum(direct_sum(xi(2),xi(2)),xi(5))", "--format", "json")
    assert (code, json.loads(out)) == (1, {"verdict": "undecided"})


# -- suite --------------------------------------------------------------------------

def test_suite_passes_and_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "suite", "--format", "json", "--seed", "7")
    code2, out2, _ = run(capsys, "suite", "--format", "json", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    statuses = {c["id"]: c["status"] for c in payload["checks"]}
    assert statuses["AC01"] == "pass"
    assert statuses["OQ01"] == statuses["OQ02"] == "reported"


def test_suite_output_survives_python_dash_o():
    # certificates are real errors, not asserts that -O strips
    env = dict(os.environ, PYTHONPATH=str(Path(braidrep.__file__).parents[1]))
    argv = ["-m", "braidrep", "suite", "--format", "json"]
    runs = [subprocess.run([sys.executable, *flags, *argv], env=env, capture_output=True,
                           timeout=120) for flags in ([], ["-O"])]
    plain, optimized = runs
    assert plain.returncode == 0
    assert (optimized.returncode, optimized.stdout) == (plain.returncode, plain.stdout)


def test_suite_on_corrupted_build_names_failing_check(capsys, monkeypatch):
    real_mu = families.mu

    def corrupted_mu(z):
        rep = real_mu(z)
        field = rep.field
        bump = Matrix.zero(3, 3, field)
        rows = bump.to_rows()
        rows[0][0] = field.one
        bad = rep.images[1] + Matrix.from_rows(rows, field)
        return families.raw([rep.images[0], bad], meta=rep.meta)

    monkeypatch.setattr(families, "mu", corrupted_mu)
    code, out, _ = run(capsys, "suite", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    failing = [c["id"] for c in payload["checks"] if c["status"] == "fail"]
    assert "AC03" in failing  # the tensor-square golden comparison

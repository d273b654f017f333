"""End-to-end tests of the command-line interface and its exit-code contract."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import braidrep
from braidrep import analysis, cli, families
from braidrep.grammar import representation_to_json, scalar_from_json
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

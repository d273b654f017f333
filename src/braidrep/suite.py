"""The full replication suite.

Every identity the library is built around, run as one deterministic
checklist: symbolic braid relations for all families, the diagonalization
and tensor-square goldens, eigenvector and decomposition checks, the
irreducibility locus, the z = 1 and Pascal-basis specializations, family
parameter properties, Schur checks, float/exact agreement, and negative
controls.  Two extra probes report computed answers to questions the
construction leaves open, without pass/fail semantics.
"""

from __future__ import annotations

import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from .fields import CC, DEFAULT_EPS, QQ, QW, QZ, RatFunc, to_complex
from .matrices import Matrix, conjugate
from . import families as fam
from .families import ParameterError
from .analysis import (DEFAULT_SEED, DecompositionError, common_invariant_lines,
                       intertwiners, is_irreducible, is_isomorphic, split_once,
                       verify_braid_relations)
from .grammar import format_scalar, matrix_to_json, scalar_to_json


class CheckResult:
    """One check's outcome; ``_fail`` marks it failed and records why."""

    __slots__ = ("check_id", "description", "status", "details")

    def __init__(self, check_id: str, description: str, status: str):
        self.check_id, self.description = check_id, description
        self.status = status  # "pass", "fail" or "reported"
        self.details = {}


class SuiteResult:
    __slots__ = ("seed", "checks")

    def __init__(self, seed: int, checks: list):
        self.seed, self.checks = seed, checks

    @property
    def exit_code(self) -> int:
        return 0 if all(c.status != "fail" for c in self.checks) else 1

    def to_json_dict(self) -> dict:
        return {"seed": self.seed, "epsilon": DEFAULT_EPS,
                "checks": [{"id": c.check_id, "description": c.description,
                            "status": c.status, "details": c.details}
                           for c in self.checks],
                "exit_code": self.exit_code}

    def render_text(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(f"{c.check_id:<6} {c.status.upper():<8} {c.description}")
            if c.status == "fail":
                for k, v in c.details.items():
                    lines.append(f"       {k}: {v}")
        lines.append(f"result: exit {self.exit_code}")
        return "\n".join(lines)


def _fail(result: CheckResult, key: str, payload) -> None:
    result.status = "fail"
    result.details[key] = payload


# ---------------------------------------------------------------------------
# Frozen goldens for the tensor square, written out entry by entry


def golden_tensor_sigma1(z: RatFunc) -> Matrix:
    one, zero = QZ.one, QZ.zero
    return Matrix.from_rows([
        [z * z, zero, zero, zero],
        [-z, -z, zero, zero],
        [-z, zero, -z, zero],
        [one, one, one, one]], QZ)


def golden_tensor_sigma2(z: RatFunc) -> Matrix:
    one, zero = QZ.one, QZ.zero
    return Matrix.from_rows([
        [one, z, z, z * z],
        [zero, -z, zero, -(z * z)],
        [zero, zero, -z, -(z * z)],
        [zero, zero, zero, z * z]], QZ)


def golden_tensor_basis(z: RatFunc) -> Matrix:
    one, zero = QZ.one, QZ.zero
    return Matrix.from_rows([
        [zero, zero, zero, z * z + 2 * z + one],
        [zero, -z - one, -one, -z - one],
        [zero, zero, one, -z - one],
        [one, one, zero, one]], QZ)


def golden_conjugated_sigma1(z: RatFunc) -> Matrix:
    return Matrix.diagonal([QZ.one, -z, -z, z * z], QZ)


def golden_conjugated_sigma2(z: RatFunc) -> Matrix:
    one, zero = QZ.one, QZ.zero
    d = (z + one) ** 2
    w = z * z + z + one
    return Matrix.from_rows([
        [z ** 4 / d, (z * z) * w / d, zero, w * w / d],
        [2 * z ** 3 / d, z * (z * z + one) / d, zero, -(2 * w) / d],
        [-(z ** 3) / (z + one), -z * w / (z + one), -z, w / (z + one)],
        [(z * z) / d, -z / d, zero, one / d]], QZ)


# ---------------------------------------------------------------------------
# Checks


def check_ac01(seed: int = DEFAULT_SEED) -> CheckResult:
    result = CheckResult("AC01", "symbolic braid relations for every named family", "pass")
    z = QZ.gen
    one = QZ.one
    reps = {
        "burau(z)": fam.burau3(z),
        "burau_diag(z)": fam.burau3_diag(z),
        "mu(z)": fam.mu(z),
        "mu_pascal(z)": fam.mu_pascal(z),
        "thm1_i(z; f=-z/(z+1))": fam.theorem1_i(z, -z / (z + one)),
        "thm1_i(z; f=1)": fam.theorem1_i(z, one),
        "thm1_i(z; f=z)": fam.theorem1_i(z, z),
        "thm1_ii(z; e=0)": fam.theorem1_ii(z, QZ.lift(0)),
        "thm1_ii(z; e=1)": fam.theorem1_ii(z, QZ.lift(1)),
        "thm1_ii(z; e=2)": fam.theorem1_ii(z, QZ.lift(2)),
        "thm1_ii(z; e=-1)": fam.theorem1_ii(z, QZ.lift(-1)),
        "xi(z)": fam.xi(z),
        "xi(-z)": fam.xi(-z),
    }
    for label, rep in reps.items():
        report = verify_braid_relations(rep)
        if not report.overall:
            _fail(result, label, "braid relation violated")
    result.details["families_checked"] = len(reps)
    return result


def check_ac02(seed: int = DEFAULT_SEED) -> CheckResult:
    result = CheckResult("AC02", "diagonalized Burau equals Burau conjugated by "
                                 "its change of basis, entry by entry", "pass")
    z = QZ.gen
    b = fam.burau3(z)
    diag = fam.burau3_diag(z)
    p = fam.burau_change_of_basis(z)
    for k, (m, expect) in enumerate(zip(b.images, diag.images), start=1):
        got = conjugate(p, m)
        if got != expect:
            _fail(result, f"sigma_{k}", matrix_to_json(got))
    return result


def check_ac03(seed: int = DEFAULT_SEED) -> CheckResult:
    result = CheckResult("AC03", "tensor-square goldens: product matrices, "
                                 "conjugated forms, deleted row/column", "pass")
    z = QZ.gen
    square = fam.tensor(fam.burau3(z), fam.burau3(z))
    goldens = (golden_tensor_sigma1(z), golden_tensor_sigma2(z))
    for k, (m, expect) in enumerate(zip(square.images, goldens), start=1):
        if m != expect:
            _fail(result, f"tensor sigma_{k}", matrix_to_json(m))
    p = golden_tensor_basis(z)
    conjugated = [conjugate(p, m) for m in square.images]
    expects = (golden_conjugated_sigma1(z), golden_conjugated_sigma2(z))
    for k, (m, expect) in enumerate(zip(conjugated, expects), start=1):
        if m != expect:
            _fail(result, f"conjugated sigma_{k}", matrix_to_json(m))
    three_dim = fam.mu(z)
    for k, (m, expect) in enumerate(zip(conjugated, three_dim.images), start=1):
        if m.delete_row_col(2, 2) != expect:
            _fail(result, f"deleted sigma_{k}", matrix_to_json(m.delete_row_col(2, 2)))
    return result


def check_ac04(seed: int = DEFAULT_SEED) -> CheckResult:
    result = CheckResult("AC04", "eigenvectors of the dense 3x3 generator at "
                                 "eigenvalues 1, -z, z^2", "pass")
    z = QZ.gen
    one = QZ.one
    d = fam.mu(z).images[1]
    w = z * z + z + one
    expected = {
        "1": (one, Matrix.column([one, QZ.lift(-2), one], QZ)),
        "-z": (-z, Matrix.column([-w / z, (z * z + one) / z, one], QZ)),
        "z^2": (z * z, Matrix.column(
            [(z ** 4 + 2 * z ** 3 + 3 * z * z + 2 * z + one) / (z * z),
             (2 * z * z + 2 * z + 2 * one) / z, one], QZ)),
    }
    for label, (lam, vec) in expected.items():
        basis = d.sub_scalar(lam).kernel()
        want = vec.scale(QZ.inv(vec.entries[0]))  # leading-one normalization
        if len(basis) != 1 or basis[0] != want:
            _fail(result, f"eigenvalue {label}",
                  [matrix_to_json(v) for v in basis])
    return result


def check_ac05(seed: int = DEFAULT_SEED) -> CheckResult:
    result = CheckResult("AC05", "tensor square splits as scalar line plus an "
                                 "invariant complement isomorphic to mu", "pass")
    z = QZ.gen
    square = fam.tensor(fam.burau3(z), fam.burau3(z))
    try:
        report = split_once(square)
    except DecompositionError as exc:
        _fail(result, "split", str(exc))
        return result
    scalar_block, rest = report.blocks
    if scalar_block.images[0] != fam.xi(-z).images[0]:
        _fail(result, "scalar block", matrix_to_json(scalar_block.images[0]))
    basis = report.basis_change
    inv = basis.inverse()
    for k, m in enumerate(square.images, start=1):
        conj = inv * m * basis
        off = [conj[i, 0] for i in range(1, 4)] + [conj[0, j] for j in range(1, 4)]
        if any(not QZ.is_zero(x) for x in off):
            _fail(result, f"block diagonality sigma_{k}", matrix_to_json(conj))
    iso = is_isomorphic(rest, fam.mu(z))
    if iso.verdict != "yes":
        _fail(result, "three-dim block vs mu", iso.verdict)
    else:
        conjugator = iso.conjugator
        for m1, m2 in zip(rest.images, fam.mu(z).images):
            if conjugator * m1 != m2 * conjugator:
                _fail(result, "intertwiner identity", matrix_to_json(conjugator))
        result.details["conjugator"] = matrix_to_json(conjugator)
    return result


def check_ac06(seed: int = DEFAULT_SEED) -> CheckResult:
    result = CheckResult("AC06", "irreducibility locus of mu: generic yes, "
                                 "z = 1 and z = omega no, 100 random rationals yes", "pass")
    z = QZ.gen
    if not is_irreducible(fam.mu(z)):
        _fail(result, "symbolic", "expected irreducible")
    if is_irreducible(fam.specialize(fam.mu(z), Fraction(1))).irreducible:
        _fail(result, "z=1", "expected reducible")
    if is_irreducible(fam.mu(QW.omega)).irreducible:
        _fail(result, "z=omega", "expected reducible")
    rng = random.Random(seed)
    points = []
    while len(points) < 100:
        q = Fraction(rng.randint(-60, 60), rng.randint(1, 40))
        if q in (0, -1, 1):
            continue
        points.append(q)
    bad = [str(q) for q in points if not is_irreducible(fam.mu(q)).irreducible]
    if bad:
        _fail(result, "random points reducible", bad)
    result.details["random_points"] = len(points)
    return result


def check_ac07(seed: int = DEFAULT_SEED) -> CheckResult:
    result = CheckResult("AC07", "z = 1 specialization: shared eigenvector, "
                                 "split into trivial line plus Burau(1), trace identity", "pass")
    mu_at_one = fam.specialize(fam.mu(QZ.gen), Fraction(1))
    lines = common_invariant_lines(mu_at_one, "right")
    want = Matrix.column([Fraction(1), Fraction(0), Fraction(1, 3)], QQ)  # (3, 0, 1) normalized
    if len(lines) != 1 or lines[0].vector != want or lines[0].eigenvalue != 1:
        _fail(result, "shared eigenvector", [matrix_to_json(l.vector) for l in lines])
    try:
        report = split_once(mu_at_one)
    except DecompositionError as exc:
        _fail(result, "split at z=1", str(exc))
        return result
    if report.blocks[0].images[0] != fam.xi(Fraction(1)).images[0]:
        _fail(result, "trivial block", matrix_to_json(report.blocks[0].images[0]))
    rho = fam.burau3(Fraction(1))
    if is_isomorphic(report.blocks[1], rho).verdict != "yes":
        _fail(result, "two-dim block vs burau(1)", "not isomorphic")
    ident = Matrix.identity(2, QQ)
    if any(m * m != ident for m in rho.images):
        _fail(result, "involutions", "images of burau(1) must square to the identity")
    square_at_one = fam.tensor(rho, rho)
    sign = fam.xi(Fraction(-1))
    for word in ((1,), (2,), (1, 2)):
        lhs = square_at_one.image_of_word(word).trace()
        rhs = rho.image_of_word(word).trace() + sign.image_of_word(word).trace() + 1
        if lhs != rhs:
            _fail(result, f"trace identity word {word}", f"{lhs} != {rhs}")
    return result


def check_ac08(seed: int = DEFAULT_SEED) -> CheckResult:
    result = CheckResult("AC08", "Pascal-basis form matches its golden matrices "
                                 "and is isomorphic to mu with an exact conjugator", "pass")
    z = QZ.gen
    one, zero, two = QZ.one, QZ.zero, QZ.lift(2)
    golden_s1 = Matrix.from_rows([[z * z, zero, zero], [-z, -z, zero], [one, two, one]], QZ)
    golden_s2 = Matrix.from_rows([[one, 2 * z, z * z], [zero, -z, -(z * z)],
                                   [zero, zero, z * z]], QZ)
    pascal = fam.mu_pascal(z)
    if pascal.images[0] != golden_s1 or pascal.images[1] != golden_s2:
        _fail(result, "golden matrices", [matrix_to_json(m) for m in pascal.images])
    iso = is_isomorphic(fam.mu(z), pascal)
    if iso.verdict != "yes":
        _fail(result, "isomorphism", iso.verdict)
    else:
        m = iso.conjugator
        for m1, m2 in zip(fam.mu(z).images, pascal.images):
            if m * m1 != m2 * m:
                _fail(result, "conjugator identity", matrix_to_json(m))
        result.details["conjugator"] = matrix_to_json(m)
    return result


def check_ac09(seed: int = DEFAULT_SEED) -> CheckResult:
    result = CheckResult("AC09", "family parameter properties: forced off-diagonal "
                                 "product, f-scaling by conjugation, family (ii) "
                                 "irreducible, family (i) reducible at omega", "pass")
    z = QZ.gen
    one = QZ.one
    forced = z * (z * z + z + one) / ((z + one) ** 2)
    for f in (one, z, -z / (z + one)):
        rep = fam.theorem1_i(z, f)
        s2 = rep.images[1]
        if s2[0, 1] * s2[1, 0] != forced:
            _fail(result, f"off-diagonal product at f={format_scalar(f)}",
                  format_scalar(s2[0, 1] * s2[1, 0]))
    rng = random.Random(seed)
    base = fam.theorem1_i(z, one)
    for _ in range(20):
        t = Fraction(rng.randint(1, 30), rng.randint(1, 30)) * (1 if rng.random() < 0.5 else -1)
        scaling = Matrix.diagonal([one, QZ.lift(t)], QZ)
        scaled = fam.theorem1_i(z, QZ.lift(t))
        for m, expect in zip(base.images, scaled.images):
            if conjugate(scaling, m) != expect:
                _fail(result, f"f-scaling t={t}", matrix_to_json(conjugate(scaling, m)))
    for e in (0, 1, 2, -1):
        if not is_irreducible(fam.theorem1_ii(z, QZ.lift(e))).irreducible:
            _fail(result, f"family (ii) e={e}", "expected irreducible")
    at_omega = is_irreducible(fam.theorem1_i(QW.omega, QW.one))
    if at_omega.irreducible:
        _fail(result, "family (i) at omega", "expected reducible")
    else:
        result.details["omega_witness"] = matrix_to_json(at_omega.witness.vector)
    return result


def check_ac10(seed: int = DEFAULT_SEED) -> CheckResult:
    result = CheckResult("AC10", "self-intertwiner spaces are exactly "
                                 "one-dimensional (Schur)", "pass")
    z = QZ.gen
    reps = {"burau(z)": fam.burau3(z), "mu(z)": fam.mu(z),
            "thm1_ii(z; e=0)": fam.theorem1_ii(z, QZ.lift(0))}
    for label, rep in reps.items():
        basis = intertwiners(rep, rep)
        if len(basis) != 1:
            _fail(result, label, f"intertwiner space dimension {len(basis)}")
    return result


def check_ac11(seed: int = DEFAULT_SEED) -> CheckResult:
    result = CheckResult("AC11", "float and exact specializations agree within "
                                 "epsilon at 50 random rational points", "pass")
    z = QZ.gen
    rng = random.Random(seed)
    points = []
    while len(points) < 50:
        q = Fraction(rng.randint(-30, 30), rng.randint(1, 20))
        if q in (0, -1):
            continue
        points.append(q)
    for rep_sym in (fam.burau3(z), fam.mu(z)):
        for q in points:
            exact = fam.specialize(rep_sym, q)
            floated = fam.specialize(rep_sym, complex(float(q)))
            if not verify_braid_relations(exact).overall:
                _fail(result, f"exact at {q}", "relation violated")
            if not verify_braid_relations(floated).overall:
                _fail(result, f"float at {q}", "relation violated within epsilon")
            for me, mf in zip(exact.images, floated.images):
                for a, b in zip(me.entries, mf.entries):
                    if not CC.eq(to_complex(a), b):
                        _fail(result, f"entry agreement at {q}", f"{a} vs {b}")
    result.details["points"] = len(points)
    return result


def check_ac12(seed: int = DEFAULT_SEED) -> CheckResult:
    result = CheckResult("AC12", "negative controls: perturbed raw input fails "
                                 "verification (exit 1); splitting Burau reports "
                                 "no invariant line (exit 1)", "pass")
    from . import cli  # runtime import: cli drives this module for its suite command
    from .grammar import representation_to_json

    rep = fam.burau3(Fraction(5, 7))
    bad_s2 = rep.images[1] + Matrix.from_rows([[QQ.one, QQ.zero],
                                               [QQ.zero, QQ.zero]], QQ)
    perturbed = fam.raw([rep.images[0], bad_s2])
    if verify_braid_relations(perturbed).overall:
        _fail(result, "perturbed raw", "verification unexpectedly passed")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "perturbed.json"
        path.write_text(json.dumps(representation_to_json(perturbed)))
        code = cli.main(["verify", "--raw", str(path), "--format", "json", "--quiet"])
        if code != 1:
            _fail(result, "verify exit code", code)
    code = cli.main(["decompose", "burau(z)", "--quiet"])
    if code != 1:
        _fail(result, "decompose exit code", code)
    try:
        split_once(fam.burau3(QZ.gen))
        _fail(result, "split burau", "unexpectedly split an irreducible representation")
    except DecompositionError as exc:
        result.details["decompose_error"] = str(exc)
    return result


def check_oq01(seed: int = DEFAULT_SEED) -> CheckResult:
    """Probe: the diagonalized Burau form at the boundary points z = 1 and z = -1."""
    result = CheckResult("OQ01", "diagonalized Burau domain: valid at z = 1, "
                                 "rejected at z = -1", "reported")
    try:
        at_one = fam.burau3_diag(Fraction(1))
        ok = verify_braid_relations(at_one).overall
        p = fam.burau_change_of_basis(Fraction(1))
        matches = all(conjugate(p, m) == d
                      for m, d in zip(fam.burau3(Fraction(1)).images, at_one.images))
        result.details["z=1"] = ("valid, relations hold, equals the conjugated pair"
                                 if ok and matches else "inconsistent")
        if not (ok and matches):
            result.status = "fail"
    except ParameterError as exc:
        result.status = "fail"
        result.details["z=1"] = f"unexpected rejection: {exc}"
    try:
        fam.burau3_diag(Fraction(-1))
        result.status = "fail"
        result.details["z=-1"] = "unexpectedly constructed (basis change is singular there)"
    except ParameterError as exc:
        result.details["z=-1"] = f"rejected: {exc}"
    return result


def check_oq02(seed: int = DEFAULT_SEED) -> CheckResult:
    """Probe: family (i) on the quadratic locus z^2 + z + 1 = 0."""
    result = CheckResult("OQ02", "family (i) at z = omega: computed answer to the "
                                 "excluded-locus question", "reported")
    for f in (QW.one, QW.omega):
        report = is_irreducible(fam.theorem1_i(QW.omega, f))
        key = f"f={format_scalar(f)}"
        if report.irreducible:
            result.details[key] = "irreducible"
        else:
            result.details[key] = {
                "verdict": "reducible",
                "eigenvalue": scalar_to_json(report.witness.eigenvalue),
                "line": matrix_to_json(report.witness.vector)}
    return result


ALL_CHECKS = [
    check_ac01, check_ac02, check_ac03, check_ac04, check_ac05, check_ac06,
    check_ac07, check_ac08, check_ac09, check_ac10, check_ac11, check_ac12,
    check_oq01, check_oq02,
]


def run_suite(seed: int = DEFAULT_SEED) -> SuiteResult:
    with fam.build_once():  # the checks share their named QQ(z) builds
        return SuiteResult(seed, [fn(seed=seed) for fn in ALL_CHECKS])

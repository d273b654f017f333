"""Independent re-check of benchmark outputs with sympy.

Runs in the benchmark's parent process after the timed phase, never inside
the measured process.  Representations are rebuilt here from their
defining formulas with sympy's exact domains (QQ, QQ(z) and QQ(sqrt(-3))
holding omega = (-1 + sqrt(-3))/2), and each certificate printed by
braidrep is checked against them:

* a ``decompose`` basis change is invertible and block-diagonalizes every
  generator image;
* an ``isomorphic`` "yes" conjugator C satisfies C*sigma_i = tau_i*C and
  det C != 0; a "no" is certified by different characteristic polynomials
  of sigma_1;
* a ``verify`` verdict matches the braid relations computed here;
* ``show`` and ``specialize`` JSON images equal the rebuilt matrices;
* a ``points`` sweep reports ``mu(q)`` irreducible exactly when q != 1 and
  q^2 + q + 1 != 0.

Each task is classed "ok", "refused" (exit 3, or an "undecided" verdict) or
"wrong" (any other mismatch).  Both refused and wrong count as failed.
"""

from __future__ import annotations

import json
from fractions import Fraction

from sympy import QQ, sqrt, symbols
from sympy.polys.matrices import DomainMatrix

_Z = symbols("z")
KZ = QQ.frac_field(_Z)
QW = QQ.algebraic_field(sqrt(-3))
_OMEGA = QW.from_sympy((-1 + sqrt(-3)) / 2)


def _q(text) -> object:
    fr = Fraction(text)
    return QQ(fr.numerator, fr.denominator)


def _omega_elem(a, b):
    return QW.convert(_q(a)) + QW.convert(_q(b)) * _OMEGA


# ---------------------------------------------------------------------------
# Rebuilding representations from their definitions


def _poly(K, z, coeffs):
    acc = K.zero
    for c in reversed(coeffs):
        acc = acc * z + K.convert(c)
    return acc


def _dm(rows, K):
    return DomainMatrix([list(r) for r in rows], (len(rows), len(rows[0])), K)


def _kron(a, b, K):
    n, m = a.shape
    p, q = b.shape
    rows = [[a[i, j].element * b[r, c].element for j in range(m) for c in range(q)]
            for i in range(n) for r in range(p)]
    return _dm(rows, K)


def build(desc: dict, K, z) -> list:
    """Generator images of the representation ``desc`` over the domain K at z."""
    one, zero = K.one, K.zero
    fam = desc["f"]
    if fam == "burau":
        return [_dm([[-z, zero], [one, one]], K), _dm([[one, z], [zero, -z]], K)]
    if fam == "burau_diag":  # the Burau pair conjugated so that sigma_1 is diagonal
        p = _dm([[-(z + one), zero], [one, one]], K)
        pinv = p.inv()
        return [pinv * m * p for m in build({"f": "burau"}, K, z)]
    if fam == "mu":
        d = (z + one) ** 2
        w = z * z + z + one
        two = K.convert(2)
        return [_dm([[one, zero, zero], [zero, -z, zero], [zero, zero, z * z]], K),
                _dm([[z ** 4 / d, z * z * w / d, w * w / d],
                     [two * z ** 3 / d, z * (z * z + one) / d, -(two * w) / d],
                     [z * z / d, -z / d, one / d]], K)]
    if fam == "mu_pascal":
        two = K.convert(2)
        return [_dm([[z * z, zero, zero], [-z, -z, zero], [one, two, one]], K),
                _dm([[one, two * z, z * z], [zero, -z, -(z * z)], [zero, zero, z * z]], K)]
    if fam in ("thm1_i", "thm1_ii"):
        num, den = desc["p"]
        p = _poly(K, z, num) / _poly(K, z, den)
        if fam == "thm1_i":
            g = z * (z * z + z + one) / ((z + one) ** 2 * p)
            return [_dm([[-z, zero], [zero, one]], K),
                    _dm([[one / (z + one), p], [g, -(z * z) / (z + one)]], K)]
        return [_dm([[one, z], [zero, one]], K),
                _dm([[p, z * (p - one) ** 2], [-(one / z), K.convert(2) - p]], K)]
    if fam == "xi":
        v = ((z + K.convert(desc["a"])) / (z + K.convert(desc["b"]))) ** desc["n"]
        return [_dm([[v]], K), _dm([[v]], K)]
    if fam == "tensor":
        a, b = (build(d, K, z) for d in desc["args"])
        return [_kron(x, y, K) for x, y in zip(a, b)]
    if fam == "raw":
        p = _dm([[K.convert(c) for c in row] for row in desc["P"]], K)
        pinv = p.inv()
        return [pinv * m * p for m in build(desc["base"], K, z)]
    raise ValueError(f"unknown family {fam!r}")


# ---------------------------------------------------------------------------
# Reading braidrep's JSON forms


def scalar_from_json(obj):
    if isinstance(obj, str):
        return _q(obj)
    if "num" in obj:
        zz = KZ.from_sympy(_Z)
        num = _poly(KZ, zz, [_q(c) for c in obj["num"]])
        return num / _poly(KZ, zz, [_q(c) for c in obj["den"]])
    return _omega_elem(obj["a"], obj["b"])


def matrix_from_json(obj, K):
    return _dm([[K.convert(scalar_from_json(e)) for e in row] for row in obj["entries"]], K)


# ---------------------------------------------------------------------------
# Certificates


def relations_hold(images) -> bool:
    a, b = images
    return a * b * a == b * a * b


def block_diagonalizes(p, images) -> bool:
    if p.det() == p.domain.zero:
        return False
    pinv = p.inv()
    for m in images:
        c = pinv * m * p
        n = c.shape[0]
        if any(c[i, 0].element != c.domain.zero or c[0, i].element != c.domain.zero
               for i in range(1, n)):
            return False
    return True


def intertwines(c, images1, images2) -> bool:
    if c.det() == c.domain.zero:
        return False
    return all(c * s == t * c for s, t in zip(images1, images2))


# ---------------------------------------------------------------------------
# Per-workload checks


class Oracle:
    def __init__(self):
        self._reps = {}
        self._verdicts = {}

    def rep(self, desc, K=KZ, z=None):
        key = (json.dumps(desc, sort_keys=True), str(K), str(z))
        if key not in self._reps:
            self._reps[key] = build(desc, K, KZ.from_sympy(_Z) if z is None else z)
        return self._reps[key]

    def check(self, workload: str, task: dict, output: str, code: int):
        """Return ("ok" | "refused" | "wrong", reason)."""
        key = (json.dumps(task, sort_keys=True), output, code)
        if key not in self._verdicts:
            fn = {"suite": self._suite, "cli_symbolic": self._cli, "points": self._point}
            try:
                self._verdicts[key] = fn[workload](task, output, code)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                self._verdicts[key] = ("wrong", f"unreadable output: {exc}")
        return self._verdicts[key]

    # -- suite ----------------------------------------------------------------

    def _suite(self, task, output, code):
        if code != 0:
            return "wrong", output[:200]
        entry = json.loads(output)
        if entry["status"] == "fail":
            return "wrong", f"{entry['id']} failed"
        if entry["id"] == "AC08":
            c = matrix_from_json(entry["details"]["conjugator"], KZ)
            if not intertwines(c, self.rep({"f": "mu"}), self.rep({"f": "mu_pascal"})):
                return "wrong", "AC08 conjugator does not intertwine mu and mu_pascal"
        return "ok", ""

    # -- cli_symbolic ---------------------------------------------------------

    def _cli(self, task, output, code):
        cmd = task["argv"][0]
        fmt = task["argv"][task["argv"].index("--format") + 1] if "--format" in task["argv"] \
            else "text"
        if code == 3:
            return "refused", "domain error (exit 3)"
        if cmd == "isomorphic":
            verdict = (json.loads(output)["verdict"] if fmt == "json"
                       else output.split("\n", 1)[0].removeprefix("verdict: "))
            if verdict == "undecided":
                return "refused", "undecided"
        if code != task["expect"]:
            return "wrong", f"exit {code}, expected {task['expect']}"
        images = self.rep(task["rep"])
        if cmd == "show" and fmt == "json":
            got = [matrix_from_json(m, KZ) for m in json.loads(output)["images"]]
            if got != images:
                return "wrong", "images differ from the definition"
        elif cmd == "verify":
            holds = relations_hold(images)
            said = (json.loads(output)["overall"] if fmt == "json"
                    else output.rstrip().endswith("overall: holds"))
            if said != holds or (code == 0) != holds:
                return "wrong", f"verify said {said}, relations hold: {holds}"
        elif cmd == "decompose" and fmt == "json":
            p = matrix_from_json(json.loads(output)["basis_change"], KZ)
            if not block_diagonalizes(p, images):
                return "wrong", "basis change does not block-diagonalize"
        elif cmd == "isomorphic":
            images2 = self.rep(task["rep2"])
            if verdict == "yes" and fmt == "json":
                c = matrix_from_json(json.loads(output)["conjugator"], KZ)
                if not intertwines(c, images, images2):
                    return "wrong", "conjugator does not intertwine"
            elif verdict == "no" and images[0].charpoly() == images2[0].charpoly():
                return "wrong", "'no' without differing sigma_1 spectra; not certified"
        elif cmd == "specialize":
            point = task["point"]
            K = QQ if len(point) == 1 else QW
            at = _q(point[0]) if len(point) == 1 else _omega_elem(*point)
            got = [matrix_from_json(m, K) for m in json.loads(output)["images"]]
            if got != self.rep(task["rep"], K, at):
                return "wrong", "specialized images differ from the definition at the point"
        return "ok", ""

    # -- points ---------------------------------------------------------------

    def _point(self, task, output, code):
        if code != 0:
            return "wrong", output[:200]
        out = json.loads(output)
        q = task["q"]
        if len(q) == 1:
            K, at = QQ, _q(q[0])
            on_locus = Fraction(q[0]) == 1
        else:
            K, at = QW, _omega_elem(*q)
            on_locus = (at * at + at + QW.one) == QW.zero
        if out["isomorphic"] == "undecided":
            return "refused", "undecided"
        if out["irreducible"] == on_locus:
            return "wrong", f"irreducible={out['irreducible']} at q={q}"
        if out["isomorphic"] != "yes":
            return "wrong", "mu(q) not isomorphic to the specialization of mu(z)"
        if not (out["float_agrees"] and out["specialize_matches_direct"]):
            return "wrong", "specialization mismatch"
        mu = self.rep({"f": "mu"}, K, at)
        conj = _point_matrix(out["conjugator"], K)
        if not intertwines(conj, mu, mu):
            return "wrong", "conjugator does not intertwine"
        burau = self.rep({"f": "tensor", "args": [{"f": "burau"}, {"f": "burau"}]}, K, at)
        if not block_diagonalizes(_point_matrix(out["basis_change"], K), burau):
            return "wrong", "basis change does not block-diagonalize"
        return "ok", ""


def _point_matrix(rows, K):
    def elem(e):
        return K.convert(_q(e[0])) if len(e) == 1 else _omega_elem(*e)
    return _dm([[elem(e) for e in row] for row in rows], K)

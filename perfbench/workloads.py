"""Seeded inputs and task runners for the three benchmark workloads.

Each workload is a closed loop with one client: the timed phase runs
rounds, a round is a fixed recipe of tasks whose parameters come from a
per-round random generator, and the next task starts only when the last
one has returned.  The recipe is fixed so that rounds of different seeds
cost about the same; only the random parameters differ.

* ``suite``: one round is ``run_suite(seed)`` for a fresh seed; one task
  is one check.
* ``cli_symbolic``: one round is 32 in-process ``cli.main`` requests over
  QQ(z): the fixed pool of 14 requests, 16 fresh ones with seeded random
  rational-function parameters, and 2 dense ``--raw`` JSON inputs.
* ``points``: one round is 12 exact points, 10 rational and 2 in
  QQ(omega); one task is the whole sweep at one point.

Every task returns its output text and an exit code.  The task's own
description (a JSON-able dict) carries what the independent oracle in
``oracle.py`` needs to re-check the output after the timed phase.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from braidrep import analysis, cli, families, fields, suite


def round_rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


class TaskResult:
    __slots__ = ("task", "output", "code", "latency_s")

    def __init__(self, task, output, code, latency_s):
        self.task = task
        self.output = output
        self.code = code
        self.latency_s = latency_s

    def to_json(self) -> dict:
        return {"task": self.task, "output": self.output, "code": self.code,
                "latency_s": self.latency_s}


def _crash(exc) -> str:
    return f"exception: {type(exc).__name__}: {exc}"


class NoHooks:
    """Task boundaries for a run without tracing."""

    def begin_task(self):
        pass

    def end_task(self):
        pass


# ---------------------------------------------------------------------------
# suite


class SuiteWorkload:
    name = "suite"
    reference_tasks = None
    prints_output = True   # task outputs are the suite's JSON

    def __init__(self, seed: int, workdir: Path, hooks=NoHooks()):
        self.seed = seed
        self.hooks = hooks
        self.rejections = {}

    def warm_up(self):
        analysis.verify_braid_relations(families.mu(fields.RatFunc.gen()))

    def round_input(self, r: int) -> dict:
        return {"seed": round_rng(self.name, self.seed, r).randrange(2 ** 31)}

    def run_round(self, inp: dict) -> list:
        """Run ``run_suite`` once, timing each check through a shim.

        The shims replace the entries of ``suite.ALL_CHECKS`` only for the
        duration of the call, so the suite runs exactly as the CLI runs it.
        """
        checks = suite.ALL_CHECKS
        saved = list(checks)
        timings = []

        def shim(fn):
            def timed(**kwargs):
                self.hooks.begin_task()
                t0 = perf_counter()
                try:
                    return fn(**kwargs)
                finally:
                    timings.append(perf_counter() - t0)
                    self.hooks.end_task()
            return timed

        checks[:] = [shim(fn) for fn in saved]
        try:
            result = suite.run_suite(seed=inp["seed"])
        except Exception as exc:  # a crash fails every check of the round
            timings += [0.0] * (len(saved) - len(timings))
            return [TaskResult({"kind": "check", "seed": inp["seed"], "id": None},
                               _crash(exc), -1, t) for t in timings]
        finally:
            checks[:] = saved
        entries = result.to_json_dict()["checks"]
        if len(entries) != len(timings):
            raise RuntimeError("run_suite no longer runs the checks in suite.ALL_CHECKS")
        return [TaskResult({"kind": "check", "seed": inp["seed"], "id": e["id"]},
                           json.dumps(e, indent=2), 0 if e["status"] != "fail" else 1, t)
                for e, t in zip(entries, timings)]

    def close(self):
        pass


# ---------------------------------------------------------------------------
# cli_symbolic

_BURAU = {"f": "burau"}
_SQUARE = {"f": "tensor", "args": [_BURAU, _BURAU]}
_MU = {"f": "mu"}
_PASCAL = {"f": "mu_pascal"}
_DIAG = {"f": "burau_diag"}

# The three ROADMAP commands come first; every request here succeeds.
POOL = [
    (["show", "mu(z)"], 0, {"rep": _MU}),
    (["decompose", "tensor(burau(z),burau(z))"], 0, {"rep": _SQUARE}),
    (["isomorphic", "mu(z)", "mu_pascal(z)"], 0, {"rep": _MU, "rep2": _PASCAL}),
    (["show", "mu(z)", "--format", "json"], 0, {"rep": _MU}),
    (["show", "mu_pascal(z)", "--format", "latex"], 0, {"rep": _PASCAL}),
    (["show", "burau(z)"], 0, {"rep": _BURAU}),
    (["decompose", "tensor(burau(z),burau(z))", "--format", "json"], 0, {"rep": _SQUARE}),
    (["decompose", "tensor(burau_diag(z),burau_diag(z))", "--format", "json"], 0,
     {"rep": {"f": "tensor", "args": [_DIAG, _DIAG]}}),
    (["isomorphic", "mu(z)", "mu_pascal(z)", "--format", "json"], 0,
     {"rep": _MU, "rep2": _PASCAL}),
    (["isomorphic", "burau(z)", "burau_diag(z)", "--format", "json"], 0,
     {"rep": _BURAU, "rep2": _DIAG}),
    (["verify", "mu(z)"], 0, {"rep": _MU}),
    (["verify", "tensor(burau(z),burau(z))", "--format", "json"], 0, {"rep": _SQUARE}),
    (["specialize", "mu(z)", "omega", "--format", "json"], 0,
     {"rep": _MU, "point": ["0", "1"]}),
    (["specialize", "mu(z)", "5/7", "--format", "json"], 0, {"rep": _MU, "point": ["5/7"]}),
]

# Dense inputs written in set-up; round r verifies file r and decomposes file
# r + 1 (mod RAW_FILES).  Their cost depends on the drawn conjugator, so a
# run cycles through several rather than repeating two.
RAW_FILES = 8


def _poly_text(coeffs) -> str:
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        body = str(c) if k == 0 else (f"{c}*z" if k == 1 else f"{c}*z^{k}")
        terms.append(body)
    return " + ".join(terms) if terms else "0"


def _rand_poly(rng, degree):
    coeffs = [rng.randint(-9, 9) for _ in range(degree + 1)]
    while coeffs[-1] == 0:
        coeffs[-1] = rng.randint(-9, 9)
    return coeffs


def _rand_ratfunc(rng, shape):
    """Random rational function with the given numerator and denominator degrees."""
    return [_rand_poly(rng, shape[0]), _rand_poly(rng, shape[1])]


def _rat_text(rat) -> str:
    return f"({_poly_text(rat[0])})/({_poly_text(rat[1])})"


def _family(name, rat):
    key = "f" if name == "thm1_i" else "e"
    return f"{name}(z; {key}={_rat_text(rat)})", {"f": name, "p": rat}


def _eval_poly(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# The fresh show, verify, isomorphic and specialize requests, each with the
# (numerator, denominator) degrees of its parameter.  The total degrees span
# 0 to 8 but are fixed per request, and only the coefficients are random: at
# fixed degrees the cost varies little with the coefficients, while with a
# degree drawn per request the cost of a run's few rounds hinges on a few draws.
_SHOW = (("thm1_i", "latex", (3, 5)), ("thm1_ii", "text", (2, 2)))
_VERIFY = (("thm1_ii", "text", (4, 2)), ("thm1_i", "json", (1, 1)))
_ISO = (("thm1_i", (0, 3), "thm1_i", (4, 3), 0),
        # every member of each two-dimensional family is isomorphic to every other
        ("thm1_ii", (2, 3), "thm1_ii", (0, 0), 0),
        # sigma_1 is semisimple in family (i) and unipotent in family (ii)
        ("thm1_i", (5, 0), "thm1_ii", (2, 4), 1))
_SPECIALIZE = (3, 4)


def _fresh_tasks(rng) -> list:
    tasks = []
    # Fixed numerator and denominator degrees (total 2, 5 and 8).
    for name, splits in (("thm1_ii", ((1, 1), (3, 2), (6, 2))),
                         ("thm1_i", ((1, 1), (2, 3), (4, 4)))):
        for shape in splits:
            spec, desc = _family(name, _rand_ratfunc(rng, shape))
            tasks.append((["decompose", f"tensor({spec},{spec})", "--format", "json"], 0,
                          {"rep": {"f": "tensor", "args": [desc, desc]}}))
    for name, fmt, shape in _SHOW:
        spec, desc = _family(name, _rand_ratfunc(rng, shape))
        tasks.append((["show", spec, "--format", fmt], 0, {"rep": desc}))
    for name, fmt, shape in _VERIFY:
        spec, desc = _family(name, _rand_ratfunc(rng, shape))
        tasks.append((["verify", spec, "--format", fmt], 0, {"rep": desc}))
    for name1, shape1, name2, shape2, expect in _ISO:
        s1, d1 = _family(name1, _rand_ratfunc(rng, shape1))
        s2, d2 = _family(name2, _rand_ratfunc(rng, shape2))
        tasks.append((["isomorphic", s1, s2, "--format", "json"], expect,
                      {"rep": d1, "rep2": d2}))
    rat = _rand_ratfunc(rng, _SPECIALIZE)
    spec, desc = _family("thm1_ii", rat)
    # Family (ii) has poles only at z = 0 and where e has a pole.  The "--"
    # ends the options, so that argparse reads a point such as -8/5 as a point.
    while True:
        point = Fraction(rng.randint(-40, 40), rng.randint(1, 20))
        if point != 0 and _eval_poly(rat[1], point) != 0:
            break
    tasks.append((["specialize", "--format", "json", "--", spec, str(point)], 0,
                  {"rep": desc, "point": [str(point)]}))
    # parsing (z+a)^n costs about n^4, so n is fixed per request
    for cmd, fmt, n in (("show", "text", 40), ("verify", "json", 20)):
        a, b = rng.sample(range(-9, 10), 2)
        base = lambda c: "z" if c == 0 else (f"z+{c}" if c > 0 else f"z-{-c}")
        tasks.append(([cmd, f"xi(({base(a)})^{n}/({base(b)})^{n})", "--format", fmt], 0,
                      {"rep": {"f": "xi", "a": a, "b": b, "n": n}}))
    return tasks


# -- dense raw input: a tensor square conjugated by an integer unimodular matrix

def _padd(p, q):
    n = max(len(p), len(q))
    out = [(p[k] if k < len(p) else 0) + (q[k] if k < len(q) else 0) for k in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _pmul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _mat_mul(a, b):
    """Product of matrices whose entries are integer coefficient lists."""
    n, m, k = len(a), len(b[0]), len(b)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = []
            for t in range(k):
                acc = _padd(acc, _pmul(a[i][t], b[t][j]))
            row.append(acc)
        out.append(row)
    return out


def _kron(a, b):
    return [[_pmul(a[i][j], b[r][c]) for j in range(len(a)) for c in range(len(b))]
            for i in range(len(a)) for r in range(len(b))]


def _unimodular(rng, n=4, steps=10):
    """A random integer matrix of determinant 1 and its integer inverse."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    pinv = [row[:] for row in p]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        for c in range(n):          # p <- E p with E = I + k e_ij
            p[i][c] += k * p[j][c]
        for r in range(n):          # pinv <- pinv E^{-1}
            pinv[r][j] -= k * pinv[r][i]
    return p, pinv


_BURAU_POLY = ([[[0, -1], []], [[1], [1]]], [[[1], [0, 1]], [[], [0, -1]]])


def make_raw_input(rng) -> tuple:
    """JSON text of a conjugated ``burau(z) (x) burau(z)`` and its description.

    The conjugator is drawn until every entry of both images is nonzero, so
    that no image is triangular.
    """
    const = lambda m: [[[c] if c else [] for c in row] for row in m]
    while True:
        p, pinv = _unimodular(rng)
        images = [_mat_mul(_mat_mul(const(pinv), _kron(g, g)), const(p)) for g in _BURAU_POLY]
        if all(e for m in images for row in m for e in row):
            break
    obj = {"braid_index": 3,
           "images": [{"rows": 4, "cols": 4,
                       "entries": [[{"num": [str(c) for c in e], "den": ["1"]} for e in row]
                                   for row in m]} for m in images],
           "meta": {"family": "raw", "params": {}}}
    return json.dumps(obj), {"f": "raw", "P": p, "base": _SQUARE}


class CliWorkload:
    name = "cli_symbolic"
    reference_tasks = 12  # of 32, to keep the drift check short
    prints_output = True   # task outputs are the CLI's stdout

    def __init__(self, seed: int, workdir: Path, hooks=NoHooks()):
        self.seed = seed
        self.hooks = hooks
        self.workdir = workdir
        self.rejections = {}
        rng = round_rng(self.name, seed, -1)
        self.raw = []
        for k in range(RAW_FILES):
            text, desc = make_raw_input(rng)
            path = workdir / f"raw{k}.json"
            path.write_text(text)
            self.raw.append((str(path), desc))

    def warm_up(self):
        self._call(["verify", "mu(z)"])

    def round_input(self, r: int) -> list:
        rng = round_rng(self.name, self.seed, r)
        specs = list(POOL) + _fresh_tasks(rng)
        for k, (cmd, fmt) in enumerate((("verify", "json"), ("decompose", "json"))):
            path, desc = self.raw[(r + k) % RAW_FILES]
            # a tensor square always splits off its exterior square
            specs.append(([cmd, "--raw", path, "--format", fmt], 0, {"rep": desc}))
        rng.shuffle(specs)
        return [dict(extra, argv=argv, expect=expect) for argv, expect, extra in specs]

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # outside the exit-code contract
                return _crash(exc), -1
        return out.getvalue(), code

    def run_round(self, tasks: list) -> list:
        results = []
        for task in tasks:
            self.hooks.begin_task()
            t0 = perf_counter()
            output, code = self._call(task["argv"])
            dt = perf_counter() - t0
            self.hooks.end_task()
            results.append(TaskResult(task, output, code, dt))
        return results

    def close(self):
        for path, _ in self.raw:
            Path(path).unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# points

_LOCUS_OMEGA = (("0", "1"), ("-1", "-1"))  # omega and omega^2 = -1 - omega


# The float specialization of mu is ill-conditioned near its two singular
# points.  Double-precision evaluation of the expanded (z+1)^2 denominators
# cancels near the pole z = -1: at |q + 1| = 1e-4 it misses the exact one by
# more than the 1e-9 tolerance.  Near z = 0, where mu is singular, sigma_1
# has q^2 on its diagonal, so at |q| = 1.2e-5 the float inverse reports a
# singular matrix.  Drawn points closer than this to either are redrawn,
# and every run reports how many were.
_FLOAT_MARGIN = 1e-3


def _big_rational(rng) -> Fraction:
    while True:
        q = Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 9))
        if q not in (0, 1):  # mu(0) is singular; q = 1 is in every round anyway
            return q


def _omega_coeff(rng) -> Fraction:
    return Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))


def _omega_point(rng):
    while True:
        a, b = _omega_coeff(rng), _omega_coeff(rng)
        if b != 0:
            return fields.Omega(a, b)


def _scalar_json(v):
    if isinstance(v, fields.Omega):
        return [str(v.a), str(v.b)]
    return [str(v)]


def _matrix_json(m):
    return [[_scalar_json(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


class PointsWorkload:
    name = "points"
    reference_tasks = None
    prints_output = False  # task outputs are written by the benchmark

    def __init__(self, seed: int, workdir: Path, hooks=NoHooks()):
        self.seed = seed
        self.hooks = hooks
        self.mu_z = None
        self.rejections = {"points_drawn": 0, "near_pole": 0, "near_zero": 0}

    def warm_up(self):
        self.mu_z = families.mu(fields.RatFunc.gen())
        self._sweep({"q": ["2/3"], "f": "5/4"})

    def _draw(self, rng, draw):
        while True:
            q = draw(rng)
            self.rejections["points_drawn"] += 1
            if abs(complex(q) + 1) < _FLOAT_MARGIN:
                self.rejections["near_pole"] += 1
            elif abs(complex(q)) < _FLOAT_MARGIN:
                self.rejections["near_zero"] += 1
            else:
                return q

    def round_input(self, r: int) -> list:
        rng = round_rng(self.name, self.seed, r)
        tasks = [{"q": ["1"]}] + [{"q": [str(self._draw(rng, _big_rational))]}
                                  for _ in range(9)]
        tasks.append({"q": list(_LOCUS_OMEGA[r % 2])})
        w = self._draw(rng, _omega_point)
        tasks.append({"q": [str(w.a), str(w.b)]})
        for t in tasks:
            t["f"] = str(Fraction(rng.randint(1, 99), rng.randint(1, 99)) * rng.choice((1, -1)))
        rng.shuffle(tasks)
        return tasks

    def _sweep(self, task) -> str:
        qs = [Fraction(x) for x in task["q"]]
        q = qs[0] if len(qs) == 1 else fields.Omega(qs[0], qs[1])
        f = Fraction(task["f"])
        mu_q = families.mu(q)
        burau_q = families.burau3(q)
        families.theorem1_i(q, f)
        spec = families.specialize(self.mu_z, q)
        irreducible = analysis.is_irreducible(mu_q)
        iso = analysis.is_isomorphic(mu_q, spec)
        split = analysis.split_once(families.tensor(burau_q, burau_q))
        floated = families.specialize(self.mu_z, complex(fields.to_complex(q)))
        agree = all(floated.field.eq(fields.to_complex(a), b)
                    for me, mf in zip(spec.images, floated.images)
                    for a, b in zip(me.entries, mf.entries))
        return json.dumps({
            "irreducible": irreducible.irreducible,
            "isomorphic": iso.verdict,
            "conjugator": _matrix_json(iso.conjugator) if iso.conjugator is not None else None,
            "basis_change": _matrix_json(split.basis_change),
            "split_eigenvalue": _scalar_json(split.witnesses[0].eigenvalue),
            "specialize_matches_direct": all(a == b for me, md in zip(spec.images, mu_q.images)
                                             for a, b in zip(me.entries, md.entries)),
            "float_agrees": agree,
        }, sort_keys=True)

    def run_round(self, tasks: list) -> list:
        results = []
        for task in tasks:
            self.hooks.begin_task()
            t0 = perf_counter()
            try:
                output, code = self._sweep(task), 0
            except Exception as exc:
                output, code = _crash(exc), -1
            dt = perf_counter() - t0
            self.hooks.end_task()
            results.append(TaskResult(task, output, code, dt))
        return results

    def close(self):
        pass


CLASSES = {"suite": SuiteWorkload, "cli_symbolic": CliWorkload, "points": PointsWorkload}

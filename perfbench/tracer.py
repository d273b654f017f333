"""Spans and counts recorded around the public functions of each braidrep module.

The wrappers live here, in the benchmark, and are installed only for a
traced run.  ``install`` replaces a function in every namespace that holds
it, not only in its defining module: ``from .families import
make_representation`` in ``analysis`` binds a second name, and the grammar
keeps constructors in dispatch tables.

Every wrapped call pushes a frame; on return its self time is its duration
minus the time of the wrapped calls made inside it.  Calls at the layer
boundaries (matrices and above) are also kept as span records with name,
start, end, parent span and task id.  The scalar operations of ``fields``
run hundreds of thousands of times per task, so they are aggregated into
counts and self time only; their time still counts as child time of the
span that made them.
"""

from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter

# (span name, module, attribute, keep span records)
FUNCTIONS = [
    ("fields.poly_gcd", "braidrep.fields", "poly_gcd", False),
    ("families.make_representation", "braidrep.families", "make_representation", True),
    ("families.relation_checks", "braidrep.families", "braid_relations_hold", True),
    ("families.specialize", "braidrep.families", "specialize", True),
    ("families.combinator", "braidrep.families", "tensor", True),
    ("families.combinator", "braidrep.families", "direct_sum", True),
    ("families.combinator", "braidrep.families", "dual", True),
    ("families.combinator", "braidrep.families", "tensor_onedim", True),
    ("analysis.verify", "braidrep.analysis", "verify_braid_relations", True),
    ("analysis.invariant_lines", "braidrep.analysis", "common_invariant_lines", True),
    ("analysis.split_once", "braidrep.analysis", "split_once", True),
    ("analysis.intertwiners", "braidrep.analysis", "intertwiners", True),
    ("analysis.is_isomorphic", "braidrep.analysis", "is_isomorphic", True),
    ("analysis.is_irreducible", "braidrep.analysis", "is_irreducible", True),
    ("grammar.parse", "braidrep.grammar", "parse_scalar", True),
    ("grammar.parse", "braidrep.grammar", "parse_point", True),
    ("grammar.parse", "braidrep.grammar", "parse_family_spec", True),
    ("grammar.parse", "braidrep.grammar", "representation_from_json", True),
    ("grammar.render", "braidrep.grammar", "scalar_to_json", True),
    ("grammar.render", "braidrep.grammar", "matrix_to_json", True),
    ("grammar.render", "braidrep.grammar", "meta_to_json", True),
    ("grammar.render", "braidrep.grammar", "representation_to_json", True),
    ("grammar.render", "braidrep.grammar", "scalar_to_latex", True),
    ("grammar.render", "braidrep.grammar", "matrix_to_latex", True),
    ("grammar.render", "braidrep.grammar", "representation_to_latex", True),
    ("grammar.render", "braidrep.grammar", "format_spec", True),
    ("grammar.render", "braidrep.fields", "format_scalar", True),
    ("cli.main", "braidrep.cli", "main", True),
]

# (span name, module, class, method names, keep span records)
METHODS = [
    ("fields.Poly.mul", "braidrep.fields", "Poly", ("__mul__", "__rmul__"), False),
    ("fields.Poly.divmod", "braidrep.fields", "Poly", ("__divmod__",), False),
    ("fields.Poly.other", "braidrep.fields", "Poly",
     ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__pow__", "scale",
      "monic", "evaluate"), False),
    ("fields.RatFunc.new", "braidrep.fields", "RatFunc", ("__init__",), False),
    ("fields.Omega.ops", "braidrep.fields", "Omega",
     ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
      "inv", "__truediv__", "__rtruediv__", "__pow__"), False),
    ("matrices.mul", "braidrep.matrices", "Matrix", ("__mul__",), True),
    ("matrices.rref", "braidrep.matrices", "Matrix", ("rref",), True),
    ("matrices.inverse", "braidrep.matrices", "Matrix", ("inverse",), True),
    ("matrices.kernel", "braidrep.matrices", "Matrix", ("kernel",), True),
    ("matrices.kron", "braidrep.matrices", "Matrix", ("kron",), True),
    ("grammar.render", "braidrep.matrices", "Matrix", ("pretty",), True),
]

SUITE_CHECKS = ["AC%02d" % k for k in range(1, 13)] + ["OQ01", "OQ02"]

# (metric, unit) in the order they are reported
PER_LAYER = (
    [("fields.poly_gcd.calls", "count"), ("fields.poly_gcd.self_s", "s"),
     ("fields.poly_gcd.nontrivial_frac", "frac"),
     ("fields.Poly.mul.calls", "count"), ("fields.Poly.divmod.calls", "count"),
     ("fields.Poly.self_s", "s"),
     ("fields.RatFunc.new.calls", "count"), ("fields.RatFunc.new.self_s", "s"),
     ("fields.peak_degree", "count"), ("fields.peak_coeff_bits", "bits"),
     ("fields.Omega.ops", "count"), ("fields.Omega.self_s", "s"),
     ("matrices.mul.calls", "count"), ("matrices.mul.self_s", "s"),
     ("matrices.rref.calls", "count"), ("matrices.rref.self_s", "s"),
     ("matrices.inverse.calls", "count"), ("matrices.kernel.calls", "count"),
     ("matrices.kron.calls", "count"),
     ("families.make_representation.calls", "count"),
     ("families.make_representation.self_s", "s"),
     ("families.relation_checks.calls", "count"), ("families.relation_checks.self_s", "s"),
     ("families.construct_inverse.calls", "count"),
     ("families.specialize.calls", "count"), ("families.specialize.self_s", "s"),
     ("families.combinator.calls", "count"),
     ("analysis.verify.calls", "count"), ("analysis.verify.self_s", "s"),
     ("analysis.invariant_lines.calls", "count"), ("analysis.invariant_lines.self_s", "s"),
     ("analysis.invariant_lines.hit_frac", "frac"),
     ("analysis.split_once.self_s", "s"), ("analysis.intertwiners.self_s", "s"),
     ("analysis.is_isomorphic.self_s", "s"), ("analysis.is_isomorphic.inverse_probes", "count"),
     ("analysis.is_irreducible.self_s", "s"),
     ("grammar.parse.calls", "count"), ("grammar.parse.self_s", "s"),
     ("grammar.render.self_s", "s"), ("grammar.output_bytes", "bytes"),
     ("cli.main.self_s", "s")]
    + [(f"suite.{c}.s", "s") for c in SUITE_CHECKS]
    + [("trace.overhead_frac", "frac")]
)


def _coeff_bits(poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in poly.coeffs), default=0)


class Tracer:
    def __init__(self):
        self.stack = [[None, None, 0.0]]  # frames: [span id, name, child seconds]
        self.spans = []                   # (id, name, start, end, parent id, task id)
        self.stats = {}                   # name -> [calls, self seconds]
        self.next_id = 1
        self.task_id = None
        self.task_count = 0
        self.gcd_nontrivial = 0
        self.construct_inverse = 0
        self.inverse_probes = 0
        self.kernel_solves = 0
        self.lines_returned = 0
        self.peak_degree = 0
        self.peak_coeff_bits = 0
        self.observers = self._observers()

    # -- task boundaries (called by the workload) ---------------------------

    def begin_task(self):
        self.task_count += 1
        self.task_id = self.task_count

    def end_task(self):
        self.task_id = None

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, keep):
        stack, spans = self.stack, self.spans
        stat = self.stats.setdefault(name, [0, 0.0])  # calls, self seconds
        observe = self.observers.get(name)
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = 0
            if keep:
                sid = tracer.next_id
                tracer.next_id = sid + 1
            frame = [sid, name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent[2] += dur
                stat[0] += 1
                stat[1] += dur - frame[2]
                if keep:
                    spans.append((sid, name, t0, t1, parent[0], tracer.task_id))
            if observe is not None:
                observe(parent, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _observers(self):
        def gcd(parent, args, result):
            if result.degree > 0:
                self.gcd_nontrivial += 1

        def ratfunc(parent, args, result):
            self_obj = args[0]
            polys = [self_obj.num, self_obj.den] + [a for a in args[1:3] if hasattr(a, "coeffs")]
            for p in polys:
                if p.degree > self.peak_degree:
                    self.peak_degree = p.degree
                bits = _coeff_bits(p)
                if bits > self.peak_coeff_bits:
                    self.peak_coeff_bits = bits

        def inverse(parent, args, result):
            if parent[1] == "families.make_representation":
                self.construct_inverse += 1
            elif parent[1] == "analysis.is_isomorphic":
                self.inverse_probes += 1

        def kernel(parent, args, result):
            if parent[1] == "analysis.invariant_lines":
                self.kernel_solves += 1

        def lines(parent, args, result):
            self.lines_returned += len(result)

        return {"fields.poly_gcd": gcd, "fields.RatFunc.new": ratfunc,
                "matrices.inverse": inverse, "matrices.kernel": kernel,
                "analysis.invariant_lines": lines}

    def install(self, suite_checks):
        """Wrap every listed boundary in every braidrep namespace that binds it."""
        modules = {n: m for n, m in sys.modules.items()
                   if n == "braidrep" or n.startswith("braidrep.")}
        for name, modname, attr, keep in FUNCTIONS:
            orig = getattr(modules[modname], attr)
            _replace_everywhere(modules.values(), orig, self._wrap(name, orig, keep))
        for name, modname, clsname, methods, keep in METHODS:
            cls = getattr(modules[modname], clsname)
            for meth in methods:
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth], keep))
        for k, fn in enumerate(suite_checks):
            wrapped = self._wrap(f"suite.{SUITE_CHECKS[k]}", fn, True)
            _replace_everywhere(modules.values(), fn, wrapped)

    # -- results ------------------------------------------------------------

    def metrics(self, output_bytes: int) -> dict:
        calls = {name: st[0] for name, st in self.stats.items()}
        self_s = {name: st[1] for name, st in self.stats.items()}
        gcd_calls = calls["fields.poly_gcd"]
        out = {
            "fields.poly_gcd.nontrivial_frac": self.gcd_nontrivial / gcd_calls if gcd_calls else 0.0,
            "fields.Poly.self_s": sum(self_s[n] for n in ("fields.Poly.mul", "fields.Poly.divmod",
                                                          "fields.Poly.other")),
            "fields.peak_degree": self.peak_degree,
            "fields.peak_coeff_bits": self.peak_coeff_bits,
            "fields.Omega.ops": calls["fields.Omega.ops"],
            "fields.Omega.self_s": self_s["fields.Omega.ops"],
            "families.construct_inverse.calls": self.construct_inverse,
            "analysis.invariant_lines.hit_frac": (self.lines_returned / self.kernel_solves
                                                  if self.kernel_solves else 0.0),
            "analysis.is_isomorphic.inverse_probes": self.inverse_probes,
            "grammar.output_bytes": output_bytes,
        }
        for metric, _unit in PER_LAYER:
            span, _, kind = metric.rpartition(".")
            if metric in out or metric == "trace.overhead_frac":
                continue
            if kind == "calls":
                out[metric] = calls[span]
            elif kind == "self_s":
                out[metric] = self_s[span]
            else:  # "suite.<check>.s": inclusive time of the check
                out[metric] = sum((t1 - t0 for _, n, t0, t1, _, _ in self.spans if n == span), 0.0)
        return out

    def write_spans(self, path):
        with gzip.open(path, "wt") as handle:
            for sid, name, t0, t1, parent, task in self.spans:
                handle.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                         "parent": parent, "task": task}) + "\n")


def _replace_everywhere(modules, orig, new):
    """Rebind ``orig`` to ``new`` in module globals and in module-level tables."""
    for mod in modules:
        ns = vars(mod)
        for key, value in list(ns.items()):
            if value is orig:
                ns[key] = new
            elif isinstance(value, list):
                value[:] = [new if v is orig else v for v in value]
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is orig:
                        value[k] = new
                    elif isinstance(v, tuple) and any(x is orig for x in v):
                        value[k] = tuple(new if x is orig else x for x in v)

"""Text grammar, JSON forms and LaTeX emitters.

Scalar expressions use integer and fraction literals, the variable ``z``,
the literal ``omega``, decimal floats (which force the floating field),
the operators ``+ - * / ^`` and parentheses.  Family specs look like
``burau(z)``, ``thm1_i(z; f=-z/(z+1))`` or ``tensor(burau(z),burau(z))``.
Printing emits canonical forms that parse back to equal values.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction

from .fields import (CC, Omega, Poly, QQ, QW, QZ, RatFunc, field_of, format_scalar,
                     poly_terms, signed_sum)
from .matrices import Matrix
from .families import (FAMILIES, Representation, RepMeta, dual, direct_sum,
                       make_representation, standard_s3, tensor)


class ParseError(ValueError):
    """Bad input text; the message carries the offending position."""


# Size limits that bound what any spec costs to parse and build: the braid
# index of ``xi`` and of a ``--raw`` file (a relation check is quadratic in
# it), the predicted size of each ``^`` and of each QQ(z) ``*``, ``/``, ``+``
# and ``-`` (binary powering is fast, but chained powers such as z^1000^1000
# or products of in-cap powers grow without bound), and the length of the
# input itself, which bounds how many in-cap operations one spec or point can
# hold, and the size of a ``--raw`` file.  Parentheses, unary minus and
# combinators may nest at most MAX_NESTING deep inside a spec's outermost
# call or in a point, which keeps the recursive parsing and printing far
# below the interpreter's recursion limit.  MAX_DIMENSION bounds what a spec
# or ``--raw`` file builds, and MAX_ISOMORPHIC_UNKNOWNS the n1*n2 intertwiner
# entries ``isomorphic`` solves for; at either cap one command over QQ(z)
# takes about 2 s.
MAX_BRAID_INDEX = 200
MAX_POWER_DEGREE = 1024
MAX_POWER_BITS = 4096
MAX_SPEC_CHARS = 20_000
MAX_RAW_BYTES = 1_000_000
MAX_NESTING = 100
MAX_DIMENSION = 16
MAX_ISOMORPHIC_UNKNOWNS = 64


# ---------------------------------------------------------------------------
# Scalar expressions

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<float>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)"
    r"|(?P<int>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\^|[-+*/()])"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        tokens.append((m.lastgroup, m.group(), m.start()))
    return tokens


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class _ScalarParser:
    """Recursive-descent parser over one field chosen from the token stream."""

    def __init__(self, tokens, field, atoms):
        self.tokens = tokens
        self.field = field
        self.atoms = atoms
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, text, at = self.take()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r} {_at(at)}")

    def enter(self, at):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels at position {at}")

    def parse(self):
        value = self.expr()
        kind, text, at = self.peek()
        if kind is not None:
            raise ParseError(f"unexpected {text!r} at position {at}")
        return _finite(value, "the value") if self.field is CC else value

    def expr(self):
        value = self.term()
        while True:
            kind, text, at = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                value = self.binary(text, at, value, self.term())
            else:
                return value

    def term(self):
        value = self.unary()
        while True:
            kind, text, at = self.peek()
            if kind == "op" and text in "*/":
                self.take()
                value = self.binary(text, at, value, self.unary())
            else:
                return value

    def binary(self, op, at, a, b):
        """a op b; over QQ(z) the result's size is predicted and capped first."""
        if self.field is QZ:
            _check_size(f"{op!r} at position {at}", *_predict(op, a, b))
        try:
            return _OPERATORS[op](a, b)
        except ZeroDivisionError:
            raise ParseError(f"division by zero at position {at}") from None

    def unary(self):
        kind, text, at = self.peek()
        if kind == "op" and text == "-":
            self.take()
            self.enter(at)
            value = -self.unary()
            self.depth -= 1
            return value
        return self.power()

    def power(self):
        base = self.atom()
        while True:
            kind, text, _ = self.peek()
            if kind != "op" or text != "^":
                return base
            self.take()
            ekind, etext, at = self.take()
            if ekind != "int":
                raise ParseError(f"exponent must be an integer literal {_at(at)}")
            k = _int_literal(etext, at)
            degree, bits = _size(base)
            _check_size(f"power ^{k} at position {at}", degree * k, bits * k)
            try:
                base = base ** k
            except OverflowError:  # a float base leaves the double range
                raise ParseError(f"power ^{k} at position {at} overflows the "
                                 f"floating field") from None

    def atom(self):
        kind, text, at = self.take()
        if kind in ("int", "float"):
            value = _int_literal(text, at) if kind == "int" else float(text)
            if self.field is CC:
                return _finite(value, f"number at position {at}")
            return self.field.lift(value)
        if kind == "name":
            if text in self.atoms:
                return self.atoms[text]
            raise ParseError(f"unknown name {text!r} at position {at}")
        if kind == "op" and text == "(":
            self.enter(at)
            value = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return value
        if kind is None:
            raise ParseError("expected a value at end of input")
        raise ParseError(f"unexpected {text!r} at position {at}")


def _at(at) -> str:
    return "at end of input" if at is None else f"at position {at}"


def _int_literal(text: str, at: int) -> int:
    try:
        return int(text)
    except ValueError:  # longer than the interpreter's integer string limit
        raise ParseError(f"integer literal of {len(text)} digits at position {at} "
                         f"is too long") from None


def _finite(value, what: str) -> complex:
    """``value`` in the floating field, which holds only finite numbers."""
    try:
        value = CC.coerce(value)
    except OverflowError:  # an integer beyond the range of a float
        value = complex(math.inf)
    if math.isfinite(value.real) and math.isfinite(value.imag):
        return value
    raise ParseError(f"{what} is not a finite float")


def _bits(q: Fraction) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _size(v) -> tuple:
    """Degree in z and largest coefficient bit length of a scalar.

    A power ``v ** k`` has k times the degree and about k times the bits.
    """
    if isinstance(v, RatFunc):
        parts = (v.num, v.den)
        return (max(p.degree for p in parts),
                max(_bits(c) for p in parts for c in p.coeffs))
    if isinstance(v, Omega):
        return 0, max(_bits(v.a), _bits(v.b))
    if isinstance(v, Fraction):
        return 0, _bits(v)
    return 0, 0  # floats keep their size


def _part(p: Poly) -> tuple:
    """Degree and largest numerator or denominator bit length of a polynomial."""
    return p.degree, max(map(int.bit_length, (p.den, *p.nums)))


def _times(x: tuple, y: tuple) -> tuple:
    return x[0] + y[0], x[1] + y[1]


def _predict(op: str, a: RatFunc, b: RatFunc) -> tuple:
    """Largest degree and numerator or denominator bit length of the parts
    ``RatFunc`` forms for a op b before it cancels their gcd.  A product or
    quotient adds its factors' sizes, as a power multiplies its base's, and
    a sum takes one bit more than its larger term."""
    an, ad, bn, bd = map(_part, (a.num, a.den, b.num, b.den))
    if op == "*":
        parts = _times(an, bn), _times(ad, bd)
    elif op == "/":
        parts = _times(an, bd), _times(ad, bn)
    else:
        if a.den == b.den:
            terms, den = (an, bn), ad
        else:
            terms, den = (_times(an, bd), _times(bn, ad)), _times(ad, bd)
        parts = (max(t[0] for t in terms), max(t[1] for t in terms) + 1), den
    return max(p[0] for p in parts), max(p[1] for p in parts)


def _check_size(what: str, degree: int, bits: int):
    if degree > MAX_POWER_DEGREE or bits > MAX_POWER_BITS:
        raise ParseError(f"{what} exceeds the size limit "
                         f"(degree {MAX_POWER_DEGREE}, {MAX_POWER_BITS} bits)")


def parse_scalar(text: str):
    """Parse a scalar expression, choosing the field from the tokens present.

    Decimal literals force the floating field, ``omega`` selects QQ(omega),
    ``z`` selects QQ(z); bare integer/fraction arithmetic stays in QQ.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty scalar expression")
    names = {t for k, t, _ in tokens if k == "name"}
    has_float = any(k == "float" for k, _, _ in tokens)
    if "z" in names and "omega" in names:
        raise ParseError("cannot mix z and omega in one expression")
    if has_float and ("z" in names or "omega" in names):
        raise ParseError("decimal literals force the floating field; no symbols allowed")
    if has_float:
        field, atoms = CC, {}
    elif "omega" in names:
        field, atoms = QW, {"omega": QW.omega}
    elif "z" in names:
        field, atoms = QZ, {"z": QZ.gen}
    else:
        field, atoms = QQ, {}
    return _ScalarParser(tokens, field, atoms).parse()


def parse_point(text: str):
    """Parse a specialization point: exact rational, omega expression or float."""
    _check_length(text, "point")
    value = parse_scalar(text)
    if isinstance(value, RatFunc):
        raise ParseError("a specialization point cannot contain z")
    return value


# ---------------------------------------------------------------------------
# Family specs

_COMBINATORS = {"tensor": tensor, "direct_sum": direct_sum, "dual": dual}

# provenance names that format_spec prints with no parameters
_BARE_FAMILIES = ("standard_s3", "raw", "block")


def _split_top_level(text: str, sep: str) -> list:
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
            if depth > MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING} levels at position {i}")
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced ')' at position {i}")
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise ParseError("unbalanced '(' in spec")
    parts.append(text[start:])
    return parts


def _check_length(text: str, what: str):
    if len(text) > MAX_SPEC_CHARS:
        raise ParseError(f"{what} of {len(text)} characters is longer than the "
                         f"limit {MAX_SPEC_CHARS}")


def parse_family_spec(text: str) -> Representation:
    """Build the representation named by a family-spec string."""
    _check_length(text, "spec")
    text = text.strip()
    m = re.fullmatch(r"([A-Za-z_][A-Za-z_0-9]*)\s*(?:\((.*)\))?", text, re.S)
    if m is None:
        raise ParseError(f"bad family spec {text!r}")
    name, body = m.group(1), m.group(2)

    if name == "standard_s3":
        if body and body.strip():
            raise ParseError("standard_s3 takes no parameters")
        return standard_s3()

    if name in _COMBINATORS:
        if body is None:
            raise ParseError(f"{name} needs parenthesized arguments")
        args = [parse_family_spec(part) for part in _split_top_level(body, ",")]
        func = _COMBINATORS[name]
        if name == "dual":
            if len(args) != 1:
                raise ParseError("dual takes exactly one representation")
            return func(args[0])
        if len(args) != 2:
            raise ParseError(f"{name} takes exactly two representations")
        d1, d2 = args[0].dimension, args[1].dimension
        if (d1 * d2 if name == "tensor" else d1 + d2) > MAX_DIMENSION:
            raise ParseError(f"{name} of dimensions {d1}, {d2} is above the limit {MAX_DIMENSION}")
        return func(args[0], args[1])

    if name not in FAMILIES:
        raise ParseError(f"unknown family {name!r}")
    build, params, _ = FAMILIES[name]
    if body is None or not body.strip():
        raise ParseError(f"{name} needs a parameter, e.g. {name}(z)")

    # every parameter after z is named; the braid index n is an optional integer
    sections = _split_top_level(body, ";")
    args = {params[0]: parse_scalar(sections[0])}
    for section in sections[1:]:
        for item in _split_top_level(section, ","):
            if "=" not in item:
                raise ParseError(f"expected name=value in {item!r}")
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in params[1:]:
                raise ParseError(f"unknown parameter {key!r} for {name}")
            if key in args:
                raise ParseError(f"parameter {key!r} is given twice")
            args[key] = _braid_index(value.strip()) if key == "n" else parse_scalar(value)
    missing = [p for p in params if p not in args and p != "n"]
    if missing:
        raise ParseError(f"{name} needs parameter(s) {', '.join(missing)}")
    return build(*(args[p] for p in params if p in args))


def _braid_index(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise ParseError(f"parameter 'n' must be an integer, got {text!r}") from None
    if n > MAX_BRAID_INDEX:
        raise ParseError(f"parameter 'n' is {n}, above the limit {MAX_BRAID_INDEX}")
    return n


def format_spec(meta: RepMeta) -> str:
    """Canonical family-spec text for a representation's provenance."""
    name = meta.family
    if name in _COMBINATORS:
        inner = ",".join(format_spec(c) for c in meta.children)
        return f"{name}({inner})"
    if name in _BARE_FAMILIES:
        return name
    parts = [format_scalar(meta.params["z"])]
    extras = [f"{k}={format_scalar(v)}" for k, v in meta.params.items()
              if k not in ("z",) and not isinstance(v, int)]
    extras += [f"{k}={v}" for k, v in meta.params.items() if isinstance(v, int)]
    body = parts[0] if not extras else f"{parts[0]}; {', '.join(extras)}"
    return f"{name}({body})"


# ---------------------------------------------------------------------------
# JSON forms


def scalar_to_json(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, RatFunc):
        return {"num": [str(c) for c in v.num.coeffs],
                "den": [str(c) for c in v.den.coeffs]}
    if isinstance(v, Omega):
        return {"a": str(v.a), "b": str(v.b)}
    if isinstance(v, (complex, float)):
        v = complex(v)
        return {"re": v.real, "im": v.imag}
    raise TypeError(f"{v!r} is not a serializable scalar")


def scalar_from_json(obj):
    try:
        if isinstance(obj, str):
            return Fraction(obj)
        if isinstance(obj, dict):
            if "num" in obj and "den" in obj:
                return RatFunc(Poly(Fraction(c) for c in obj["num"]),
                               Poly(Fraction(c) for c in obj["den"]))
            if "a" in obj and "b" in obj:
                return Omega(Fraction(obj["a"]), Fraction(obj["b"]))
            if "re" in obj and "im" in obj:
                return _finite(complex(obj["re"], obj["im"]), f"scalar JSON {obj!r}")
    except ZeroDivisionError:
        raise ParseError(f"division by zero in scalar JSON {obj!r}") from None
    raise ParseError(f"bad scalar JSON: {obj!r}")


def matrix_to_json(m: Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[scalar_to_json(m[i, j]) for j in range(m.cols)]
                        for i in range(m.rows)]}


def matrix_from_json(obj: dict) -> Matrix:
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
        values = [scalar_from_json(e) for r in entries for e in r]
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError(f"expected {rows} rows of {cols} entries")
        if max(rows, cols) > MAX_DIMENSION:
            raise ValueError(f"{rows} x {cols} is above the dimension limit {MAX_DIMENSION}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad matrix JSON: {exc}") from None
    if not values:
        raise ParseError("bad matrix JSON: no entries")
    field = field_of(values[0])
    return Matrix(rows, cols, values, field)


def meta_to_json(meta: RepMeta) -> dict:
    return {"family": meta.family,
            "params": {k: (v if isinstance(v, int) else format_scalar(v))
                       for k, v in meta.params.items()},
            "children": [meta_to_json(c) for c in meta.children]}


def representation_to_json(r: Representation) -> dict:
    return {"braid_index": r.braid_index,
            "images": [matrix_to_json(m) for m in r.images],
            "meta": meta_to_json(r.meta)}


def meta_from_json(obj, depth: int = 0) -> RepMeta:
    """The ``RepMeta`` that ``meta_to_json`` writes, checked as outside input.

    A missing family is ``raw``, and missing params or children are empty.
    Children nest at most MAX_NESTING deep, and each string param is at
    most MAX_SPEC_CHARS long.
    """
    def bad(why: str):
        return ParseError(f"bad representation JSON: meta {why}")

    if not isinstance(obj, dict):
        raise bad(f"must be an object, got {obj!r}")
    family = obj.get("family", "raw")
    params = obj.get("params") or {}
    children = obj.get("children") or []
    if not isinstance(family, str):
        raise bad(f"family must be a string, got {family!r}")
    if not isinstance(params, dict):
        raise bad(f"params must be an object, got {params!r}")
    if not isinstance(children, list):
        raise bad(f"children must be a list, got {children!r}")
    if children and depth == MAX_NESTING:
        raise bad(f"children nest deeper than {MAX_NESTING} levels")
    values = {}
    for key, v in params.items():
        if isinstance(v, str):
            _check_length(v, f"bad representation JSON: meta param {key!r}")
            values[key] = parse_scalar(v)
        elif isinstance(v, int) and not isinstance(v, bool):
            values[key] = v
        else:
            raise bad(f"param {key!r} must be a string or an integer, got {v!r}")
    if "z" not in values and family not in (*_COMBINATORS, *_BARE_FAMILIES):
        raise bad(f"family {family!r} needs param 'z'")
    return RepMeta(family, values, tuple(meta_from_json(c, depth + 1) for c in children))


def representation_from_json(obj: dict) -> Representation:
    try:
        braid_index = obj["braid_index"]
        images = [matrix_from_json(mj) for mj in obj["images"]]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad representation JSON: {exc}") from None
    if not isinstance(braid_index, int) or isinstance(braid_index, bool):
        raise ParseError(f"bad representation JSON: braid_index must be an integer, "
                         f"got {braid_index!r}")
    if braid_index > MAX_BRAID_INDEX:
        raise ParseError(f"bad representation JSON: braid_index {braid_index} is above "
                         f"the limit {MAX_BRAID_INDEX}")
    return make_representation(braid_index, images, meta_from_json(obj.get("meta") or {}))


# ---------------------------------------------------------------------------
# LaTeX


def _latex_rational(q) -> str:
    return str(q) if q.denominator == 1 else rf"\frac{{{q.numerator}}}{{{q.denominator}}}"


_LATEX_STYLE = (_latex_rational, _latex_rational, "")


def scalar_to_latex(v) -> str:
    if isinstance(v, Fraction):
        return signed_sum([(v, None)], _LATEX_STYLE)
    if isinstance(v, RatFunc):
        num, den = (signed_sum(poly_terms(p, "z^{{{}}}"), _LATEX_STYLE) for p in (v.num, v.den))
        return num if v.den.degree == 0 else rf"\frac{{{num}}}{{{den}}}"
    if isinstance(v, Omega):
        return signed_sum([(v.a, None), (v.b, r"\omega")], _LATEX_STYLE)
    if isinstance(v, (complex, float)):
        return format_scalar(v)
    raise TypeError(f"{v!r} has no LaTeX form")


def matrix_to_latex(m: Matrix) -> str:
    colspec = "c" * m.cols
    body = r" \\ ".join(
        " & ".join(scalar_to_latex(m[i, j]) for j in range(m.cols))
        for i in range(m.rows))
    return (rf"\left[ \begin{{array}}{{{colspec}}} {body} \end{{array}} \right]")


def representation_to_latex(r: Representation) -> str:
    lines = [rf"\sigma_{{{i}}} \mapsto {matrix_to_latex(m)}"
             for i, m in enumerate(r.images, start=1)]
    return "\n".join(lines)

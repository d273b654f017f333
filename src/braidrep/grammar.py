"""Text grammar, JSON forms and LaTeX emitters.

Scalar expressions use integer and fraction literals, the variable ``z``,
the literal ``omega``, decimal floats (which force the floating field),
the operators ``+ - * / ^`` and parentheses.  Family specs look like
``burau(z)``, ``thm1_i(z; f=-z/(z+1))`` or ``tensor(burau(z),burau(z))``.
Printing emits canonical forms that parse back to equal values.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .fields import (CC, DEFAULT_EPS, FloatField, Omega, Poly, QQ, QW, QZ,
                     RatFunc, field_of, format_scalar)
from .matrices import Matrix
from .families import (Representation, RepMeta, burau3, burau3_diag, dual,
                       direct_sum, make_representation, mu, mu_pascal,
                       standard_s3, tensor, theorem1_i, theorem1_ii, xi)


class ParseError(ValueError):
    """Bad input text; the message carries the offending position."""


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


class _ScalarParser:
    """Recursive-descent parser over one field chosen from the token stream."""

    def __init__(self, tokens, field, atoms):
        self.tokens = tokens
        self.field = field
        self.atoms = atoms
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, text, at = self.take()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r} at position {at}")

    def parse(self):
        value = self.expr()
        kind, text, at = self.peek()
        if kind is not None:
            raise ParseError(f"unexpected {text!r} at position {at}")
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                rhs = self.term()
                value = value + rhs if text == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.take()
                rhs = self.unary()
                value = value * rhs if text == "*" else value / rhs
            else:
                return value

    def unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.take()
            return -self.unary()
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
                raise ParseError(f"exponent must be an integer literal at position {at}")
            base = base ** int(etext)

    def atom(self):
        kind, text, at = self.take()
        if kind == "int":
            return self.field.of_int(int(text))
        if kind == "float":
            return self.field.coerce(float(text))
        if kind == "name":
            if text in self.atoms:
                return self.atoms[text]
            raise ParseError(f"unknown name {text!r} at position {at}")
        if kind == "op" and text == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected {'end of input' if kind is None else text!r} at position {at}")


def parse_scalar(text: str, eps: float = DEFAULT_EPS):
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
        field = CC if eps == DEFAULT_EPS else FloatField(eps)
        atoms = {}
    elif "omega" in names:
        field, atoms = QW, {"omega": QW.omega}
    elif "z" in names:
        field, atoms = QZ, {"z": QZ.gen}
    else:
        field, atoms = QQ, {}
    return _ScalarParser(tokens, field, atoms).parse()


def parse_point(text: str, eps: float = DEFAULT_EPS):
    """Parse a specialization point: exact rational, omega expression or float."""
    value = parse_scalar(text, eps)
    if isinstance(value, RatFunc):
        raise ParseError("a specialization point cannot contain z")
    return value


# ---------------------------------------------------------------------------
# Family specs

_FAMILIES = {
    "burau": (burau3, ("z",), ()),
    "burau_diag": (burau3_diag, ("z",), ()),
    "mu": (mu, ("z",), ()),
    "mu_pascal": (mu_pascal, ("z",), ()),
    "xi": (xi, ("z",), ("n",)),
    "thm1_i": (theorem1_i, ("z", "f"), ()),
    "thm1_ii": (theorem1_ii, ("z", "e"), ()),
}

_COMBINATORS = {"tensor": tensor, "direct_sum": direct_sum, "dual": dual}


def _split_top_level(text: str, sep: str) -> list:
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
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


def parse_family_spec(text: str, eps: float = DEFAULT_EPS) -> Representation:
    """Build the representation named by a family-spec string."""
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
        args = [parse_family_spec(part, eps) for part in _split_top_level(body, ",")]
        func = _COMBINATORS[name]
        if name == "dual":
            if len(args) != 1:
                raise ParseError("dual takes exactly one representation")
            return func(args[0])
        if len(args) != 2:
            raise ParseError(f"{name} takes exactly two representations")
        return func(args[0], args[1])

    if name not in _FAMILIES:
        raise ParseError(f"unknown family {name!r}")
    func, positional, keywords = _FAMILIES[name]
    if body is None or not body.strip():
        raise ParseError(f"{name} needs a parameter, e.g. {name}(z)")

    sections = _split_top_level(body, ";")
    pos_args = [parse_scalar(sections[0], eps)]
    kw_args = {}
    for section in sections[1:]:
        for item in _split_top_level(section, ","):
            if "=" not in item:
                raise ParseError(f"expected name=value in {item!r}")
            key, _, value = item.partition("=")
            key = key.strip()
            if key in keywords:
                try:
                    kw_args[key] = int(value.strip())
                except ValueError:
                    raise ParseError(f"parameter {key!r} must be an integer, "
                                     f"got {value.strip()!r}") from None
            elif key in positional[1:]:
                kw_args[key] = parse_scalar(value, eps)
            else:
                raise ParseError(f"unknown parameter {key!r} for {name}")
    missing = [p for p in positional[1:] if p not in kw_args]
    if missing:
        raise ParseError(f"{name} needs parameter(s) {', '.join(missing)}")
    ordered = pos_args + [kw_args.pop(p) for p in positional[1:]]
    if name == "xi" and "n" in kw_args:
        return func(ordered[0], braid_index=kw_args["n"])
    return func(*ordered)


def format_spec(meta: RepMeta) -> str:
    """Canonical family-spec text for a representation's provenance."""
    name = meta.family
    if name in _COMBINATORS:
        inner = ",".join(format_spec(c) for c in meta.children)
        return f"{name}({inner})"
    if name == "standard_s3":
        return "standard_s3"
    if name in ("raw", "block"):
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


def scalar_from_json(obj, eps: float = DEFAULT_EPS):
    if isinstance(obj, str):
        return Fraction(obj)
    if isinstance(obj, dict):
        if "num" in obj and "den" in obj:
            return RatFunc(Poly(Fraction(c) for c in obj["num"]),
                           Poly(Fraction(c) for c in obj["den"]))
        if "a" in obj and "b" in obj:
            return Omega(Fraction(obj["a"]), Fraction(obj["b"]))
        if "re" in obj and "im" in obj:
            return complex(obj["re"], obj["im"])
    raise ParseError(f"bad scalar JSON: {obj!r}")


def matrix_to_json(m: Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[scalar_to_json(m[i, j]) for j in range(m.cols)]
                        for i in range(m.rows)]}


def matrix_from_json(obj: dict, eps: float = DEFAULT_EPS) -> Matrix:
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
        values = [scalar_from_json(e, eps) for r in entries for e in r]
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError(f"expected {rows} rows of {cols} entries")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad matrix JSON: {exc}") from None
    if not values:
        raise ParseError("bad matrix JSON: no entries")
    field = field_of(values[0], eps)
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


def representation_from_json(obj: dict, eps: float = DEFAULT_EPS) -> Representation:
    try:
        braid_index = obj["braid_index"]
        images = [matrix_from_json(mj, eps) for mj in obj["images"]]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad representation JSON: {exc}") from None
    meta_obj = obj.get("meta") or {}
    params = {k: (v if isinstance(v, int) else parse_scalar(v, eps))
              for k, v in (meta_obj.get("params") or {}).items()}
    meta = RepMeta(meta_obj.get("family", "raw"), params)
    return make_representation(braid_index, images, meta)


# ---------------------------------------------------------------------------
# LaTeX


def _poly_latex(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if c == 0:
            continue
        mag = abs(c)
        coeff = "" if (mag == 1 and k > 0) else (
            str(mag) if mag.denominator == 1 else rf"\frac{{{mag.numerator}}}{{{mag.denominator}}}")
        var = "" if k == 0 else ("z" if k == 1 else f"z^{{{k}}}")
        body = f"{coeff}{var}" or "1"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+{body}" if c > 0 else f"-{body}")
    return "".join(parts)


def scalar_to_latex(v) -> str:
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v)
        sign = "-" if v < 0 else ""
        return rf"{sign}\frac{{{abs(v.numerator)}}}{{{v.denominator}}}"
    if isinstance(v, RatFunc):
        if v.den == Poly.const(1):
            return _poly_latex(v.num)
        return rf"\frac{{{_poly_latex(v.num)}}}{{{_poly_latex(v.den)}}}"
    if isinstance(v, Omega):
        if v.b == 0:
            return scalar_to_latex(v.a)
        parts = []
        if v.a != 0:
            parts.append(scalar_to_latex(v.a))
        om = r"\omega" if abs(v.b) == 1 else scalar_to_latex(abs(v.b)) + r"\omega"
        parts.append(("-" if v.b < 0 else ("+" if parts else "")) + om)
        return "".join(parts)
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

"""Command-line front end.

Subcommands: show, verify, decompose, specialize, isomorphic, suite.
Exit codes are a stable contract: 0 success, 1 mathematical check failure,
2 parse/usage error, 3 constructor/domain error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .fields import TagMismatchError, format_scalar
from .families import Representation, specialize
from .analysis import (DEFAULT_SEED, DecompositionError, is_isomorphic,
                       split_once, verify_braid_relations)
from .grammar import (MAX_ISOMORPHIC_UNKNOWNS, MAX_RAW_BYTES, ParseError, format_spec,
                      matrix_to_json, parse_family_spec, parse_point,
                      representation_from_json, representation_to_json,
                      representation_to_latex, scalar_to_json)

_DOMAIN_ERRORS = (ValueError, TagMismatchError, ZeroDivisionError, OverflowError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidrep",
        description="Exact constructions and checks for B3 representations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("spec", nargs="?", help="family spec, e.g. 'burau(z)'")
        p.add_argument("--raw", metavar="PATH",
                       help="read the representation from a JSON file instead")
        p.add_argument("--format", choices=("text", "json", "latex"), default="text")
        p.add_argument("--quiet", action="store_true", help="suppress output")

    p_show = sub.add_parser("show", help="print the generator images")
    add_common(p_show)

    p_verify = sub.add_parser("verify", help="check the braid relations")
    add_common(p_verify)

    p_dec = sub.add_parser("decompose", help="split off a one-dimensional summand")
    add_common(p_dec)

    p_spec = sub.add_parser("specialize", help="evaluate symbolic entries at a point")
    add_common(p_spec)
    p_spec.add_argument("point", help="rational like 5/7, the literal omega, or a float")

    p_iso = sub.add_parser("isomorphic", help="decide isomorphism of two representations")
    p_iso.add_argument("spec1")
    p_iso.add_argument("spec2")
    p_iso.add_argument("--format", choices=("text", "json"), default="text")
    p_iso.add_argument("--quiet", action="store_true")

    p_suite = sub.add_parser("suite", help="run the full replication checklist")
    p_suite.add_argument("--format", choices=("text", "json"), default="text")
    p_suite.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_suite.add_argument("--quiet", action="store_true")
    return parser


def _emit(args, text: str):
    if not args.quiet:
        print(text)


def _render(func, *values) -> str:
    """The output text func(*values), with the interpreter's integer digit
    limit reported as a domain error of the render stage."""
    try:
        return func(*values)
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise ValueError(f"render: the result holds an integer of more than "
                         f"{sys.get_int_max_str_digits()} digits, the limit for "
                         f"printing one") from None


def _load(args) -> Representation:
    if getattr(args, "raw", None):
        try:
            with open(args.raw, "rb") as handle:
                data = handle.read(MAX_RAW_BYTES + 1)
        except OSError as exc:
            raise ParseError(f"cannot read --raw file {args.raw}: {exc.strerror}") from None
        if len(data) > MAX_RAW_BYTES:
            raise ParseError(f"--raw file is larger than the limit of {MAX_RAW_BYTES} bytes")
        try:
            obj = json.loads(data.decode())
        except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, too deep
            raise ParseError(f"--raw file {args.raw} is not UTF-8 JSON: {exc}") from None
        return representation_from_json(obj)
    if not args.spec:
        raise ParseError("missing spec argument (or --raw PATH)")
    return parse_family_spec(args.spec)


def _render_representation(rep: Representation, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(representation_to_json(rep), indent=2)
    if fmt == "latex":
        return representation_to_latex(rep)
    lines = [f"family: {format_spec(rep.meta)}"]
    for i, m in enumerate(rep.images, start=1):
        lines.append(f"sigma_{i} ->")
        lines.append(m.pretty())
    return "\n".join(lines)


def _verification_payload(report) -> dict:
    return {"relations": [{"lhs": c.lhs, "rhs": c.rhs, "holds": c.holds}
                          for c in report.checks],
            "overall": report.overall}


def _cmd_show(args) -> int:
    rep = _load(args)
    _emit(args, _render(_render_representation, rep, args.format))
    return 0


def _cmd_verify(args) -> int:
    rep = _load(args)
    report = verify_braid_relations(rep)
    if args.format == "json":
        _emit(args, json.dumps(_verification_payload(report), indent=2))
    else:
        for c in report.checks:
            _emit(args, f"{'ok  ' if c.holds else 'FAIL'} {c.lhs} = {c.rhs}")
        _emit(args, f"overall: {'holds' if report.overall else 'violated'}")
    return 0 if report.overall else 1


def _decomposition_payload(report) -> dict:
    return {
        "basis_change": matrix_to_json(report.basis_change),
        "blocks": [representation_to_json(b) for b in report.blocks],
        "witnesses": [{"side": w.side,
                       "eigenvalue": scalar_to_json(w.eigenvalue),
                       "vector": matrix_to_json(w.vector)}
                      for w in report.witnesses],
    }


def _render_decomposition(report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_decomposition_payload(report), indent=2)
    lines = ["basis change:", report.basis_change.pretty()]
    for w in report.witnesses:
        lines.append(f"{w.side} line, eigenvalue {format_scalar(w.eigenvalue)}: "
                     f"({', '.join(format_scalar(e) for e in w.vector.entries)})")
    for k, block in enumerate(report.blocks, start=1):
        lines.append(f"block {k} ({block.dimension}-dimensional):")
        for i, m in enumerate(block.images, start=1):
            lines.append(f"  sigma_{i} ->")
            lines.append(m.pretty())
    return "\n".join(lines)


def _cmd_decompose(args) -> int:
    rep = _load(args)
    try:
        report = split_once(rep)
    except DecompositionError as exc:
        _emit(args, f"decomposition failed: {exc}")
        return 1
    _emit(args, _render(_render_decomposition, report, args.format))
    return 0


def _cmd_specialize(args) -> int:
    rep = _load(args)
    result = specialize(rep, parse_point(args.point))
    _emit(args, _render(_render_representation, result, args.format))
    return 0


def _render_isomorphism(report, fmt: str) -> str:
    if fmt == "json":
        payload = {"verdict": report.verdict}
        if report.conjugator is not None:
            payload["conjugator"] = matrix_to_json(report.conjugator)
        return json.dumps(payload, indent=2)
    lines = [f"verdict: {report.verdict}"]
    if report.conjugator is not None:
        lines.append(report.conjugator.pretty())
    return "\n".join(lines)


def _cmd_isomorphic(args) -> int:
    r1, r2 = parse_family_spec(args.spec1), parse_family_spec(args.spec2)
    if (n := r1.dimension * r2.dimension) > MAX_ISOMORPHIC_UNKNOWNS:
        raise ParseError(f"isomorphic has {n} unknowns, above the limit {MAX_ISOMORPHIC_UNKNOWNS}")
    report = is_isomorphic(r1, r2)
    _emit(args, _render(_render_isomorphism, report, args.format))
    return 0 if report.verdict == "yes" else 1


def _cmd_suite(args) -> int:
    from .suite import run_suite
    result = run_suite(seed=args.seed)
    if args.format == "json":
        _emit(args, json.dumps(result.to_json_dict(), indent=2))
    else:
        _emit(args, result.render_text())
    return result.exit_code


_COMMANDS = {
    "show": _cmd_show,
    "verify": _cmd_verify,
    "decompose": _cmd_decompose,
    "specialize": _cmd_specialize,
    "isomorphic": _cmd_isomorphic,
    "suite": _cmd_suite,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

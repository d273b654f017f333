"""The result records: immutable, compared by value, and cheap to import.

The frozen records are ``typing.NamedTuple`` classes and the suite's two
mutable results are plain classes, so importing braidrep does not load
``dataclasses`` and, through it, ``inspect``.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from braidrep import QQ, Matrix, RepMeta, mu
from braidrep.analysis import (DecompositionReport, InvariantLine, IrreducibilityReport,
                               IsomorphismReport, RelationCheck, VerificationReport)

SRC = Path(__file__).resolve().parent.parent / "src"


def _line():
    return InvariantLine(Fraction(1), Matrix.column([Fraction(1), Fraction(0)], QQ), "right")


# (build a record, one of its fields)
RECORDS = {
    "RelationCheck": (lambda: RelationCheck("s1*s2", "s2*s1", True), "holds"),
    "VerificationReport": (lambda: VerificationReport((RelationCheck("a", "b", False),)),
                           "checks"),
    "InvariantLine": (_line, "vector"),
    "IrreducibilityReport": (lambda: IrreducibilityReport(False, "line", _line()), "reason"),
    "DecompositionReport": (lambda: DecompositionReport(Matrix.identity(2, QQ), (), ()),
                            "blocks"),
    "IsomorphismReport": (lambda: IsomorphismReport("yes", Matrix.identity(2, QQ)), "verdict"),
    "RepMeta": (lambda: RepMeta("mu", {"z": Fraction(2)}), "params"),
    "Representation": (lambda: mu(Fraction(2)), "images"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_fields_are_read_only(name):
    build, field = RECORDS[name]
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, field, None)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_with_equal_fields_compare_equal(name):
    build, _ = RECORDS[name]
    assert build() == build()


def test_irreducibility_report_truth_is_its_verdict():
    assert bool(IrreducibilityReport(True, "no invariant line"))
    assert not IrreducibilityReport(False, "line", _line())


def test_default_params_are_empty_and_not_shared_mutable_state():
    a, b = RepMeta("raw"), RepMeta("raw")
    assert dict(a.params) == {}
    try:
        a.params["z"] = Fraction(1)
    except TypeError:  # a read-only default
        pass
    assert dict(b.params) == {}


def test_import_loads_neither_dataclasses_nor_inspect():
    # -S: start-up hooks of the installed site-packages are not braidrep's cost
    code = ("import sys, braidrep, braidrep.cli, braidrep.suite; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"

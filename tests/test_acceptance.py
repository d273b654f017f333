"""Acceptance suite: every criterion run at its stated tolerance.

Each criterion prints one pass/fail line (visible with ``pytest -s`` or in
captured output).  Exact checks carry zero tolerance; the float-consistency
criterion runs at epsilon = 1e-9.  The two probe checks report computed
answers and must finish in the "reported" state, never "fail".
"""

import time

import pytest

from braidrep.analysis import DEFAULT_SEED
from braidrep import suite

# criteria with a stated runtime budget, in seconds
_TIME_BUDGETS = {"AC01": 1.0, "AC06": 5.0}


@pytest.mark.parametrize("check", suite.ALL_CHECKS,
                         ids=[fn.__name__.split("_")[-1].upper() for fn in suite.ALL_CHECKS])
def test_criterion(check):
    started = time.perf_counter()
    result = check(seed=DEFAULT_SEED)
    elapsed = time.perf_counter() - started
    print(f"{result.check_id} {result.status.upper()}  {result.description}  "
          f"[{elapsed:.3f}s]")
    assert result.status != "fail", result.details
    budget = _TIME_BUDGETS.get(result.check_id)
    if budget is not None:
        assert elapsed < budget, f"{result.check_id} exceeded {budget}s ({elapsed:.3f}s)"


def test_probes_are_reported_not_asserted():
    oq1 = suite.check_oq01()
    oq2 = suite.check_oq02()
    assert oq1.status == "reported"
    assert oq2.status == "reported"
    assert "rejected" in oq1.details["z=-1"]
    # the computed answer on the excluded locus: reducible for every tested f
    assert all(v["verdict"] == "reducible" for v in oq2.details.values())


def test_full_suite_exit_code_zero():
    result = suite.run_suite()
    print(result.render_text())
    assert result.exit_code == 0


def test_ac11_inverts_only_its_two_symbolic_builds(monkeypatch):
    # A deterministic count, so a regression fails on a noisy host too: the
    # 200 specializations are checked by rref pivots (CC) or fraction-free
    # elimination (QQ), so no specialized image is inverted; at most the four
    # QQ(z) images of burau(z) and mu(z) are.  Checking each float image with
    # inverse() makes 204.
    from braidrep.fields import QZ
    from braidrep.matrices import Matrix

    inverted = []
    inverse = Matrix.inverse

    def counting(self):
        inverted.append(self.field)
        return inverse(self)

    monkeypatch.setattr(Matrix, "inverse", counting)
    assert suite.check_ac11(seed=12345).status == "pass"
    assert [f for f in inverted if f is not QZ] == []
    assert len(inverted) <= 4


def test_suite_builds_each_symbolic_family_once(monkeypatch):
    # A deterministic count, so a regression fails on a noisy host too.  Each
    # of the 31 distinct named QQ(z) builds of a run is made, and its images
    # inverted, once: 116 QQ(z) inverses, where building on every call made
    # 186.  The builds last one run: a second run makes them again.
    from braidrep import families
    from braidrep.fields import QZ
    from braidrep.matrices import Matrix

    inverted = []
    inverse = Matrix.inverse

    def counting(self):
        inverted.append(self.field)
        return inverse(self)

    monkeypatch.setattr(Matrix, "inverse", counting)
    for _ in range(2):
        inverted.clear()
        assert suite.run_suite(seed=12345).exit_code == 0
        assert sum(f is QZ for f in inverted) == 116
        assert families._builds is None

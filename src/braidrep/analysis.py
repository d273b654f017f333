"""Structure analysis of braid representations.

Relation verification, common invariant lines on either side, the
irreducibility decision for dimensions up to three, splitting off a
one-dimensional direct summand with an explicitly constructed invariant
complement, and intertwiner spaces for isomorphism testing.

Candidate eigenvalues are read off a triangular generator image; callers
with no triangular image must conjugate first.  The braid relation forces
both generators to act with one shared scalar on any invariant line, so
the search intersects kernels of (M_i - lambda*I) across all generators
for each candidate lambda.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .matrices import Matrix, hstack, vstack
from .families import (Representation, RepMeta, _check_compatible, make_representation,
                       relation_verdicts, xi)

DEFAULT_SEED = 12345


class DecompositionError(ValueError):
    """No direct-sum splitting could be produced."""


@dataclass(frozen=True)
class RelationCheck:
    lhs: str
    rhs: str
    holds: bool


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple

    @property
    def overall(self) -> bool:
        return all(c.holds for c in self.checks)


@dataclass(frozen=True)
class InvariantLine:
    eigenvalue: object
    vector: Matrix  # column vector; for side "left" it is the functional's coordinates
    side: str       # "right" or "left"


@dataclass(frozen=True)
class IrreducibilityReport:
    irreducible: bool
    reason: str
    witness: Optional[InvariantLine] = None

    def __bool__(self) -> bool:
        return self.irreducible


@dataclass(frozen=True)
class DecompositionReport:
    basis_change: Matrix
    blocks: tuple
    witnesses: tuple


@dataclass(frozen=True)
class IsomorphismReport:
    verdict: str  # "yes", "no" or "undecided"
    conjugator: Optional[Matrix] = None


# ---------------------------------------------------------------------------
# Relations


def verify_braid_relations(r: Representation) -> VerificationReport:
    """Check far commutation and the braid relation on every generator pair.

    Failures are reported, never raised.  Over QQ and QQ(z) each image is
    written once as A / d with A and d free of denominators (ints, or
    polynomials with integer coefficients), and s_i*s_j*s_i = s_j*s_i*s_j
    is decided exactly as d_j*(AB)A == d_i*B(AB), s_i*s_j = s_j*s_i as
    AB == BA: no fraction is formed and no gcd taken.  QQ(omega) compares
    the products exactly and CC within DEFAULT_EPS, where a value that is
    not finite raises OverflowError.  Each pair shares the product AB
    (``families.relation_verdicts``).
    """
    checks = []
    for i, j, holds in relation_verdicts(r.images):
        si, sj = f"s{i + 1}", f"s{j + 1}"
        if j - i == 1:
            checks.append(RelationCheck(f"{si}*{sj}*{si}", f"{sj}*{si}*{sj}", holds))
        else:
            checks.append(RelationCheck(f"{si}*{sj}", f"{sj}*{si}", holds))
    return VerificationReport(tuple(checks))


# ---------------------------------------------------------------------------
# Invariant lines


def spectrum_of_triangular(m: Matrix) -> list:
    """Deduplicated diagonal of a triangular matrix."""
    if not (m.is_upper_triangular() or m.is_lower_triangular()):
        raise ValueError("spectrum requires triangular form; conjugate first")
    field = m.field
    out = []
    for i in range(m.rows):
        lam = m[i, i]
        if not any(field.eq(lam, seen) for seen in out):
            out.append(lam)
    return out


def _candidate_eigenvalues(r: Representation) -> list:
    for m in r.images:
        if m.is_upper_triangular() or m.is_lower_triangular():
            return spectrum_of_triangular(m)
    raise ValueError("spectrum requires triangular form; conjugate first")


def common_invariant_lines(r: Representation, side: str = "right") -> list:
    """All lines fixed by every generator image with one shared eigenvalue.

    side "right" finds common eigenvectors M*v = lambda*v; side "left" finds
    functionals u with u*M = lambda*u (via transposes), which witness
    invariant subspaces of codimension one.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    images = r.images if side == "right" else [m.transpose() for m in r.images]
    lines = []
    for lam in _candidate_eigenvalues(r):
        stacked = vstack([m.sub_scalar(lam) for m in images])
        for v in stacked.kernel():
            lines.append(InvariantLine(lam, v, side))
    return lines


def is_irreducible(r: Representation) -> IrreducibilityReport:
    """Decide irreducibility for dimensions up to three.

    Dimension two reduces to the absence of a common right eigenvector; for
    dimension three a two-dimensional invariant subspace is exactly the
    kernel of a common left eigenvector, so both sides are searched.
    """
    dim = r.dimension
    if dim == 1:
        return IrreducibilityReport(True, "one-dimensional")
    if dim > 3:
        raise ValueError("undecided: only 1-dim invariant tests implemented")
    rights = common_invariant_lines(r, "right")
    if rights:
        return IrreducibilityReport(False, "common right eigenvector found", rights[0])
    if dim == 3:
        lefts = common_invariant_lines(r, "left")
        if lefts:
            return IrreducibilityReport(
                False, "left invariant line witnesses a 2-dim invariant subspace", lefts[0])
        return IrreducibilityReport(True, "no invariant line on either side")
    return IrreducibilityReport(True, "no common right eigenvector")


# ---------------------------------------------------------------------------
# Splitting off a one-dimensional summand


def split_once(r: Representation) -> DecompositionReport:
    """Split V as L + ker(u) for a right line L and a left line u with u(L) != 0.

    The basis change puts every generator image in exact block-diagonal form
    whose first block is the scalar line; the construction certifies a true
    direct sum rather than a quotient.
    """
    if r.dimension < 2:
        raise DecompositionError("nothing to split off a one-dimensional representation")
    field = r.images[0].field
    rights = common_invariant_lines(r, "right")
    if not rights:
        raise DecompositionError("no 1-dim invariant subspace")
    lefts = common_invariant_lines(r, "left")
    for line in rights:
        for functional in lefts:
            if not field.eq(line.eigenvalue, functional.eigenvalue):
                continue
            pairing = (functional.vector.transpose() * line.vector)[0, 0]
            if field.is_zero(pairing):
                continue
            return _assemble_split(r, line, functional)
    raise DecompositionError(
        "no invariant complement found (possible non-semisimple extension)")


def _assemble_split(r: Representation, line: InvariantLine,
                    functional: InvariantLine) -> DecompositionReport:
    field = r.images[0].field
    complement = functional.vector.transpose().kernel()
    basis_change = hstack([line.vector] + complement)
    inv = basis_change.inverse()
    conjugated = [inv * m * basis_change for m in r.images]
    for m in conjugated:
        off = [m[i, 0] for i in range(1, m.rows)] + [m[0, j] for j in range(1, m.cols)]
        if not all(field.is_zero(x) for x in off):
            raise DecompositionError("splitting failed to block-diagonalize")
    scalar_block = xi(line.eigenvalue, r.braid_index)
    rest = make_representation(
        r.braid_index, [m.delete_row_col(0, 0) for m in conjugated],
        RepMeta("block", {"removed_eigenvalue": line.eigenvalue}))
    return DecompositionReport(basis_change, (scalar_block, rest), (line, functional))


# ---------------------------------------------------------------------------
# Intertwiners and isomorphism


def intertwiners(r1: Representation, r2: Representation) -> list:
    """Exact basis of {M : M * r1(s_i) = r2(s_i) * M for all i}.

    Row-major vectorization turns each condition into the kernel of
    I (x) r1(s_i)^T - r2(s_i) (x) I; the stacked system is solved once.
    """
    _check_compatible(r1, r2)
    field = r1.field
    n1, n2 = r1.dimension, r2.dimension
    i1 = Matrix.identity(n1, field)
    i2 = Matrix.identity(n2, field)
    blocks = [i2.kron(m1.transpose()) - m2.kron(i1)
              for m1, m2 in zip(r1.images, r2.images)]
    return [Matrix(n2, n1, v.entries, field) for v in vstack(blocks).kernel()]


def is_isomorphic(r1: Representation, r2: Representation) -> IsomorphismReport:
    """Look for an invertible intertwiner.

    A one-element basis is tested directly; larger spaces are probed with
    32 random rational combinations drawn from DEFAULT_SEED, and exhausting
    them yields "undecided" rather than a false negative (false positives
    are impossible over exact fields).
    """
    if r1.dimension != r2.dimension or r1.braid_index != r2.braid_index:
        return IsomorphismReport("no")
    basis = intertwiners(r1, r2)
    if not basis:
        return IsomorphismReport("no")
    field = r1.field
    for m in basis:
        if m.is_invertible():
            return IsomorphismReport("yes", m)
    if len(basis) == 1:
        return IsomorphismReport("no")
    rng = random.Random(DEFAULT_SEED)
    for _ in range(32):
        combo = Matrix.zero(r2.dimension, r1.dimension, field)
        for m in basis:
            combo = combo + m.scale(field.lift(rng.randint(-9, 9)))
        if combo.is_invertible():
            return IsomorphismReport("yes", combo)
    return IsomorphismReport("undecided")

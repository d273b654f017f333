"""Tests for relation verification, invariant lines, splitting, intertwiners."""

import random
from fractions import Fraction

import pytest

from braidrep import (DecompositionError, Matrix, QQ, QW, QZ, RatFunc,
                      burau3, burau3_diag, burau_change_of_basis,
                      common_invariant_lines, conjugate, intertwiners,
                      is_irreducible, is_isomorphic, mu, mu_pascal, specialize,
                      spectrum_of_triangular, split_once, tensor, theorem1_i,
                      theorem1_ii, verify_braid_relations, xi)
from braidrep import raw as raw_rep
from braidrep.analysis import InvariantLine, _assemble_split

from _gen import rand_fraction


Z = RatFunc.gen()
ONE = QZ.one
ZERO = QZ.zero


def tensor_square():
    return tensor(burau3(Z), burau3(Z))


# -- relation verification -----------------------------------------------------

def test_burau_relations_hold():
    report = verify_braid_relations(burau3(Z))
    assert report.overall
    assert len(report.checks) == 1
    assert report.checks[0].lhs == "s1*s2*s1"


def test_bad_pair_reported_not_raised():
    rep = raw_rep([Matrix.diagonal([-Z, ONE], QZ), Matrix.identity(2, QZ)])
    report = verify_braid_relations(rep)
    assert not report.overall
    assert [c.holds for c in report.checks] == [False]


def test_xi_holds_for_any_braid_index():
    report = verify_braid_relations(xi(Fraction(3), braid_index=5))
    assert report.overall
    # three adjacent pairs plus three far-commutation pairs
    assert len(report.checks) == 6


# -- spectra ---------------------------------------------------------------------

def test_spectrum_of_diagonal():
    m = Matrix.diagonal([ONE, -Z, Z * Z], QZ)
    assert spectrum_of_triangular(m) == [ONE, -Z, Z * Z]


def test_spectrum_deduplicates():
    m = Matrix.from_rows([[ONE, Z], [ZERO, ONE]], QZ)
    assert spectrum_of_triangular(m) == [ONE]


def test_spectrum_requires_triangular():
    m = Matrix.from_rows([[ONE, Z], [Z, ONE]], QZ)
    with pytest.raises(ValueError, match="conjugate first"):
        spectrum_of_triangular(m)


# -- invariant lines --------------------------------------------------------------

def test_mu_has_no_invariant_lines_symbolically():
    assert common_invariant_lines(mu(Z), "right") == []
    assert common_invariant_lines(mu(Z), "left") == []


def test_mu_at_one_has_the_shared_eigenvector():
    lines = common_invariant_lines(specialize(mu(Z), Fraction(1)), "right")
    assert len(lines) == 1
    line = lines[0]
    assert line.eigenvalue == Fraction(1)
    # (3, 0, 1) after leading-one normalization
    assert line.vector == Matrix.column([Fraction(1), Fraction(0), Fraction(1, 3)], QQ)


def test_conjugated_tensor_square_fixes_the_third_axis():
    p4 = Matrix.from_rows([
        [ZERO, ZERO, ZERO, Z * Z + 2 * Z + ONE],
        [ZERO, -Z - ONE, -ONE, -Z - ONE],
        [ZERO, ZERO, ONE, -Z - ONE],
        [ONE, ONE, ZERO, ONE]], QZ)
    conjugated = raw_rep([conjugate(p4, m) for m in tensor_square().images])
    lines = common_invariant_lines(conjugated, "right")
    assert len(lines) == 1
    assert lines[0].eigenvalue == -Z
    e3 = Matrix.column([ZERO, ZERO, ONE, ZERO], QZ)
    assert lines[0].vector == e3


def test_mu_at_one_eigenspace_is_two_dimensional():
    d = specialize(mu(Z), Fraction(1)).images[1]
    shifted = d - Matrix.identity(3, QQ)
    assert len(shifted.kernel()) == 2
    zero_col = Matrix.zero(3, 1, QQ)
    for coords in ((1, -2, 1), (9, 6, 1), (3, 0, 1)):
        v = Matrix.column([Fraction(c) for c in coords], QQ)
        assert shifted * v == zero_col


def test_invariant_lines_satisfy_eigenvector_identity():
    rep = specialize(mu(Z), Fraction(1))
    for line in common_invariant_lines(rep, "right"):
        for m in rep.images:
            assert m * line.vector == line.vector.scale(line.eigenvalue)
    for line in common_invariant_lines(rep, "left"):
        u = line.vector.transpose()
        for m in rep.images:
            assert u * m == u.scale(line.eigenvalue)


# -- irreducibility -----------------------------------------------------------------

def test_mu_irreducible_symbolically():
    assert is_irreducible(mu(Z)).irreducible


def test_mu_reducible_at_one_and_omega():
    assert not is_irreducible(specialize(mu(Z), Fraction(1)))
    assert not is_irreducible(mu(QW.omega))


def test_family_i_reducible_on_quadratic_locus():
    report = is_irreducible(theorem1_i(QW.omega, QW.one))
    assert not report.irreducible
    line = report.witness
    assert line.vector == Matrix.column([QW.one, QW.zero], QW)
    assert line.eigenvalue == -QW.omega


def test_burau_irreducible():
    assert is_irreducible(burau3(Z)).irreducible


def test_family_ii_irreducible():
    for e in (0, 1, 2, -1):
        assert is_irreducible(theorem1_ii(Z, QZ.of_int(e))).irreducible


def test_one_dimensional_always_irreducible():
    assert is_irreducible(xi(Z)).irreducible


def test_dimension_cap():
    with pytest.raises(ValueError, match="undecided"):
        is_irreducible(tensor_square())


def test_reducible_whenever_split_succeeds():
    rep = specialize(mu(Z), Fraction(1))
    split_once(rep)  # does not raise
    assert not is_irreducible(rep).irreducible


# -- splitting ---------------------------------------------------------------------

def test_split_tensor_square():
    report = split_once(tensor_square())
    scalar_block, rest = report.blocks
    assert scalar_block.dimension == 1
    assert rest.dimension == 3
    assert scalar_block.images[0] == xi(-Z).images[0]
    # conjugation by the basis change is exactly block-diagonal
    inv = report.basis_change.inverse()
    for m in tensor_square().images:
        conj = inv * m * report.basis_change
        assert all(conj[i, 0] == ZERO for i in range(1, 4))
        assert all(conj[0, j] == ZERO for j in range(1, 4))
    # block traces sum to the input trace, generator by generator
    for m, s, r in zip(tensor_square().images, scalar_block.images, rest.images):
        assert m.trace() == s.trace() + r.trace()


def test_split_witnesses_have_matching_eigenvalue():
    report = split_once(tensor_square())
    right, left = report.witnesses
    assert right.side == "right" and left.side == "left"
    assert right.eigenvalue == left.eigenvalue == -Z
    pairing = (left.vector.transpose() * right.vector)[0, 0]
    assert pairing != ZERO


def test_split_block_isomorphic_to_mu():
    rest = split_once(tensor_square()).blocks[1]
    report = is_isomorphic(rest, mu(Z))
    assert report.verdict == "yes"
    conjugator = report.conjugator
    conjugator.inverse()  # invertible
    for m1, m2 in zip(rest.images, mu(Z).images):
        assert conjugator * m1 == m2 * conjugator


def test_split_mu_at_one():
    report = split_once(specialize(mu(Z), Fraction(1)))
    scalar_block, rest = report.blocks
    assert scalar_block.images[0] == Matrix.identity(1, QQ)
    assert is_isomorphic(rest, burau3(Fraction(1))).verdict == "yes"


def test_split_with_a_wrong_complement_raises():
    # e2 pairs nonzero with the invariant line, but its kernel is not invariant
    square = tensor_square()
    line = common_invariant_lines(square, "right")[0]
    e2 = InvariantLine(line.eigenvalue, Matrix.column([ZERO, ONE, ZERO, ZERO], QZ), "left")
    with pytest.raises(DecompositionError, match="failed to block-diagonalize"):
        _assemble_split(square, line, e2)


def test_split_failure_on_irreducible_input():
    with pytest.raises(DecompositionError, match="no 1-dim invariant subspace"):
        split_once(burau3(Z))


# -- intertwiners --------------------------------------------------------------------

def test_self_intertwiners_of_burau_are_scalars():
    basis = intertwiners(burau3(Z), burau3(Z))
    assert basis == [Matrix.identity(2, QZ)]


def test_intertwiner_between_burau_and_its_diagonal_form():
    basis = intertwiners(burau3_diag(Z), burau3(Z))
    assert len(basis) == 1
    p = burau_change_of_basis(Z)
    # the basis element is the change of basis, up to leading-one scale
    assert basis[0] == p.scale(QZ.inv(p.entries[0]))
    m = basis[0]
    for m1, m2 in zip(burau3_diag(Z).images, burau3(Z).images):
        assert m * m1 == m2 * m


def test_intertwiners_of_distinct_scalars_vanish():
    assert intertwiners(xi(Fraction(2)), xi(Fraction(3))) == []
    assert intertwiners(xi(Z), xi(-Z)) == []


def test_schur_dimension_one():
    for rep in (burau3(Z), mu(Z), theorem1_ii(Z, ZERO)):
        assert len(intertwiners(rep, rep)) == 1


# -- isomorphism ----------------------------------------------------------------------

def test_mu_isomorphic_to_pascal_form():
    report = is_isomorphic(mu(Z), mu_pascal(Z))
    assert report.verdict == "yes"
    m = report.conjugator
    for m1, m2 in zip(mu(Z).images, mu_pascal(Z).images):
        assert m * m1 == m2 * m


def test_family_i_members_with_same_product_are_isomorphic():
    r1 = theorem1_i(Fraction(2), Fraction(1))
    r2 = theorem1_i(Fraction(2), Fraction(5))
    report = is_isomorphic(r1, r2)
    assert report.verdict == "yes"
    # the scaling conjugator diag(1, 5) intertwines them directly
    d = Matrix.diagonal([Fraction(1), Fraction(5)], QQ)
    for m1, m2 in zip(r1.images, r2.images):
        assert conjugate(d, m1) == m2


def test_distinct_scalars_not_isomorphic():
    assert is_isomorphic(xi(Z), xi(-Z)).verdict == "no"


def test_dimension_mismatch_is_no_not_error():
    assert is_isomorphic(xi(Z), burau3(Z)).verdict == "no"


def test_isomorphism_is_deterministic_given_seed():
    a = is_isomorphic(mu(Z), mu_pascal(Z), seed=7)
    b = is_isomorphic(mu(Z), mu_pascal(Z), seed=7)
    assert a == b


def test_specialization_sweep_mostly_irreducible():
    rng = random.Random(13)
    count = 0
    while count < 20:
        q = rand_fraction(rng)
        if q in (0, -1, 1):
            continue
        assert is_irreducible(mu(q)).irreducible
        count += 1

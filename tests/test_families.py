"""Tests for the representation constructors and combinators."""

import math
import random
import re
from fractions import Fraction

import pytest

from braidrep import (Matrix, ParameterError, PoleError, QQ, QW, QZ,
                      RatFunc, SingularMatrixError, burau3, burau3_diag,
                      burau_change_of_basis, conjugate, direct_sum, dual, mu,
                      mu_pascal, specialize, standard_s3, tensor,
                      tensor_onedim, theorem1_i, theorem1_ii, xi)
from braidrep import families
from braidrep import raw as raw_rep
from braidrep.analysis import verify_braid_relations

from _gen import rand_fraction


Z = RatFunc.gen()
ONE = QZ.one
ZERO = QZ.zero


# -- one-dimensional family --------------------------------------------------

def test_xi_images_are_the_scalar():
    rep = xi(-Z)
    assert all(m == Matrix.from_rows([[-Z]], QZ) for m in rep.images)


def test_xi_trivial():
    rep = xi(Fraction(1))
    assert all(m == Matrix.identity(1, QQ) for m in rep.images)


def test_xi_rejects_zero():
    with pytest.raises(ParameterError, match="not invertible"):
        xi(Fraction(0))


def test_xi_higher_braid_index():
    rep = xi(Fraction(2), braid_index=5)
    assert len(rep.images) == 4
    assert verify_braid_relations(rep).overall


# -- family (i) ---------------------------------------------------------------

def test_family_i_at_burau_parameter_matches_diagonalized_burau():
    rep = theorem1_i(Z, -Z / (Z + ONE))
    assert rep.images[0] == burau3_diag(Z).images[0]
    assert rep.images[1] == burau3_diag(Z).images[1]


def test_family_i_rational_point():
    rep = theorem1_i(Fraction(2), Fraction(1))
    expected = Matrix.from_rows([
        [Fraction(1, 3), Fraction(1)],
        [Fraction(14, 9), Fraction(-4, 3)]], QQ)
    assert rep.images[1] == expected


def test_family_i_excluded_parameters():
    with pytest.raises(ParameterError, match="excluded parameter"):
        theorem1_i(Fraction(-1), Fraction(1))
    with pytest.raises(ParameterError, match="excluded parameter"):
        theorem1_i(Fraction(0), Fraction(1))
    with pytest.raises(ParameterError, match="f must be nonzero"):
        theorem1_i(Z, ZERO)


def test_family_i_off_diagonal_product_is_forced():
    forced = Z * (Z * Z + Z + ONE) / ((Z + ONE) ** 2)
    for f in (ONE, Z, Z * Z + ONE):
        s2 = theorem1_i(Z, f).images[1]
        assert s2[0, 1] * s2[1, 0] == forced


def test_family_i_scaling_conjugation():
    rng = random.Random(19)
    base = theorem1_i(Z, ONE)
    for _ in range(10):
        t = rand_fraction(rng, nonzero=True)
        scaling = Matrix.diagonal([ONE, QZ.lift(t)], QZ)
        scaled = theorem1_i(Z, QZ.lift(t))
        assert all(conjugate(scaling, m) == e
                   for m, e in zip(base.images, scaled.images))


# -- family (ii) ---------------------------------------------------------------

def test_family_ii_unit_parameter():
    rep = theorem1_ii(Z, ONE)
    assert rep.images[1] == Matrix.from_rows([[ONE, ZERO], [-(ONE / Z), ONE]], QZ)


def test_family_ii_rational_point():
    rep = theorem1_ii(Fraction(1), Fraction(0))
    expected = Matrix.from_rows([[Fraction(0), Fraction(1)],
                                 [Fraction(-1), Fraction(2)]], QQ)
    assert rep.images[1] == expected


def test_family_ii_rejects_zero():
    with pytest.raises(ParameterError, match="excluded parameter"):
        theorem1_ii(Fraction(0), Fraction(1))


# -- Burau --------------------------------------------------------------------

def test_burau_at_one():
    rep = burau3(Fraction(1))
    assert rep.images[0] == Matrix.from_rows([[-1, 0], [1, 1]], QQ)
    assert rep.images[1] == Matrix.from_rows([[1, 1], [0, -1]], QQ)


def test_burau_diag_is_conjugated_burau():
    p = burau_change_of_basis(Z)
    b, d = burau3(Z), burau3_diag(Z)
    assert all(conjugate(p, m) == e for m, e in zip(b.images, d.images))


def test_burau_rejects_zero():
    with pytest.raises(ParameterError, match="excluded parameter"):
        burau3(Fraction(0))


def test_burau_diag_allows_one_rejects_minus_one():
    rep = burau3_diag(Fraction(1))
    assert verify_braid_relations(rep).overall
    with pytest.raises(ParameterError):
        burau3_diag(Fraction(-1))


# -- the three-dimensional family ----------------------------------------------

def test_mu_pinned_entries():
    rep = mu(Z)
    d = (Z + ONE) ** 2
    assert rep.images[1][0, 0] == Z ** 4 / d
    assert rep.images[1][2, 2] == ONE / d
    assert rep.images[0] == Matrix.diagonal([ONE, -Z, Z * Z], QZ)


def test_mu_pascal_first_row():
    rep = mu_pascal(Z)
    assert list(rep.images[1].row(0)) == [ONE, 2 * Z, Z * Z]


def test_mu_excluded_parameters():
    for bad in (Fraction(0), Fraction(-1)):
        with pytest.raises(ParameterError):
            mu(bad)
        with pytest.raises(ParameterError):
            mu_pascal(bad)


def test_every_named_constructor_satisfies_relations_symbolically():
    reps = [burau3(Z), burau3_diag(Z), mu(Z), mu_pascal(Z), xi(Z), xi(-Z),
            theorem1_i(Z, ONE), theorem1_ii(Z, QZ.lift(2)), standard_s3()]
    rng = random.Random(53)
    points = [QW.omega, QW.omega + 3]
    while len(points) < 8:
        q = rand_fraction(rng, nonzero=True)
        if q != -1:
            points.append(q)
    for p in points:
        reps += [burau3(p), burau3_diag(p), mu(p), mu_pascal(p), xi(p),
                 theorem1_i(p, p * rand_fraction(rng, nonzero=True)),
                 theorem1_ii(p, p + rand_fraction(rng))]
    for rep in reps:
        assert verify_braid_relations(rep).overall, (rep.meta.family, rep.meta.params)


def test_standard_s3_images_are_involutions():
    rep = standard_s3()
    ident = Matrix.identity(2, QQ)
    assert all(m * m == ident for m in rep.images)


# -- combinators ----------------------------------------------------------------

def test_tensor_matches_kron_of_images():
    square = tensor(burau3(Z), burau3(Z))
    assert square.dimension == 4
    b = burau3(Z)
    assert all(m == a.kron(a) for m, a in zip(square.images, b.images))


def test_direct_sum_traces_match_tensor_traces():
    # additivity of traces on the claimed decomposition, symbolically
    square = tensor(burau3(Z), burau3(Z))
    summed = direct_sum(xi(-Z), mu(Z))
    for m, s in zip(square.images, summed.images):
        assert m.trace() == s.trace()


def test_tensor_onedim_is_scaling():
    rep = tensor_onedim(burau3(Z), xi(-Z))
    assert all(m == b.scale(-Z) for m, b in zip(rep.images, burau3(Z).images))


def test_dual_of_onedim_inverts_scalar():
    assert dual(xi(Z)).images[0] == xi(ONE / Z).images[0]


def test_dual_is_involutive():
    rep = burau3(Z)
    assert all(m == d for m, d in zip(rep.images, dual(dual(rep)).images))


def test_combinators_preserve_relations():
    rng = random.Random(29)
    for _ in range(8):
        q = rand_fraction(rng, nonzero=True)
        if q in (0, -1):
            continue
        r1 = burau3(q)
        r2 = theorem1_ii(q, rand_fraction(rng))
        assert verify_braid_relations(tensor(r1, r2)).overall
        assert verify_braid_relations(direct_sum(r1, r2)).overall
        assert verify_braid_relations(dual(r1)).overall


def test_combinator_mismatch_rejected():
    with pytest.raises(ParameterError, match="braid index"):
        tensor(burau3(Z), xi(Z, braid_index=4))
    with pytest.raises(ParameterError, match="field"):
        direct_sum(burau3(Z), burau3(Fraction(2)))


# -- specialization ---------------------------------------------------------------

def test_specialize_burau_at_one_squares_to_identity():
    rep = specialize(burau3(Z), Fraction(1))
    ident = Matrix.identity(2, QQ)
    assert all(m * m == ident for m in rep.images)


def test_specialize_pole_names_the_entry():
    with pytest.raises(PoleError, match=r"pole at specialization point in generator"):
        specialize(burau3_diag(Z), Fraction(-1))


def _with_poles(n, cells):
    """The n x n identity with 1/(z-3) written into the given (row, col) cells."""
    ent = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for i, j in cells:
        ent[i][j] = ent[i][j] + ONE / (Z - 3)
    return Matrix.from_rows(ent, QZ)


@pytest.mark.parametrize("poles, named", [
    (([(1, 0), (1, 1)], []), "generator 1 entry (2,1)"),
    (([], [(1, 0), (0, 1)]), "generator 2 entry (1,2)"),
    (([], [(2, 0), (1, 2)]), "generator 2 entry (2,3)"),
    (([(2, 2)], [(0, 0)]), "generator 1 entry (3,3)"),
])
def test_specialize_names_the_first_pole_entry_in_row_major_order(poles, named):
    n = max(2, 1 + max(max(i, j) for cells in poles for i, j in cells))
    rep = raw_rep([_with_poles(n, cells) for cells in poles])
    message = "^" + re.escape(f"pole at specialization point in {named}") + "$"
    for point in (Fraction(3), 3, 3.0):
        with pytest.raises(PoleError, match=message):
            specialize(rep, point)


def test_specialize_at_omega():
    rep = specialize(burau3(Z), QW.omega)
    assert rep.field is QW
    assert verify_braid_relations(rep).overall


def test_specialize_commutes_with_tensor():
    rng = random.Random(41)
    for _ in range(6):
        q = rand_fraction(rng, nonzero=True)
        if q == -1:
            continue
        square = tensor(burau3(Z), burau3(Z))
        lhs = specialize(square, q)
        rhs = tensor(burau3(q), burau3(q))
        assert all(a == b for a, b in zip(lhs.images, rhs.images))


def test_specialize_commutes_with_conjugation():
    rng = random.Random(47)
    p_sym = burau_change_of_basis(Z)
    for _ in range(6):
        q = rand_fraction(rng, nonzero=True)
        if q == -1:
            continue
        p_at = burau_change_of_basis(q)
        for m_sym, m_at in zip(burau3(Z).images, burau3(q).images):
            conj = conjugate(p_sym, m_sym)
            sym_then_eval = Matrix(conj.rows, conj.cols,
                                   [e.evaluate(q) for e in conj.entries], QQ)
            assert sym_then_eval == conjugate(p_at, m_at)


def test_specialize_updates_parameter_bindings():
    rep = specialize(theorem1_i(Z, -Z / (Z + ONE)), Fraction(2))
    assert rep.meta.params["z"] == Fraction(2)
    assert rep.meta.params["f"] == Fraction(-2, 3)


# -- raw input ---------------------------------------------------------------------

def test_raw_checks_invertibility_only():
    a = Matrix.diagonal([-Z, ONE], QZ)
    b = Matrix.identity(2, QZ)
    rep = raw_rep([a, b])
    assert not verify_braid_relations(rep).overall  # checked on demand, not raised


def test_raw_rejects_singular_images():
    singular = Matrix.from_rows([[Fraction(1), Fraction(0)],
                                 [Fraction(0), Fraction(0)]], QQ)
    with pytest.raises(SingularMatrixError, match="not invertible"):
        raw_rep([singular, Matrix.identity(2, QQ)])


def test_image_of_word():
    rep = burau3(Fraction(1))
    expected = rep.images[0] * rep.images[1]
    assert rep.image_of_word((1, 2)) == expected
    with pytest.raises(ValueError):
        rep.image_of_word((3,))


# -- named builds shared over QQ(z) inside build_once() ---------------------------

def _arguments(params):
    """Arguments from one value z: z itself, and z squared for a second parameter."""
    return lambda z: (z, z * z)[:len(params)]


# every family declared with families._family; xi is entered by hand and not shared
MEMOIZED = {name: (build, _arguments(params))
            for name, (build, params, _) in families.FAMILIES.items() if build is not xi}


@pytest.mark.parametrize("name", MEMOIZED)
def test_equal_symbolic_arguments_return_the_same_build(name):
    build, args = MEMOIZED[name]
    with families.build_once():
        first = build(*args(Z))
        again = build(*args(RatFunc(Z.num, Z.den)))  # equal arguments, new objects
        assert again is first
        assert build(*args(Z + ONE)) is not first
    assert build(*args(Z)) is not first


@pytest.mark.parametrize("name", MEMOIZED)
def test_symbolic_builds_outside_a_block_are_fresh(name):
    build, args = MEMOIZED[name]
    assert build(*args(Z)) is not build(*args(Z))
    assert families._builds is None


@pytest.mark.parametrize("name", MEMOIZED)
@pytest.mark.parametrize("point", [Fraction(2), QW.omega, 2, 2.5],
                         ids=["Fraction", "Omega", "int", "float"])
def test_points_are_never_memoized(name, point):
    build, args = MEMOIZED[name]
    with families.build_once():
        assert build(*args(point)) is not build(*args(point))
        assert families._builds == {}


@pytest.mark.parametrize("build", [theorem1_i, theorem1_ii])
@pytest.mark.parametrize("second", [Fraction(2), 2], ids=["Fraction", "int"])
def test_a_symbolic_parameter_beside_a_number_is_not_memoized(build, second):
    with families.build_once():
        assert build(Z, second) is not build(Z, second)
        assert families._builds == {}


def test_float_arguments_keep_their_signed_zero():
    with families.build_once():
        theorem1_ii(1.0, 0.0)
        e = theorem1_ii(1.0, -0.0).meta.params["e"]
    assert math.copysign(1.0, e.real) == -1.0


def test_excluded_symbolic_parameter_raises_on_every_call():
    with families.build_once():
        for _ in range(3):
            with pytest.raises(ParameterError, match="requires z != -1"):
                mu(QZ.lift(-1))
        assert families._builds == {}


def test_builds_are_dropped_when_the_outer_block_ends():
    with families.build_once():
        first = mu(Z)
        with families.build_once():  # a nested block shares the outer builds
            assert mu(Z) is first
        assert mu(Z) is first
        assert len(families._builds) == 1
    assert families._builds is None
    with pytest.raises(ZeroDivisionError):
        with families.build_once():
            mu(Z)
            raise ZeroDivisionError
    assert families._builds is None
    with families.build_once():
        assert mu(Z) is not first


@pytest.mark.parametrize("name", MEMOIZED)
def test_named_params_are_read_only(name):
    build, args = MEMOIZED[name]
    with families.build_once():
        rep = build(*args(Z))
        with pytest.raises(TypeError):
            rep.meta.params["z"] = ONE
        assert build(*args(Z)).meta.params["z"] == Z

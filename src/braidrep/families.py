"""Braid-group representations of B3 and the constructors for every named family.

A representation is the braid index n together with the n-1 invertible
generator images over one scalar field.  Named constructors build the
known families (the one-dimensional family, both two-dimensional families,
the Burau pair and its diagonalized form, and the three-dimensional
complement of the tensor square in two equivalent bases) by evaluating
their defining formulas.  The braid relations hold identically in the
parameters, so they are certified once, symbolically, by the test suite
and by suite check AC01, not on every construction; any representation,
raw input included, is checked on demand by ``verify_braid_relations``.

Each family's spec name, parameters and excluded z are declared once, by
``_family``, in the ``FAMILIES`` table the grammar reads.  Inside a
``build_once()`` block, which ``suite.run_suite`` opens for one run, each
declared family is built once per QQ(z) argument, and every caller in the
block gets the same object, whose ``meta.params`` is read-only.  Points,
and every call outside such a block, are built afresh.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce, wraps
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .fields import CC, QQ, QZ, PoleError, RatFunc, common_denominator, field_of, join
from .matrices import Matrix, SingularMatrixError, block_diag


class ParameterError(ValueError):
    """A constructor parameter sits outside the family's domain."""


class RepMeta(NamedTuple):
    """Provenance: family name, parameter bindings, combinator children."""

    family: str
    params: Mapping = MappingProxyType({})  # one read-only default for every meta
    children: tuple = ()


class Representation(NamedTuple):
    braid_index: int
    images: tuple
    meta: RepMeta

    @property
    def dimension(self) -> int:
        return self.images[0].rows

    @property
    def field(self):
        return self.images[0].field

    def image_of_word(self, word: Iterable[int]) -> Matrix:
        """Image of a positive braid word given as 1-based generator indices."""
        out = Matrix.identity(self.dimension, self.field)
        for g in word:
            if not 1 <= g <= self.braid_index - 1:
                raise ValueError(f"generator index {g} out of range")
            out = out * self.images[g - 1]
        return out


class _IntegralMatrix:
    """A square matrix over ZZ or ZZ[z], row-major: plain ints, or
    polynomials with integer coefficients."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: list):
        self.n, self.entries = n, entries

    def __mul__(self, other):
        n, a = self.n, self.entries
        cols = [other.entries[j::n] for j in range(n)]
        return _IntegralMatrix(n, [reduce(operator.add, map(operator.mul, a[i:i + n], col))
                                   for i in range(0, n * n, n) for col in cols])

    def __eq__(self, other):
        return self.entries == other.entries

    def scale(self, d):
        return _IntegralMatrix(self.n, [d * x for x in self.entries])


def _denominator_free(m: Matrix) -> tuple:
    """(d, A) with m = A / d and no denominator in d or A over QQ and QQ(z)
    (``fields.common_denominator``); (1, m) over the other fields."""
    if m.field is QQ or m.field is QZ:
        d, nums = common_denominator(m.entries)
        return d, _IntegralMatrix(m.rows, nums)
    return 1, m


def relation_verdicts(images: Sequence[Matrix]):
    """Yield (i, j, holds) for every pair of generator images i < j.

    Adjacent images A/d_i, B/d_j must satisfy the braid relation, decided
    as d_j*(AB)A == d_i*B(AB) on the denominator-free parts; every other
    pair must commute, AB == BA.  Each image is split once, and each pair
    shares the one product AB.
    """
    split = [_denominator_free(m) for m in images]
    for i, (di, a) in enumerate(split):
        for j in range(i + 1, len(split)):
            dj, b = split[j]
            ab = a * b
            if j == i + 1:
                lhs, rhs = ab * a, b * ab
                holds = lhs == rhs if di == dj else lhs.scale(dj) == rhs.scale(di)
            else:
                holds = ab == b * a
            yield i, j, holds


# No caller in the package; kept because the benchmark tracer binds this name.
def braid_relations_hold(images: Sequence[Matrix]) -> bool:
    return all(holds for _, _, holds in relation_verdicts(images))


def make_representation(braid_index: int, images: Sequence[Matrix],
                        meta: RepMeta) -> Representation:
    """Assemble a representation, checking shape and invertibility.

    Braid relations are not checked here: the named families satisfy them
    identically, and other input is verified on demand by the analysis
    layer so that bad input yields a report, not an exception.
    """
    images = tuple(images)
    if braid_index < 2:
        raise ParameterError("braid index must be at least 2")
    if len(images) != braid_index - 1:
        raise ParameterError("dimension mismatch: need braid_index - 1 generator images")
    dim = images[0].rows
    for m in images:
        if m.rows != m.cols or m.rows != dim:
            raise ParameterError("dimension mismatch: images must be square and equal-sized")
        if m.field != images[0].field:
            raise ParameterError("field mismatch between generator images")
        if not m.is_invertible():
            raise SingularMatrixError("not invertible")
    return Representation(braid_index, images, meta)


def raw(images: Sequence[Matrix], meta: Optional[RepMeta] = None) -> Representation:
    return make_representation(len(images) + 1, images, meta or RepMeta("raw"))


# ---------------------------------------------------------------------------
# Named families


# spec name -> (constructor, parameter names in call order, integers z may
# not take), for every _family declaration and for xi
FAMILIES = {}

_builds = None  # (formula, args) -> Representation while build_once() is open


@contextmanager
def build_once():
    """Within the block, a named family called again with equal QQ(z)
    arguments returns the first call's build.  A nested block shares the
    outer one's builds, and they are dropped when the outer block ends."""
    global _builds
    if _builds is not None:
        yield
        return
    _builds = {}
    try:
        yield
    finally:
        _builds = None


def _family(name: str, params: tuple, excluded: tuple):
    """Declare ``formula(field, z[, second])``, which returns the two
    generator images, as the family ``name`` and enter it in FAMILIES.

    The constructor brings a second parameter into z's field, rejects an
    excluded z and keeps its arguments as read-only ``meta.params``.  In an
    open ``build_once()`` block, a call whose arguments are all QQ(z) values
    (canonical, so equal arguments give the same build) is built once.
    Points are cheap and bypass it, and a float key would merge -0.0 with
    0.0.  A call that raises is not stored.
    """
    def declare(formula):
        @wraps(formula)
        def family(*args):
            key = (formula, args)
            shared = _builds is not None and all(type(a) is RatFunc for a in args)
            if shared and key in _builds:
                return _builds[key]
            if len(params) == 2:
                *args, fld = join(*args)
            else:
                fld = field_of(args[0])
            for bad in excluded:
                if fld.eq(args[0], fld.lift(bad)):
                    raise ParameterError(f"excluded parameter: {name} requires z != {bad}")
            rep = make_representation(3, formula(fld, *args),
                                      RepMeta(name, MappingProxyType(dict(zip(params, args)))))
            if shared:
                _builds[key] = rep
            return rep

        FAMILIES[name] = (family, params, excluded)
        return family
    return declare


def xi(z, braid_index: int = 3) -> Representation:
    """The one-dimensional family: every generator maps to the 1x1 matrix [z].

    The braid relation forces both generator scalars to agree, so one scalar
    determines the representation.
    """
    f = field_of(z)
    if f.is_zero(z):
        raise ParameterError("excluded parameter: z = 0 is not invertible")
    image = Matrix.from_rows([[z]], f)
    images = [image] * (braid_index - 1)
    params = {"z": z} if braid_index == 3 else {"z": z, "n": braid_index}
    return make_representation(braid_index, images, RepMeta("xi", MappingProxyType(params)))


FAMILIES["xi"] = (xi, ("z", "n"), (0,))


@_family("thm1_i", ("z", "f"), (0, -1))
def theorem1_i(fld, z, f):
    """Two-dimensional family with diagonal first generator.

    sigma_1 -> diag(-z, 1) and sigma_2 has forced diagonal 1/(z+1), -z^2/(z+1);
    the off-diagonal product is pinned to z(z^2+z+1)/(z+1)^2, so f determines
    its partner entry g.
    """
    if fld.is_zero(f):
        raise ParameterError("f must be nonzero; the off-diagonal product fg is forced")
    one = fld.one
    g = z * (z * z + z + one) / ((z + one) ** 2 * f)
    s1 = Matrix.from_rows([[-z, fld.zero], [fld.zero, one]], fld)
    s2 = Matrix.from_rows([[one / (z + one), f],
                           [g, -(z * z) / (z + one)]], fld)
    return s1, s2


@_family("thm1_ii", ("z", "e"), (0,))
def theorem1_ii(fld, z, e):
    """Two-dimensional family with unipotent first generator.

    sigma_1 -> [[1, z], [0, 1]]; solving the braid relation pins sigma_2 to
    [[e, z(e-1)^2], [-1/z, 2-e]].
    """
    one = fld.one
    two = fld.lift(2)
    s1 = Matrix.from_rows([[one, z], [fld.zero, one]], fld)
    s2 = Matrix.from_rows([[e, z * (e - one) ** 2],
                           [-(one / z), two - e]], fld)
    return s1, s2


@_family("burau", ("z",), (0,))
def burau3(fld, z):
    """The reduced Burau representation of B3."""
    one, zero = fld.one, fld.zero
    s1 = Matrix.from_rows([[-z, zero], [one, one]], fld)
    s2 = Matrix.from_rows([[one, z], [zero, -z]], fld)
    return s1, s2


def burau_change_of_basis(z) -> Matrix:
    """The 2x2 change of basis that diagonalizes the first Burau generator.

    Singular exactly at z = -1; z = 1 is fine.
    """
    fld = field_of(z)
    one, zero = fld.one, fld.zero
    return Matrix.from_rows([[-(z + one), zero], [one, one]], fld)


@_family("burau_diag", ("z",), (0, -1))
def burau3_diag(fld, z):
    """Burau with the first generator diagonalized.

    Requires z != -1 (the change of basis degenerates and the entries have
    poles there); z = 1 is allowed since the basis change stays invertible.
    """
    one, zero = fld.one, fld.zero
    w = z * z + z + one
    s1 = Matrix.from_rows([[-z, zero], [zero, one]], fld)
    s2 = Matrix.from_rows([[one / (z + one), -z / (z + one)],
                           [-w / (z + one), -(z * z) / (z + one)]], fld)
    return s1, s2


@_family("mu", ("z",), (0, -1))
def mu(fld, z):
    """The three-dimensional complement of the scalar line in Burau squared.

    Defined by its explicit matrices: sigma_1 -> diag(1, -z, z^2) and a
    dense second generator with (z+1)^2 denominators throughout.
    """
    one = fld.one
    d = (z + one) ** 2
    w = z * z + z + one
    s1 = Matrix.diagonal([one, -z, z * z], fld)
    s2 = Matrix.from_rows([
        [z ** 4 / d, (z * z) * w / d, w * w / d],
        [2 * z ** 3 / d, z * (z * z + one) / d, -(2 * w) / d],
        [(z * z) / d, -z / d, one / d],
    ], fld)
    return s1, s2


@_family("mu_pascal", ("z",), (0, -1))
def mu_pascal(fld, z):
    """The same three-dimensional representation in the symmetric-power basis.

    Both generator images are triangular with binomial-pattern entries.
    """
    one, zero = fld.one, fld.zero
    two = fld.lift(2)
    s1 = Matrix.from_rows([
        [z * z, zero, zero],
        [-z, -z, zero],
        [one, two, one],
    ], fld)
    s2 = Matrix.from_rows([
        [one, 2 * z, z * z],
        [zero, -z, -(z * z)],
        [zero, zero, z * z],
    ], fld)
    return s1, s2


def standard_s3() -> Representation:
    """Burau at z = 1, which factors through the symmetric group S3.

    Both images are involutions, so the pair satisfies the S3 presentation.
    """
    return Representation(3, burau3(Fraction(1)).images, RepMeta("standard_s3"))


# ---------------------------------------------------------------------------
# Combinators


def _check_compatible(r1: Representation, r2: Representation):
    if r1.braid_index != r2.braid_index:
        raise ParameterError("braid index mismatch")
    if r1.field != r2.field:
        raise ParameterError("field mismatch")


def tensor(r1: Representation, r2: Representation) -> Representation:
    _check_compatible(r1, r2)
    images = [a.kron(b) for a, b in zip(r1.images, r2.images)]
    return make_representation(r1.braid_index, images,
                               RepMeta("tensor", children=(r1.meta, r2.meta)))


def direct_sum(r1: Representation, r2: Representation) -> Representation:
    _check_compatible(r1, r2)
    images = [block_diag(a, b) for a, b in zip(r1.images, r2.images)]
    return make_representation(r1.braid_index, images,
                               RepMeta("direct_sum", children=(r1.meta, r2.meta)))


# No caller in the package; kept because the benchmark tracer binds this name.
def tensor_onedim(r: Representation, line: Representation) -> Representation:
    """Tensor with a one-dimensional representation, i.e. generatorwise scaling."""
    _check_compatible(r, line)
    if line.dimension != 1:
        raise ParameterError("second factor must be one-dimensional")
    images = [m.scale(s[0, 0]) for m, s in zip(r.images, line.images)]
    return make_representation(r.braid_index, images,
                               RepMeta("tensor", children=(r.meta, line.meta)))


def dual(r: Representation) -> Representation:
    """Inverse-transpose on every generator image."""
    images = [m.inverse().transpose() for m in r.images]
    return make_representation(r.braid_index, images,
                               RepMeta("dual", children=(r.meta,)))


# ---------------------------------------------------------------------------
# Specialization


def specialize(r: Representation, point) -> Representation:
    """Evaluate every entry at the point; the result carries the point's field.

    The parameters of the provenance, combinator children included, are
    evaluated too.  Fails with PoleError naming the first offending entry,
    in row-major order, when the point hits a denominator zero.
    """
    if r.field is not QZ:
        raise ParameterError("specialize requires symbolic entries over QQ(z)")
    target = field_of(point)
    if target is CC:
        point = target.coerce(point)
    images = []
    for g, m in enumerate(r.images, start=1):
        ent = []
        try:
            for e in m.entries:
                ent.append(e.evaluate(point))
        except PoleError:
            i, j = divmod(len(ent), m.cols)
            raise PoleError(f"pole at specialization point in generator {g} "
                            f"entry ({i + 1},{j + 1})") from None
        images.append(Matrix(m.rows, m.cols, ent, target))
    return make_representation(r.braid_index, images, _specialize_meta(r.meta, point))


def _specialize_meta(meta: RepMeta, point) -> RepMeta:
    params = {k: (v.evaluate(point) if isinstance(v, RatFunc) else v)
              for k, v in meta.params.items()}
    return RepMeta(meta.family, params,
                   tuple(_specialize_meta(c, point) for c in meta.children))

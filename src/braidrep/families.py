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
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .fields import DEFAULT_EPS, FloatField, PoleError, QZ, RatFunc, field_of, join
from .matrices import Matrix, block_diag


class ParameterError(ValueError):
    """A constructor parameter sits outside the family's domain."""


@dataclass(frozen=True)
class RepMeta:
    """Provenance: family name, parameter bindings, combinator children."""

    family: str
    params: dict = dfield(default_factory=dict)
    children: tuple = ()


@dataclass(frozen=True)
class Representation:
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


# No caller in the package; kept because the benchmark tracer binds this name.
def braid_relations_hold(images: Sequence[Matrix]) -> bool:
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            a, b = images[i], images[j]
            if j - i == 1:
                if not (a * b * a == b * a * b):
                    return False
            else:
                if not (a * b == b * a):
                    return False
    return True


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
        m.inverse()  # raises SingularMatrixError("not invertible") for bad input
    return Representation(braid_index, images, meta)


def raw(images: Sequence[Matrix], braid_index: Optional[int] = None,
        meta: Optional[RepMeta] = None) -> Representation:
    n = braid_index if braid_index is not None else len(images) + 1
    return make_representation(n, images, meta or RepMeta("raw"))


# ---------------------------------------------------------------------------
# Named families


def _guard_excluded(z, excluded: Sequence[int], family: str):
    f = field_of(z)
    for bad in excluded:
        if f.eq(z, f.of_int(bad)):
            raise ParameterError(
                f"excluded parameter: {family} requires z != {bad}")


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
    return make_representation(braid_index, images, RepMeta("xi", params))


def theorem1_i(z, f) -> Representation:
    """Two-dimensional family with diagonal first generator.

    sigma_1 -> diag(-z, 1) and sigma_2 has forced diagonal 1/(z+1), -z^2/(z+1);
    the off-diagonal product is pinned to z(z^2+z+1)/(z+1)^2, so f determines
    its partner entry g.
    """
    z, f, fld = join(z, f)
    _guard_excluded(z, (0, -1), "thm1_i")
    if fld.is_zero(f):
        raise ParameterError("f must be nonzero; the off-diagonal product fg is forced")
    one = fld.one
    g = z * (z * z + z + one) / ((z + one) ** 2 * f)
    s1 = Matrix.from_rows([[-z, fld.zero], [fld.zero, one]], fld)
    s2 = Matrix.from_rows([[one / (z + one), f],
                           [g, -(z * z) / (z + one)]], fld)
    return make_representation(3, (s1, s2), RepMeta("thm1_i", {"z": z, "f": f}))


def theorem1_ii(z, e) -> Representation:
    """Two-dimensional family with unipotent first generator.

    sigma_1 -> [[1, z], [0, 1]]; solving the braid relation pins sigma_2 to
    [[e, z(e-1)^2], [-1/z, 2-e]].
    """
    z, e, fld = join(z, e)
    _guard_excluded(z, (0,), "thm1_ii")
    one = fld.one
    two = fld.of_int(2)
    s1 = Matrix.from_rows([[one, z], [fld.zero, one]], fld)
    s2 = Matrix.from_rows([[e, z * (e - one) ** 2],
                           [-(one / z), two - e]], fld)
    return make_representation(3, (s1, s2), RepMeta("thm1_ii", {"z": z, "e": e}))


def burau3(z) -> Representation:
    """The reduced Burau representation of B3."""
    fld = field_of(z)
    _guard_excluded(z, (0,), "burau")
    one, zero = fld.one, fld.zero
    s1 = Matrix.from_rows([[-z, zero], [one, one]], fld)
    s2 = Matrix.from_rows([[one, z], [zero, -z]], fld)
    return make_representation(3, (s1, s2), RepMeta("burau", {"z": z}))


def burau_change_of_basis(z) -> Matrix:
    """The 2x2 change of basis that diagonalizes the first Burau generator.

    Singular exactly at z = -1; z = 1 is fine.
    """
    fld = field_of(z)
    one, zero = fld.one, fld.zero
    return Matrix.from_rows([[-(z + one), zero], [one, one]], fld)


def burau3_diag(z) -> Representation:
    """Burau with the first generator diagonalized.

    Requires z != -1 (the change of basis degenerates and the entries have
    poles there); z = 1 is allowed since the basis change stays invertible.
    """
    fld = field_of(z)
    _guard_excluded(z, (0, -1), "burau_diag")
    one, zero = fld.one, fld.zero
    w = z * z + z + one
    s1 = Matrix.from_rows([[-z, zero], [zero, one]], fld)
    s2 = Matrix.from_rows([[one / (z + one), -z / (z + one)],
                           [-w / (z + one), -(z * z) / (z + one)]], fld)
    return make_representation(3, (s1, s2), RepMeta("burau_diag", {"z": z}))


def mu(z) -> Representation:
    """The three-dimensional complement of the scalar line in Burau squared.

    Defined by its explicit matrices: sigma_1 -> diag(1, -z, z^2) and a
    dense second generator with (z+1)^2 denominators throughout.
    """
    fld = field_of(z)
    _guard_excluded(z, (0, -1), "mu")
    one, zero = fld.one, fld.zero
    d = (z + one) ** 2
    w = z * z + z + one
    s1 = Matrix.diagonal([one, -z, z * z], fld)
    s2 = Matrix.from_rows([
        [z ** 4 / d, (z * z) * w / d, w * w / d],
        [2 * z ** 3 / d, z * (z * z + one) / d, -(2 * w) / d],
        [(z * z) / d, -z / d, one / d],
    ], fld)
    return make_representation(3, (s1, s2), RepMeta("mu", {"z": z}))


def mu_pascal(z) -> Representation:
    """The same three-dimensional representation in the symmetric-power basis.

    Both generator images are triangular with binomial-pattern entries.
    """
    fld = field_of(z)
    _guard_excluded(z, (0, -1), "mu_pascal")
    one, zero = fld.one, fld.zero
    two = fld.of_int(2)
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
    return make_representation(3, (s1, s2), RepMeta("mu_pascal", {"z": z}))


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


def specialize(r: Representation, point, eps: float = DEFAULT_EPS) -> Representation:
    """Evaluate every entry at the point; the result carries the point's field.

    Fails with PoleError naming the offending entry when the point hits a
    denominator zero.
    """
    if r.field is not QZ:
        raise ParameterError("specialize requires symbolic entries over QQ(z)")
    target = field_of(point, eps)
    if isinstance(target, FloatField):
        point = target.coerce(point)

    def ev(entry: RatFunc, where: str):
        try:
            return entry.evaluate(point)
        except PoleError:
            raise PoleError(f"pole at specialization point in {where}") from None

    images = []
    for g, m in enumerate(r.images, start=1):
        ent = [ev(m[i, j], f"generator {g} entry ({i + 1},{j + 1})")
               for i in range(m.rows) for j in range(m.cols)]
        images.append(Matrix(m.rows, m.cols, ent, target))
    params = {k: (v.evaluate(point) if isinstance(v, RatFunc) else v)
              for k, v in r.meta.params.items()}
    meta = RepMeta(r.meta.family, params, r.meta.children)
    return make_representation(r.braid_index, images, meta)

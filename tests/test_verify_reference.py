"""Relation verification checked against a four-product ``Matrix`` reference.

``verify_braid_relations`` decides the relations over QQ and QQ(z) on
denominator-free integer and integer-polynomial images, with the product
AB shared between both sides.  The reference below is the definition:
s_i*s_j*s_i == s_j*s_i*s_j for adjacent generators and s_i*s_j == s_j*s_i
otherwise, each side its own ``Matrix`` product with the field's equality.
Over QQ, QQ(z), QQ(omega) and CC, seeded pairs that satisfy the relations
(named families, Burau matrices of B4 and B5, each also conjugated by a
random unit upper triangular matrix, so that one image holds entries over
several denominators and adjacent images over different ones) and the same
pairs with one entry perturbed must get the reference's verdict on every
generator pair.
"""

import random

import pytest

from braidrep import (CC, Matrix, QQ, QW, QZ, burau3, conjugate, mu, mu_pascal,
                      tensor, theorem1_i, theorem1_ii, verify_braid_relations, xi)
from braidrep.families import RepMeta, Representation, braid_relations_hold

from _gen import rand_fraction, rand_omega, rand_ratfunc


def reference_verdicts(images):
    out = []
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            a, b = images[i], images[j]
            out.append(a * b * a == b * a * b if j - i == 1 else a * b == b * a)
    return out


def reduced_burau(n, t, field):
    """The n-1 images of the reduced Burau representation of B_n."""
    images = []
    for r in range(n - 1):
        rows = Matrix.identity(n - 1, field).to_rows()
        rows[r][r] = -t
        if r > 0:
            rows[r][r - 1] = t
        if r < n - 2:
            rows[r][r + 1] = field.one
        images.append(Matrix.from_rows(rows, field))
    return images


def unreduced_burau(n, t, field):
    """The n-1 images of the Burau representation of B_n, n x n."""
    images = []
    for i in range(n - 1):
        rows = Matrix.identity(n, field).to_rows()
        rows[i][i], rows[i][i + 1] = field.one - t, t
        rows[i + 1][i], rows[i + 1][i + 1] = field.one, field.zero
        images.append(Matrix.from_rows(rows, field))
    return images


def _rand_complex(rng):
    return complex(rng.randint(-3, 3), rng.randint(-3, 3)) / rng.randint(1, 4)


# field -> (random parameter, random entry of a conjugator)
SAMPLERS = {
    QQ: (lambda rng: rand_fraction(rng, 1, 9) * rng.choice((1, -2)), rand_fraction),
    QZ: (lambda rng: rng.choice((QZ.gen, QZ.gen + 2, rand_ratfunc(rng, 1, nonzero=True))),
         lambda rng: rand_fraction(rng) / (QZ.gen + rng.randint(0, 3))),
    QW: (lambda rng: rand_omega(rng, nonzero=True) + QW.lift(2), rand_omega),
    CC: (lambda rng: complex(rng.uniform(0.3, 2), rng.uniform(-1, 1)), _rand_complex),
}


def _unit_upper_triangular(rng, n, field, entry):
    return Matrix(n, n, [field.one if i == j else entry(rng) if j > i else field.zero
                         for i in range(n) for j in range(n)], field)


def holding_pairs(rng, field):
    """Generator images over ``field`` that satisfy the braid relations."""
    param, entry = SAMPLERS[field]
    t = field.coerce(param(rng))
    bases = [
        xi(t).images,
        xi(t, braid_index=5).images,
        burau3(t).images,
        theorem1_i(t, field.coerce(param(rng))).images,
        theorem1_ii(t, field.coerce(param(rng))).images,
        mu(t).images,
        mu_pascal(t).images,
        reduced_burau(4, t, field),
        tensor(burau3(t), burau3(t)).images,
        unreduced_burau(4, t, field),
        reduced_burau(5, t, field),
    ]
    out = []
    for images in bases:
        out.append(list(images))
        p = _unit_upper_triangular(rng, images[0].rows, field, entry)
        out.append([conjugate(p, m) for m in images])
    return out


def perturbed(rng, images):
    images = list(images)
    k = rng.randrange(len(images))
    m = images[k]
    ent = list(m.entries)
    ent[rng.randrange(len(ent))] += m.field.one
    images[k] = Matrix(m.rows, m.cols, ent, m.field)
    return images


def _verdicts(images):
    rep = Representation(len(images) + 1, tuple(images), RepMeta("raw"))
    return [c.holds for c in verify_braid_relations(rep).checks]


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("field", [QQ, QZ, QW, CC], ids=repr)
def test_verify_matches_the_four_product_reference(field, seed):
    rng = random.Random(f"{field!r}-{seed}")
    for images in holding_pairs(rng, field):
        bad = perturbed(rng, images)
        expect, expect_bad = reference_verdicts(images), reference_verdicts(bad)
        assert all(expect) and not all(expect_bad)
        assert _verdicts(images) == expect
        assert _verdicts(bad) == expect_bad
        assert braid_relations_hold(images) and not braid_relations_hold(bad)


def test_labels_name_each_pair_once():
    images = reduced_burau(5, QQ.lift(3), QQ)
    rep = Representation(5, tuple(images), RepMeta("raw"))
    assert [(c.lhs, c.rhs) for c in verify_braid_relations(rep).checks] == [
        ("s1*s2*s1", "s2*s1*s2"), ("s1*s3", "s3*s1"), ("s1*s4", "s4*s1"),
        ("s2*s3*s2", "s3*s2*s3"), ("s2*s4", "s4*s2"), ("s3*s4*s3", "s4*s3*s4")]

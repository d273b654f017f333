"""Dense exact matrices over one scalar field.

Immutable row-major matrices with exact Gaussian-elimination services:
reduced row echelon form, inverse, kernel bases, Kronecker products,
conjugation, and characteristic polynomials of small matrices.  Exact
fields pivot on the first nonzero entry; the floating field pivots by
magnitude.  Over QQ the elimination and the invertibility test run
fraction-free on integers.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .fields import CC, QQ, common_denominator, format_scalar


class SingularMatrixError(ValueError):
    """A matrix required to be invertible is not."""


class Matrix:
    __slots__ = ("rows", "cols", "entries", "field")

    def __init__(self, rows: int, cols: int, entries: Iterable, field):
        ent = tuple(field.coerce(e) for e in entries)
        if len(ent) != rows * cols:
            raise ValueError("dimension mismatch: wrong number of entries")
        self.rows = rows
        self.cols = cols
        self.entries = ent
        self.field = field

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], field) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("dimension mismatch: ragged rows")
        return cls(nrows, ncols, [e for r in rows for e in r], field)

    @classmethod
    def identity(cls, n: int, field) -> "Matrix":
        return cls.diagonal([field.one] * n, field)

    @classmethod
    def zero(cls, rows: int, cols: int, field) -> "Matrix":
        return cls(rows, cols, [field.zero] * (rows * cols), field)

    @classmethod
    def column(cls, values: Sequence, field) -> "Matrix":
        return cls(len(values), 1, list(values), field)

    @classmethod
    def diagonal(cls, values: Sequence, field) -> "Matrix":
        n = len(values)
        zero = field.zero
        return cls(n, n, [values[i] if i == j else zero for i in range(n) for j in range(n)], field)

    # -- access -------------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    # -- arithmetic ---------------------------------------------------------

    def _check_same_field(self, other: "Matrix"):
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field!r} vs {other.field!r}")

    def _entrywise(self, other, op):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return Matrix(self.rows, self.cols, list(map(op, self.entries, other.entries)), self.field)

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def __neg__(self):
        return Matrix(self.rows, self.cols, [-a for a in self.entries], self.field)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_field(other)
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = self.field.zero
                for k in range(self.cols):
                    acc = acc + ri[k] * other[k, j]
                out.append(acc)
        return Matrix(self.rows, other.cols, out, self.field)

    def scale(self, s) -> "Matrix":
        s = self.field.coerce(s)
        return Matrix(self.rows, self.cols, [s * a for a in self.entries], self.field)

    def sub_scalar(self, lam) -> "Matrix":
        """self - lam * I.

        Over an exact field only the diagonal changes.  The floating field
        subtracts lam * I entry by entry, because 0.0 * lam can be -0.0 and
        x - (-0.0) turns a -0.0 entry into +0.0, which prints differently.
        """
        n = self.rows
        if n != self.cols:
            raise ValueError("sub_scalar requires a square matrix")
        field = self.field
        lam = field.coerce(lam)
        if field is CC:
            return self - Matrix.identity(n, field).scale(lam)
        ent = list(self.entries)
        for k in range(0, n * n, n + 1):
            ent[k] = ent[k] - lam
        return Matrix(n, n, ent, field)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      [self[i, j] for j in range(self.cols) for i in range(self.rows)],
                      self.field)

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace requires a square matrix")
        acc = self.field.zero
        for i in range(self.rows):
            acc = acc + self[i, i]
        return acc

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(self.field.eq(a, b) for a, b in zip(self.entries, other.entries))

    __hash__ = None

    # -- shape helpers ------------------------------------------------------

    def is_upper_triangular(self) -> bool:
        return all(self.field.is_zero(self[i, j])
                   for i in range(self.rows) for j in range(self.cols) if i > j)

    def is_lower_triangular(self) -> bool:
        return all(self.field.is_zero(self[i, j])
                   for i in range(self.rows) for j in range(self.cols) if i < j)

    def delete_row_col(self, i: int, j: int) -> "Matrix":
        ent = [self[r, c] for r in range(self.rows) if r != i
               for c in range(self.cols) if c != j]
        return Matrix(self.rows - 1, self.cols - 1, ent, self.field)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product: block (i, j) is self[i, j] * other.

        Over an exact field a zero entry gives a zero block without any
        products.  Floating products are always taken, because 0.0 * x can
        be -0.0, which prints differently.
        """
        self._check_same_field(other)
        field = self.field
        skip_zeros = field is not CC
        zero_row = [field.zero] * other.cols
        ent = []
        for i in range(self.rows):
            row = self.row(i)
            for r in range(other.rows):
                orow = other.row(r)
                for a in row:
                    if skip_zeros and field.is_zero(a):
                        ent.extend(zero_row)
                    else:
                        ent.extend([a * b for b in orow])
        return Matrix(self.rows * other.rows, self.cols * other.cols, ent, field)

    # -- elimination --------------------------------------------------------

    def rref(self):
        """Reduced row echelon form and the tuple of pivot columns."""
        field = self.field
        if field is QQ:
            return _rational_rref(self)
        m = self.to_rows()
        pivots = []
        r = 0
        for c in range(self.cols):
            if r == self.rows:
                break
            nonzero = (i for i in range(r, self.rows) if not field.is_zero(m[i][c]))
            if field is CC:
                pivot_row = max(nonzero, key=lambda i: abs(m[i][c]), default=None)
            else:
                pivot_row = next(nonzero, None)
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv_p = field.inv(m[r][c])
            m[r] = [x * inv_p for x in m[r]]
            for i in range(self.rows):
                if i != r and not field.is_zero(m[i][c]):
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        return Matrix.from_rows(m, field), tuple(pivots)

    def kernel(self) -> list:
        """Exact basis of the null space, one column vector per free column.

        Each vector is normalized so its first nonzero entry is 1; the empty
        list means the matrix is injective.
        """
        field = self.field
        red, pivots = self.rref()
        free = [j for j in range(self.cols) if j not in pivots]
        basis = []
        for j in free:
            v = [field.zero] * self.cols
            v[j] = field.one
            for k, pc in enumerate(pivots):
                v[pc] = -red[k, j]
            basis.append(_normalize_leading_one(Matrix.column(v, field)))
        return basis

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse requires a square matrix")
        n = self.rows
        field = self.field
        red, pivots = hstack([self, Matrix.identity(n, field)]).rref()
        if pivots != tuple(range(n)):
            raise SingularMatrixError("not invertible")
        return Matrix(n, n, [red[i, n + j] for i in range(n) for j in range(n)], field)

    def is_invertible(self) -> bool:
        """Whether the square matrix has an inverse.

        A 1x1 matrix is invertible exactly when its entry is nonzero, the
        verdict of every path below, read from the entry with no elimination.
        Over QQ the fraction-free elimination of ``rref`` decides it from its
        pivots, with no ``Fraction``.  Over CC the pivots of ``rref`` decide
        it: on the left block, ``inverse``'s elimination of [M | I] picks the
        same pivots by the same float operations, so wherever ``inverse``
        returns or raises ``SingularMatrixError`` the verdict is the same.
        With no identity block to carry along, a singular matrix whose
        identity block would overflow is reported singular, where
        ``inverse`` raises ``OverflowError``.  QQ(z) and QQ(omega) run
        ``inverse``.
        """
        if self.rows != self.cols:
            raise ValueError("inverse requires a square matrix")
        if self.rows == 1:
            return not self.field.is_zero(self.entries[0])
        if self.field is QQ:
            return _rational_eliminate(self)[1] == tuple(range(self.rows))
        if self.field is CC:
            return self.rref()[1] == tuple(range(self.rows))
        try:
            self.inverse()
        except SingularMatrixError:
            return False
        return True

    # -- display ------------------------------------------------------------

    def pretty(self) -> str:
        cells = [[format_scalar(self[i, j]) for j in range(self.cols)] for i in range(self.rows)]
        widths = [max(len(cells[i][j]) for i in range(self.rows)) for j in range(self.cols)]
        lines = []
        for i in range(self.rows):
            body = "  ".join(cells[i][j].rjust(widths[j]) for j in range(self.cols))
            lines.append(f"[ {body} ]")
        return "\n".join(lines)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"


def _rational_eliminate(a: Matrix):
    """Gauss-Jordan over QQ, run fraction-free over ZZ.

    Each row is first scaled by the lcm of its denominators, which leaves
    the rref unchanged.  Pivoting is on the first nonzero entry, as over the
    other exact fields, and every other row becomes (pv*x - f*y) / d with pv
    the new pivot and d the previous one.  Every entry then stays a minor of
    the scaled matrix, so the division is exact (Bareiss 1968; the
    Gauss-Jordan form of Nakos, Turner and Williams 1997) and the integers
    grow no larger than those minors.  All pivots end equal to the last
    one, d.  Returns the integer rows, the pivot columns and d.
    """
    rows, cols = a.rows, a.cols
    m = [common_denominator(a.row(i))[1] for i in range(rows)]
    pivots = []
    d = 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        pv = top[c]
        for i in range(rows):
            if i == r:
                continue
            f = m[i][c]
            if f:
                m[i] = [(pv * x - f * y) // d for x, y in zip(m[i], top)]
            elif pv != d:
                m[i] = [pv * x // d for x in m[i]]
        pivots.append(c)
        d = pv
    return m, tuple(pivots), d


def _rational_rref(a: Matrix):
    """The rref of ``_rational_eliminate``: its pivot rows divided by d once.

    The rref is unique, so the result is the one a per-step loop over
    ``Fraction``s gives.
    """
    m, pivots, d = _rational_eliminate(a)
    rank = len(pivots)
    zero = Fraction(0)
    ent = [Fraction(x, d) if x else zero for i in range(rank) for x in m[i]]
    ent += [zero] * ((a.rows - rank) * a.cols)
    return Matrix(a.rows, a.cols, ent, QQ), pivots


def _normalize_leading_one(v: Matrix) -> Matrix:
    field = v.field
    for e in v.entries:
        if not field.is_zero(e):
            return v.scale(field.inv(e))
    return v


def vstack(mats: Sequence[Matrix]) -> Matrix:
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("dimension mismatch")
    ent = [e for m in mats for e in m.entries]
    return Matrix(sum(m.rows for m in mats), cols, ent, mats[0].field)


def hstack(mats: Sequence[Matrix]) -> Matrix:
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("dimension mismatch")
    ent = []
    for i in range(rows):
        for m in mats:
            ent.extend(m.row(i))
    return Matrix(rows, sum(m.cols for m in mats), ent, mats[0].field)


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    a._check_same_field(b)
    field = a.field
    top = hstack([a, Matrix.zero(a.rows, b.cols, field)])
    bot = hstack([Matrix.zero(b.rows, a.cols, field), b])
    return vstack([top, bot])


def conjugate(p: Matrix, m: Matrix) -> Matrix:
    """Change of basis p^{-1} * m * p."""
    return p.inverse() * m * p


# ---------------------------------------------------------------------------
# Characteristic polynomials (principal minors, small sizes only)


def char_poly(m: Matrix) -> list:
    """Coefficients of det(t*I - m), ascending in t; monic of degree n.

    The coefficient of t^(n-k) is (-1)^k times the sum of the k x k
    principal minors.  Each minor is a cofactor expansion along its first
    row, and the smaller minors it needs are shared through a table.  The
    number of minors grows exponentially, so the size is capped at 4x4.
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial requires a square matrix")
    n, field = m.rows, m.field
    if n > 4:
        raise ValueError("characteristic polynomial supported up to 4x4 only")
    minors = {}

    def det(rows, cols):
        if len(rows) == 1:
            return m[rows[0], cols[0]]
        if (rows, cols) not in minors:
            acc = field.zero
            for k, j in enumerate(cols):
                term = m[rows[0], j] * det(rows[1:], cols[:k] + cols[k + 1:])
                acc = acc - term if k % 2 else acc + term
            minors[rows, cols] = acc
        return minors[rows, cols]

    coeffs = [field.one]
    for k in range(1, n + 1):
        e = field.zero
        for idx in combinations(range(n), k):
            e = e + det(idx, idx)
        coeffs.append(-e if k % 2 else e)
    return coeffs[::-1]

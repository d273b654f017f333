"""Dense exact matrices over one scalar field.

Immutable row-major matrices with exact Gaussian-elimination services:
reduced row echelon form, inverse, kernel bases, Kronecker products,
conjugation, and characteristic polynomials of small matrices.  Exact
fields pivot on the first nonzero entry; the floating field pivots by
magnitude.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence


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
        one, zero = field.one, field.zero
        return cls(n, n, [one if i == j else zero for i in range(n) for j in range(n)], field)

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

    def column_vector(self, j: int) -> "Matrix":
        return Matrix.column([self[i, j] for i in range(self.rows)], self.field)

    # -- arithmetic ---------------------------------------------------------

    def _check_same_field(self, other: "Matrix"):
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field!r} vs {other.field!r}")

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return Matrix(self.rows, self.cols,
                      [a + b for a, b in zip(self.entries, other.entries)], self.field)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return Matrix(self.rows, self.cols,
                      [a - b for a, b in zip(self.entries, other.entries)], self.field)

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

    def map_entries(self, func: Callable, field) -> "Matrix":
        return Matrix(self.rows, self.cols, [func(e) for e in self.entries], field)

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
        """Kronecker product: block (i, j) is self[i, j] * other."""
        self._check_same_field(other)
        ent = []
        for i in range(self.rows):
            for r in range(other.rows):
                for j in range(self.cols):
                    a = self[i, j]
                    for c in range(other.cols):
                        ent.append(a * other[r, c])
        return Matrix(self.rows * other.rows, self.cols * other.cols, ent, self.field)

    # -- elimination --------------------------------------------------------

    def rref(self):
        """Reduced row echelon form and the tuple of pivot columns."""
        field = self.field
        m = self.to_rows()
        pivots = []
        r = 0
        for c in range(self.cols):
            if r == self.rows:
                break
            pivot_row = None
            if field.uses_magnitude_pivot:
                best = None
                for i in range(r, self.rows):
                    if not field.is_zero(m[i][c]) and (best is None or abs(m[i][c]) > abs(m[best][c])):
                        best = i
                pivot_row = best
            else:
                for i in range(r, self.rows):
                    if not field.is_zero(m[i][c]):
                        pivot_row = i
                        break
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
        aug = Matrix.from_rows(
            [list(self.row(i)) + list(Matrix.identity(n, field).row(i)) for i in range(n)],
            field)
        red, pivots = aug.rref()
        if pivots != tuple(range(n)):
            raise SingularMatrixError("not invertible")
        return Matrix(n, n, [red[i, n + j] for i in range(n) for j in range(n)], field)

    # -- display ------------------------------------------------------------

    def pretty(self, render=str) -> str:
        cells = [[render(self[i, j]) for j in range(self.cols)] for i in range(self.rows)]
        widths = [max(len(cells[i][j]) for i in range(self.rows)) for j in range(self.cols)]
        lines = []
        for i in range(self.rows):
            body = "  ".join(cells[i][j].rjust(widths[j]) for j in range(self.cols))
            lines.append(f"[ {body} ]")
        return "\n".join(lines)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"


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
# Characteristic polynomials (cofactor expansion, small sizes only)


def _tp_add(a, b, field):
    n = max(len(a), len(b))
    z = field.zero
    return [(a[k] if k < len(a) else z) + (b[k] if k < len(b) else z) for k in range(n)]


def _tp_mul(a, b, field):
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _tp_det(rows, field):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = [field.zero]
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = _tp_mul(rows[0][j], _tp_det(minor, field), field)
        if j % 2:
            term = [-x for x in term]
        acc = _tp_add(acc, term, field)
    return acc


def char_poly(m: Matrix) -> list:
    """Coefficients of det(t*I - m), ascending in t; monic of degree n.

    Cofactor expansion keeps this exact but quartic in cost, so the size is
    capped at 4x4.
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial requires a square matrix")
    if m.rows > 4:
        raise ValueError("characteristic polynomial supported up to 4x4 only")
    field = m.field
    rows = [[[-m[i, j]] + ([field.one] if i == j else [])
             for j in range(m.cols)] for i in range(m.rows)]
    coeffs = _tp_det(rows, field)
    coeffs += [field.zero] * (m.rows + 1 - len(coeffs))
    return coeffs

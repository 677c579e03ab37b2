"""Exact Gaussian elimination over the rationals, run on integers.

One elimination routine, :class:`RowBasis`, keeps a row space as sparse
integer rows (column -> nonzero ``int``) that stay fully reduced: no row
has an entry in another row's pivot column.  It is fraction-free (Bareiss,
Math. Comp. 22, 1968): an incoming rational vector has its denominators
cleared once, rows are combined by integer cross-multiplication, and each
stored row is divided by the gcd of its entries and has a positive pivot.
A stored row is thus the unique primitive positive multiple of the
corresponding row of the reduced row echelon form of what was inserted,
so results do not depend on insertion order.  Nullspace bases and matrix
inverses read their answers off the stored rows, dividing by the pivot
only there, so they are the exact rational answers; determinants read
theirs off the residuals of the rows as they go in.
Vectors go in as dense sequences or as sparse dicts from column to
rational.  Nullspace vectors come out sparse, as dicts from column to
nonzero :class:`fractions.Fraction`; residuals and inverses come out
dense.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Rational = int | Fraction
Vector = list[Fraction]
Matrix = list[Vector]
SparseRow = dict[int, Rational]
IntRow = dict[int, int]


def _combine(row: IntRow, a: int, b: int, other: IntRow) -> None:
    """row = a * row - b * other, dropping the entries that become zero."""
    if a != 1:
        for j in row:
            row[j] *= a
    for j, x in other.items():
        value = row.get(j, 0) - b * x
        if value:
            row[j] = value
        else:
            del row[j]


def _make_primitive(row: IntRow, pivot: int) -> None:
    """Divide a row by the gcd of its entries, making its pivot positive."""
    g = gcd(*row.values())
    if row[pivot] < 0:
        g = -g
    if g != 1:
        for j in row:
            row[j] //= g


class RowBasis:
    """Incrementally maintained, fully reduced basis of a growing row space.

    Since every pivot column is cleared from every other row, reducing a
    vector takes one pass over the pivot columns where it is nonzero:
    combining with a stored row never brings in another pivot column.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: dict[int, IntRow] = {}  # pivot column -> primitive row

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vector: Sequence[Rational] | SparseRow
                ) -> tuple[IntRow, int]:
        """(w, s) with w / s the vector reduced against the stored rows."""
        if isinstance(vector, dict):
            entries = [(j, x) for j, x in vector.items() if x]
            if any(not 0 <= j < self.ncols for j, _ in entries):
                raise ValueError("column index out of range")
        else:
            if len(vector) != self.ncols:
                raise ValueError("vector length mismatch")
            entries = [(j, x) for j, x in enumerate(vector) if x]
        scale = lcm(*(x.denominator for _, x in entries))
        vec = {j: x.numerator * (scale // x.denominator) for j, x in entries}
        for col in [c for c in vec if c in self._rows]:
            row = self._rows[col]
            p, x = row[col], vec[col]
            g = gcd(p, x)
            _combine(vec, p // g, x // g, row)
            scale *= p // g
        return vec, scale

    def residual(self, vector: Sequence[Rational] | SparseRow) -> Vector:
        """Reduce a vector against the stored rows (returns a copy)."""
        vec, scale = self._reduce(vector)
        return [Fraction(vec[j], scale) if j in vec else Fraction(0)
                for j in range(self.ncols)]

    def contains(self, vector: Sequence[Rational] | SparseRow) -> bool:
        return not self._reduce(vector)[0]

    def add(self, vector: Sequence[Rational] | SparseRow) -> bool:
        """Insert a vector; True iff it enlarged the row space."""
        vec, _ = self._reduce(vector)
        if not vec:
            return False
        pivot = min(vec)
        _make_primitive(vec, pivot)
        p = vec[pivot]
        for col, row in self._rows.items():
            if pivot in row:
                x = row[pivot]
                g = gcd(p, x)
                _combine(row, p // g, x // g, vec)
                _make_primitive(row, col)
        self._rows[pivot] = vec
        return True


def determinant(rows: Sequence[Sequence[Rational]]) -> Fraction:
    """Exact determinant of a square matrix.

    Each row is reduced against the rows before it and then inserted.  A
    residual differs from its row by a combination of earlier rows and is
    zero in every earlier pivot column, so with the columns taken in pivot
    order the residuals form a triangular matrix: the determinant is the
    product of their pivot entries, signed by the parity of that order.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    basis = RowBasis(n)
    det = Fraction(1)
    pivots: list[int] = []
    for row in rows:
        vec, scale = basis._reduce(row)
        if not vec:
            return Fraction(0)
        pivot = min(vec)
        det *= Fraction(vec[pivot], scale)
        if sum(earlier > pivot for earlier in pivots) % 2:
            det = -det
        pivots.append(pivot)
        basis.add(vec)
    return det


def _row_basis(rows: Iterable[Sequence[Rational] | SparseRow],
               ncols: int) -> RowBasis:
    basis = RowBasis(ncols)
    for row in rows:
        basis.add(row)
    return basis


def nullspace_basis(rows: Iterable[Sequence[Rational] | SparseRow],
                    ncols: int) -> list[dict[int, Fraction]]:
    """Basis of the right nullspace, one sparse vector per free column.

    Each basis vector is a dict from column to nonzero entry with a 1 in
    its free column, so the output is canonical for a fixed constraint
    matrix.  Its other entries lie in pivot columns before the free column,
    which is therefore its last nonzero column: a stored row is zero left
    of its pivot.  The vectors come in the order of their free columns;
    the keys of one vector are not in column order.
    """
    reduced = _row_basis(rows, ncols)._rows
    vectors = {free: {free: Fraction(1)} for free in range(ncols)
               if free not in reduced}
    for pivot, row in reduced.items():
        p = row[pivot]
        for j, x in row.items():
            if j != pivot:  # every other entry lies in a free column
                vectors[j][pivot] = Fraction(-x, p)
    return list(vectors.values())


def invert(rows: Sequence[Sequence[Fraction]]) -> Matrix | None:
    """Exact inverse of a square matrix, or None when singular."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    # [M | I] reduces to [I | M^-1] exactly when M is invertible
    reduced = _row_basis((list(row) + [1 if i == j else 0 for j in range(n)]
                          for i, row in enumerate(rows)), 2 * n)._rows
    if any(i not in reduced for i in range(n)):
        return None
    return [[Fraction(reduced[i].get(n + j, 0), reduced[i][i])
             for j in range(n)] for i in range(n)]

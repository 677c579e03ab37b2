"""Exact Gaussian elimination over the rationals.

One elimination routine, :class:`RowBasis`, keeps a row space as sparse
rows (column -> nonzero :class:`fractions.Fraction`) that stay fully
reduced: each row has a unit pivot, and no other row has an entry in a
pivot column.  Nullspace bases, matrix inversion and row-space solving
all read their answers off it.  The stored rows are the reduced row
echelon form of what was inserted, which is unique, so results do not
depend on insertion order.  Square determinants use their own dense
elimination.  Inputs and outputs are dense sequences.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vector = list[Fraction]
Matrix = list[Vector]
SparseRow = dict[int, Fraction]


def _subtract(row: SparseRow, factor: Fraction, other: SparseRow) -> None:
    """row -= factor * other, dropping the entries that become zero."""
    for j, x in other.items():
        value = row.get(j, 0) - factor * x
        if value:
            row[j] = value
        else:
            del row[j]


class RowBasis:
    """Incrementally maintained, fully reduced basis of a growing row space.

    Since every pivot column is cleared from every other row, reducing a
    vector takes one pass over the pivot columns where it is nonzero:
    subtracting a stored row never brings in another pivot column.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: dict[int, SparseRow] = {}  # pivot column -> reduced row

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vector: Sequence[Fraction]) -> SparseRow:
        if len(vector) != self.ncols:
            raise ValueError("vector length mismatch")
        vec = {j: x if isinstance(x, Fraction) else Fraction(x)
               for j, x in enumerate(vector) if x}
        for col in [c for c in vec if c in self._rows]:
            _subtract(vec, vec[col], self._rows[col])
        return vec

    def residual(self, vector: Sequence[Fraction]) -> Vector:
        """Reduce a vector against the stored rows (returns a copy)."""
        vec = self._reduce(vector)
        return [vec.get(j, Fraction(0)) for j in range(self.ncols)]

    def contains(self, vector: Sequence[Fraction]) -> bool:
        return not self._reduce(vector)

    def add(self, vector: Sequence[Fraction]) -> bool:
        """Insert a vector; True iff it enlarged the row space."""
        vec = self._reduce(vector)
        if not vec:
            return False
        pivot = min(vec)
        lead = vec[pivot]
        if lead != 1:
            vec = {j: x / lead for j, x in vec.items()}
        for row in self._rows.values():
            if pivot in row:
                _subtract(row, row[pivot], vec)
        self._rows[pivot] = vec
        return True


def determinant(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a square matrix by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    det = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            det = -det
        lead = m[c][c]
        det *= lead
        for i in range(c + 1, n):
            factor = m[i][c] / lead
            if factor:
                m[i] = [x - factor * y for x, y in zip(m[i], m[c])]
    return det


def _row_basis(rows: Iterable[Sequence[Fraction]], ncols: int) -> RowBasis:
    basis = RowBasis(ncols)
    for row in rows:
        basis.add(row)
    return basis


def nullspace_basis(rows: Iterable[Sequence[Fraction]],
                    ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the right nullspace, one vector per free column.

    Each basis vector carries a 1 in its free column, so the output is
    canonical for a fixed constraint matrix.
    """
    reduced = _row_basis(rows, ncols)._rows
    vectors = {}
    for free in range(ncols):
        if free not in reduced:
            vectors[free] = [Fraction(0)] * ncols
            vectors[free][free] = Fraction(1)
    for pivot, row in reduced.items():
        for j, x in row.items():
            if j != pivot:  # every other entry lies in a free column
                vectors[j][pivot] = -x
    return [tuple(vec) for vec in vectors.values()]


def solve_in_row_space(basis_rows: Sequence[Sequence[Fraction]],
                       target: Sequence[Fraction]) -> list[Fraction] | None:
    """Coefficients c with sum(c_i * basis_rows[i]) = target, or None.

    The basis rows are assumed linearly independent, so the combination is
    unique when it exists.
    """
    if not basis_rows:
        return [] if not any(target) else None
    k = len(basis_rows)
    # transposed system: one equation per column, one unknown per basis row
    reduced = _row_basis(([row[j] for row in basis_rows] + [target[j]]
                          for j in range(len(target))), k + 1)._rows
    if k in reduced:  # pivot in the augmented column
        return None
    solution = [Fraction(0)] * k
    for pivot, row in reduced.items():
        solution[pivot] = row.get(k, Fraction(0))
    return solution


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
    return [[reduced[i].get(n + j, Fraction(0)) for j in range(n)]
            for i in range(n)]


def row_times_matrix(vector: Sequence[Fraction],
                     rows: Sequence[Sequence[Fraction]]) -> Vector:
    ncols = len(rows[0])
    return [sum((Fraction(vector[i]) * Fraction(rows[i][j])
                 for i in range(len(rows))), Fraction(0))
            for j in range(ncols)]

"""Exact Gaussian elimination over the rationals.

Dense rank, reduced row echelon form, determinants, nullspace bases,
matrix inversion, and an incremental row-space tracker.  Everything works
on lists of :class:`fractions.Fraction` and is fully deterministic: pivots
are always the first nonzero entry scanning rows top-down and columns
left-right.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vector = list[Fraction]
Matrix = list[Vector]


def _copy(rows: Iterable[Sequence[Fraction]]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


class RowBasis:
    """Incrementally maintained echelon basis of a growing row space.

    Rows are stored reduced against each other, each scaled to a unit
    pivot, so membership and rank queries are exact and cheap.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: dict[int, Vector] = {}  # pivot column -> reduced row

    @property
    def rank(self) -> int:
        return len(self._rows)

    def residual(self, vector: Sequence[Fraction]) -> Vector:
        """Reduce a vector against the stored rows (returns a copy)."""
        if len(vector) != self.ncols:
            raise ValueError("vector length mismatch")
        vec = [Fraction(x) for x in vector]
        for col, row in self._rows.items():
            factor = vec[col]
            if factor:
                for j in range(col, self.ncols):
                    vec[j] -= factor * row[j]
        return vec

    def contains(self, vector: Sequence[Fraction]) -> bool:
        return not any(self.residual(vector))

    def add(self, vector: Sequence[Fraction]) -> bool:
        """Insert a vector; True iff it enlarged the row space."""
        vec = self.residual(vector)
        pivot = next((j for j, x in enumerate(vec) if x), None)
        if pivot is None:
            return False
        lead = vec[pivot]
        vec = [x / lead for x in vec]
        for row in self._rows.values():
            factor = row[pivot]
            if factor:
                for j in range(pivot, self.ncols):
                    row[j] -= factor * vec[j]
        self._rows[pivot] = vec
        return True


def rank_of(rows: Iterable[Sequence[Fraction]], ncols: int) -> int:
    basis = RowBasis(ncols)
    for row in rows:
        basis.add(row)
    return basis.rank


def rref(rows: Iterable[Sequence[Fraction]], ncols: int) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = _copy(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        lead = m[r][c]
        m[r] = [x / lead for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def determinant(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a square matrix by Gaussian elimination."""
    m = _copy(rows)
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


def nullspace_basis(rows: Iterable[Sequence[Fraction]],
                    ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the right nullspace, one vector per free column.

    Each basis vector carries a 1 in its free column, so the output is
    canonical for a fixed constraint matrix.
    """
    reduced, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -reduced[i][free]
        basis.append(tuple(vec))
    return basis


def solve_in_row_space(basis_rows: Sequence[Sequence[Fraction]],
                       target: Sequence[Fraction]) -> list[Fraction] | None:
    """Coefficients c with sum(c_i * basis_rows[i]) = target, or None.

    The basis rows are assumed linearly independent, so the combination is
    unique when it exists.
    """
    if not basis_rows:
        return [] if not any(target) else None
    ncols = len(target)
    # transpose system: one equation per column, one unknown per basis row
    augmented = [[Fraction(row[j]) for row in basis_rows] + [Fraction(target[j])]
                 for j in range(ncols)]
    reduced, pivots = rref(augmented, len(basis_rows) + 1)
    if len(basis_rows) in pivots:  # pivot in the augmented column
        return None
    solution = [Fraction(0)] * len(basis_rows)
    for i, pc in enumerate(pivots):
        solution[pc] = reduced[i][len(basis_rows)]
    return solution


def invert(rows: Sequence[Sequence[Fraction]]) -> Matrix | None:
    """Exact inverse of a square matrix, or None when singular."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    m = [[Fraction(x) for x in row] +
         [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(rows)]
    reduced, pivots = rref(m, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in reduced[:n]]


def mat_vec(rows: Sequence[Sequence[Fraction]],
            vector: Sequence[Fraction]) -> Vector:
    return [sum((Fraction(a) * Fraction(x) for a, x in zip(row, vector)),
                Fraction(0)) for row in rows]


def row_times_matrix(vector: Sequence[Fraction],
                     rows: Sequence[Sequence[Fraction]]) -> Vector:
    ncols = len(rows[0])
    return [sum((Fraction(vector[i]) * Fraction(rows[i][j])
                 for i in range(len(rows))), Fraction(0))
            for j in range(ncols)]

"""Exact Gaussian elimination over the rationals, run on integers.

One elimination routine, :class:`RowBasis`, keeps a row space as sparse
integer rows (column -> nonzero ``int``) that stay fully reduced: no row
has an entry in another row's pivot column.  It is fraction-free (Bareiss,
Math. Comp. 22, 1968): rows are combined by integer cross-multiplication,
and each stored row is divided by the gcd of its entries and has a
positive pivot.  A stored row is thus the unique primitive positive
multiple of the corresponding row of the reduced row echelon form of what
was inserted, so results do not depend on insertion order.  Nullspace
bases (scaled to integers) and matrix inverses (divided by the pivots)
read their answers off the stored rows; determinants read theirs off the
residuals of the rows as they go in.

Vectors go in as dense sequences or as sparse dicts from column to
rational.  Integer rows are the native input: a vector whose entries are
all ``int`` is taken as it is, and only one with another rational entry
has its denominators cleared, once, where it enters.  Nullspace vectors
come out sparse, as dicts from column to nonzero ``int``; inverses come
out dense, as :class:`fractions.Fraction`.

Insertion order changes only the cost.  A row whose pivot lies left of
every stored pivot changes no stored row, since stored rows are zero left
of their pivots; a pivot further right must be cleared from every stored
row with an entry in its column.  :func:`nullspace_basis` therefore
inserts its rows by descending leading (first nonzero) column, while
:func:`determinant` keeps the given order, whose parity its sign counts.

Most stored rows of the graded systems have pivot 1, and many are unit
rows, so reducing takes two short cuts that compute the same rows: a
stored row of length one is {pivot: 1} (primitive, positive pivot), and
reducing by it deletes the entry; a stored row with pivot 1 is subtracted
x times as it is, with no gcd and no scaling of the vector.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Rational = int | Fraction
Matrix = list[list[Fraction]]
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


def _int_row(vector: Sequence[Rational] | SparseRow, ncols: int
             ) -> tuple[IntRow, int]:
    """(w, s) with w / s the vector: w holds its nonzero entries as ints.

    Integer entries are taken as they are; only a vector with another
    rational entry has its denominators cleared, so s is 1 on integer rows.
    """
    if isinstance(vector, dict):
        vec = dict(vector)
        if 0 in vec.values():
            vec = {j: x for j, x in vec.items() if x}
        if vec and (min(vec) < 0 or max(vec) >= ncols):
            raise ValueError("column index out of range")
    else:
        if len(vector) != ncols:
            raise ValueError("vector length mismatch")
        vec = {j: x for j, x in enumerate(vector) if x}
    if set(map(type, vec.values())) <= {int}:
        return vec, 1
    scale = lcm(*(x.denominator for x in vec.values()))
    return {j: x.numerator * (scale // x.denominator)
            for j, x in vec.items()}, scale


def _leading(row: Sequence[Rational] | SparseRow) -> int:
    """The leading column of a row, to order rows by; for a dict, its least
    key (a zero entry there misplaces the row, which costs only time)."""
    if isinstance(row, dict):
        return min(row, default=-1)
    return next((j for j, x in enumerate(row) if x), -1)


class RowBasis:
    """Incrementally maintained, fully reduced basis of a growing row space.

    Since every pivot column is cleared from every other row, reducing a
    vector takes one pass over the pivot columns where it is nonzero:
    combining with a stored row never brings in another pivot column.
    Adding a vector reduces it, then inserts what is left; the pivot
    columns are also kept in order, so that inserting visits only the rows
    with an earlier pivot.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: dict[int, IntRow] = {}  # pivot column -> primitive row
        self._pivots: list[int] = []  # the pivot columns, ascending

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: IntRow) -> int:
        """Reduce an integer row in place against the stored rows; returns
        the factor by which the row was scaled on the way."""
        scale = 1
        rows = self._rows
        # combining with a stored row changes the vector at no other pivot,
        # so the pivots it must be reduced at are known from the start
        for col in rows.keys() & vec.keys():
            row = rows[col]
            if len(row) == 1:  # primitive with a positive pivot: {col: 1}
                del vec[col]
                continue
            p, x = row[col], vec[col]
            if p == 1:
                _combine(vec, 1, x, row)
            else:
                g = gcd(p, x)
                _combine(vec, p // g, x // g, row)
                scale *= p // g
        return scale

    def _insert(self, vec: IntRow) -> None:
        """Store a nonzero reduced row, clearing its pivot from the others."""
        pivot = min(vec)
        _make_primitive(vec, pivot)
        p = vec[pivot]
        # a stored row is zero left of its pivot, so only the rows with an
        # earlier pivot can have an entry in this one's column
        k = bisect(self._pivots, pivot)
        for col in self._pivots[:k]:
            row = self._rows[col]
            if pivot in row:
                x = row[pivot]
                g = gcd(p, x)
                _combine(row, p // g, x // g, vec)
                _make_primitive(row, col)
        self._pivots.insert(k, pivot)
        self._rows[pivot] = vec

    def contains(self, vector: Sequence[Rational] | SparseRow) -> bool:
        vec, _ = _int_row(vector, self.ncols)
        self._reduce(vec)
        return not vec

    def add(self, vector: Sequence[Rational] | SparseRow) -> bool:
        """Insert a vector; True iff it enlarged the row space."""
        vec, _ = _int_row(vector, self.ncols)
        self._reduce(vec)
        if not vec:
            return False
        self._insert(vec)
        return True


def determinant(rows: Sequence[Sequence[Rational]]) -> Fraction:
    """Exact determinant of a square matrix.

    Each row is reduced against the rows before it and its residual is
    inserted.  A residual differs from its row by a combination of earlier
    rows and is zero in every earlier pivot column, so with the columns
    taken in pivot order the residuals form a triangular matrix: the
    determinant is the product of their pivot entries, signed by the
    parity of that order.  The rows go in as given, since that order is
    what the sign counts.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    basis = RowBasis(n)
    det = Fraction(1)
    for row in rows:
        vec, scale = _int_row(row, n)
        scale *= basis._reduce(vec)
        if not vec:
            return Fraction(0)
        pivot = min(vec)
        det *= Fraction(vec[pivot], scale)
        # one sign change per earlier pivot right of this one
        if (basis.rank - bisect(basis._pivots, pivot)) % 2:
            det = -det
        basis._insert(vec)
    return det


def nullspace_basis(rows: Iterable[Sequence[Rational] | SparseRow],
                    ncols: int) -> list[IntRow]:
    """Basis of the right nullspace, one integer vector per free column.

    Each basis vector is a dict from column to nonzero ``int``: the vector
    with a 1 in its free column times the lcm of the pivots of the stored
    rows with an entry there, so the output is canonical for a fixed
    constraint matrix, whatever the order of its rows.  Its other entries
    lie in pivot columns before the free column, which is therefore its
    last nonzero column and holds a positive entry: a stored row is zero
    left of its pivot.  The vectors come in the order of their free
    columns; the keys of one vector are not in column order.
    """
    basis = RowBasis(ncols)
    # by descending leading column: a row whose leading column is no
    # stored pivot becomes a pivot left of every stored one, where the
    # stored rows are zero, so inserting it changes none of them
    for row in sorted(rows, key=_leading, reverse=True):
        basis.add(row)
    reduced = basis._rows
    vectors = {free: {free: 1} for free in range(ncols)
               if free not in reduced}
    for pivot, row in reduced.items():
        for j in row:
            if j != pivot:  # every other entry lies in a free column
                vectors[j][j] = lcm(vectors[j][j], row[pivot])
    for pivot, row in reduced.items():
        for j, x in row.items():
            if j != pivot:
                vectors[j][pivot] = -x * (vectors[j][j] // row[pivot])
    return list(vectors.values())


def invert(rows: Sequence[Sequence[Fraction]]) -> Matrix | None:
    """Exact inverse of a square matrix, or None when singular."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    # [M | I] reduces to [I | M^-1] exactly when M is invertible
    basis = RowBasis(2 * n)
    for i, row in enumerate(rows):
        basis.add(list(row) + [1 if i == j else 0 for j in range(n)])
    reduced = basis._rows
    if any(i not in reduced for i in range(n)):
        return None
    return [[Fraction(reduced[i].get(n + j, 0), reduced[i][i])
             for j in range(n)] for i in range(n)]

"""Determinants of coefficient matrices and the basis criterion.

A tuple of operators (one per degree-m derivative monomial) is a basis of
the arrangement's operator module exactly when the determinant of its
coefficient matrix is a nonzero constant multiple of Q^t, where Q is the
defining polynomial and t counts the degree-(m-1) derivative monomials.

:func:`saito_check` is the one full check: membership of every operator,
then one of two routes.  Q^t divides the determinant of every member
tuple, and for nonzero homogeneous members of degrees d_i the determinant
is zero or homogeneous of degree sum(d_i).  If that sum is t * |A| (the
degree of Q^t), the determinant is c * Q^t, and the point route reads c
from one determinant at a point off the arrangement, computed on integers
(:func:`point_constant`, which gives c without checking membership).
Every other tuple takes the symbolic route: :func:`det_poly` expands the
determinant, which is divided exactly by Q^t, so that a refutation shows
det / Q^t.  A homogeneous tuple of another degree sum, or one with a zero
operator, is never a basis, but an inhomogeneous one can be: replacing
theta_i by theta_i + x * theta_j in a basis keeps the determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import count
from math import comb, lcm, prod
from operator import mul
from typing import Iterator, Sequence

from .arrangement import Arrangement
from .linalg import determinant
from .membership import MembershipWitness, is_member
from .qpoly import MultiIndex, Poly, exact_divide, monomial_exponents
from .weyl import DiffOp, coefficient_matrix


def saito_counts(dim: int, order: int) -> tuple[int, int]:
    """(rank, det exponent) for the given dimension and operator order.

    The rank is the number of degree-m derivative monomials; the exponent
    is the count of degree-(m-1) monomials, which is how many rows of any
    coefficient matrix each linear form divides.
    """
    if dim < 1 or order < 0:
        raise ValueError("need dim >= 1 and order >= 0")
    rank = comb(dim + order - 1, order)
    exponent = comb(dim + order - 2, order - 1) if order >= 1 else 0
    return rank, exponent


def _lines(rows: list[list[Poly]]) -> Iterator[list[tuple[int, int]]]:
    """Positions of the nonzero entries of each column, then of each row."""
    n = len(rows)
    for j in range(n):
        yield [(i, j) for i in range(n) if rows[i][j]]
    for i in range(n):
        yield [(i, j) for j in range(n) if rows[i][j]]


def det_poly(matrix: Sequence[Sequence[Poly]]) -> Poly:
    """Exact determinant of a square polynomial matrix.

    First the sparse lines are peeled.  While some column, or else some
    row, has at most one nonzero entry: with none, the determinant is 0;
    with one, a at (i, j), it is (-1)^(i+j) * a times the minor without
    row i and column j.  Coefficient matrices are mostly zeros, and a
    diagonal or triangular one peels completely.  The block that is left
    runs through fraction-free (Bareiss) elimination, where every
    division by the previous pivot is exact over the polynomial ring;
    pivoting takes the first row with a nonzero entry.
    """
    rows = [list(r) for r in matrix]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("matrix must be square and nonempty")
    dim = rows[0][0].dim
    sign = 1
    factors = []
    while rows:
        line = next((s for s in _lines(rows) if len(s) <= 1), None)
        if line is None:
            break
        if not line:
            return Poly.zero(dim)
        ((i, j),) = line
        factors.append(rows.pop(i)[j])
        for row in rows:
            del row[j]
        if (i + j) % 2:
            sign = -sign
    n = len(rows)
    previous = Poly.one(dim)
    for k in range(n - 1):
        if rows[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not rows[i][k].is_zero()),
                        None)
            if swap is None:
                return Poly.zero(dim)
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                numerator = rows[k][k] * rows[i][j] - rows[i][k] * rows[k][j]
                quotient = exact_divide(numerator, previous)
                if quotient is None:
                    raise RuntimeError("fraction-free elimination lost "
                                       "exactness")
                rows[i][j] = quotient
            rows[i][k] = Poly.zero(dim)
        previous = rows[k][k]
    if rows:
        factors.append(rows[n - 1][n - 1])
    result = prod(factors, start=Poly.one(dim))
    return result if sign == 1 else -result


class SaitoVerdict(Enum):
    BASIS = "basis"
    NOT_PROPORTIONAL = "not-proportional"
    NOT_MEMBERS = "not-members"


class _Deferred:
    """Dataclass field that may be given a zero-argument function instead
    of its value; the first read calls the function and keeps the value."""

    def __set_name__(self, owner, name):
        self._key = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            return None  # the field's default
        value = obj.__dict__[self._key]
        if callable(value):
            value = obj.__dict__[self._key] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self._key] = value


@dataclass(frozen=True)
class SaitoResult:
    """Outcome of the basis check, with enough data to audit it.

    A basis certified at one point gets its determinant c * Q^t only when
    ``determinant`` is read (or serialized): expanding Q^t can cost more
    than the certificate itself.
    """

    verdict: SaitoVerdict
    constant: Fraction | None = None
    determinant: Poly | None = _Deferred()
    det_over_qt: Poly | None = None
    failing_operator: int | None = None
    witness: MembershipWitness | None = None

    def __bool__(self) -> bool:
        return self.verdict is SaitoVerdict.BASIS

    def to_json(self) -> dict:
        out: dict = {"verdict": self.verdict.value}
        if self.constant is not None:
            out["constant"] = str(self.constant)
        if self.det_over_qt is not None:
            out["det_over_Qt"] = self.det_over_qt.to_json()
        if self.determinant is not None:
            out["determinant"] = self.determinant.to_json()
        if self.failing_operator is not None:
            out["failing_operator"] = self.failing_operator
            out["witness"] = {
                "hyperplane": self.witness.hyperplane.to_json(),
                "exponent": list(self.witness.exponent),
                "image": self.witness.image.to_json(),
            }
        return out


def _tuple_shape(ops: Sequence[DiffOp], arr: Arrangement) -> tuple[int, int]:
    """(order, det exponent) of a candidate basis tuple.

    Raises ValueError unless the operators share the arrangement's
    dimension and one order, and there are exactly rank of them.
    """
    if not ops:
        raise ValueError("need at least one operator")
    order = ops[0].order
    if any((op.dim, op.order) != (arr.dim, order) for op in ops):
        raise ValueError("operators must share dimension and order")
    rank, exponent = saito_counts(arr.dim, order)
    if len(ops) != rank:
        raise ValueError(f"need exactly {rank} operators, got {len(ops)}")
    return order, exponent


def point_constant(ops: Sequence[DiffOp],
                   arr: Arrangement) -> Fraction | None:
    """The c with det M = c * Q^t for a degree-matched member tuple.

    Returns None unless every operator is nonzero and homogeneous and the
    degrees sum to t * |A|; then det M = c * Q^t (see the module notes)
    and c = det M(p) / Q(p)^t at the first point p = (1, s, s^2, ...),
    s = 1, 2, ..., off every hyperplane.  Membership is not checked here;
    :func:`saito_check` is the full criterion.
    """
    order, exponent = _tuple_shape(ops, arr)
    degrees = [op.homogeneous_degree() for op in ops]
    if None in degrees or sum(degrees) != exponent * len(arr):
        return None
    for s in count(1):
        # each form is a nonzero polynomial in s of degree < dim, so
        # only finitely many s are skipped; each value is the form's value
        # at the point times the form's denominator, its pivot entry
        point = [s ** i for i in range(arr.dim)]
        values = [sum(map(mul, form.integral_coefficients, point))
                  for form in arr.forms]
        if all(values):
            break
    form_scale = prod(form.integral_coefficients[form.pivot]
                      for form in arr.forms)

    @cache
    def monomial(mu: MultiIndex) -> int:  # x^mu at the point
        return prod(map(pow, point, mu))

    rows = []  # the transpose of M(p), each row scaled to integers
    row_scale = 1
    for op in ops:
        entries = [op.coefficient(a).integer_terms()
                   for a in monomial_exponents(arr.dim, order)]
        den = lcm(*[d for _, d in entries])
        rows.append([sum(c * monomial(mu) for mu, c in terms.items())
                     * (den // d) for terms, d in entries])
        row_scale *= den
    det = determinant(rows)  # det M(p) times row_scale
    return Fraction(det.numerator * form_scale ** exponent,
                    det.denominator * row_scale * prod(values) ** exponent)


def saito_check(ops: Sequence[DiffOp], arr: Arrangement) -> SaitoResult:
    """Decide whether a full tuple of operators is a module basis.

    Verifies membership of every operator, then tests whether the
    determinant of the coefficient matrix is a nonzero constant times Q^t:
    at one point for degree-matched homogeneous tuples, otherwise by
    expanding the determinant and dividing it exactly by Q^t.  A tuple
    of mixed dimension or order, or of the wrong size, raises ValueError
    before any membership test.
    """
    _, exponent = _tuple_shape(ops, arr)
    for i, op in enumerate(ops):
        result = is_member(op, arr)
        if not result:
            return SaitoResult(SaitoVerdict.NOT_MEMBERS,
                               failing_operator=i, witness=result.witness)

    def qt() -> Poly:
        return arr.defining_polynomial() ** exponent

    constant = point_constant(ops, arr)
    if constant == 0:
        zero = Poly.zero(arr.dim)
        return SaitoResult(SaitoVerdict.NOT_PROPORTIONAL,
                           determinant=zero, det_over_qt=zero)
    if constant is not None:
        return SaitoResult(SaitoVerdict.BASIS, constant=constant,
                           determinant=lambda: constant * qt(),
                           det_over_qt=Poly.constant(arr.dim, constant))
    det = det_poly(coefficient_matrix(ops))
    quotient = exact_divide(det, qt())
    if quotient is not None:
        constant = quotient.constant_value()
        if constant:
            return SaitoResult(SaitoVerdict.BASIS, constant=constant,
                               determinant=det, det_over_qt=quotient)
    return SaitoResult(SaitoVerdict.NOT_PROPORTIONAL,
                       determinant=det, det_over_qt=quotient)


"""Homogeneous differential operators of a fixed order.

An order-m operator is a finite sum of polynomial coefficients times
order-m partial-derivative monomials.  Operators act on polynomials
exactly and form a module over the polynomial ring.  The constructions
need two pieces of operator algebra: products of operators acting on
disjoint variable blocks, and linear changes of coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product as iter_product
from math import factorial, prod
from typing import Iterable, Mapping, Sequence

from .linalg import invert
from .qpoly import (MultiIndex, Poly, Rational, as_fraction,
                    exponent_from_json, format_poly, json_array,
                    linear_combination, mi_degree, mi_factorial,
                    monomial_exponents, poly_from_json, substituter,
                    term_order_key)


class DiffOp:
    """Sum of terms coefficient * d^a with every |a| equal to the order."""

    __slots__ = ("dim", "order", "_coeffs")

    def __init__(self, dim: int, order: int,
                 coeffs: Mapping[MultiIndex, Poly]
                 | Iterable[tuple[MultiIndex, Poly]] = ()):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        if order < 0:
            raise ValueError("order must be nonnegative")
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[MultiIndex, Poly] = {}
        for exponent, poly in items:
            exponent = tuple(exponent)
            if len(exponent) != dim or mi_degree(exponent) != order:
                raise ValueError(
                    f"derivative exponent {exponent} is not of order {order}")
            if poly.dim != dim:
                raise ValueError("coefficient dimension mismatch")
            if exponent in acc:
                poly = acc[exponent] + poly
            if poly.is_zero():
                acc.pop(exponent, None)
            else:
                acc[exponent] = poly
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_coeffs", acc)

    def __setattr__(self, name, value):
        raise AttributeError("DiffOp is immutable")

    @classmethod
    def identity(cls, dim: int) -> "DiffOp":
        """The order-0 operator multiplying by 1."""
        return cls(dim, 0, {(0,) * dim: Poly.one(dim)})

    @classmethod
    def single(cls, dim: int, exponent: MultiIndex,
               coeff: Poly | Rational = 1) -> "DiffOp":
        """One term coeff * d^exponent."""
        poly = coeff if isinstance(coeff, Poly) else Poly.constant(dim, coeff)
        return cls(dim, mi_degree(tuple(exponent)), {tuple(exponent): poly})

    # -- inspection

    def terms(self) -> Iterable[tuple[MultiIndex, Poly]]:
        """Yield (derivative exponent, coefficient) in canonical order."""
        for a in sorted(self._coeffs, key=term_order_key, reverse=True):
            yield a, self._coeffs[a]

    def coefficient(self, exponent: MultiIndex) -> Poly:
        return self._coeffs.get(tuple(exponent), Poly.zero(self.dim))

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def homogeneous_degree(self) -> int | None:
        """Common degree of all coefficients; None for zero or mixed."""
        degrees = {p.homogeneous_degree() for p in self._coeffs.values()}
        if len(degrees) != 1 or None in degrees:
            return None
        return degrees.pop()

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return (self.dim == other.dim and self.order == other.order
                and self._coeffs == other._coeffs)

    def __hash__(self) -> int:
        return hash((self.dim, self.order, frozenset(self._coeffs.items())))

    # -- module structure

    def __add__(self, other: "DiffOp") -> "DiffOp":
        if not isinstance(other, DiffOp):
            return NotImplemented
        if (self.dim, self.order) != (other.dim, other.order):
            raise ValueError("operators must share dimension and order")
        return DiffOp(self.dim, self.order,
                      [*self._coeffs.items(), *other._coeffs.items()])

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (-other)

    def __neg__(self) -> "DiffOp":
        return DiffOp(self.dim, self.order,
                      {a: -p for a, p in self._coeffs.items()})

    def __rmul__(self, factor) -> "DiffOp":
        if isinstance(factor, Poly):
            if factor.dim != self.dim:
                raise ValueError("coefficient dimension mismatch")
            return DiffOp(self.dim, self.order,
                          {a: factor * p for a, p in self._coeffs.items()})
        if isinstance(factor, (int, Fraction)):
            return DiffOp(self.dim, self.order,
                          {a: p * factor for a, p in self._coeffs.items()})
        return NotImplemented

    # -- action and operator algebra

    def apply(self, f: Poly) -> Poly:
        """Evaluate the operator on a polynomial."""
        if f.dim != self.dim:
            raise ValueError(f"dimension mismatch: {f.dim} vs {self.dim}")
        out = Poly.zero(self.dim)
        for a, coeff in self._coeffs.items():
            derived = f.partial_derivative(a)
            if not derived.is_zero():
                out = out + coeff * derived
        return out

    # -- presentation

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        pieces = []
        for a, p in self.terms():
            ds = "*".join(f"d{i + 1}" + (f"^{e}" if e > 1 else "")
                          for i, e in enumerate(a) if e) or "1"
            pieces.append(f"({format_poly(p)})*{ds}" if a != (0,) * self.dim
                          else f"({format_poly(p)})")
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"DiffOp(dim={self.dim}, order={self.order}, {self})"

    def to_json(self) -> dict:
        return {"dim": self.dim, "order": self.order,
                "terms": [{"a": list(a), "coef": p.to_json()}
                          for a, p in self.terms()]}


def diffop_from_json(data: dict) -> DiffOp:
    dim, order = data["dim"], data["order"]
    if type(dim) is not int or type(order) is not int:
        raise ValueError(f"dim and order must be JSON integers, got "
                         f"{dim!r} and {order!r}")
    return DiffOp(dim, order,
                  [(exponent_from_json(term["a"]),
                    poly_from_json(term["coef"], dim))
                   for term in json_array(data["terms"], "terms")])


def euler_operator(dim: int, order: int) -> DiffOp:
    """The order-m Euler operator: sum over |a| = m of (m!/a!) x^a d^a.

    It rescales every monomial of degree m by m!, hence preserves every
    ideal generated by homogeneous polynomials -- in particular it belongs
    to the operator module of every arrangement.
    """
    if order < 1:
        raise ValueError("the Euler operator needs order >= 1")
    coeffs = {a: Poly.monomial(dim, a, Fraction(factorial(order),
                                                mi_factorial(a)))
              for a in monomial_exponents(dim, order)}
    return DiffOp(dim, order, coeffs)


def directional_power(direction: Sequence[Rational], order: int) -> DiffOp:
    """The order-m power of the constant-coefficient derivation sum(c_i d_i).

    Expanded by the multinomial theorem; the coefficient of d^a is
    (m!/a!) * prod(c_i^{a_i}).
    """
    coeffs_in = [as_fraction(c) for c in direction]
    dim = len(coeffs_in)
    top = factorial(order)
    out: dict[MultiIndex, Poly] = {}
    for a in monomial_exponents(dim, order):
        num, den = top // mi_factorial(a), 1
        for c, e in zip(coeffs_in, a):
            if e:
                num *= c.numerator ** e
                den *= c.denominator ** e
        if num:
            out[a] = Poly.constant(dim, Fraction(num, den))
    return DiffOp(dim, order, out)


# ---------------------------------------------------------------------------
# coefficient matrices

def coefficient_matrix(ops: Sequence[DiffOp]
                       ) -> tuple[tuple[Poly, ...], ...]:
    """The square matrix with entry (a, i) equal to op_i applied to x^a / a!.

    Row a is the a-th degree-m exponent in canonical order
    (``monomial_exponents(dim, order)``), column i the i-th operator.  As
    every derivative exponent of an order-m operator has degree m, that
    entry is the coefficient of op_i at d^a.
    """
    if not ops:
        raise ValueError("need at least one operator")
    dim, order = ops[0].dim, ops[0].order
    for op in ops:
        if (op.dim, op.order) != (dim, order):
            raise ValueError("operators must share dimension and order")
    exponents = monomial_exponents(dim, order)
    if len(ops) != len(exponents):
        raise ValueError(
            f"need exactly {len(exponents)} operators, got {len(ops)}")
    return tuple(tuple(op.coefficient(a) for op in ops) for a in exponents)


def block_product(ops: Sequence[DiffOp]) -> DiffOp:
    """The product of operators acting on consecutive variable blocks.

    Operator i acts on its own block of variables, after the blocks of the
    operators before it.  Each term of the product is one term from each
    factor: the derivative and coefficient exponents concatenated, the
    integer coefficients multiplied over the product of the denominators.
    No two choices give the same exponent, so nothing is summed.
    """
    if not ops:
        raise ValueError("need at least one operator")
    dim = sum(op.dim for op in ops)
    coeffs = []
    for choice in iter_product(*(op.terms() for op in ops)):
        integer = [p.integer_terms() for _, p in choice]
        coeff = Poly(dim, [(tuple(chain.from_iterable(b for b, _ in picks)),
                            prod(c for _, c in picks)) for picks
                           in iter_product(*(t.items() for t, _ in integer))])
        den = prod(d for _, d in integer)
        coeffs.append((tuple(chain.from_iterable(a for a, _ in choice)),
                       coeff * Fraction(1, den) if den != 1 else coeff))
    return DiffOp(dim, sum(op.order for op in ops), coeffs)


def change_variables(ops: Sequence[DiffOp],
                     rows: Sequence[Sequence[Rational]]) -> list[DiffOp]:
    """Transport operators through the linear substitution y = R x.

    Each operator is understood in the y coordinates; its image is the same
    endomorphism written in the x coordinates.  Each coefficient is
    substituted by the row forms of R (y_i = sum_j R[i][j] x_j), and each
    derivative symbol d^a, a polynomial in the commuting d/dy_i, by the
    column forms of R^-1 (d/dy_i = sum_j R^-1[j][i] d/dx_j); the products
    of the two are summed per derivative exponent.

    Each coefficient is split as content * primitive part
    (:meth:`Poly.primitive`), and the terms of one operator that share a
    part become one: the part times the sum of content * symbol.  The
    image of the part, over the denominator of that summed symbol, is
    multiplied by each of its integer coefficients, and the products are
    summed per derivative exponent (:func:`linear_combination`).  R is
    inverted, each symbol substituted, each distinct part substituted, and
    the powers of the forms built, once for all the operators.
    """
    matrix = [[as_fraction(c) for c in row] for row in rows]
    dim = len(matrix)
    if any(len(r) != dim for r in matrix) or any(op.dim != dim for op in ops):
        raise ValueError("change of variables must be square of the dimension")
    inverse = invert(matrix)
    if inverse is None:
        raise ValueError("change of variables must be invertible")
    units = monomial_exponents(dim, 1)
    by_rows = substituter(dim, [Poly(dim, zip(units, row)) for row in matrix])
    by_columns = substituter(dim, [Poly(dim, zip(units, column))
                                   for column in zip(*inverse)])
    symbols: dict[MultiIndex, Poly] = {}
    images: dict[Poly, Poly] = {}  # primitive part -> its substitution
    moved = []
    for op in ops:
        # primitive part -> [(content, symbol)] of the terms it is in
        groups: dict[Poly, list[tuple[Fraction, Poly]]] = {}
        for a, p in op.terms():
            symbol = symbols.get(a)
            if symbol is None:
                symbol = symbols[a] = by_columns(Poly.monomial(dim, a))
            content, part = p.primitive()
            groups.setdefault(part, []).append((content, symbol))
        # derivative exponent -> [(integer scalar, scaled image)]
        products: dict[MultiIndex, list[tuple[int, Poly]]] = {}
        for part, pairs in groups.items():
            image = images.get(part)
            if image is None:
                image = images[part] = by_rows(part)
            scalars, den = linear_combination(dim, pairs).integer_terms()
            if den != 1:
                image = image * Fraction(1, den)
            for b, c in scalars.items():
                products.setdefault(b, []).append((c, image))
        moved.append(DiffOp(dim, op.order,
                            [(b, linear_combination(dim, pairs))
                             for b, pairs in products.items()]))
    return moved

"""Exact sparse multivariate polynomials over the rationals.

A polynomial in ``dim`` variables is stored as integer terms over one
denominator: a mapping from exponent tuples (one entry per variable) to
nonzero ``int`` coefficients, and an ``int`` den >= 1.  The stored form is
in lowest terms: no zero term is kept, and the gcd of den and all the
coefficients is 1 (the zero polynomial has den 1).  Each polynomial has
exactly one such form, so equality and hashing compare it term by term.

The arithmetic (sums, products, exact division, substitution,
derivatives and reduction modulo a linear form) loops on Python ints and
divides out one gcd per result.  Rationals appear only at the boundary:
the constructor and the scalar product accept ``int``,
:class:`fractions.Fraction` or "p/q" coefficients, and :meth:`Poly.terms`,
:meth:`Poly.coefficient`, :meth:`Poly.constant_value` and the content of
:meth:`Poly.primitive` hand out Fractions.  The serialization writes each
stored term over den as "p/q" in lowest terms, and
:meth:`Poly.integer_terms` reads the stored form itself.

Terms are iterated and serialized in a fixed order -- total degree first,
then the exponent tuple, both descending -- so equal polynomials always
print and serialize identically.  The same order doubles as the monomial
order for exact division (the leading term is the maximum).
"""

from __future__ import annotations

import heapq
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial, gcd, lcm
from operator import add, mul, sub
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

MultiIndex = tuple[int, ...]
Rational = Union[int, Fraction, str]


def as_fraction(value: Rational) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational.

    A bool is rejected: a JSON ``true`` is not a number.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def format_fraction(value: Fraction) -> str:
    """Render a rational as "p" or "p/q" (the serialization format)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# multi-index helpers

def mi_degree(a: MultiIndex) -> int:
    return sum(a)


def mi_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(map(add, a, b))


def mi_factorial(a: MultiIndex) -> int:
    out = 1
    for e in a:
        out *= factorial(e)
    return out


def mi_unit(dim: int, index: int) -> MultiIndex:
    if not 0 <= index < dim:
        raise IndexError(f"variable index {index} out of range for dim {dim}")
    return tuple(1 if i == index else 0 for i in range(dim))


def mi_divides(a: MultiIndex, b: MultiIndex) -> bool:
    """True iff x^a divides x^b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def term_order_key(a: MultiIndex) -> tuple[int, MultiIndex]:
    """Sort key for the canonical term order (max = leading term)."""
    return (sum(a), a)


@lru_cache(maxsize=None)
def monomial_exponents(dim: int, degree: int) -> tuple[MultiIndex, ...]:
    """All exponent tuples of the given total degree, in canonical order.

    The order is lexicographically descending, e.g. for two variables and
    degree 2: (2,0), (1,1), (0,2).
    """
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    if degree < 0:
        return ()
    # the variable picks come in ascending lex order, which is descending
    # lex order of the exponents they count
    out = []
    for picks in combinations_with_replacement(range(dim), degree):
        exponent = [0] * dim
        for i in picks:
            exponent[i] += 1
        out.append(tuple(exponent))
    return tuple(out)


# ---------------------------------------------------------------------------
# integer terms

IntTerms = dict[MultiIndex, int]


def _ratio(value: Rational) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational, as for as_fraction."""
    if type(value) is int:
        return value, 1
    value = as_fraction(value)
    return value.numerator, value.denominator


def _lowest(terms: IntTerms, den: int) -> tuple[IntTerms, int]:
    """terms / den (den >= 1) as stored: zero terms dropped, and the gcd of
    den and the terms divided out."""
    terms = {a: c for a, c in terms.items() if c}
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {a: c // g for a, c in terms.items()}
    return terms, den


def _mul_terms(p: Iterable[tuple[MultiIndex, int]],
               q: Iterable[tuple[MultiIndex, int]]) -> IntTerms:
    """The integer product of two term lists (cancelled terms stay as 0).

    q is iterated once per term of p, so it must not be an iterator.
    """
    out: IntTerms = {}
    get = out.get
    for a, c in p:
        for b, d in q:
            key = tuple(map(add, a, b))
            out[key] = get(key, 0) + c * d
    return out


# ---------------------------------------------------------------------------
# polynomials

class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("dim", "_terms", "_den")

    def __init__(self, dim: int,
                 terms: Mapping[MultiIndex, Rational]
                 | Iterable[tuple[MultiIndex, Rational]] = ()):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: IntTerms = {}
        den = 1
        for exponent, coeff in items:
            exponent = tuple(exponent)
            if len(exponent) != dim or any(e < 0 for e in exponent):
                raise ValueError(f"bad exponent {exponent} for dim {dim}")
            num, q = _ratio(coeff)
            if den % q:  # bring the terms so far to the new denominator
                scale = q // gcd(den, q)
                den *= scale
                for a in acc:
                    acc[a] *= scale
            acc[exponent] = acc.get(exponent, 0) + num * (den // q)
        acc, den = _lowest(acc, den)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_terms", acc)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _make(cls, dim: int, terms: IntTerms, den: int) -> "Poly":
        # internal: terms / den for den >= 1, zero terms allowed
        return cls._raw(dim, *_lowest(terms, den))

    @classmethod
    def _raw(cls, dim: int, terms: IntTerms, den: int) -> "Poly":
        # internal fast path: terms and den already as _lowest leaves them
        self = object.__new__(cls)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_den", den)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors

    @classmethod
    def zero(cls, dim: int) -> "Poly":
        return cls._raw(dim, {}, 1)

    @classmethod
    def one(cls, dim: int) -> "Poly":
        return cls.constant(dim, 1)

    @classmethod
    def constant(cls, dim: int, value: Rational) -> "Poly":
        num, den = _ratio(value)
        return cls._raw(dim, {(0,) * dim: num}, den) if num else cls.zero(dim)

    @classmethod
    def variable(cls, dim: int, index: int) -> "Poly":
        return cls._raw(dim, {mi_unit(dim, index): 1}, 1)

    @classmethod
    def monomial(cls, dim: int, exponent: MultiIndex,
                 coeff: Rational = 1) -> "Poly":
        return cls(dim, [(tuple(exponent), coeff)])

    # -- inspection

    def terms(self) -> Iterator[tuple[MultiIndex, Fraction]]:
        """Yield (exponent, coefficient) pairs in canonical order."""
        for a in sorted(self._terms, key=term_order_key, reverse=True):
            yield a, Fraction(self._terms[a], self._den)

    def integer_terms(self) -> tuple[Mapping[MultiIndex, int], int]:
        """(terms, den): the stored nonzero integer terms, read-only, and
        the denominator they are over (the polynomial is terms / den)."""
        return MappingProxyType(self._terms), self._den

    def coefficient(self, exponent: MultiIndex) -> Fraction:
        return Fraction(self._terms.get(tuple(exponent), 0), self._den)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def homogeneous_degree(self) -> int | None:
        """The common total degree of all terms, or None (zero or mixed)."""
        degrees = {sum(a) for a in self._terms}
        if len(degrees) != 1:
            return None
        return degrees.pop()

    def homogeneous_components(self) -> list[tuple[int, "Poly"]]:
        """(degree, part) for each nonzero homogeneous part, by degree."""
        parts: dict[int, IntTerms] = {}
        for a, c in self._terms.items():
            parts.setdefault(sum(a), {})[a] = c
        return [(d, Poly._make(self.dim, parts[d], self._den))
                for d in sorted(parts)]

    def primitive(self) -> tuple[Fraction, "Poly"]:
        """(content, part) with self = content * part, where part has
        integer coefficients without a common factor and a positive
        leading coefficient, so every nonzero rational multiple of self
        has the same part.  The zero polynomial gives (0, itself)."""
        if not self._terms:
            return Fraction(0), self
        g = gcd(*self._terms.values())
        if self._terms[max(self._terms, key=term_order_key)] < 0:
            g = -g
        if g == 1 and self._den == 1:
            return Fraction(1), self
        # the stored gcd of den and the terms is 1, so g / den is in
        # lowest terms
        return Fraction(g, self._den), Poly._raw(
            self.dim, {a: c // g for a, c in self._terms.items()}, 1)

    def constant_value(self) -> Fraction | None:
        """The value of a constant polynomial, or None if non-constant."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1:
            ((a, c),) = self._terms.items()
            if sum(a) == 0:
                return Fraction(c, self._den)
        return None

    # -- ring operations

    def _check_dim(self, other: "Poly") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_dim(other)
        den = lcm(self._den, other._den)
        s, t = den // self._den, den // other._den
        out = (dict(self._terms) if s == 1 else
               {a: c * s for a, c in self._terms.items()})
        get = out.get
        for a, c in other._terms.items():
            out[a] = get(a, 0) + c * t
        return Poly._make(self.dim, out, den)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly._raw(self.dim, {a: -c for a, c in self._terms.items()},
                         self._den)

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check_dim(other)
            return Poly._make(self.dim, _mul_terms(self._terms.items(),
                                                   other._terms.items()),
                              self._den * other._den)
        if isinstance(other, (int, Fraction)):
            num, den = _ratio(other)
            return Poly._make(self.dim, {a: c * num
                                         for a, c in self._terms.items()},
                              self._den * den)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one(self.dim)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.dim == other.dim and self._den == other._den
                and self._terms == other._terms)

    def __hash__(self) -> int:
        return hash((self.dim, self._den, frozenset(self._terms.items())))

    # -- calculus and substitution

    def partial_derivative(self, order: MultiIndex) -> "Poly":
        """Apply the iterated partial derivative given by a multi-index."""
        order = tuple(order)
        if len(order) != self.dim:
            raise ValueError("multi-index length must equal the dimension")
        out: IntTerms = {}
        for a, c in self._terms.items():
            if not mi_divides(order, a):
                continue
            for e, k in zip(a, order):
                for step in range(k):
                    c *= e - step
            # distinct exponents stay distinct after the shift
            out[tuple(map(sub, a, order))] = c
        return Poly._make(self.dim, out, self._den)

    # -- presentation

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({self.dim}, {format_poly(self)!r})"

    def to_json(self) -> list:
        """Serialize as [[exponents, "p/q"], ...] in canonical term order."""
        terms, den = self._terms, self._den
        out = []
        for a in sorted(terms, key=term_order_key, reverse=True):
            c = terms[a]
            g = gcd(c, den)
            num, q = c // g, den // g
            out.append([list(a), f"{num}/{q}" if q != 1 else str(num)])
        return out


def json_array(data, what: str) -> list:
    """``data`` if it is a JSON array; a string or an object would
    otherwise be read by its characters or its keys."""
    if not isinstance(data, list):
        raise ValueError(f"{what} must be a JSON array, got {data!r}")
    return data


def exponent_from_json(data: Iterable) -> MultiIndex:
    """Parse an exponent list; every entry must be a nonnegative int."""
    exponent = tuple(data)
    if not all(type(e) is int and e >= 0 for e in exponent):
        raise ValueError(f"bad exponent {list(exponent)!r}")
    return exponent


def poly_from_json(data: list, dim: int) -> Poly:
    """Parse the [[exponents, "p/q"], ...] serialization."""
    terms = json_array(data, "a polynomial")
    if not all(isinstance(term, list) and len(term) == 2 for term in terms):
        raise ValueError("a polynomial term must be [exponents, coefficient]")
    return Poly(dim, [(exponent_from_json(e), as_fraction(c))
                      for e, c in terms])


def variables(dim: int) -> tuple[Poly, ...]:
    """The coordinate polynomials x1..xn, handy for building examples."""
    return tuple(Poly.variable(dim, i) for i in range(dim))


def format_poly(p: Poly) -> str:
    """Human-readable rendering with variables named x1..xn."""
    if p.is_zero():
        return "0"
    names = [f"x{i + 1}" for i in range(p.dim)]
    pieces = []
    for a, c in p.terms():
        factors = []
        for name, e in zip(names, a):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            body = format_fraction(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([format_fraction(abs(c))] + factors)
        sign = "-" if c < 0 else "+"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def substituter(dim: int, images: Sequence[Poly]) -> Callable[[Poly], Poly]:
    """The substitution x_i -> images[i], for many polynomials in dim vars.

    The images are read once as integer terms over their common
    denominator den.  A term c * x^a goes to c * den^(top - |a|) times the
    integer image of x^a, summed into one integer result over
    sp * den^top (top: the polynomial's degree, sp: its denominator).  The
    image of x^a is that of its exponent prefix a[:dim-1] times a power of
    (den * images[dim-1]), and so on down to the empty prefix.  The powers
    and the prefix images are built as the substituted terms ask for them
    and kept as long as the returned function lives, so a monomial or
    prefix that many polynomials share is multiplied out once.
    """
    if len(images) != dim:
        raise ValueError("need one image per variable")
    for image in images:
        if image.dim != dim:
            raise ValueError(f"dimension mismatch: {image.dim} vs {dim}")
    den = lcm(*[image._den for image in images])
    scaled = [[(b, c * (den // image._den)) for b, c in image._terms.items()]
              for image in images]
    one = {(0,) * dim: 1}
    powers = [[one] for _ in images]  # powers[i][e] = (den * images[i]) ** e
    prefixes: dict[MultiIndex, IntTerms] = {(): one}  # a[:k] -> its image

    def monomial_image(a: MultiIndex) -> IntTerms:
        k = dim
        while a[:k] not in prefixes:
            k -= 1
        product = prefixes[a[:k]]
        for i in range(k, dim):
            e = a[i]
            if e:
                table = powers[i]
                while len(table) <= e:
                    table.append(_mul_terms(table[-1].items(), scaled[i]))
                product = (table[e] if product is one else
                           _mul_terms(product.items(), table[e].items()))
            prefixes[a[:i + 1]] = product
        return product

    def substitute(p: Poly) -> Poly:
        if p.dim != dim:
            raise ValueError(f"dimension mismatch: {p.dim} vs {dim}")
        top = max(map(sum, p._terms), default=0)
        out: IntTerms = {}
        get = out.get
        for a, c in p._terms.items():
            c *= den ** (top - sum(a))
            for key, value in monomial_image(a).items():
                out[key] = get(key, 0) + c * value
        return Poly._make(dim, out, p._den * den ** top)

    return substitute


def linear_combination(dim: int, pairs: Iterable[tuple[Rational, Poly]]
                       ) -> Poly:
    """The sum of scalar * p over (scalar, p) pairs, summed on integer
    terms over one common denominator and reduced once."""
    scaled = []
    for scalar, p in pairs:
        if p.dim != dim:
            raise ValueError(f"dimension mismatch: {p.dim} vs {dim}")
        num, den = _ratio(scalar)
        scaled.append((num, den * p._den, p._terms))
    den = lcm(*[d for _, d, _ in scaled])
    out: IntTerms = {}
    get = out.get
    for num, d, terms in scaled:
        factor = num * (den // d)
        for a, c in terms.items():
            out[a] = get(a, 0) + c * factor
    return Poly._make(dim, out, den)


def exact_divide(p: Poly, q: Poly) -> Poly | None:
    """Return r with p = q*r, or None when q does not divide p exactly.

    Single-divisor reduction by leading terms: any term whose monomial is
    not divisible by the divisor's leading monomial certifies failure.
    The remainder is one term dict updated in place, and its leading term
    comes off a heap keyed by the term order.

    With p = P / sp and q = Q / sq as stored, r = (sq / sp) * (P / Q): the
    remainder starts integral, and a quotient coefficient stays an int
    while the integral leading coefficient of Q divides it.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    lq = max(q._terms, key=term_order_key)
    cq = q._terms[lq]
    tail = [(b, c) for b, c in q._terms.items() if b != lq]
    remainder: dict[MultiIndex, Rational] = dict(p._terms)
    # negated keys make heapq's minimum the term order's maximum
    heap = [_heap_key(a) for a in remainder]
    heapq.heapify(heap)
    quotient: dict[MultiIndex, Rational] = {}
    while remainder:
        lr = heapq.heappop(heap)[-1]
        cr = remainder.pop(lr, None)
        if cr is None:  # a stale entry for a cancelled term
            continue
        if not mi_divides(lq, lr):
            return None
        shift = tuple(map(sub, lr, lq))
        if type(cr) is int and not cr % cq:
            factor = cr // cq
        else:
            factor = Fraction(cr, cq)
        quotient[shift] = factor
        # every new monomial is below lr, so popped terms never come back
        for b, c in tail:
            key = tuple(map(add, shift, b))
            old = remainder.get(key)
            if old is None:
                remainder[key] = -factor * c
                heapq.heappush(heap, _heap_key(key))
            else:
                new = old - factor * c
                if new:
                    remainder[key] = new
                else:
                    del remainder[key]
    den = lcm(*[c.denominator for c in quotient.values()])
    return Poly._make(p.dim, {a: c.numerator * (den // c.denominator) * q._den
                              for a, c in quotient.items()}, p._den * den)


def _heap_key(a: MultiIndex) -> tuple[int, tuple[int, ...], MultiIndex]:
    return (-sum(a), tuple(-x for x in a), a)


# ---------------------------------------------------------------------------
# linear forms

class LinearForm:
    """A nonzero rational covector, canonically scaled, with its reduction
    kernel: the map from the terms of p to those of p mod the form.

    The first nonzero coefficient (the pivot) is normalized to 1, so two
    forms define the same hyperplane exactly when they compare equal.

    Let D be the lcm of the denominators of the coefficients, so that the
    integral coefficients w = D * (the coefficients) have no common factor.
    The kernel eliminates the last variable q with a nonzero coefficient:
    with L = |w_q| and r = -sign(w_q) * (the integral form without its
    q term), x_q is r / L modulo the form, so a term c * x^mu goes to
    c * x^(mu with the q exponent set to 0) * r^k / L^k with k = mu_q; the
    result is empty exactly when the form divides p.  The kernel works on
    the integer powers of r and brings the terms to one scale L^K (K the
    largest exponent of x_q among them), so integral terms stay on ints
    and the only division is by that scale.  Every variable in r comes
    before x_q, which makes a monomial without x_q lead the table group it
    belongs to (see :meth:`table`).  q, L and r are computed once; the
    powers of r that the terms ask for are kept as long as the form lives,
    and only those (intermediate powers are dropped, so one high power
    costs only its own size).
    """

    __slots__ = ("_coeffs", "pivot", "integral_coefficients", "_last",
                 "_lead", "_r", "_powers")

    def __init__(self, coefficients: Sequence[Rational]):
        coeffs = tuple(as_fraction(c) for c in coefficients)
        pivot = next((i for i, c in enumerate(coeffs) if c), None)
        if pivot is None:
            raise ValueError("a linear form must be nonzero")
        lead = coeffs[pivot]
        coeffs = tuple(c / lead for c in coeffs)
        den = lcm(*[c.denominator for c in coeffs])
        ints = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        dim = len(coeffs)
        last = max(i for i, c in enumerate(ints) if c)
        sign = -1 if ints[last] > 0 else 1
        set_ = object.__setattr__
        set_(self, "_coeffs", coeffs)
        # the index of the first nonzero (hence unit) coefficient
        set_(self, "pivot", pivot)
        # the coefficients times D, as ints (so the pivot entry is D)
        set_(self, "integral_coefficients", ints)
        set_(self, "_last", last)
        set_(self, "_lead", abs(ints[last]))
        set_(self, "_r", [(mi_unit(dim, j), sign * c)
                          for j, c in enumerate(ints) if j != last and c])
        set_(self, "_powers", {0: {(0,) * dim: 1}})

    def __setattr__(self, name, value):
        raise AttributeError("LinearForm is immutable")

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def dim(self) -> int:
        return len(self._coeffs)

    def to_poly(self) -> Poly:
        return Poly(self.dim, {mi_unit(self.dim, i): c
                               for i, c in enumerate(self._coeffs) if c})

    def reduce(self, p: Poly) -> Poly:
        """Image of p modulo this form.

        The result is zero exactly when the form divides p.
        """
        if p.dim != self.dim:
            raise ValueError(f"dimension mismatch: {p.dim} vs {self.dim}")
        reduced, scale = self.scaled(p._terms.items())
        return Poly._make(self.dim, reduced, p._den * scale)

    def divides(self, p: Poly) -> bool:
        """True iff p lies in the principal ideal generated by this form."""
        return self.reduce(p).is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __str__(self) -> str:
        return format_poly(self.to_poly())

    def __repr__(self) -> str:
        return f"LinearForm({self})"

    def to_json(self) -> list[str]:
        return [format_fraction(c) for c in self._coeffs]

    def power(self, k: int) -> dict[MultiIndex, int]:
        """The terms of r^k, built from the highest stored power below k."""
        powers = self._powers
        if k in powers:
            return powers[k]
        below = max(j for j in powers if j < k)
        current = powers[below]
        for _ in range(k - below):
            current = _mul_terms(current.items(), self._r)
        powers[k] = current
        return current

    def scaled(self, terms: Iterable[tuple[MultiIndex, Rational]]
               ) -> tuple[dict[MultiIndex, Rational], int]:
        """(out, s) with out / s the terms of the reduction and s = L^K;
        out is integral when the terms are.  The input terms may repeat an
        exponent, and are iterated twice unless L is 1."""
        last = self._last
        scale = 1
        if self._lead != 1:  # bring every term to the scale L^K
            top = max((mu[last] for mu, _ in terms), default=0)
            lift = [self._lead ** (top - k) for k in range(top + 1)]
            terms = [(mu, c * lift[mu[last]]) for mu, c in terms]
            scale = lift[0]
        out: dict[MultiIndex, Rational] = {}
        for mu, c in terms:
            base = mu[:last] + (0,) + mu[last + 1:]
            for e, pc in self.power(mu[last]).items():
                key = tuple(map(add, base, e))
                value = out.get(key, 0) + c * pc
                if value:
                    out[key] = value
                else:
                    out.pop(key, None)
        return out, scale

    def table(self, degree: int) -> list[list[tuple[int, int]]]:
        """L^degree times the reductions of the degree-d monomials, grouped
        by output monomial: one list of (index of mu, integer term) per
        monomial nu of a reduction, where mu indexes
        ``monomial_exponents(dim, degree)`` and the term is that of x^mu's
        reduction at nu.

        Each nu is free of x_q, so x^nu is its own reduction; every other mu
        in its group has mu_q > 0 where nu has variables of r, all before
        x_q.  In the lexicographically descending order nu thus comes first
        in its group: it opens the group, the groups come in the order of
        their nu, and no two share their least index.

        The monomials are coded as integers, sum of mu_i * (d + 1)^(n-1-i)
        (every exponent is at most d), so shifting a term of r^k to its
        base monomial is one addition.  The powers r^0..r^d are built in
        turn, one step each; x^mu contributes r^(mu_q) times L^(d - mu_q).
        """
        dim, last = self.dim, self._last
        weights = [(degree + 1) ** (dim - 1 - i) for i in range(dim)]
        weights[last] = 0  # the code of mu is that of its base monomial
        coded = [[(sum(map(mul, e, weights)), pc)
                  for e, pc in self.power(k).items()]
                 for k in range(degree + 1)]
        lift = [self._lead ** (degree - k) for k in range(degree + 1)]
        groups: dict[int, list[tuple[int, int]]] = {}
        for mi, mu in enumerate(monomial_exponents(dim, degree)):
            base = sum(map(mul, mu, weights))
            k = mu[last]
            if k:
                scale = lift[k]
                for code, pc in coded[k]:
                    groups[base + code].append((mi, scale * pc))
            else:
                groups[base] = [(mi, lift[0])]
        return list(groups.values())


_TERM_RE = re.compile(r"\s*([+-]?)\s*(\d+(?:/\d+)?)?\s*\*?\s*([A-Za-z]\w*)?")

_ALIASES = {"x": 0, "y": 1, "z": 2}


def parse_linear_form(text: str, dim: int) -> LinearForm:
    """Parse "x1 - x2", "2x+3y", ... into a linear form.

    Variables are x1..xn; the aliases x, y, z are accepted when dim <= 3.
    """
    coeffs = [Fraction(0)] * dim
    pos = 0
    seen_any = False
    while pos < len(text):
        match = _TERM_RE.match(text, pos)
        if not match or match.end() == pos:
            raise ValueError(f"cannot parse linear form {text!r} at {pos}")
        sign, number, name = match.groups()
        if number is None and name is None:
            if text[pos:].strip():
                raise ValueError(f"cannot parse linear form {text!r} at {pos}")
            break
        if seen_any and not sign:
            raise ValueError(f"expected + or - at {pos} in {text!r}")
        if name is None:
            raise ValueError(f"constant term {number!r} in linear form {text!r}")
        if name.startswith("x") and name[1:].isdigit():
            index = int(name[1:]) - 1
        elif name in _ALIASES and dim <= 3:
            index = _ALIASES[name]
        else:
            raise ValueError(f"unknown variable {name!r} for dim {dim}")
        if not 0 <= index < dim:
            raise ValueError(f"variable {name!r} out of range for dim {dim}")
        value = Fraction(number) if number else Fraction(1)
        coeffs[index] += -value if sign == "-" else value
        pos = match.end()
        seen_any = True
    if not seen_any:
        raise ValueError("empty linear form")
    return LinearForm(coeffs)

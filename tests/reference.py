"""Exact references and generators that two or more test modules share.

Every helper here is an independent path to something the library
computes (Fraction elimination, Laplace expansion, the commutator with a
linear form, a brute-force membership scan), or a generator of inputs
for such comparisons.  Test modules import from here and never from one
another.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from hypothesis import strategies as st

from arrdiff.arrangement import Arrangement, arrangement_from_json
from arrdiff.qpoly import (LinearForm, Poly, exact_divide, monomial_exponents,
                           variables)
from arrdiff.weyl import DiffOp, euler_operator


def arr_of(dim, *texts):
    return arrangement_from_json({"dim": dim, "forms": list(texts)})


RANK2 = arr_of(2, "x", "y", "x+y")
GENERIC3 = arr_of(3, "x", "y", "z", "x+y+z")


def form_value(form, point):
    """The value of a linear form at a point, on Fractions."""
    return sum(c * Fraction(v) for c, v in zip(form.coefficients, point))


def row_times(vector, rows):
    """The product vector * rows of a row vector and a matrix."""
    return [sum((Fraction(x) * row[j] for x, row in zip(vector, rows)),
                Fraction(0)) for j in range(len(rows[0]))]


# ---------------------------------------------------------------------------
# dense elimination and determinants

def reference_rref(rows, ncols):
    """Dense Gauss-Jordan; returns (nonzero reduced rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def rank_of(rows, ncols):
    return len(reference_rref(rows, ncols)[1])


def reference_nullspace(rows, ncols):
    reduced, pivots = reference_rref(rows, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[free]
        basis.append(tuple(vec))
    return basis


def fraction_det(matrix):
    """Gaussian elimination on Fractions, each row swap a sign."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, len(rows)):
            factor = rows[i][k] / rows[k][k]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[k])]
    return det


def cofactor_det(rows):
    """Reference determinant: Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = Poly.zero(rows[0][0].dim)
    for j, entry in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = entry * cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def count_fractions(monkeypatch):
    """The list that records the arguments of every Fraction built from
    now until ``monkeypatch.undo()``."""
    built = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return built


# ---------------------------------------------------------------------------
# polynomials as Fraction dicts

def poly_strategy(dim: int, max_degree: int = 3, max_terms: int = 4):
    exponent = st.tuples(*[st.integers(0, max_degree)] * dim)
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    term = st.tuples(exponent, coeff)
    return st.lists(term, max_size=max_terms).map(lambda ts: Poly(dim, ts))


def form_strategy(dim: int):
    """Nonzero forms whose normalised coefficients have denominators."""
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.tuples(*[coeff] * dim).filter(any).map(LinearForm)


def fraction_terms(p: Poly) -> dict:
    """The terms as Fractions (never int or float), after checking that the
    stored form is in lowest terms: nonzero int terms over a den >= 1
    that shares no factor with all of them."""
    ints, den = p.integer_terms()
    assert type(den) is int and den >= 1
    assert all(type(c) is int and c for c in ints.values())
    assert gcd(den, *ints.values()) == 1
    terms = dict(p.terms())
    assert all(type(c) is Fraction for c in terms.values())
    assert terms == {a: Fraction(c, den) for a, c in ints.items()}
    return terms


def reference_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for a, c in p.items():
        for b, d in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, Fraction(0)) + c * d
    return {a: c for a, c in out.items() if c}


def reference_substitute(p: dict, images: list, dim: int) -> dict:
    powers = [[{(0,) * dim: Fraction(1)}] for _ in images]
    out: dict = {}
    for a, c in p.items():
        term = {(0,) * dim: c}
        for image, image_powers, e in zip(images, powers, a):
            while len(image_powers) <= e:
                image_powers.append(reference_mul(image_powers[-1], image))
            term = reference_mul(term, image_powers[e])
        for key, value in term.items():
            out[key] = out.get(key, Fraction(0)) + value
    return {a: c for a, c in out.items() if c}


# ---------------------------------------------------------------------------
# operators

def commutator_with_form(op: DiffOp, form: LinearForm) -> DiffOp:
    """[op, form]: bracketing d^a against one variable replaces a factor of
    that derivative by its multiplicity, so the result has order m-1.  The
    library decides membership from the coefficients of this commutator
    without building it (see :mod:`arrdiff.membership`)."""
    if op.order == 0:
        raise ValueError("order-0 operators commute with multiplication")
    if form.dim != op.dim:
        raise ValueError("form dimension mismatch")
    out: dict[tuple[int, ...], Poly] = {}
    for a, coeff in op.terms():
        for i, c in enumerate(form.coefficients):
            if not c or not a[i]:
                continue
            key = tuple(e - 1 if j == i else e for j, e in enumerate(a))
            out[key] = out.get(key, Poly.zero(op.dim)) + coeff * (c * a[i])
    return DiffOp(op.dim, op.order - 1, out)


def is_member_bruteforce(op: DiffOp, arr: Arrangement,
                         degree_bound: int) -> bool:
    """Truncated scan of the defining property, an independent oracle.

    Checks that the image of Q*x^c is divisible by Q for every monomial
    x^c of degree at most the bound.  This under-approximates the real
    membership condition and exists only to cross-check ``is_member``.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    q = arr.defining_polynomial()
    for d in range(degree_bound + 1):
        for c in monomial_exponents(arr.dim, d):
            image = op.apply(q * Poly.monomial(arr.dim, c))
            if image and exact_divide(image, q) is None:
                return False
    return True


def mixed_order_tuples():
    """Three operators of order 2 and 1 on RANK2: the first tuple holds a
    non-member, the second only members."""
    x, y = variables(2)
    theta_2 = DiffOp.single(2, (0, 2), y * (x + y))
    return [[DiffOp.single(2, (2, 0), Poly.one(2)), euler_operator(2, 1),
             euler_operator(2, 2)],
            [euler_operator(2, 2), euler_operator(2, 1), theta_2]]


def random_poly(rng: random.Random, dim: int, degree: int,
                terms: int = 2) -> Poly:
    picks = []
    pool = monomial_exponents(dim, degree)
    for _ in range(terms):
        picks.append((rng.choice(pool), Fraction(rng.randint(-3, 3))))
    return Poly(dim, picks)


def random_operator_pool(rng, arr, order, count):
    ops = []
    for _ in range(count):
        terms = []
        for a in monomial_exponents(arr.dim, order):
            if rng.random() < 0.5:
                terms.append((a, random_poly(rng, arr.dim,
                                             rng.randint(0, 2))))
        ops.append(DiffOp(arr.dim, order, terms))
    return ops


def random_member_pool(rng, arr, order, count):
    """Genuine members: monomial multiples of the Euler operator and of
    Q d^a, plus sums of those."""
    q = arr.defining_polynomial()
    generators = [euler_operator(arr.dim, order)]
    generators += [DiffOp.single(arr.dim, a, q)
                   for a in monomial_exponents(arr.dim, order)]
    ops = []
    for _ in range(count):
        total = DiffOp(arr.dim, order)
        for gen in rng.sample(generators, k=min(2, len(generators))):
            factor = random_poly(rng, arr.dim, rng.randint(0, 1), terms=1)
            total = total + factor * gen
        ops.append(total)
    return ops

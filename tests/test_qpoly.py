"""Polynomial arithmetic: golden values plus ring/divisibility properties."""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrdiff.qpoly import (LinearForm, Poly, exact_divide, format_fraction,
                           format_poly, linear_combination, mi_unit,
                           monomial_exponents, parse_linear_form,
                           poly_from_json, substituter, variables)
from tests.reference import (form_strategy, fraction_terms, poly_strategy,
                             reference_mul, reference_substitute)


def nonzero_poly(dim: int):
    return poly_strategy(dim).filter(lambda p: not p.is_zero())


def reduce_terms(form, terms) -> dict:
    """The reduction of terms modulo a form, with its scale divided out."""
    out, scale = form.scaled(terms)
    return {mu: Fraction(c) / scale for mu, c in out.items()}


def last_variable(form) -> int:
    """The variable the reduction eliminates: the last one in the form."""
    return max(j for j, c in enumerate(form.coefficients) if c)


def small_exponent(dim: int):
    return st.tuples(*[st.integers(0, 2)] * dim)


# ---------------------------------------------------------------------------
# golden arithmetic

def test_addition_cancels_and_has_identity():
    x, y = variables(2)
    assert (x + y) + (x - y) == 2 * x
    p = x * x + 3 * y
    assert p + Poly.zero(2) == p
    assert x * x + 2 * (x * x) == 3 * (x * x)


def test_multiplication_expands():
    x, y = variables(2)
    assert x * (y * (x + y)) == x * x * y + x * y * y
    assert (x - y) * (x + y) == x * x - y * y
    q = x * y * (x + y)
    assert (q * q).homogeneous_degree() == 6


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        variables(2)[0] + variables(3)[0]
    with pytest.raises(ValueError):
        variables(2)[0] * variables(3)[0]


def test_partial_derivative_golden():
    x, y = variables(2)
    assert (x * x * y).partial_derivative((2, 0)) == 2 * y
    assert (x * x).partial_derivative((1, 1)).is_zero()
    # the scalar inside the membership image computations
    assert (x * x).partial_derivative((2, 0)) == Poly.constant(2, 2)


def test_divides_linear_golden():
    x, y = variables(2)
    assert LinearForm([1, 0]).divides(2 * x * (x + y))
    assert not LinearForm([1, 0]).divides(Poly.constant(2, 2))


def test_divides_linear_shi2_determinant_factor():
    from arrdiff.arrangement import make_shi
    _, y, z = variables(3)
    q = make_shi(2).defining_polynomial()
    assert LinearForm([0, 1, -1]).divides(4 * (y - z) * q ** 3)


def test_reduce_golden_with_denominators():
    x, y, z = variables(3)
    form = LinearForm([2, 3, 0])  # normalised to x + 3/2 y; y = -2/3 x
    assert form.reduce(x) == x
    assert form.reduce(x * x * z + y) == x * x * z - Fraction(2, 3) * x
    assert form.reduce(y * y * z + x) == Fraction(4, 9) * x * x * z + x
    assert form.reduce(2 * x + 3 * y).is_zero()
    assert reduce_terms(form, [((1, 0, 0), 2), ((0, 1, 0), 3)]) \
        == {}


def test_exact_divide_golden():
    x, y = variables(2)
    assert exact_divide(x * x - y * y, x - y) == x + y
    q = x * y * (x + y)
    assert exact_divide(2 * q ** 2, q ** 2) == Poly.constant(2, 2)
    assert exact_divide(x, y) is None
    with pytest.raises(ZeroDivisionError):
        exact_divide(x, Poly.zero(2))


def translation(shift):
    """The images x_i + shift_i of a translation, for substituter."""
    dim = len(shift)
    return [x + Poly.constant(dim, w) for x, w in zip(variables(dim), shift)]


def test_substitute_affine_golden():
    (x,) = variables(1)
    assert substituter(1, translation([1]))(x) == x + Poly.one(1)
    # shifting along a point where the forms vanish fixes their product
    x3, y3, _ = variables(3)
    q = x3 * y3 * (x3 + y3)
    assert substituter(3, translation([0, 0, 5]))(q) == q


def test_substitute_golden():
    x, y = variables(2)
    p = x * x * y + 3 * y + Poly.constant(2, 2)
    assert substituter(2, [y, x])(p) \
        == y * y * x + 3 * x + Poly.constant(2, 2)
    assert substituter(2, [x + y, x * y])(p) \
        == (x + y) ** 2 * (x * y) + 3 * x * y + Poly.constant(2, 2)
    assert substituter(2, [Poly.zero(2), x])(p) \
        == 3 * x + Poly.constant(2, 2)
    assert substituter(0, [])(Poly.constant(0, 4)) == Poly.constant(0, 4)
    with pytest.raises(ValueError):
        substituter(2, [x])(p)
    with pytest.raises(ValueError):
        substituter(2, [x, Poly.variable(3, 0)])(p)


def test_canonical_term_order_and_serialization():
    x, y = variables(2)
    p = y + x + x * x + Fraction(1, 2) * x * y
    data = p.to_json()
    assert data == [[[2, 0], "1"], [[1, 1], "1/2"], [[1, 0], "1"],
                    [[0, 1], "1"]]
    assert poly_from_json(data, 2) == p
    assert format_poly(p) == "x1^2 + 1/2*x1*x2 + x1 + x2"


def test_monomial_exponents_order():
    assert monomial_exponents(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomial_exponents(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert monomial_exponents(2, -1) == ()
    assert len(monomial_exponents(3, 2)) == 6
    for dim in range(6):
        for degree in range(-1, 7):
            box = iter_product(range(degree + 1), repeat=dim)
            expected = sorted((e for e in box if sum(e) == degree),
                              reverse=True)
            assert list(monomial_exponents(dim, degree)) == expected


def test_format_fraction():
    assert format_fraction(Fraction(3)) == "3"
    assert format_fraction(Fraction(-3, 7)) == "-3/7"


# ---------------------------------------------------------------------------
# linear forms

def test_linear_form_canonical_scaling():
    assert LinearForm([2, 4]) == LinearForm([1, 2])
    assert LinearForm([Fraction(0), Fraction(-2), Fraction(1)]).coefficients \
        == (Fraction(0), Fraction(1), Fraction(-1, 2))
    with pytest.raises(ValueError):
        LinearForm([0, 0])


def test_parse_linear_form():
    assert parse_linear_form("x1 - x2", 3) == LinearForm([1, -1, 0])
    assert parse_linear_form("x-y-z", 3) == LinearForm([1, -1, -1])
    assert parse_linear_form("2x+3y", 2) == LinearForm([2, 3])
    with pytest.raises(ValueError):
        parse_linear_form("x7", 3)
    with pytest.raises(ValueError):
        parse_linear_form("x + 1", 2)
    with pytest.raises(ValueError):
        parse_linear_form("w", 4)
    # a sign must join the terms: juxtaposed terms are no sum
    assert parse_linear_form("2 x - 3*y", 2) == LinearForm([2, -3])
    for text in ("x1 x2", "x 2y", "x + y z", "2x 3"):
        with pytest.raises(ValueError, match="expected"):
            parse_linear_form(text, 3)


def test_poly_from_json_requires_exponents_and_coefficient():
    assert poly_from_json([[[1, 0], "2"], [[0, 0], 3]], 2) \
        == 2 * variables(2)[0] + Poly.constant(2, 3)
    for data in ([[[0, 0], "1", "2"]], [[[0, 0]]], [[]], ["1"],
                 [{"a": [0, 0]}]):
        with pytest.raises(ValueError, match=r"\[exponents, coefficient\]"):
            poly_from_json(data, 2)


# ---------------------------------------------------------------------------
# properties

def _outcome(build):
    """The built value, or the type and message of the error it raised."""
    try:
        return build()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_poly_from_mapping_matches_pairs(data):
    # a mapping's exponents are distinct, so its coefficients are stored
    # without accumulation; the result and the errors are those of the
    # same terms given as pairs, zero coefficients included
    dim = data.draw(st.integers(-1, 3))
    exponent = st.one_of(
        st.tuples(*[st.integers(0, 2)] * max(dim, 0)),
        st.lists(st.integers(-1, 2), max_size=4).map(tuple))
    coeff = st.one_of(
        st.just(0), st.just(Fraction(0)), st.just("0"), st.integers(-3, 3),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.sampled_from(["2/3", "-5", "x"]), st.booleans(), st.just(1.5))
    mapping = data.draw(st.dictionaries(exponent, coeff, max_size=5))
    from_mapping = _outcome(lambda: Poly(dim, mapping))
    from_pairs = _outcome(lambda: Poly(dim, list(mapping.items())))
    assert from_mapping == from_pairs
    if isinstance(from_pairs, Poly):
        assert list(from_mapping.terms()) == list(from_pairs.terms())
        assert all(c for _, c in from_mapping.terms())


@given(st.data())
@settings(max_examples=60)
def test_ring_axioms(data):
    dim = data.draw(st.integers(1, 3))
    p = data.draw(poly_strategy(dim))
    q = data.draw(poly_strategy(dim))
    r = data.draw(poly_strategy(dim))
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(st.data())
@settings(max_examples=60)
def test_exact_divide_inverts_multiplication(data):
    dim = data.draw(st.integers(1, 3))
    p = data.draw(poly_strategy(dim))
    q = data.draw(nonzero_poly(dim))
    assert exact_divide(p * q, q) == p


@given(st.data())
@settings(max_examples=60)
def test_divides_linear_matches_exact_division(data):
    dim = data.draw(st.integers(1, 3))
    coeffs = data.draw(st.tuples(*[st.integers(-2, 2)] * dim)
                       .filter(lambda c: any(c)))
    form = LinearForm(coeffs)
    p = data.draw(poly_strategy(dim))
    assert form.divides(p) == (exact_divide(p, form.to_poly()) is not None)


@given(st.data())
@settings(max_examples=60)
def test_substitute_affine_roundtrip(data):
    dim = data.draw(st.integers(1, 3))
    p = data.draw(poly_strategy(dim))
    shift = data.draw(st.tuples(*[st.fractions(min_value=-3, max_value=3,
                                               max_denominator=2)] * dim))
    back = [-w for w in shift]
    there = substituter(dim, translation(shift))(p)
    assert substituter(dim, translation(back))(there) == p


@given(st.data())
@settings(max_examples=60)
def test_substitute_commutes_with_evaluation(data):
    dim = data.draw(st.integers(1, 3))
    p = data.draw(poly_strategy(dim))
    images = data.draw(st.lists(poly_strategy(dim, max_degree=2),
                                min_size=dim, max_size=dim))
    point = data.draw(st.lists(st.fractions(min_value=-3, max_value=3,
                                            max_denominator=3),
                               min_size=dim, max_size=dim))

    def at(q):
        return reference_evaluate(fraction_terms(q), point)

    assert at(substituter(dim, images)(p)) \
        == reference_evaluate(fraction_terms(p), [at(g) for g in images])


@given(st.data())
@settings(max_examples=60)
def test_partials_commute_and_compose(data):
    dim = data.draw(st.integers(1, 3))
    p = data.draw(poly_strategy(dim))
    a = data.draw(small_exponent(dim))
    b = data.draw(small_exponent(dim))
    ab = tuple(x + y for x, y in zip(a, b))
    assert p.partial_derivative(a).partial_derivative(b) \
        == p.partial_derivative(ab)
    assert p.partial_derivative(b).partial_derivative(a) \
        == p.partial_derivative(ab)


@given(st.data())
@settings(max_examples=50)
def test_reduce_matches_pivot_substitution(data):
    dim = data.draw(st.integers(1, 4))
    form = data.draw(form_strategy(dim))
    p = data.draw(poly_strategy(dim, max_degree=4, max_terms=6))
    q = last_variable(form)
    lead = form.coefficients[q]
    r = Poly(dim, {mi_unit(dim, j): -c / lead
                   for j, c in enumerate(form.coefficients) if j != q and c})
    expected = substituter(dim, [r if j == q else x
                                 for j, x in enumerate(variables(dim))])(p)
    reduced = form.reduce(p)
    assert reduced == expected
    assert all(type(c) is Fraction and mu[q] == 0
               for mu, c in reduced.terms())
    # the kernel sums the terms it is given, repeated exponents included
    terms = list(p.terms())
    assert Poly(dim, reduce_terms(form, terms + terms).items()) \
        == 2 * expected
    assert reduce_terms(form, terms + [(mu, -c) for mu, c in terms]) == {}


# ---------------------------------------------------------------------------
# the integer kernels against plain-Fraction references

def reference_divide(p: dict, q: dict) -> dict | None:
    """Long division by leading terms, on Fractions throughout."""
    lq = max(q, key=lambda a: (sum(a), a))
    remainder, quotient = dict(p), {}
    while remainder:
        lr = max(remainder, key=lambda a: (sum(a), a))
        if any(x > y for x, y in zip(lq, lr)):
            return None
        shift = tuple(y - x for x, y in zip(lq, lr))
        factor = remainder[lr] / q[lq]
        quotient[shift] = factor
        for b, c in q.items():
            key = tuple(x + y for x, y in zip(shift, b))
            value = remainder.get(key, Fraction(0)) - factor * c
            if value:
                remainder[key] = value
            else:
                remainder.pop(key, None)
    return quotient


def reference_evaluate(p: dict, point: list) -> Fraction:
    total = Fraction(0)
    for a, c in p.items():
        for v, e in zip(point, a):
            c *= Fraction(v) ** e
        total += c
    return total


def reference_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for a, c in q.items():
        out[a] = out.get(a, Fraction(0)) + c
    return {a: c for a, c in out.items() if c}


def reference_derivative(p: dict, order: tuple) -> dict:
    out = {}
    for a, c in p.items():
        if all(k <= e for e, k in zip(a, order)):
            for e, k in zip(a, order):
                for step in range(k):
                    c *= e - step
            out[tuple(e - k for e, k in zip(a, order))] = c
    return out


def rational_scalar():
    """Nonzero rationals, among them integers other than +-1."""
    return st.fractions(min_value=-5, max_value=5,
                        max_denominator=4).filter(bool)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_poly_matches_fraction_reference(data):
    # construction from ints, Fractions and "p/q" strings, repeated
    # exponents included, then every ring and calculus operation
    dim = data.draw(st.integers(0, 3))
    exponent = st.tuples(*[st.integers(0, 3)] * dim)
    fraction = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    coeff = st.one_of(st.integers(-6, 6), fraction, fraction.map(str))
    pairs = data.draw(st.lists(st.tuples(exponent, coeff), max_size=6))
    expected: dict = {}
    for a, c in pairs:
        expected[a] = expected.get(a, Fraction(0)) + Fraction(c)
    p = Poly(dim, pairs)
    assert fraction_terms(p) == {a: c for a, c in expected.items() if c}
    q = data.draw(poly_strategy(dim, max_terms=5))
    fp, fq = fraction_terms(p), fraction_terms(q)
    assert fraction_terms(p + q) == reference_add(fp, fq)
    assert fraction_terms(p - q) == reference_add(
        fp, {a: -c for a, c in fq.items()})
    assert fraction_terms(-p) == {a: -c for a, c in fp.items()}
    for k in (data.draw(st.integers(-6, 6)), data.draw(fraction)):
        product = {a: c * k for a, c in fp.items() if c * k}
        assert fraction_terms(p * k) == fraction_terms(k * p) == product
    assert fraction_terms(p * q) == reference_mul(fp, fq)
    e = data.draw(st.integers(0, 3))
    power = {(0,) * dim: Fraction(1)}
    for _ in range(e):
        power = reference_mul(power, fp)
    assert fraction_terms(p ** e) == power
    order = data.draw(st.tuples(*[st.integers(0, 2)] * dim))
    assert fraction_terms(p.partial_derivative(order)) \
        == reference_derivative(fp, order)


def test_equal_polys_by_different_routes_compare_and_hash_equal():
    x, y = variables(2)
    routes = [
        (Poly(2, {(1, 0): "1/2"}) * 2, Poly.variable(2, 0)),
        (Poly(2, {(1, 0): Fraction(1, 3), (0, 1): Fraction(1, 6)}) * 6,
         2 * x + y),
        (x * Fraction(1, 2) + x * Fraction(1, 2), x),
        (Poly(2, [((1, 0), "2/4"), ((1, 0), Fraction(1, 2))]), x),
        ((Fraction(2, 3) * x * y).partial_derivative((1, 1)),
         Poly.constant(2, "2/3")),
        (exact_divide(Fraction(1, 2) * x * x, 3 * x), Fraction(1, 6) * x),
        (LinearForm([2, 1]).reduce(x * y), Poly(2, {(2, 0): -2})),
        (LinearForm([1, 2]).reduce(x * y),
         Poly(2, {(2, 0): Fraction(-1, 2)})),
        (x - x, Poly.zero(2)),
    ]
    for built, expected in routes:
        assert built == expected and hash(built) == hash(expected)
        assert built.integer_terms()[1] == expected.integer_terms()[1]
        assert fraction_terms(built) == fraction_terms(expected)
    assert Poly.zero(2).integer_terms()[1] == 1
    assert (x * 0).integer_terms() == ({}, 1)


@given(st.data())
@settings(max_examples=80)
def test_mul_matches_fraction_reference(data):
    dim = data.draw(st.integers(0, 3))
    p = data.draw(poly_strategy(dim, max_terms=6))
    q = data.draw(poly_strategy(dim, max_terms=6))
    assert fraction_terms(p * q) == reference_mul(fraction_terms(p),
                                                  fraction_terms(q))


@given(st.data())
@settings(max_examples=100)
def test_exact_divide_matches_fraction_reference(data):
    dim = data.draw(st.integers(1, 3))
    q = data.draw(nonzero_poly(dim)) * data.draw(rational_scalar())
    if data.draw(st.booleans()):  # divisible, often with a rational quotient
        p = q * data.draw(poly_strategy(dim)) * data.draw(rational_scalar())
    else:  # usually not divisible
        p = data.draw(poly_strategy(dim, max_terms=6))
    expected = reference_divide(fraction_terms(p), fraction_terms(q))
    quotient = exact_divide(p, q)
    if expected is None:
        assert quotient is None
    else:
        assert fraction_terms(quotient) == expected
        assert quotient * q == p


def test_exact_divide_rational_leading_coefficients():
    x, y = variables(2)
    q = Fraction(2, 3) * x - 3 * y
    assert exact_divide(q * (Fraction(1, 2) * x + y), q) \
        == Fraction(1, 2) * x + y
    assert exact_divide(3 * x * x + y * y, 3 * x) is None
    quotient = exact_divide(x * x + x * y, 3 * x)
    assert fraction_terms(quotient) == {(1, 0): Fraction(1, 3),
                                        (0, 1): Fraction(1, 3)}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_substitute_matches_fraction_reference(data):
    dim = data.draw(st.integers(0, 3))
    p = data.draw(poly_strategy(dim))
    images = data.draw(st.lists(poly_strategy(dim, max_degree=2),
                                min_size=dim, max_size=dim))
    expected = reference_substitute(fraction_terms(p),
                                    [fraction_terms(g) for g in images], dim)
    assert fraction_terms(substituter(dim, images)(p)) == expected
    # one substituter serves many polynomials with the same images
    substitute = substituter(dim, images)
    assert fraction_terms(substitute(p)) == expected
    assert fraction_terms(substitute(p * p)) == reference_substitute(
        fraction_terms(p * p), [fraction_terms(g) for g in images], dim)
    assert fraction_terms(substitute(p)) == expected


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_one_substituter_serves_polynomials_with_shared_prefixes(data):
    # the exponents share their first dim - 1 entries among a few heads,
    # so the polynomials share monomials and exponent prefixes, whose
    # images the substituter keeps between calls
    dim = data.draw(st.integers(1, 4))
    images = data.draw(st.lists(poly_strategy(dim, max_degree=2),
                                min_size=dim, max_size=dim))
    heads = data.draw(st.lists(st.tuples(*[st.integers(0, 2)] * (dim - 1)),
                               min_size=1, max_size=3))
    exponent = st.tuples(st.sampled_from(heads), st.integers(0, 2)).map(
        lambda pair: pair[0] + (pair[1],))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    polys = data.draw(st.lists(
        st.lists(st.tuples(exponent, coeff), max_size=4).map(
            lambda ts: Poly(dim, ts)), min_size=2, max_size=5))
    image_terms = [fraction_terms(g) for g in images]
    substitute = substituter(dim, images)
    for p in polys + polys[::-1]:
        assert fraction_terms(substitute(p)) == reference_substitute(
            fraction_terms(p), image_terms, dim)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_primitive_part_is_shared_by_rational_multiples(data):
    dim = data.draw(st.integers(0, 3))
    p = data.draw(poly_strategy(dim))
    content, part = p.primitive()
    assert type(content) is Fraction
    assert part * content == p
    if p.is_zero():
        assert content == 0 and part.is_zero()
        return
    ints, den = part.integer_terms()
    assert den == 1 and gcd(*ints.values()) == 1
    assert next(part.terms())[1] > 0  # the leading coefficient
    scalar = data.draw(rational_scalar())
    assert (p * scalar).primitive() == (content * scalar, part)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_linear_combination_matches_fraction_reference(data):
    dim = data.draw(st.integers(0, 3))
    pairs = data.draw(st.lists(st.tuples(rational_scalar(),
                                         poly_strategy(dim)), max_size=4))
    expected: dict = {}
    for scalar, p in pairs:
        expected = reference_add(expected, {a: c * scalar for a, c in
                                            fraction_terms(p).items()})
    assert fraction_terms(linear_combination(dim, pairs)) == expected


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_to_json_matches_fraction_formatting(data):
    # to_json writes each stored integer term over the denominator itself;
    # the entries are those of the Fraction coefficients, as format_fraction
    # writes them
    dim = data.draw(st.integers(0, 3))
    p = Poly.zero(dim)
    for _ in range(data.draw(st.integers(0, 3))):
        p = p + data.draw(poly_strategy(dim)) * data.draw(rational_scalar())
    assert p.to_json() == [[list(a), format_fraction(c)]
                           for a, c in p.terms()]


def test_primitive_part_golden():
    x, y = variables(2)
    p = Fraction(-2, 3) * x * x + Fraction(4, 9) * y
    assert p.primitive() == (Fraction(-2, 9), 3 * x * x - 2 * y)
    assert (-p).primitive() == (Fraction(2, 9), 3 * x * x - 2 * y)
    assert (x - y).primitive() == (Fraction(1), x - y)
    assert Poly.zero(2).primitive() == (Fraction(0), Poly.zero(2))


@given(st.data())
@settings(max_examples=60)
def test_homogeneous_components_split_by_degree(data):
    dim = data.draw(st.integers(0, 3))
    p = data.draw(poly_strategy(dim, max_terms=6))
    expected = {}
    for a, c in fraction_terms(p).items():
        expected.setdefault(sum(a), {})[a] = c
    parts = p.homogeneous_components()
    assert [d for d, _ in parts] == sorted(expected)
    assert {d: fraction_terms(part) for d, part in parts} == expected


@given(st.data())
@settings(max_examples=60)
def test_reducer_matches_fraction_reference(data):
    dim = data.draw(st.integers(1, 4))
    form = data.draw(form_strategy(dim))
    p = data.draw(poly_strategy(dim, max_degree=4, max_terms=6))
    q = last_variable(form)
    lead = form.coefficients[q]
    r = {mi_unit(dim, j): -c / lead for j, c in enumerate(form.coefficients)
         if j != q and c}
    images = [r if j == q else {mi_unit(dim, j): Fraction(1)}
              for j in range(dim)]
    expected = reference_substitute(fraction_terms(p), images, dim)
    reduced = fraction_terms(form.reduce(p))
    assert reduced == expected
    assert all(mu[q] == 0 for mu in reduced)
    # integral input scaled by a common denominator reduces to the scaled
    # image, whether the kernel meets ints or Fractions
    den = lcm(*[c.denominator for c in fraction_terms(p).values()])
    ints = [(mu, int(c * den)) for mu, c in p.terms()]
    assert {mu: c / den
            for mu, c in reduce_terms(form, ints).items()} \
        == expected


@given(st.data())
@settings(max_examples=60)
def test_reducer_scaled_stays_on_integers(data):
    # integral terms reduce to integral terms over |w_q|^K, w the integral
    # coefficients, q the eliminated (last) variable and K the largest
    # exponent of x_q among the terms
    dim = data.draw(st.integers(1, 4))
    form = LinearForm(data.draw(st.tuples(*[st.integers(-3, 3)] * dim)
                                .filter(any)))
    terms = data.draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * dim),
                                         st.integers(-5, 5)), max_size=5))
    out, scale = form.scaled(terms)
    q = last_variable(form)
    lead = abs(form.integral_coefficients[q])
    top = max((mu[q] for mu, _ in terms), default=0)
    assert scale == lead ** top
    assert all(type(c) is int and c for c in out.values())
    p = Poly(form.dim, terms)
    assert Poly(dim, {mu: Fraction(c, scale) for mu, c in out.items()}) \
        == form.reduce(p)


def table_forms(dim: int):
    return st.one_of(form_strategy(dim), st.tuples(
        *[st.integers(-2, 2)] * dim).filter(any).map(LinearForm))


def reference_table(form, degree) -> dict:
    """The single reductions of the degree-d monomials regrouped by output
    monomial nu, in order of first appearance: nu -> [(index of mu, term)].
    The reductions run on a fresh equal form, which builds its powers anew."""
    fresh = LinearForm(form.coefficients)
    groups: dict = {}
    for mi, mu in enumerate(monomial_exponents(form.dim, degree)):
        for nu, c in reduce_terms(fresh, [(mu, 1)]).items():
            groups.setdefault(nu, []).append((mi, c))
    return groups


@given(st.data())
@settings(max_examples=40)
def test_reducer_table_matches_single_reductions(data):
    dim = data.draw(st.integers(1, 4))
    form = data.draw(table_forms(dim))
    degree = data.draw(st.integers(0, 4))
    # the table states its scale: |w_q|^degree, w the integral coefficients
    # and q the eliminated variable
    scale = abs(form.integral_coefficients[last_variable(form)]) ** degree
    table = form.table(degree)
    assert all(type(c) is int for cells in table for _, c in cells)
    assert [[(mi, Fraction(c, scale)) for mi, c in cells] for cells in table] \
        == list(reference_table(form, degree).values())


@given(st.data())
@settings(max_examples=40)
def test_reducer_table_groups_lead_at_their_own_monomial(data):
    # the group of an output monomial nu holds x^nu itself (nu is free of
    # the eliminated variable), and every other monomial of the group comes
    # after it in the canonical order; so the graded rows of one form lead
    # at distinct columns
    dim = data.draw(st.integers(1, 4))
    form = data.draw(table_forms(dim))
    degree = data.draw(st.integers(0, 4))
    index = {mu: i for i, mu in enumerate(monomial_exponents(dim, degree))}
    outputs = list(reference_table(form, degree))
    table = form.table(degree)
    assert len(table) == len(outputs)
    leads = [min(mi for mi, _ in cells) for cells in table]
    assert leads == [index[nu] for nu in outputs]
    assert len(set(leads)) == len(leads)


@given(st.data())
@settings(max_examples=40)
def test_warm_form_answers_as_a_fresh_one(data):
    # the powers a form keeps from earlier calls (a table at a higher
    # degree, a jump to a high exponent of the eliminated variable) change
    # none of its answers
    dim = data.draw(st.integers(1, 4))
    form = data.draw(form_strategy(dim))
    degree = data.draw(st.integers(0, 3))
    form.table(degree + data.draw(st.integers(1, 3)))
    high = data.draw(st.integers(6, 12))
    q = last_variable(form)
    form.scaled([(mi_unit(dim, q), 1),
                 (tuple(high if j == q else 0 for j in range(dim)),
                  Fraction(1, 2))])
    fresh = LinearForm(form.coefficients)
    p = data.draw(poly_strategy(dim, max_degree=4, max_terms=6))
    terms = list(p.terms()) + [(tuple(high - 1 if j == q else 0
                                      for j in range(dim)), 3)]
    assert form.scaled(terms) == fresh.scaled(terms)
    assert form.table(degree) == fresh.table(degree)
    assert form.reduce(p) == fresh.reduce(p)
    assert form == fresh and hash(form) == hash(fresh)
    with pytest.raises(AttributeError):
        form.pivot = 0
    with pytest.raises(AttributeError):
        setattr(form, "_powers", {})

"""Operator action, commutators, Euler operator, coefficient matrices."""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrdiff import construct, weyl
from arrdiff.arrangement import arrangement_from_json
from arrdiff.construct import basis_rank_two
from arrdiff.linalg import invert
from arrdiff.qpoly import (LinearForm, Poly, mi_factorial, monomial_exponents,
                           substituter, variables)
from arrdiff.weyl import (DiffOp, block_product, change_variables,
                          coefficient_matrix, diffop_from_json,
                          directional_power, euler_operator)
from tests.reference import (commutator_with_form, fraction_terms,
                             poly_strategy, reference_substitute)


def op_strategy(dim: int, order: int, max_terms: int = 3):
    exponent = st.sampled_from(monomial_exponents(dim, order))
    return st.lists(st.tuples(exponent, poly_strategy(dim, max_degree=2)),
                    max_size=max_terms).map(lambda ts: DiffOp(dim, order, ts))


# ---------------------------------------------------------------------------
# action

def test_euler_rescales_degree_m():
    # the Euler operator multiplies any monomial of its order's degree by m!
    for dim, order in ((2, 2), (3, 2), (2, 3)):
        op = euler_operator(dim, order)
        form = LinearForm(range(1, dim + 1))
        for b in monomial_exponents(dim, order - 1):
            probe = form.to_poly() * Poly.monomial(dim, b)
            assert op.apply(probe) == factorial(order) * probe


def test_order_kills_low_degree():
    op = euler_operator(2, 3)
    x, y = variables(2)
    assert op.apply(x * y).is_zero()


def test_euler_displays():
    x, y = variables(2)
    expected = (DiffOp.single(2, (2, 0), x * x)
                + DiffOp.single(2, (0, 2), y * y)
                + DiffOp.single(2, (1, 1), 2 * x * y))
    assert euler_operator(2, 2) == expected
    assert euler_operator(2, 1) == (DiffOp.single(2, (1, 0), x)
                                    + DiffOp.single(2, (0, 1), y))
    three = euler_operator(3, 2)
    xs = variables(3)
    assert len(list(three.terms())) == 6
    for i in range(3):
        unit = tuple(2 if j == i else 0 for j in range(3))
        assert three.coefficient(unit) == xs[i] * xs[i]
    assert three.coefficient((1, 1, 0)) == 2 * xs[0] * xs[1]


@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                min_size=1, max_size=3), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_directional_power_matches_fraction_multinomials(direction, order):
    # the coefficient of d^a is (m!/a!) * prod(c_i^{a_i}), here on Fractions
    dim = len(direction)
    expected = {}
    for a in monomial_exponents(dim, order):
        scalar = Fraction(factorial(order), mi_factorial(a))
        for c, e in zip(direction, a):
            scalar *= c ** e
        expected[a] = Poly.constant(dim, scalar)
    assert directional_power(direction, order) == DiffOp(dim, order, expected)


# ---------------------------------------------------------------------------
# commutators

def test_commutator_golden():
    x, y = variables(2)
    ddx2 = DiffOp.single(2, (2, 0), Poly.one(2))
    assert commutator_with_form(ddx2, LinearForm([1, 0])) \
        == DiffOp.single(2, (1, 0), Poly.constant(2, 2))
    # bracketing against a variable missing from the derivative gives zero
    assert commutator_with_form(ddx2, LinearForm([0, 1])).is_zero()
    f = x * (x + y)
    fdx = DiffOp.single(2, (1, 0), f)
    bracket = commutator_with_form(fdx, LinearForm([1, 0]))
    assert bracket == DiffOp.single(2, (0, 0), f)


def test_commutator_of_order_zero_rejected():
    with pytest.raises(ValueError):
        commutator_with_form(DiffOp.identity(2), LinearForm([1, 0]))


@given(st.data())
@settings(max_examples=50)
def test_commutator_defining_identity(data):
    dim = data.draw(st.integers(1, 3))
    order = data.draw(st.integers(1, 2))
    op = data.draw(op_strategy(dim, order))
    coeffs = data.draw(st.tuples(*[st.integers(-2, 2)] * dim)
                       .filter(lambda c: any(c)))
    form = LinearForm(coeffs)
    f = data.draw(poly_strategy(dim))
    alpha = form.to_poly()
    lhs = commutator_with_form(op, form).apply(f)
    assert lhs == op.apply(alpha * f) - alpha * op.apply(f)


@given(st.data())
@settings(max_examples=80)
def test_weyl_relations_extensionally(data):
    dim = data.draw(st.integers(1, 3))
    i = data.draw(st.integers(0, dim - 1))
    f = data.draw(poly_strategy(dim))
    xi = Poly.variable(dim, i)
    ei = tuple(1 if j == i else 0 for j in range(dim))
    # d_i x_i = x_i d_i + 1 as endomorphisms
    assert (xi * f).partial_derivative(ei) == xi * f.partial_derivative(ei) + f


@given(st.data())
@settings(max_examples=40)
def test_apply_is_linear(data):
    dim = data.draw(st.integers(1, 2))
    order = data.draw(st.integers(1, 2))
    op = data.draw(op_strategy(dim, order))
    g = data.draw(poly_strategy(dim))
    f1 = data.draw(poly_strategy(dim))
    f2 = data.draw(poly_strategy(dim))
    scaled = g * op
    assert scaled.apply(f1) == g * op.apply(f1)
    assert op.apply(f1 + f2) == op.apply(f1) + op.apply(f2)


# ---------------------------------------------------------------------------
# coefficient matrices

def test_coefficient_matrix_golden():
    x, y = variables(2)
    theta_e = euler_operator(2, 2)
    theta_1 = DiffOp.single(2, (2, 0), x * (x + y))
    theta_2 = DiffOp.single(2, (0, 2), y * (x + y))
    matrix = coefficient_matrix([theta_e, theta_1, theta_2])
    # rows follow monomial_exponents(2, 2) == ((2, 0), (1, 1), (0, 2))
    zero = Poly.zero(2)
    assert matrix == (
        (x * x, x * (x + y), zero),
        (2 * x * y, zero, zero),
        (y * y, zero, y * (x + y)),
    )


def test_coefficient_matrix_one_by_one():
    (x,) = variables(1)
    matrix = coefficient_matrix([DiffOp.single(1, (3,), x)])
    assert matrix == ((x,),)


def test_coefficient_matrix_zero_column():
    ops = [euler_operator(2, 1), DiffOp(2, 1)]
    matrix = coefficient_matrix(ops)
    assert all(row[1].is_zero() for row in matrix)


def test_coefficient_matrix_counts():
    with pytest.raises(ValueError):
        coefficient_matrix([euler_operator(2, 2)])


@given(st.data())
@settings(max_examples=40)
def test_matrix_entries_reconstruct_operator(data):
    dim = data.draw(st.integers(1, 2))
    order = data.draw(st.integers(1, 2))
    op = data.draw(op_strategy(dim, order))
    rebuilt = DiffOp(dim, order)
    for a in monomial_exponents(dim, order):
        from arrdiff.qpoly import mi_factorial
        entry = op.apply(Poly.monomial(dim, a)) * Fraction(1, mi_factorial(a))
        rebuilt = rebuilt + DiffOp.single(dim, a, entry)
    assert rebuilt == op


# ---------------------------------------------------------------------------
# block structure and transport

def test_block_product():
    # (x+y) d_x in dim 2 times z d_z^2 in dim 1
    x, y = variables(2)
    op1 = DiffOp.single(2, (1, 0), x + y)
    op2 = DiffOp.single(1, (2,), Poly.variable(1, 0))
    x3, y3, z3 = variables(3)
    assert block_product([op1, op2]) == DiffOp.single(3, (1, 0, 2),
                                                      (x3 + y3) * z3)


def any_op():
    return st.tuples(st.integers(1, 2), st.integers(0, 2)).flatmap(
        lambda shape: op_strategy(*shape))


@given(any_op(), any_op(), any_op(), st.data())
@settings(max_examples=60, deadline=None)
def test_block_product_acts_blockwise_and_nests(a, b, c, data):
    # the product acts as a on its block after b on the other
    f = data.draw(poly_strategy(a.dim + b.dim, max_degree=3))
    first = block_product([a, DiffOp.identity(b.dim)])
    second = block_product([DiffOp.identity(a.dim), b])
    assert block_product([a, b]).apply(f) == first.apply(second.apply(f))
    assert (block_product([block_product([a, b]), c])
            == block_product([a, b, c]))


def linear_images(matrix):
    """The images x_i -> sum_j matrix[i][j] x_j, for substituter."""
    dim = len(matrix)
    return [sum((c * x for c, x in zip(row, variables(dim))), Poly.zero(dim))
            for row in matrix]


def test_change_variables_extensionally():
    rows = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    inverse = invert(rows)
    x, y = variables(2)
    op = DiffOp.single(2, (2, 0), x * y) + DiffOp.single(2, (1, 1), y * y)
    [moved] = change_variables([op], rows)
    for f in (x * x * y, (x + y) ** 3, x * x):
        # conjugation identity: moved(f) agrees with op acting upstairs
        upstairs = op.apply(substituter(2, linear_images(inverse))(f))
        assert moved.apply(f) == substituter(2, linear_images(rows))(upstairs)
    identity = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert change_variables([op], identity) == [op]
    assert change_variables([], rows) == []


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_change_variables_conjugates_random_operators(data):
    dim = data.draw(st.integers(1, 3))
    order = data.draw(st.integers(0, 2))
    ops = data.draw(st.lists(op_strategy(dim, order), min_size=1,
                             max_size=3))
    rows = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim,
                                       max_size=dim),
                              min_size=dim, max_size=dim))
    inverse = invert(rows)
    assume(inverse is not None)
    f = data.draw(poly_strategy(dim))
    moved = change_variables(ops, rows)
    assert len(moved) == len(ops)
    for op, image in zip(ops, moved):
        upstairs = op.apply(substituter(dim, linear_images(inverse))(f))
        assert image.apply(f) \
            == substituter(dim, linear_images(rows))(upstairs)


def reference_change_variables(ops, rows):
    """Term by term, on Fraction reference substitutions: every
    coefficient goes through the row forms, every symbol through the
    column forms of the inverse, and the image coefficient is multiplied
    by each Fraction coefficient of the image symbol."""
    dim = len(rows)
    row_images = [fraction_terms(g) for g in linear_images(rows)]
    column_images = [fraction_terms(g) for g in
                     linear_images([list(c) for c in zip(*invert(rows))])]
    moved = []
    for op in ops:
        terms = []
        for a, p in op.terms():
            coeff = Poly(dim, reference_substitute(fraction_terms(p),
                                                   row_images, dim))
            symbol = reference_substitute({a: Fraction(1)}, column_images,
                                          dim)
            terms += [(b, coeff * scalar) for b, scalar in symbol.items()]
        moved.append(DiffOp(dim, op.order, terms))
    return moved


def constant_op_strategy(dim: int, order: int):
    scalar = st.fractions(min_value=-3, max_value=3,
                          max_denominator=3).filter(bool)
    exponent = st.sampled_from(monomial_exponents(dim, order))
    return st.lists(st.tuples(exponent, scalar), min_size=1,
                    max_size=3).map(lambda ts: DiffOp(
                        dim, order, [(a, Poly.constant(dim, c))
                                     for a, c in ts]))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_change_variables_matches_term_by_term_reference(data):
    # sums of P * L with L a constant-coefficient operator: coefficients
    # repeat up to rational and negative scalars, and order 0 is drawn too
    dim = data.draw(st.integers(1, 3))
    order = data.draw(st.integers(0, 2))
    parts = data.draw(st.lists(poly_strategy(dim, max_degree=2),
                               min_size=1, max_size=3))
    ops = []
    for _ in range(data.draw(st.integers(1, 4))):
        op = DiffOp(dim, order)
        for _ in range(data.draw(st.integers(1, 2))):
            op = op + (data.draw(st.sampled_from(parts))
                       * data.draw(constant_op_strategy(dim, order)))
        ops.append(op)
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    rows = data.draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                              min_size=dim, max_size=dim))
    assume(invert(rows) is not None)
    moved = change_variables(ops, rows)
    expected = reference_change_variables(ops, rows)
    assert moved == expected
    assert [op.to_json() for op in moved] == [op.to_json() for op in expected]


def monic(p: Poly) -> Poly:
    """p over its leading coefficient: equal for p and its multiples."""
    return p * (1 / next(p.terms())[1])


@pytest.mark.parametrize("order", range(1, 8))
def test_change_variables_substitutes_each_primitive_part_once(monkeypatch,
                                                               order):
    # the first form is not a coordinate, so basis_rank_two changes
    # coordinates and the row and column forms differ
    arr = arrangement_from_json({"dim": 2, "forms": [
        "x+2y", "x", "y", "x+y", "x-y", "2x-3y"]})
    real_substituter, real_change = weyl.substituter, weyl.change_variables
    substituted = {}  # images -> the polynomials substituted by them
    transported = []

    def counting_substituter(dim, images):
        substitute = real_substituter(dim, images)
        calls = substituted.setdefault(tuple(images), [])

        def counted(p):
            calls.append(p)
            return substitute(p)
        return counted

    def recording_change(ops, rows):
        transported.append((ops, rows))
        return real_change(ops, rows)

    monkeypatch.setattr(weyl, "substituter", counting_substituter)
    monkeypatch.setattr(construct, "change_variables", recording_change)
    basis_rank_two(arr, order)
    [(ops, rows)] = transported
    coefficients = [p for op in ops for _, p in op.terms()]
    parts = {monic(p) for p in coefficients}
    by_rows = substituted[tuple(linear_images(rows))]
    assert len(by_rows) == len(parts)
    assert {monic(p) for p in by_rows} == parts


def test_operator_json_roundtrip():
    op = euler_operator(3, 2) + DiffOp.single(3, (1, 1, 0), variables(3)[2])
    assert diffop_from_json(op.to_json()) == op

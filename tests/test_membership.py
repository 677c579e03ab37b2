"""Membership criterion, its apply-based reference and brute-force oracle,
and the explicit Shi-2 members."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from arrdiff.arrangement import Arrangement, make_shi
from arrdiff.membership import (MembershipResult, MembershipWitness,
                                is_member, shi2_order2_members)
from arrdiff.qpoly import (LinearForm, Poly, mi_unit, monomial_exponents,
                           variables)
from arrdiff.weyl import DiffOp, euler_operator
from tests.reference import (GENERIC3, RANK2, arr_of, form_strategy,
                             is_member_bruteforce, poly_strategy,
                             random_operator_pool, reference_substitute)


def is_member_reference(op: DiffOp, arr: Arrangement) -> MembershipResult:
    """The grid criterion by applying the operator to alpha_H * x^b for
    every hyperplane H and every degree-(m-1) exponent b."""
    if op.dim != arr.dim:
        raise ValueError(f"dimension mismatch: {op.dim} vs {arr.dim}")
    if op.order == 0:
        return MembershipResult(True)
    for index, form in enumerate(arr.forms):
        alpha = form.to_poly()
        for b in monomial_exponents(arr.dim, op.order - 1):
            image = op.apply(alpha * Poly.monomial(arr.dim, b))
            if not form.divides(image):
                return MembershipResult(False, MembershipWitness(
                    index, form, b, image))
    return MembershipResult(True)


def test_euler_is_member_everywhere():
    for arr, order in ((RANK2, 2), (make_shi(2), 2), (RANK2, 1),
                       (GENERIC3, 3)):
        assert is_member(euler_operator(arr.dim, order), arr)


def test_displayed_rank2_membership_grid():
    x, y = variables(2)
    theta1 = DiffOp.single(2, (2, 0), x * (x + y))
    theta2 = DiffOp.single(2, (0, 2), y * (x + y))
    assert is_member(theta1, RANK2)
    assert is_member(theta2, RANK2)
    # the six explicit grid cells for theta1, hyperplane by hyperplane
    grid = {
        (0, (1, 0)): 2 * x * (x + y),  # alpha = x, image in xS
        (0, (0, 1)): Poly.zero(2),
        (1, (1, 0)): Poly.zero(2),     # alpha = y
        (1, (0, 1)): Poly.zero(2),
        (2, (1, 0)): 2 * x * (x + y),  # alpha = x+y, image in (x+y)S
        (2, (0, 1)): Poly.zero(2),
    }
    for (index, b), expected in grid.items():
        form = RANK2.forms[index]
        image = theta1.apply(form.to_poly() * Poly.monomial(2, b))
        assert image == expected
        assert form.divides(image)


def test_non_member_witness_is_first_cell():
    bare = DiffOp.single(2, (2, 0), Poly.one(2))
    result = is_member(bare, RANK2)
    assert not result
    witness = result.witness
    assert witness.hyperplane_index == 0
    assert witness.exponent == (1, 0)
    assert witness.image == Poly.constant(2, 2)


def test_order_zero_always_member():
    op = DiffOp(2, 0, {(0, 0): variables(2)[0]})
    assert is_member(op, RANK2)


def test_bruteforce_oracle_golden():
    assert is_member_bruteforce(euler_operator(2, 2), RANK2, 3)
    assert not is_member_bruteforce(DiffOp.single(2, (2, 0), Poly.one(2)),
                                    RANK2, 1)
    shi = make_shi(2)
    theta5 = shi2_order2_members()[5]
    assert is_member_bruteforce(theta5, shi, 2)


def test_shi2_explicit_members():
    shi = make_shi(2)
    ops = shi2_order2_members()
    assert len(ops) == 6
    assert [op.homogeneous_degree() for op in ops] == [2, 4, 4, 4, 4, 4]
    for op in ops:
        assert is_member(op, shi)
    x, y, z = variables(3)
    theta3 = ops[3]
    assert theta3 == DiffOp.single(3, (0, 0, 2),
                                   z * (x - z) * (y - z) * (x - y - z))
    theta4 = ops[4]
    assert theta4.coefficient((1, 1, 0)) == 2 * x * y * (x - z) * (y - z)


def test_q_times_symbols_are_members():
    for arr in (RANK2, arr_of(3, "x", "y", "x+y+z")):
        q = arr.defining_polynomial()
        for order in (1, 2):
            for a in monomial_exponents(arr.dim, order):
                assert is_member(DiffOp.single(arr.dim, a, q), arr)


def test_intersection_law():
    # membership in the whole arrangement is membership in each hyperplane
    rng = random.Random(5)
    ops = random_operator_pool(rng, RANK2, 2, 12)
    for op in ops:
        whole = bool(is_member(op, RANK2))
        per_hyperplane = all(
            bool(is_member(op, Arrangement(2, [form])))
            for form in RANK2.forms)
        assert whole == per_hyperplane


@st.composite
def arrangements_with_denominators(draw, dim):
    forms = draw(st.lists(form_strategy(dim), min_size=1, max_size=4))
    if draw(st.booleans()):
        forms.insert(0, LinearForm([2, 3] + [0] * (dim - 2)))
    return Arrangement(dim, dict.fromkeys(forms))


@st.composite
def operators_for(draw, arr, order):
    """Arbitrary operators (inhomogeneous, zero, repeated and cancelling
    coefficients), members built from Q d^a and Euler multiples, and
    members plus one stray term, which fail at varying hyperplanes."""
    dim = arr.dim
    omega = monomial_exponents(dim, order)
    coeff = poly_strategy(dim, max_degree=3, max_terms=3)
    kind = draw(st.sampled_from(["arbitrary", "member", "near-member"]))
    if kind == "arbitrary":
        entries = draw(st.lists(st.tuples(st.sampled_from(omega), coeff),
                                max_size=4))
        if entries and draw(st.booleans()):  # one polynomial twice
            entries.append((draw(st.sampled_from(omega)), entries[0][1]))
        if entries and draw(st.booleans()):  # cancels to a zero entry
            entries.append((entries[0][0], -entries[0][1]))
        return DiffOp(dim, order, entries)
    if order == 0:
        op = DiffOp(dim, 0, [(omega[0], draw(coeff))])
    else:
        q = arr.defining_polynomial()
        # Euler multiples are the members that need the exact (b_j + 1)
        generators = [euler_operator(dim, order)] * len(omega)
        generators += [DiffOp.single(dim, a, q) for a in omega]
        picks = draw(st.lists(st.sampled_from(generators), min_size=1,
                              max_size=2))
        op = DiffOp(dim, order)
        for gen in picks:
            factor = draw(poly_strategy(dim, max_degree=1, max_terms=2)
                          .filter(bool))
            op = op + factor * gen
    if kind == "near-member":
        # a stray term divisible by the first k forms fails at a later one
        stray = draw(coeff)
        for form in arr.forms[:draw(st.integers(0, len(arr) - 1))]:
            stray = stray * form.to_poly()
        op = op + DiffOp(dim, order, [(draw(st.sampled_from(omega)), stray)])
    return op


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_is_member_matches_reference(data):
    dim = data.draw(st.integers(2, 4))
    order = data.draw(st.integers(0, 3))
    arr = data.draw(arrangements_with_denominators(dim))
    op = data.draw(operators_for(arr, order))
    result = is_member(op, arr)
    expected = is_member_reference(op, arr)
    assert result.member == expected.member
    assert result.witness == expected.witness


def non_integral_forms(dim):
    """Forms of integer vectors whose normalized coefficients are not all
    integers (2x + 3y becomes x + 3/2 y)."""
    return (st.tuples(*[st.integers(-3, 3)] * dim).filter(any)
            .map(LinearForm)
            .filter(lambda form: any(c.denominator > 1
                                     for c in form.coefficients)))


def reference_first_failure(op: DiffOp, arr: Arrangement):
    """The first cell (hyperplane index, b) whose commutator coefficient
    g_b does not vanish when the pivot variable is replaced by minus the
    rest of the form, on Fractions; None when there is none."""
    dim = arr.dim
    for index, form in enumerate(arr.forms):
        pivot = form.pivot
        rest = {mi_unit(dim, j): -c for j, c in enumerate(form.coefficients)
                if j != pivot and c}
        images = [rest if j == pivot else {mi_unit(dim, j): Fraction(1)}
                  for j in range(dim)]
        for b in monomial_exponents(dim, op.order - 1):
            g: dict = {}
            for j, alpha in enumerate(form.coefficients):
                a = b[:j] + (b[j] + 1,) + b[j + 1:]
                for mu, c in op.coefficient(a).terms():
                    g[mu] = g.get(mu, Fraction(0)) + alpha * (b[j] + 1) * c
            if reference_substitute(g, images, dim):
                return index, b
    return None


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_integer_reduction_matches_fraction_substitution(data):
    # forms with denominators reduce on ints scaled by a power of D; the
    # verdict and the first failing cell must not see the scale
    dim = data.draw(st.integers(2, 3))
    order = data.draw(st.integers(1, 2))
    forms = data.draw(st.lists(non_integral_forms(dim), min_size=1,
                               max_size=4))
    arr = Arrangement(dim, dict.fromkeys(forms))
    op = data.draw(operators_for(arr, order))
    result = is_member(op, arr)
    failure = reference_first_failure(op, arr)
    assert result.member == (failure is None)
    if failure is not None:
        assert (result.witness.hyperplane_index,
                result.witness.exponent) == failure


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_is_member_invariant_under_rational_scaling(data):
    # the grid runs on the integer-scaled operator; the witness image is
    # still the image under the operator as given
    dim = data.draw(st.integers(2, 3))
    order = data.draw(st.integers(1, 3))
    arr = data.draw(arrangements_with_denominators(dim))
    op = data.draw(operators_for(arr, order))
    scalar = data.draw(st.fractions(min_value=-7, max_value=7,
                                    max_denominator=6).filter(bool))
    scaled = scalar * op
    result = is_member(scaled, arr)
    expected = is_member_reference(scaled, arr)
    assert result.member == expected.member == is_member(op, arr).member
    assert result.witness == expected.witness
    if result.witness is not None:
        assert all(type(c) is Fraction
                   for _, c in result.witness.image.terms())

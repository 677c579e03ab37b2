"""Closed-form bases, product bases, localization transport, certificates."""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product as iter_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrdiff.arrangement import (Arrangement, arrangement_from_json,
                                 flat_closure, localize, make_shi, product)
from arrdiff.construct import (basis_rank_two, find_flat_point,
                               localize_basis, product_basis,
                               shi2_nonfreeness_certificate)
from arrdiff.graded import FREE, NOT_FREE, decide_free
from arrdiff.linalg import nullspace_basis
from arrdiff.qpoly import Poly, monomial_exponents, variables
from arrdiff.saito import (SaitoVerdict, point_constant, saito_check,
                           saito_counts)
from arrdiff.weyl import DiffOp, block_product, embed, euler_operator


def arr_of(dim, *texts):
    return arrangement_from_json({"dim": dim, "forms": list(texts)})


def form_value(form, point):
    """The value of a linear form at a point, on Fractions."""
    return sum(c * v for c, v in zip(form.coefficients, point))


RANK2 = arr_of(2, "x", "y", "x+y")


# ---------------------------------------------------------------------------
# rank-2 family

def test_rank2_family_grid():
    for n, order in iter_product(range(2, 6), range(1, 6)):
        forms = [["1", "0"]] + [[str(a), "1"] for a in range(n - 1)]
        arr = arrangement_from_json({"dim": 2, "forms": forms})
        ops = basis_rank_two(arr, order)
        assert len(ops) == order + 1
        result = saito_check(ops, arr)
        assert result, (n, order)
        assert sum(op.homogeneous_degree() for op in ops) == order * n


def test_rank2_case_splits():
    # n=3, m=2 sits in the boundary case m = n - 1
    ops = basis_rank_two(RANK2, 2)
    assert sorted(op.homogeneous_degree() for op in ops) == [2, 2, 2]
    assert saito_check(ops, RANK2)

    boolean = arr_of(2, "x", "y")
    ops = basis_rank_two(boolean, 1)
    x, y = variables(2)
    assert set(ops) == {DiffOp.single(2, (1, 0), x),
                        DiffOp.single(2, (0, 1), y)}

    ops = basis_rank_two(boolean, 3)
    assert sorted(op.homogeneous_degree() for op in ops) == [1, 1, 2, 2]
    assert saito_check(ops, boolean)

    # n=5, m=2 exercises the Euler case m <= n - 2
    many = arr_of(2, "x", "y", "x+y", "x-y", "2x+y")
    ops = basis_rank_two(many, 2)
    assert saito_check(ops, many)
    assert euler_operator(2, 2) in ops


def test_rank2_handles_unnormalized_coordinates():
    arr = arr_of(2, "x+y", "x-y", "y", "2x+y")
    for order in (1, 2, 3):
        ops = basis_rank_two(arr, order)
        assert saito_check(ops, arr)
        assert point_constant(ops, arr)


def test_rank2_empty_arrangement():
    # no hyperplanes: the constant-coefficient symbols are a basis
    empty = Arrangement(2, ())
    for order in (1, 2, 3):
        ops = basis_rank_two(empty, order)
        assert saito_check(ops, empty)
        assert all(op.homogeneous_degree() == 0 for op in ops)


def test_rank2_rejects_bad_input():
    with pytest.raises(ValueError):
        basis_rank_two(arr_of(3, "x", "y", "z"), 2)
    with pytest.raises(ValueError):
        basis_rank_two(RANK2, 0)


# ---------------------------------------------------------------------------
# product bases

def line_bases(top):
    """Per-order bases for the empty 1-dimensional arrangement."""
    return [[DiffOp.identity(1)]] + [
        [DiffOp.single(1, (i,), Poly.one(1))] for i in range(1, top + 1)]


def rank2_bases(top):
    return [[DiffOp.identity(2)]] + [basis_rank_two(RANK2, i)
                                     for i in range(1, top + 1)]


def test_product_basis_golden_exponents():
    ops = product_basis([rank2_bases(2), line_bases(2)])
    combined = product(RANK2, Arrangement(1, ()))
    result = saito_check(ops, combined)
    assert result
    assert sorted(op.homogeneous_degree() for op in ops) == [0, 1, 2, 2, 2, 2]


def test_product_exponents_follow_union_rule():
    top = 2
    first = rank2_bases(top)
    second = line_bases(top)
    ops = product_basis([first, second])
    expected = sorted(
        theta.homogeneous_degree() + eta.homogeneous_degree()
        for i in range(top + 1)
        for theta in first[i] for eta in second[top - i])
    assert sorted(op.homogeneous_degree() for op in ops) == expected
    assert len(ops) == saito_counts(3, top)[0]


def test_product_basis_trivial_lines():
    ops = product_basis([line_bases(1), line_bases(1)])
    assert {str(op) for op in ops} == {"(1)*d1", "(1)*d2"}
    assert sorted(op.homogeneous_degree() for op in ops) == [0, 0]


def test_product_basis_validates_counts():
    bad = [[DiffOp.identity(2)], basis_rank_two(RANK2, 1)[:1]]
    with pytest.raises(ValueError):
        product_basis([bad, line_bases(1)])


def two_factor_product(first, second):
    """Per-order bases 0..m of a product of two factors: at order i, theta
    * eta for theta in first[j] and eta in second[i - j], j ascending."""
    dim_first = first[0][0].dim
    total = dim_first + second[0][0].dim
    return [[block_product(embed(theta, total, 0),
                           embed(eta, total, dim_first))
             for j in range(i + 1)
             for theta in first[j] for eta in second[i - j]]
            for i in range(len(first))]


@st.composite
def factor_bases(draw, top):
    """Per-order operator lists 0..top of the right sizes for a factor of
    dimension 1 or 2; the operators are arbitrary, so the order shows."""
    dim = draw(st.integers(1, 2))
    terms = st.tuples(st.sampled_from(monomial_exponents(dim, 0)
                                      + monomial_exponents(dim, 1)),
                      st.integers(-2, 2))
    bases = []
    for i in range(top + 1):
        exponents = monomial_exponents(dim, i)
        bases.append([DiffOp(dim, i, {
            a: Poly(dim, draw(st.lists(terms, min_size=1, max_size=2)))
            for a in draw(st.lists(st.sampled_from(exponents), min_size=1,
                                   max_size=2, unique=True))})
            for _ in exponents])
    return bases


@given(st.integers(0, 3).flatmap(
    lambda top: st.lists(factor_bases(top), min_size=2, max_size=4)))
@settings(max_examples=60, deadline=None)
def test_product_basis_equals_pairwise_fold(bases):
    assert product_basis(bases) == reduce(two_factor_product, bases)[-1]


def test_product_basis_needs_equal_orders():
    with pytest.raises(ValueError):
        product_basis([line_bases(1), line_bases(2)])
    for empty in ([], [[], []]):
        with pytest.raises(ValueError):
            product_basis(empty)


def test_product_freeness_equivalence():
    # a factor that is free only from order 2 on makes the product never free
    generic = arr_of(3, "x", "y", "z", "x+y+z")
    combined = product(RANK2, generic)
    for order in (1, 2):
        report = decide_free(combined, order)
        assert report.verdict == NOT_FREE
        per_order = all(decide_free(generic, i).verdict == FREE
                        for i in range(1, order + 1))
        assert not per_order
    # both factors free at all orders <= m makes the product free
    boolean = arr_of(2, "x", "y")
    combo = product(RANK2, boolean)
    report = decide_free(combo, 2)
    assert report.verdict == FREE
    assert saito_check(list(report.basis), combo)


def test_generic_times_anything_never_free():
    generic = arr_of(3, "x", "y", "z", "x+y+z")
    combined = product(generic, Arrangement(1, ()))
    for order in (1, 2):
        assert decide_free(combined, order).verdict == NOT_FREE
        assert decide_free(combined, order,
                           fast_filters=False).verdict == NOT_FREE


def test_shi3_localization_splits_into_shi2_and_a_line():
    from arrdiff.arrangement import decompose
    arr = make_shi(3)
    names = [str(f) for f in arr.forms]
    seed = [names.index("x4"), names.index("x1"), names.index("x2")]
    sub = localize(arr, flat_closure(arr, seed))
    dec = decompose(sub)
    assert len(dec.factors) == 2
    essential = dec.factors[0]
    assert (essential.dim, len(essential)) == (3, 7)
    assert dec.factors[1].dim == 1
    # the essential factor behaves exactly like the rank-3 coned Shi
    assert decide_free(essential, 1).verdict == FREE
    assert decide_free(essential, 2).verdict == NOT_FREE


def test_localizations_of_free_arrangements_stay_free():
    from itertools import combinations
    for arr, order in ((RANK2, 2), (make_shi(2), 1)):
        assert decide_free(arr, order).verdict == FREE
        seen = set()
        for size in range(0, 3):
            for seed in combinations(range(len(arr)), size):
                flat = flat_closure(arr, seed)
                if flat.generators in seen:
                    continue
                seen.add(flat.generators)
                sub = localize(arr, flat)
                assert decide_free(sub, order).verdict == FREE


# ---------------------------------------------------------------------------
# localization transport

def test_find_flat_point_avoids_other_hyperplanes():
    shi = make_shi(2)
    flat = flat_closure(shi, [1, 3])
    point = find_flat_point(shi, flat)
    sub = localize(shi, flat)
    for i, form in enumerate(shi.forms):
        value = form_value(form, point)
        if i in flat.generators:
            assert value == 0
        else:
            assert value != 0


def reference_flat_point(arr, flat):
    """The same search on Fractions: each integer combination of the
    flat's directions becomes a rational point, and each form outside the
    flat is evaluated there."""
    outside = [form for i, form in enumerate(arr.forms)
               if i not in flat.generators]
    directions = nullspace_basis([list(arr.forms[i].coefficients)
                                  for i in sorted(flat.generators)], arr.dim)
    for radius in range(51):
        for combo in iter_product(range(-radius, radius + 1),
                                  repeat=len(directions)):
            if max(map(abs, combo), default=0) != radius:
                continue
            point = [sum((Fraction(c * d.get(j, 0), d[max(d)])
                          for c, d in zip(combo, directions)), Fraction(0))
                     for j in range(arr.dim)]
            if all(form_value(form, point) for form in outside):
                return point
    return None


def sheared_b3(i, j, shear):
    """The type-B3 arrangement after x_j -> x_j + shear * x_i."""
    normals = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0),
               (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1)]
    forms = [[str(n[k] + (shear * n[j] if k == i else 0)) for k in range(3)]
             for n in normals]
    return arrangement_from_json({"dim": 3, "forms": forms})


@st.composite
def arrangement_and_flat(draw):
    if draw(st.booleans()):
        arr = make_shi(3)
    else:
        i, j = draw(st.permutations(range(3)))[:2]
        shear = draw(st.fractions(min_value=-2, max_value=2,
                                  max_denominator=3).filter(bool))
        arr = sheared_b3(i, j, shear)
    seed = draw(st.lists(st.integers(0, len(arr) - 1), min_size=1,
                         max_size=arr.dim - 1))
    return arr, flat_closure(arr, seed)


@given(arrangement_and_flat())
@settings(max_examples=40, deadline=None)
def test_find_flat_point_matches_fraction_reference(case):
    arr, flat = case
    point = find_flat_point(arr, flat)
    assert all(type(v) is Fraction for v in point)
    assert point == reference_flat_point(arr, flat)


def test_localize_basis_rank2_to_line():
    basis = list(decide_free(RANK2, 2).basis)
    flat = flat_closure(RANK2, [0])
    transported = localize_basis(basis, RANK2, flat)
    sub = localize(RANK2, flat)
    result = saito_check(transported, sub)
    assert result.verdict is SaitoVerdict.BASIS
    assert sum(op.homogeneous_degree() for op in transported) == 2


def test_localize_basis_to_whole_space():
    basis = list(decide_free(RANK2, 2).basis)
    flat = flat_closure(RANK2, [])
    transported = localize_basis(basis, RANK2, flat)
    assert all(op.homogeneous_degree() == 0 for op in transported)
    assert saito_check(transported, localize(RANK2, flat))


def test_localize_basis_shi2_order1():
    shi = make_shi(2)
    basis = list(decide_free(shi, 1).basis)
    flat = flat_closure(shi, [1, 3])  # rank-2 flat {x1, x2, x1 - x2}
    transported = localize_basis(basis, shi, flat)
    sub = localize(shi, flat)
    assert saito_check(transported, sub)
    assert sum(op.homogeneous_degree() for op in transported) == len(sub)


def test_localize_basis_requires_a_basis():
    bad = [euler_operator(2, 2), DiffOp.single(2, (2, 0), Poly.one(2)),
           DiffOp.single(2, (0, 2), Poly.one(2))]
    # the input is not checked again, but no unverified result comes out
    with pytest.raises(RuntimeError):
        localize_basis(bad, RANK2, flat_closure(RANK2, [0]))


def test_localize_basis_names_a_zero_operator():
    x, y = variables(2)
    ops = [euler_operator(2, 2), DiffOp.single(2, (2, 0), x * (x + y)),
           DiffOp(2, 2)]
    with pytest.raises(ValueError, match="operator 2 is zero"):
        localize_basis(ops, RANK2, flat_closure(RANK2, [0]))


# ---------------------------------------------------------------------------
# the bundled refutation

def test_shi2_certificate_consistent():
    cert = shi2_nonfreeness_certificate()
    assert cert.consistent
    assert all(cert.memberships)
    assert cert.determinant_matches
    assert cert.graded_dimensions == (0, 0, 1, 3)
    assert cert.euler_spans_degree_two
    assert cert.decision.verdict == NOT_FREE
    _, y, z = variables(3)
    quotient = cert.determinant
    q3 = make_shi(2).defining_polynomial() ** 3
    assert quotient in (4 * (y - z) * q3, -4 * (y - z) * q3)
    payload = cert.to_json()
    assert payload["consistent"] is True

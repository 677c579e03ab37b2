"""Graded pieces, minimal generators, and the freeness decision.

Graded dimensions are cross-checked against an independent oracle that
spans monomial candidate operators and evaluates the membership
constraints through the operator action, without the solver's indexing.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrdiff import graded
from arrdiff.arrangement import (Arrangement, Decomposition,
                                 arrangement_from_json, decompose,
                                 flat_closure, is_generic, localize,
                                 make_named, make_shi, product)
from arrdiff.graded import (FREE, NOT_FREE, UNDECIDED, GradedBasis,
                            _localization_filter, decide_free, decide_orders,
                            graded_dimension, operator_vector)
from arrdiff.linalg import RowBasis, nullspace_basis
from arrdiff.membership import is_member
from arrdiff.qpoly import (LinearForm, Poly, mi_add, mi_factorial, mi_unit,
                           monomial_exponents, term_order_key, variables)
from arrdiff.saito import (SaitoResult, SaitoVerdict, saito_check,
                          saito_counts)
from arrdiff.weyl import DiffOp, euler_operator
from tests.test_linalg import reference_nullspace


def arr_of(dim, *texts):
    return arrangement_from_json({"dim": dim, "forms": list(texts)})


RANK2 = arr_of(2, "x", "y", "x+y")
GENERIC3 = arr_of(3, "x", "y", "z", "x+y+z")
B3 = arr_of(3, "x", "y", "z", "x+y", "x-y", "x+z", "x-z", "y+z", "y-z")


def oracle_graded_dimension(arr, order, degree):
    """Independent path: monomial candidates, constraints via apply()."""
    dim = arr.dim
    candidates = [DiffOp.single(dim, a, Poly.monomial(dim, mu))
                  for a in monomial_exponents(dim, order)
                  for mu in monomial_exponents(dim, degree)]
    rows = []
    for form in arr.forms:
        alpha = form.to_poly()
        for b in monomial_exponents(dim, order - 1):
            probe = alpha * Poly.monomial(dim, b)
            images = [form.reduce(c.apply(probe)) for c in candidates]
            monomials = sorted({mu for img in images for mu, _ in img.terms()})
            for nu in monomials:
                rows.append([img.coefficient(nu) for img in images])
    return len(nullspace_basis(rows, len(candidates)))


def reference_graded_vectors(arr, order, degree):
    """The graded piece as coefficient vectors, by the direct construction.

    Reduces every monomial with ``form.reduce``, builds dense constraint
    rows and solves them with the dense Gauss-Jordan reference.
    """
    dim = arr.dim
    omega = monomial_exponents(dim, order)
    mons = monomial_exponents(dim, degree)
    ncols = len(omega) * len(mons)
    omega_index = {a: i for i, a in enumerate(omega)}
    rows = []
    for form in arr.forms:
        reduced = {mu: list(form.reduce(Poly.monomial(dim, mu)).terms())
                   for mu in mons}
        for b in monomial_exponents(dim, order - 1):
            cells = {}
            for j, c in enumerate(form.coefficients):
                if not c:
                    continue
                a = mi_add(b, mi_unit(dim, j))
                base = omega_index[a] * len(mons)
                for mi, mu in enumerate(mons):
                    for nu, rc in reduced[mu]:
                        cell = cells.setdefault(nu, [Fraction(0)] * ncols)
                        cell[base + mi] += c * mi_factorial(a) * rc
            rows += [cells[nu] for nu in sorted(cells, key=term_order_key,
                                                reverse=True)
                     if any(cells[nu])]
    return reference_nullspace(rows, ncols)


@st.composite
def small_arrangements(draw):
    """Up to 5 distinct forms in dim 2-3; their normalised coefficients
    have denominators whenever the first nonzero entry is not +-1.  About
    one vector in three is a scaled unit normal, a coordinate hyperplane,
    whose rows force columns to zero."""
    dim = draw(st.integers(2, 3))
    unit_normals = st.builds(
        lambda j, c: [c if i == j else 0 for i in range(dim)],
        st.integers(0, dim - 1), st.sampled_from([-3, -2, -1, 1, 2, 3]))
    dense = st.lists(st.integers(-3, 3), min_size=dim,
                     max_size=dim).filter(any)
    vectors = draw(st.lists(
        st.one_of(unit_normals, dense, dense), min_size=1, max_size=5))
    forms = list(dict.fromkeys(LinearForm(v) for v in vectors))
    return Arrangement(dim, forms)


@given(small_arrangements(), st.integers(0, 2), st.integers(0, 3))
@example(Arrangement(3, [LinearForm([2, 3, 0]), LinearForm([0, 5, 7]),
                         LinearForm([3, 0, 1])]), 2, 3)
@example(B3, 2, 3)
@example(arr_of(3, "x", "y", "z"), 2, 0)  # every column is forced to zero
@example(Arrangement(3, [LinearForm([0, 3, 0]), LinearForm([2, 3, 0]),
                         LinearForm([3, 0, 1])]), 2, 3)
@settings(max_examples=60, deadline=None)
def test_graded_dimension_matches_dense_reference(arr, order, degree):
    # the reference builds every form's rows through form.reduce, the
    # coordinate hyperplanes' unit rows among them
    piece = graded_dimension(arr, order, degree)
    assert [tuple(operator_vector(op, degree)) for op in piece.operators] \
        == reference_graded_vectors(arr, order, degree)


# ---------------------------------------------------------------------------
# graded dimensions

def test_shi2_graded_dimensions():
    shi = make_shi(2)
    dims = [graded_dimension(shi, 2, d).dimension for d in range(4)]
    assert dims == [0, 0, 1, 3]
    piece = graded_dimension(shi, 2, 2)
    span = RowBasis(len(operator_vector(piece.operators[0], 2)))
    for op in piece.operators:
        span.add(operator_vector(op, 2))
    assert span.contains(operator_vector(euler_operator(3, 2), 2))


def test_empty_arrangement_degree_zero():
    for dim, order in ((2, 2), (3, 1), (2, 3)):
        piece = graded_dimension(Arrangement(dim, ()), order, 0)
        assert piece.dimension == saito_counts(dim, order)[0]


def test_rank2_dimensions_match_free_resolution():
    # with basis degrees {2, 2, 2}: dim at degree d is 3 * dim S_{d-2}
    dims = [graded_dimension(RANK2, 2, d).dimension for d in (2, 3, 4)]
    assert dims == [3, 6, 9]


def test_graded_operators_are_members():
    for arr, order, degree in ((RANK2, 2, 3), (make_shi(2), 2, 3),
                               (GENERIC3, 1, 2)):
        piece = graded_dimension(arr, order, degree)
        for op in piece.operators:
            assert op.homogeneous_degree() == degree
            assert is_member(op, arr)
        if piece.dimension:
            span = RowBasis(len(operator_vector(piece.operators[0], degree)))
            for op in piece.operators:
                assert span.add(operator_vector(op, degree))


def test_graded_dimension_against_oracle():
    cases = [(RANK2, 2, d) for d in range(4)]
    cases += [(make_shi(2), 2, d) for d in range(4)]
    cases += [(GENERIC3, 1, d) for d in range(3)]
    cases += [(arr_of(2, "x", "y"), 1, d) for d in range(3)]
    for arr, order, degree in cases:
        assert graded_dimension(arr, order, degree).dimension \
            == oracle_graded_dimension(arr, order, degree)


def test_candidates_passing_membership_lie_in_span():
    arr = arr_of(2, "x", "y")
    order, degree = 1, 1
    piece = graded_dimension(arr, order, degree)
    ncols = len(operator_vector(piece.operators[0], degree))
    span = RowBasis(ncols)
    for op in piece.operators:
        span.add(operator_vector(op, degree))
    for a in monomial_exponents(2, order):
        for mu in monomial_exponents(2, degree):
            candidate = DiffOp.single(2, a, Poly.monomial(2, mu))
            if is_member(candidate, arr):
                assert span.contains(operator_vector(candidate, degree))


def test_euler_operator_in_its_graded_piece():
    for arr, order in ((RANK2, 2), (make_shi(2), 2), (GENERIC3, 2)):
        piece = graded_dimension(arr, order, order)
        euler = euler_operator(arr.dim, order)
        vec = operator_vector(euler, order)
        span = RowBasis(len(vec))
        for op in piece.operators:
            span.add(operator_vector(op, order))
        assert span.contains(vec)


# ---------------------------------------------------------------------------
# vanishing of the lowest graded pieces

def test_vanishing_checks_golden():
    # with every coordinate hyperplane present the degree-0 piece is zero;
    # at order >= 2 the degree-1 piece vanishes exactly when every variable
    # also appears in a non-coordinate hyperplane
    full = arr_of(3, "x", "y", "z", "x-y", "x-z", "y-z", "x-y-z")
    assert graded_dimension(full, 2, 0).dimension == 0
    assert graded_dimension(full, 2, 1).dimension == 0

    partial = arr_of(3, "x", "y", "z", "x-y")
    assert graded_dimension(partial, 2, 0).dimension == 0
    # the surviving degree-1 operator is z * d_z^m
    piece = graded_dimension(partial, 2, 1)
    assert piece.dimension >= 1
    z = variables(3)[2]
    survivor = DiffOp.single(3, (0, 0, 2), z)
    assert is_member(survivor, partial)
    assert survivor in piece.operators

    # without the hyperplane z = 0, d_z^2 survives in degree 0
    missing = arr_of(3, "x", "y", "x-y")
    constant = DiffOp.single(3, (0, 0, 2), Poly.one(3))
    assert constant in graded_dimension(missing, 2, 0).operators


def test_vanishing_checks_irreducible_consequence():
    # irreducible + coordinate hyperplanes: degrees 0 and 1 both vanish
    shi = make_shi(2)
    dec = decompose(shi)
    assert len(dec.factors) == 1 and dec.rank == shi.dim
    for order in (2, 3):
        assert graded_dimension(shi, order, 0).dimension == 0
        assert graded_dimension(shi, order, 1).dimension == 0


# ---------------------------------------------------------------------------
# minimal generators

Step = namedtuple("Step", "degree module_dimension new_count representatives")


def sweep_steps(arr, order, bound):
    """The generator sweep up to a degree bound, one Step per degree, with
    each degree's new generators built as operators."""
    return [Step(degree, dimension, len(new),
                 GradedBasis(arr.dim, order, degree, tuple(new)).operators)
            for degree, dimension, new
            in graded._generator_sweep(arr, order, bound)]


def test_minimal_generators_shi2():
    steps = sweep_steps(make_shi(2), 2, 4)
    counts = [(s.degree, s.new_count) for s in steps]
    assert counts == [(0, 0), (1, 0), (2, 1), (3, 0), (4, 6)]
    # five independent degree-4 members guarantee at least 5 new generators
    assert counts[4][1] >= 5


def test_minimal_generators_rank2():
    steps = sweep_steps(RANK2, 2, 4)
    assert [(s.degree, s.new_count) for s in steps] \
        == [(0, 0), (1, 0), (2, 3), (3, 0), (4, 0)]


def test_minimal_generators_empty():
    steps = sweep_steps(Arrangement(3, ()), 2, 0)
    assert steps[0].new_count == saito_counts(3, 2)[0]


def reference_generator_sweep(arr, order, bound):
    """The sweep with the span built from operators: each multiple
    x^mu * gen is a polynomial product flattened by operator_vector, over
    graded_dimension's operators.  Returns (degree, module dimension, new
    count, representatives) per degree."""
    dim = arr.dim
    found = []
    steps = []
    for degree in range(bound + 1):
        piece = graded_dimension(arr, order, degree)
        span = RowBasis(len(monomial_exponents(dim, order))
                        * len(monomial_exponents(dim, degree)))
        for gen_degree, gen in found:
            for mu in monomial_exponents(dim, degree - gen_degree):
                span.add(operator_vector(Poly.monomial(dim, mu) * gen,
                                         degree))
        new = tuple(op for op in piece.operators
                    if span.add(operator_vector(op, degree)))
        assert span.rank == piece.dimension
        found += [(degree, op) for op in new]
        steps.append((degree, piece.dimension, len(new), new))
    return steps


@given(st.one_of(small_arrangements(),
                 st.integers(2, 3).map(lambda dim: Arrangement(dim, ()))),
       st.integers(0, 2), st.integers(0, 4))
@example(Arrangement(3, [LinearForm([2, 3, 0]), LinearForm([0, 5, 7]),
                         LinearForm([3, 0, 1])]), 2, 4)
@example(Arrangement(2, ()), 2, 3)
@example(make_shi(3), 1, 4)
@settings(max_examples=60, deadline=None)
def test_sweep_matches_operator_span_reference(arr, order, bound):
    # the sweep shifts columns of integral generator vectors; the
    # reference multiplies operators by monomials
    steps = sweep_steps(arr, order, bound)
    assert [(s.degree, s.module_dimension, s.new_count, s.representatives)
            for s in steps] == reference_generator_sweep(arr, order, bound)


def test_generator_counts_do_not_depend_on_representatives():
    arr = make_shi(2)
    steps = sweep_steps(arr, 2, 4)
    # recompute the degree-4 count from dimensions only
    dim4 = graded_dimension(arr, 2, 4).dimension
    span = RowBasis(len(operator_vector(steps[4].representatives[0], 4)))
    for degree, op in [(s.degree, op) for s in steps if s.degree < 4
                       for op in s.representatives]:
        for mu in monomial_exponents(arr.dim, 4 - degree):
            span.add(operator_vector(Poly.monomial(arr.dim, mu) * op, 4))
    assert steps[4].new_count == dim4 - span.rank


# ---------------------------------------------------------------------------
# the decision procedure

def test_decide_rank2_free():
    report = decide_free(RANK2, 2)
    assert report.verdict == FREE
    assert report.exponents == (2, 2, 2)
    assert saito_check(list(report.basis), RANK2)


def test_decide_shi2_not_free_with_checkable_certificate():
    report = decide_free(make_shi(2), 2)
    assert report.verdict == NOT_FREE
    cert = report.certificate
    assert cert["kind"] == "generator_overflow"
    assert cert["cumulative_generators"] > cert["rank"] == 6
    # recheck the certificate numbers from scratch
    steps = sweep_steps(make_shi(2), 2, cert["degree"])
    assert sum(s.new_count for s in steps) == cert["cumulative_generators"]


def test_sweep_calls_nullspace_through_the_module_binding(monkeypatch):
    # the benchmark's tracer wraps graded.nullspace_basis where graded
    # binds it and sizes each call by len(rows), so the sweep must reach
    # the elimination through that binding with a list of rows
    calls = []
    real = graded.nullspace_basis

    def counting(rows, ncols):
        calls.append((type(rows), len(rows), ncols))
        return real(rows, ncols)

    monkeypatch.setattr(graded, "nullspace_basis", counting)
    report = decide_free(make_shi(2), 2)
    assert report.certificate["kind"] == "generator_overflow"
    assert len(calls) == len(report.degrees_examined)
    # the systems on the columns that x, y and z leave free, in degrees
    # 0..4; in degree 0 no column is left, so that system is empty
    assert calls == [(list, 0, 0), (list, 10, 3), (list, 22, 12),
                     (list, 34, 27), (list, 46, 48)]


def test_coordinate_hyperplanes_build_no_reduction_table(monkeypatch):
    # Shi-2 has seven forms, three of them the coordinate hyperplanes x, y
    # and z, which force columns to zero without a table or a row
    degrees = []
    real = LinearForm.table

    def counting(form, degree):
        degrees.append(degree)
        return real(form, degree)

    monkeypatch.setattr(LinearForm, "table", counting)
    report = decide_free(make_shi(2), 2)
    assert report.certificate["kind"] == "generator_overflow"
    assert Counter(degrees) == {d: 4 for d, _, _ in report.degrees_examined}


def test_sweep_builds_operators_only_for_a_candidate_basis(monkeypatch):
    # generators become operators only when their count reaches the rank:
    # none for Shi-2 at m=2 (an overflow at degree 4), the three basis
    # operators for Shi-2 at m=1
    calls = []
    real = graded._vector_to_operator

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(graded, "_vector_to_operator", counting)
    report = decide_free(make_shi(2), 2)
    assert report.certificate["kind"] == "generator_overflow"
    assert report.certificate["degree"] == 4
    assert calls == []
    report = decide_free(make_shi(2), 1)
    assert report.verdict == FREE and report.rank == 3
    assert len(calls) == 3


def test_shi2_order2_sweep_builds_no_fraction(monkeypatch):
    # the graded vectors are integral from the elimination to the span,
    # and a refutation builds no operator
    arr = make_shi(2)
    built = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    report = decide_free(arr, 2, fast_filters=False)
    monkeypatch.undo()
    assert report.certificate["kind"] == "generator_overflow"
    assert built == []


@pytest.mark.parametrize("fast_filters", [True, False])
def test_sweep_ends_by_degree_size_of_arrangement(fast_filters):
    # for m >= 1 the s operators Q * d^a with |a| = m are independent
    # members of degree |A|, and at m = 0 the constant lies in degree 0,
    # so every decision is reached by degree |A|, far below t * |A|
    for arr, order in ((RANK2, 1), (RANK2, 3), (make_shi(2), 1),
                       (make_shi(2), 2), (make_shi(2), 3), (GENERIC3, 0),
                       (GENERIC3, 1), (GENERIC3, 2), (make_shi(3), 1),
                       (B3, 2), (make_named("braid", 4), 2),
                       (Arrangement(2, ()), 2)):
        report = decide_free(arr, order, fast_filters=fast_filters)
        assert report.verdict in (FREE, NOT_FREE), (arr, order)
        assert all(degree <= len(arr)
                   for degree, _, _ in report.degrees_examined)
        assert all(e <= len(arr) for e in report.exponents or ())


def test_sweep_without_generators_by_the_bound_is_a_fault(monkeypatch):
    # the sweep always finds rank generators by degree |A|, so running out
    # of degrees short of them is a fault, not a refutation
    monkeypatch.setattr(graded, "graded_dimension",
                        lambda arr, order, degree:
                        GradedBasis(arr.dim, order, degree, ()))
    with pytest.raises(RuntimeError, match="generators"):
        decide_free(RANK2, 1, fast_filters=False)
    # below the complete bound the sweep stays inconclusive
    report = decide_free(RANK2, 1, max_degree=2, fast_filters=False)
    assert report.verdict == UNDECIDED


def test_sweep_rejects_a_multiple_outside_the_piece(monkeypatch):
    # Shi-2 at order 2: the multiples of the degree-2 generator span the
    # whole degree-3 piece, so a piece short of one vector misses some of
    # them; the span, built in the piece's own coordinates, cannot tell,
    # so the containment check must
    full = graded.graded_dimension

    def short(arr, order, degree):
        piece = full(arr, order, degree)
        if degree == 3:
            return GradedBasis(arr.dim, order, degree, piece.vectors[1:])
        return piece

    monkeypatch.setattr(graded, "graded_dimension", short)
    with pytest.raises(RuntimeError, match="degree 3"):
        decide_free(make_shi(2), 2, fast_filters=False)


@pytest.mark.parametrize("fast_filters", [True, False])
def test_decide_shi3_order2_degree_sum_mismatch(fast_filters):
    # rank = 10 generators by degree 6 whose degrees sum to 53, not
    # t * |A| = 4 * 13: refuted before any determinant
    report = decide_free(make_shi(3), 2, fast_filters=fast_filters)
    assert report.verdict == NOT_FREE
    assert report.certificate == {
        "kind": "degree_sum_mismatch",
        "degree": 6,
        "rank": 10,
        "generator_degrees": [2, 5, 5, 5, 6, 6, 6, 6, 6, 6],
        "degree_sum": 53,
        "expected_degree_sum": 52,
    }
    assert report.degrees_examined[-1] == (6, 53, 6)


def test_decide_generic_formula_cases():
    assert decide_free(GENERIC3, 1).verdict == NOT_FREE
    second = decide_free(GENERIC3, 2)
    assert second.verdict == FREE
    assert sum(second.exponents) == saito_counts(3, 2)[1] * 4
    # the sweep agrees without filters
    assert decide_free(GENERIC3, 1, fast_filters=False).verdict == NOT_FREE
    assert decide_free(GENERIC3, 2, fast_filters=False).verdict == FREE


def test_decide_empty_always_free():
    for dim, order in ((1, 1), (2, 2), (3, 2)):
        report = decide_free(Arrangement(dim, ()), order)
        assert report.verdict == FREE
        assert set(report.exponents) == {0}


def test_decide_free_verdicts_self_certify():
    for arr, order in ((RANK2, 1), (RANK2, 2), (make_shi(2), 1),
                       (arr_of(2, "x", "y"), 3)):
        report = decide_free(arr, order)
        assert report.verdict == FREE
        result = saito_check(list(report.basis), arr)
        assert result
        assert tuple(sorted(op.homogeneous_degree() for op in report.basis)) \
            == report.exponents
        assert sum(report.exponents) == report.det_exponent * len(arr)


def test_decide_undecided_below_complete_bound():
    report = decide_free(make_shi(2), 2, max_degree=1, fast_filters=False)
    assert report.verdict == UNDECIDED
    assert report.certificate["kind"] == "degree_bound_too_small"


def test_decide_shi2_order1_free():
    report = decide_free(make_shi(2), 1)
    assert report.verdict == FREE
    assert sum(report.exponents) == 7
    assert report.exponents == (1, 3, 3)


def test_decide_order_zero():
    report = decide_free(RANK2, 0)
    assert report.verdict == FREE
    assert report.exponents == (0,)


def test_decide_product_filter_matches_sweep():
    arr = arr_of(3, "x", "y", "x+y", "z")
    filtered = decide_free(arr, 2)
    swept = decide_free(arr, 2, fast_filters=False)
    assert filtered.verdict == swept.verdict == FREE
    assert filtered.exponents == swept.exponents == (1, 2, 2, 2, 2, 3)
    assert filtered.certificate.get("via") == "product-decomposition"


# (name, arrangement, order, exponents, JSON bytes, sha256 of the JSON) of
# decisions on the product route; the digest pins the basis operators and
# their order, which follows the factor order of the product construction
PRODUCT_ROUTE_GOLDEN = [
    ("boolean-3", make_named("boolean", 3), 2, (1, 1, 1, 2, 2, 2),
     839, "6b3cb56d7359dca31fe78dbec764236cdabacbf68586f94af37b79fd5cb9d15d"),
    ("x,y,x+y x line x line",
     product(product(RANK2, arr_of(1, "x")), arr_of(1, "x")), 2,
     (1, 1, 2, 2, 2, 2, 2, 2, 3, 3),
     1614, "405558942ac83840eb38a6b0dc3186cc56a8d362602bb68e258f7a2d14f2f90d"),
    ("Shi-2 x boolean-1", product(make_shi(2), make_named("boolean", 1)), 1,
     (1, 1, 3, 3),
     1120, "6fce79c3096b068e21fc754a0a2e06fee55c7a79552daaa09401fc0bcfb6889e"),
    ("braid-3 x boolean-2",
     product(arr_of(3, "x-y", "y-z", "x-z"), make_named("boolean", 2)), 3,
     (0,) + (1,) * 7 + (2,) * 14 + (3,) * 12 + (4,),
     16198, "dc52b112a070a42e7a41213b89fad3e42325073418a603ab4e59f96582584c54"),
]


@pytest.mark.parametrize("name, arr, order, exponents, size, digest",
                         PRODUCT_ROUTE_GOLDEN,
                         ids=[case[0] for case in PRODUCT_ROUTE_GOLDEN])
def test_decide_product_route_golden(name, arr, order, exponents, size,
                                     digest):
    report = decide_free(arr, order)
    assert report.verdict == FREE
    assert report.certificate["via"] == "product-decomposition"
    assert report.exponents == exponents
    text = json.dumps(report.to_json(), sort_keys=True)
    assert len(text) == size
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_decide_failing_product_check_raises(monkeypatch):
    # the product theorem makes the product basis a basis, so a failed
    # check is an error rather than a reason to fall back to the sweep
    target = product(RANK2, make_named("boolean", 1))
    real = graded.saito_check

    def failing(ops, arr):
        if arr is target:
            return SaitoResult(SaitoVerdict.NOT_PROPORTIONAL)
        return real(ops, arr)

    monkeypatch.setattr(graded, "saito_check", failing)
    with pytest.raises(RuntimeError, match="product basis"):
        decide_free(target, 2)


def test_decide_localization_filter_holm_q1():
    arr = make_named("holm-q1-counterexample")
    for order in (1, 2):
        report = decide_free(arr, order)
        assert report.verdict == NOT_FREE
        assert report.certificate["reason"] == "localization-not-free"


def test_holm_m_free_does_not_imply_next_order_free():
    # Shi-2 is 1-free but not 2-free, and free again from m = 3 on
    verdicts = [decide_free(make_shi(2), m).verdict for m in range(1, 6)]
    assert verdicts == [FREE, NOT_FREE, FREE, FREE, FREE]


def test_holm_free_product_never_m_free_from_two_on():
    # by the product theorem, a product is m-free only if its factors are
    # free at every order up to m, and Shi-2 fails at order 2
    arr = product(make_shi(2), Arrangement(1, ()))
    assert decide_free(arr, 1).verdict == FREE
    for m in range(2, 6):
        report = decide_free(arr, m)
        assert report.verdict == NOT_FREE
        assert report.certificate["reason"] == "product-factor-not-free"
        assert report.certificate["failing_order"] == 2


@st.composite
def plane_arrangements(draw):
    """One to four distinct lines in the plane."""
    vectors = draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=2, max_size=2).filter(any),
        min_size=1, max_size=4))
    return Arrangement(2, list(dict.fromkeys(LinearForm(v) for v in vectors)))


@given(plane_arrangements(),
       st.sampled_from([Arrangement(1, ()), arr_of(1, "x")]),
       st.sampled_from([1, 2]))
@example(RANK2, arr_of(2, "x", "y"), 1)
@settings(max_examples=40, deadline=None)
def test_product_theorem_matches_the_sweep(first, second, order):
    # a product is m-free exactly when every factor is k-free for every
    # k <= m, and its exponents are then the sums a + b of the factors'
    # order-i and order-j exponents over i + j = m (order 0 gives {0});
    # factors of rank at most 2 are free at every order, so the product
    # route answers
    arr = product(first, second)
    swept = decide_free(arr, order, fast_filters=False)
    routed = decide_free(arr, order)
    assert routed.certificate.get("via") == "product-decomposition"
    assert (swept.verdict, swept.exponents) \
        == (routed.verdict, routed.exponents)
    profiles = [decide_orders(factor, order) for factor in (first, second)]
    assert (swept.verdict == FREE) == all(map(all, profiles))
    first_exps, second_exps = ([(0,)] + [r.exponents for r in reports]
                               for reports in profiles)
    assert Counter(swept.exponents) == Counter(
        a + b for i in range(order + 1)
        for a in first_exps[i] for b in second_exps[order - i])


def reference_localization_filter(arr):
    """The localization rule by brute force: localize at every unseen
    proper flat closing a seed of at most three hyperplanes, in seed
    order, and refute at the first generic essential factor."""
    n = len(arr)
    seen = set()
    for size in (1, 2, 3):
        for seed in combinations(range(n), size):
            flat = flat_closure(arr, seed)
            if flat.generators in seen or len(flat.generators) == n:
                continue
            seen.add(flat.generators)
            sub = localize(arr, flat)
            for factor in decompose(sub).factors:
                if is_generic(factor):
                    return {
                        "kind": "fast_filter",
                        "reason": "localization-not-free",
                        "flat": sorted(flat.generators),
                        "flat_rank": flat.rank,
                        "localization_size": len(sub),
                        "detail": {
                            "rule": "product-factor-not-free",
                            "factor_forms": [str(f) for f in factor.forms],
                            "factor_dim": factor.dim,
                            "factor_size": len(factor),
                            "failing_order": 1,
                        },
                    }
    return None


def integer_vectors(arr):
    return [[int(c) for c in f.coefficients] for f in arr.forms]


def arrangement_of_vectors(vectors):
    return Arrangement(len(vectors[0]),
                       dict.fromkeys(LinearForm(v) for v in vectors))


@given(st.integers(3, 5).flatmap(lambda dim: st.lists(
    st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any),
    min_size=1, max_size=9)))
@example(integer_vectors(make_named("holm-q1")))
@example(integer_vectors(make_shi(3)))
@example(integer_vectors(GENERIC3))  # a whole arrangement is no localization
@example([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
          [1, 1, 0, 0], [0, 1, 1, 0], [1, 1, 1, 1]])
@settings(max_examples=100, deadline=None)
def test_localization_filter_matches_brute_force(vectors):
    """Only generic rank-3 localizations can refute, so the filter's
    certificate equals the one from localizing at every small flat."""
    arr = arrangement_of_vectors(vectors)
    assert _localization_filter(arr) == reference_localization_filter(arr)


def test_localization_filter_closes_no_flat_in_dimension_three(
        monkeypatch):
    # in dimension 3 the only rank-3 flat is the origin, which holds every
    # hyperplane, so the filter has nothing to close; the report is the
    # one pinned before the filter returned early
    calls = []
    real = graded.flat_closure

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(graded, "flat_closure", counting)
    report = decide_free(make_shi(2), 2)
    assert calls == []
    text = json.dumps(report.to_json(), sort_keys=True)
    assert len(text) == 407
    assert hashlib.sha256(text.encode()).hexdigest() \
        == "2fdf0ace67ff878725962eb53da5640340eedde20dfd7f4910e8c347e3e2aeb9"


def counting_calls(monkeypatch, name):
    """Wrap the graded module's binding of name; return the call list."""
    calls = []
    real = getattr(graded, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(graded, name, counting)
    return calls


def test_decide_orders_runs_the_filters_once_for_all_orders(monkeypatch):
    # the Shi-3 factor is decided at orders 1 and 2; its localization
    # search closes flats once, as many as deciding Shi-3 at order 1 alone
    calls = counting_calls(monkeypatch, "flat_closure")
    decide_free(make_shi(3), 1)
    assert len(calls) == 73
    calls.clear()
    report = decide_free(product(make_shi(3), make_named("empty", 1)), 2)
    assert report.verdict == NOT_FREE
    assert len(calls) == 73


def test_equal_factors_are_decided_once(monkeypatch):
    # boolean-4 is four copies of the one-dimensional factor {x = 0}
    calls = counting_calls(monkeypatch, "decide_orders")
    report = decide_free(make_named("boolean", 4), 2)
    assert report.verdict == FREE
    assert report.certificate["via"] == "product-decomposition"
    assert len(calls) == 1


@pytest.mark.parametrize("arr, order, expected", [
    (make_shi(2), 2, 0),
    (make_shi(3), 1, 0),
    (B3, 2, 0),
    # braid-3 splits off an empty line; its two factors do not split
    (make_named("braid", 3), 3, 1),
    # holm-q1 does not split; its localization certificate names the
    # factor of the refuting flat
    (make_named("holm-q1"), 1, 1),
])
def test_only_arrangements_that_split_are_decomposed(monkeypatch, arr,
                                                     order, expected):
    # every filtered decision decomposes, but the factors and the
    # coordinate change are built on first read, which the product filter
    # does only for an arrangement that splits
    built = Decomposition.__dict__["_built"]
    builds = []
    real = built.func

    def counting(dec):
        builds.append(dec)
        return real(dec)

    monkeypatch.setattr(built, "func", counting)
    decide_free(arr, order)
    assert len(builds) == expected


def random_forms(dim, max_size):
    return st.lists(st.lists(st.integers(-1, 1), min_size=dim,
                             max_size=dim).filter(any),
                    min_size=1, max_size=max_size)


def assert_filters_match_sweep(vectors, order):
    arr = arrangement_of_vectors(vectors)
    filtered = decide_free(arr, order)
    swept = decide_free(arr, order, fast_filters=False)
    assert filtered.verdict == swept.verdict
    if swept.verdict == FREE:
        assert filtered.exponents == swept.exponents


@given(random_forms(3, 6), st.integers(1, 2))
@settings(max_examples=90, deadline=None)
def test_fast_filters_match_sweep_dim3(vectors, order):
    assert_filters_match_sweep(vectors, order)


# four generic planes of the rank-3 subspace x4 = 0, so that the
# localization at their flat refutes unless a further form breaks it
@given(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3)
                .filter(any), min_size=4, max_size=4)
       .filter(lambda rows: is_generic(arrangement_of_vectors(rows))),
       random_forms(4, 3))
@example([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
         [[0, 0, 0, 1], [1, 1, 1, 1]])
@settings(max_examples=90, deadline=None)
def test_fast_filters_match_sweep_dim4(planes, vectors):
    assert_filters_match_sweep([p + [0] for p in planes] + vectors, 1)


def test_decide_braid4_order2_free():
    report = decide_free(make_named("braid", 4), 2)
    assert report.verdict == FREE
    assert report.exponents == (0, 1, 2, 2, 3, 3, 3, 3, 3, 4)


def test_decide_hidden_product_order2_free():
    # x, y, x+y times the boolean arrangement on (x2, x3), then the
    # coordinate changes x1 -> x1 + x2 and x3 -> x3 + x0 hide the product
    arr = arr_of(4, ["1", "0", "0", "0"], ["0", "1", "1", "0"],
                 ["1", "1", "1", "0"], ["0", "0", "1", "0"],
                 ["1", "0", "0", "1"])
    report = decide_free(arr, 2)
    assert report.verdict == FREE
    assert report.exponents == (1, 1, 2, 2, 2, 2, 2, 2, 3, 3)


def test_decide_shi2_invariant_under_rescaling():
    # x1 -> 2 x1, x2 -> 3 x2: the normalised forms get denominators
    scaled = Arrangement(3, [LinearForm([2 * c[0], 3 * c[1], c[2]])
                             for c in (f.coefficients
                                       for f in make_shi(2).forms)])
    assert any(c.denominator > 1 for f in scaled.forms
               for c in f.coefficients)
    for order in (2, 3):
        plain, rescaled = decide_free(make_shi(2), order), \
            decide_free(scaled, order)
        assert (rescaled.verdict, rescaled.exponents,
                rescaled.degrees_examined) \
            == (plain.verdict, plain.exponents, plain.degrees_examined)


def test_decisions_do_not_depend_on_powers_kept_by_the_forms():
    # each form keeps the powers its reductions ask for; a decision on
    # forms already used at other orders and degrees, and shared with a
    # localization, must equal one on a freshly parsed copy
    data = Arrangement(3, [LinearForm([2 * c[0], 3 * c[1], c[2]])
                           for c in (f.coefficients
                                     for f in make_shi(2).forms)]).to_json()
    warm = arrangement_from_json(data)
    sub = localize(warm, flat_closure(warm, [0, 1]))
    for order, degree in ((4, 2), (1, 7), (2, 5)):
        graded_dimension(warm, order, degree)
    decide_free(sub, 3)
    is_member(euler_operator(3, 2), warm)
    for order in (1, 2, 3):
        assert decide_free(warm, order).to_json() \
            == decide_free(arrangement_from_json(data), order).to_json()

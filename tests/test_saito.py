"""Determinant machinery and the basis criterion."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import count
from math import prod
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrdiff import saito
from arrdiff.arrangement import Arrangement, arrangement_from_json, make_shi
from arrdiff.construct import basis_rank_two
from arrdiff.graded import decide_free
from arrdiff.linalg import determinant
from arrdiff.membership import shi2_order2_members
from arrdiff.qpoly import (LinearForm, Poly, exact_divide, mi_unit,
                           monomial_exponents, variables)
from arrdiff.saito import (SaitoResult, SaitoVerdict, det_poly, point_constant,
                           saito_check, saito_counts)
from arrdiff.weyl import (DiffOp, change_variables, coefficient_matrix,
                          euler_operator)
from tests.reference import (GENERIC3, RANK2, arr_of, cofactor_det,
                             count_fractions, form_value, fraction_det,
                             mixed_order_tuples, random_poly, row_times)


def rank2_triple():
    x, y = variables(2)
    return [euler_operator(2, 2),
            DiffOp.single(2, (2, 0), x * (x + y)),
            DiffOp.single(2, (0, 2), y * (x + y))]


def test_saito_counts():
    assert saito_counts(2, 2) == (3, 2)
    assert saito_counts(3, 2) == (6, 3)
    for ell in range(1, 6):
        assert saito_counts(ell, 1) == (ell, 1)
    assert saito_counts(3, 0) == (1, 0)
    # the determinant exponent at order m is the rank at order m-1
    for ell in range(1, 5):
        for order in range(1, 5):
            assert saito_counts(ell, order)[1] == saito_counts(ell, order - 1)[0]


def test_det_repeated_column_vanishes():
    x, y = variables(2)
    theta = DiffOp.single(2, (2, 0), x * (x + y))
    det = det_poly(coefficient_matrix([euler_operator(2, 2), theta, theta]))
    assert det.is_zero()


def test_det_row_order_flips_only_sign():
    matrix = coefficient_matrix(rank2_triple())
    rows = [list(r) for r in matrix]
    base = det_poly(rows)
    swapped = [rows[1], rows[0], rows[2]]
    assert det_poly(swapped) == -base
    rotated = [rows[1], rows[2], rows[0]]  # even permutation
    assert det_poly(rotated) == base


def test_det_multilinear_and_alternating_random():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(2, 3)
        rows = [[random_poly(rng, 2, rng.randint(0, 2), terms=2)
                 for _ in range(n)] for _ in range(n)]
        base = det_poly([list(r) for r in rows])
        scale = Fraction(rng.randint(2, 5))
        scaled = [list(r) for r in rows]
        scaled[0] = [scale * p for p in scaled[0]]
        assert det_poly(scaled) == scale * base
        doubled = [list(r) for r in rows]
        doubled[1] = doubled[0]
        assert det_poly(doubled).is_zero()


def test_bareiss_matches_cofactor_on_larger_matrices():
    rng = random.Random(17)
    for n in range(1, 6):
        for _ in range(4):
            rows = [[random_poly(rng, 2, rng.randint(0, 1), terms=2)
                     for _ in range(n)] for _ in range(n)]
            for k in range(n - 1):  # zero pivots force row swaps
                if rng.random() < 0.4:
                    rows[k][k] = Poly.zero(2)
            assert det_poly([list(r) for r in rows]) == cofactor_det(rows)


def small_poly(rng, dim):
    """A nonzero polynomial of degree at most 1 with one or two terms."""
    while True:
        p = random_poly(rng, dim, rng.randint(0, 1), terms=rng.randint(1, 2))
        if p:
            return p


def sparse_matrix(shape, n, dim, density, rng):
    """An n x n polynomial matrix: "dense" at the given density, with
    zero and lone-entry "lines", a "permutation" matrix, a "triangular"
    one, or a dense "block" that is left after peeling."""
    zero = Poly.zero(dim)

    def entry():
        return small_poly(rng, dim) if rng.random() < density else zero

    if shape == "permutation":
        perm = rng.sample(range(n), n)
        return [[small_poly(rng, dim) if j == perm[i] else zero
                 for j in range(n)] for i in range(n)]
    if shape == "triangular":
        rows = [[small_poly(rng, dim) if i == j else
                 entry() if i < j else zero for j in range(n)]
                for i in range(n)]
        return rows if rng.random() < 0.5 else [list(c) for c in zip(*rows)]
    rows = [[entry() for _ in range(n)] for _ in range(n)]
    if shape == "lines":  # zero lines and lone entries at random positions
        for _ in range(rng.randint(1, n)):
            k, keep = rng.randrange(n), rng.randrange(n)
            lone = small_poly(rng, dim) if rng.random() < 0.7 else zero
            line = [lone if other == keep else zero for other in range(n)]
            if rng.random() < 0.5:
                rows[k] = line
            else:
                for row, value in zip(rows, line):
                    row[k] = value
    elif shape == "block":  # a dense k x k block on an upper triangle
        k = rng.randint(min(2, n), n)
        rows = [[small_poly(rng, dim) if i < k and j < k or i == j else
                 entry() if i < j else zero for j in range(n)]
                for i in range(n)]
        rows = rng.sample(rows, n)
        order = rng.sample(range(n), n)
        rows = [[row[j] for j in order] for row in rows]
    return rows


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_sparse_det_matches_cofactor(data):
    # peeling lines with at most one nonzero entry, then Bareiss on what
    # is left, against Laplace expansion; permutation and triangular
    # matrices peel completely, so Bareiss divides nothing
    dim = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 6))
    shape = data.draw(st.sampled_from(
        ["dense", "lines", "permutation", "triangular", "block"]))
    density = data.draw(st.sampled_from([0, 0.2, 0.5, 0.8, 1]))
    rng = data.draw(st.randoms(use_true_random=False))
    rows = sparse_matrix(shape, n, dim, density, rng)
    with mock.patch.object(saito, "exact_divide",
                           wraps=exact_divide) as divide:
        det = det_poly(rows)
    assert det == cofactor_det(rows)
    if shape in ("permutation", "triangular"):
        assert divide.call_count == 0
    if n >= 2:
        i, j = rng.sample(range(n), 2)
        swapped = [list(r) for r in rows]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert det_poly(swapped) == -det
        swapped = [list(r) for r in rows]
        for r in swapped:
            r[i], r[j] = r[j], r[i]
        assert det_poly(swapped) == -det


def divisions(monkeypatch):
    """Record the divisor of every exact division made in saito."""
    divisors = []

    def counted(p, q):
        divisors.append(q)
        return exact_divide(p, q)

    monkeypatch.setattr(saito, "exact_divide", counted)
    return divisors


def test_det_poly_peels_the_shi2_members(monkeypatch):
    # the six members peel down to a 2 x 2 block (55 divisions unpeeled)
    divisors = divisions(monkeypatch)
    det_poly(coefficient_matrix(shi2_order2_members()))
    assert len(divisors) <= 2


def test_diagonal_tuple_peels_completely(monkeypatch):
    # Q d_x, Q d_y, Q d_z: det = Q^3, and the only division is by Q^t
    arr = make_shi(2)
    q = arr.defining_polynomial()
    ops = [DiffOp.single(3, mi_unit(3, i), q) for i in range(3)]
    divisors = divisions(monkeypatch)
    result = saito_check(ops, arr)
    assert result.verdict is SaitoVerdict.NOT_PROPORTIONAL
    assert result.det_over_qt == q ** 2
    assert divisors == [q]


def test_inhomogeneous_tuple_can_be_a_basis():
    # theta_i + x * theta_j of the Shi-2 m=1 basis (degrees 3 and 1) is
    # inhomogeneous, so the symbolic route certifies the tuple
    arr = make_shi(2)
    ops = list(decide_free(arr, 1).basis)
    degrees = [op.homogeneous_degree() for op in ops]
    i, j = degrees.index(3), degrees.index(1)
    ops[i] = ops[i] + variables(3)[0] * ops[j]
    assert ops[i].homogeneous_degree() is None
    assert point_constant(ops, arr) is None
    result = saito_check(ops, arr)
    assert result.verdict is SaitoVerdict.BASIS and result.constant == 2


def test_saito_check_golden():
    result = saito_check(rank2_triple(), RANK2)
    assert result.verdict is SaitoVerdict.BASIS
    assert abs(result.constant) == 2


def test_point_certificate_expands_qt_only_when_read(monkeypatch):
    expansions = []
    original = Arrangement.defining_polynomial

    def counted(self):
        expansions.append(self)
        return original(self)

    monkeypatch.setattr(Arrangement, "defining_polynomial", counted)
    result = saito_check(rank2_triple(), RANK2)
    assert result.verdict is SaitoVerdict.BASIS and not expansions
    q2 = original(RANK2) ** 2
    assert result.determinant == result.constant * q2
    assert result.to_json()["determinant"] == (result.constant * q2).to_json()
    assert len(expansions) == 1


def test_saito_check_shi2_not_proportional():
    shi = make_shi(2)
    result = saito_check(shi2_order2_members(), shi)
    assert result.verdict is SaitoVerdict.NOT_PROPORTIONAL
    _, y, z = variables(3)
    assert result.det_over_qt in (4 * (y - z), -4 * (y - z))


def test_saito_check_one_dimensional():
    arr = arr_of(1, "x1")
    for order in (1, 2, 3):
        op = DiffOp.single(1, (order,), Poly.variable(1, 0))
        result = saito_check([op], arr)
        assert result.verdict is SaitoVerdict.BASIS
        assert abs(result.constant) == 1


def test_saito_check_rejects_non_members():
    bad = [euler_operator(2, 2), DiffOp.single(2, (2, 0), Poly.one(2)),
           DiffOp.single(2, (0, 2), Poly.one(2))]
    result = saito_check(bad, RANK2)
    assert result.verdict is SaitoVerdict.NOT_MEMBERS
    assert result.failing_operator == 1
    assert not result


def test_saito_check_wrong_count():
    with pytest.raises(ValueError):
        saito_check(rank2_triple()[:2], RANK2)


def test_saito_check_rejects_mixed_orders_before_membership():
    for ops in mixed_order_tuples():
        with pytest.raises(ValueError, match="share dimension and order"):
            saito_check(ops, RANK2)


def test_point_constant_golden():
    assert abs(point_constant(rank2_triple(), RANK2)) == 2
    shi = make_shi(2)
    # degrees 2+4+4+4+4+4 = 22 != 21 = t * |A|
    assert point_constant(shi2_order2_members(), shi) is None
    empty = Arrangement(2, ())
    symbols = [DiffOp.single(2, a, Poly.one(2))
               for a in ((2, 0), (1, 1), (0, 2))]
    assert point_constant(symbols, empty) == 1
    # a dependent degree-matched tuple has constant 0
    theta = rank2_triple()[1]
    assert point_constant([euler_operator(2, 2), theta, theta], RANK2) == 0


def test_point_constant_off_the_degree_form():
    x, y = variables(2)
    _, theta_1, theta_2 = rank2_triple()
    mixed = DiffOp.single(2, (2, 0), x + x * y)
    assert point_constant([mixed, theta_1, theta_2], RANK2) is None
    assert point_constant([DiffOp(2, 2), theta_1, theta_2], RANK2) \
        is None
    with pytest.raises(ValueError):
        point_constant([], RANK2)
    with pytest.raises(ValueError):
        point_constant([theta_1, theta_2], RANK2)
    with pytest.raises(ValueError):
        point_constant([euler_operator(2, 1), theta_1, theta_2], RANK2)


def reference_point_constant(ops, arr):
    """det M(p) / Q(p)^t on Fractions, at the first point (1, s, s^2, ...)
    off every hyperplane."""
    order = ops[0].order
    _, exponent = saito_counts(arr.dim, order)
    for s in count(1):
        point = [Fraction(s) ** i for i in range(arr.dim)]
        values = [form_value(form, point) for form in arr.forms]
        if all(values):
            break
    matrix = [[sum((c * prod(v ** e for v, e in zip(point, mu))
                    for mu, c in op.coefficient(a).terms()), Fraction(0))
               for op in ops] for a in monomial_exponents(arr.dim, order)]
    return fraction_det(matrix) / prod(values) ** exponent


def split(data, total, parts):
    """A random list of parts nonnegative ints summing to total."""
    cuts = sorted(data.draw(st.lists(st.integers(0, total),
                                     min_size=parts - 1, max_size=parts - 1)))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_point_constant_matches_fraction_reference(data):
    # degree-matched tuples, members or not, of operators with rational
    # coefficients for forms with rational coefficients; a dependent
    # tuple has constant 0
    dim = data.draw(st.integers(1, 3))
    order = data.draw(st.integers(1, 2))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    forms = data.draw(st.lists(st.tuples(*[coeff] * dim).filter(any),
                               min_size=1, max_size=3))
    arr = Arrangement(dim, dict.fromkeys(map(LinearForm, forms)))
    rank, exponent = saito_counts(dim, order)
    total = exponent * len(arr)
    dependent = rank >= 3 and data.draw(st.booleans())
    if dependent:  # the first and last operators get one degree
        first = data.draw(st.integers(0, total // 2))
        degrees = [first] + split(data, total - 2 * first, rank - 2) \
            + [first]
    else:
        degrees = split(data, total, rank)
    ops = []
    for degree in degrees:
        terms = data.draw(st.dictionaries(
            st.tuples(st.sampled_from(monomial_exponents(dim, order)),
                      st.sampled_from(monomial_exponents(dim, degree))),
            coeff.filter(bool), min_size=1, max_size=4))
        coefficients = {}
        for (a, mu), c in terms.items():
            coefficients.setdefault(a, {})[mu] = c
        ops.append(DiffOp(dim, order, {a: Poly(dim, p)
                                       for a, p in coefficients.items()}))
    if dependent:
        ops[-1] = Fraction(-2, 3) * ops[0]
    constant = point_constant(ops, arr)
    assert type(constant) is Fraction
    assert constant == reference_point_constant(ops, arr)
    if dependent:
        assert constant == 0


def test_point_constant_builds_few_fractions(monkeypatch):
    # the point check evaluates on integers: besides the constant, only
    # the determinant builds Fractions, a few per row
    arr = make_shi(2)
    basis = list(decide_free(arr, 3).basis)
    rank, _ = saito_counts(arr.dim, 3)
    built = count_fractions(monkeypatch)
    constant = point_constant(basis, arr)
    monkeypatch.undo()
    assert constant == reference_point_constant(basis, arr) == 162
    assert 0 < len(built) <= 3 * rank


def test_basis_implies_degree_sum():
    # one direction of the degree criterion, on a verified basis
    result = saito_check(rank2_triple(), RANK2)
    assert result and point_constant(rank2_triple(), RANK2) == result.constant


# ---------------------------------------------------------------------------
# the point certificate against the symbolic determinant

def symbolic_saito(ops, arr):
    """The criterion by expanding det M and dividing it exactly by Q^t."""
    _, exponent = saito_counts(arr.dim, ops[0].order)
    det = det_poly(coefficient_matrix(ops))
    quotient = exact_divide(det, arr.defining_polynomial() ** exponent)
    constant = None if quotient is None else quotient.constant_value()
    if constant:
        return SaitoResult(SaitoVerdict.BASIS, constant=constant,
                           determinant=det, det_over_qt=quotient)
    return SaitoResult(SaitoVerdict.NOT_PROPORTIONAL, determinant=det,
                       det_over_qt=quotient)


def golden_bases():
    yield rank2_triple(), RANK2
    for order in (1, 2, 3):
        yield [DiffOp.single(1, (order,), Poly.variable(1, 0))], \
            arr_of(1, "x1")
    yield ([DiffOp.single(2, a, Poly.one(2))
            for a in ((2, 0), (1, 1), (0, 2))], Arrangement(2, ()))
    for arr, order in ((RANK2, 0), (RANK2, 1), (RANK2, 2),
                       (arr_of(2, "x", "y"), 3), (make_shi(2), 1),
                       (GENERIC3, 2)):
        yield list(decide_free(arr, order).basis), arr


def test_point_certificate_matches_symbolic_on_golden_bases():
    for ops, arr in golden_bases():
        assert point_constant(ops, arr) is not None
        result = saito_check(ops, arr)
        assert result.verdict is SaitoVerdict.BASIS
        assert result.to_json() == symbolic_saito(ops, arr).to_json()
    # the refutation takes the symbolic route and shows det / Q^t
    shi = make_shi(2)
    members = shi2_order2_members()
    assert point_constant(members, shi) is None
    assert saito_check(members, shi).to_json() \
        == symbolic_saito(members, shi).to_json()


LINES = [(0, 1)] + [(1, s) for s in range(-3, 4)] + [(2, -1), (2, 3), (3, 1)]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_point_certificate_matches_symbolic_on_random_bases(data):
    forms = data.draw(st.lists(st.sampled_from(LINES), min_size=1,
                               max_size=5, unique=True))
    order = data.draw(st.integers(1, 4))
    change = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=2,
                                         max_size=2), min_size=2, max_size=2))
    change = [[Fraction(c) for c in row] for row in change]
    assume(determinant(change) != 0)
    ops = basis_rank_two(arrangement_from_json(
        {"dim": 2, "forms": [[str(c) for c in form] for form in forms]}),
        order)
    # y = R x turns the line a.y = 0 into (a R).x = 0
    arr = arrangement_from_json({"dim": 2, "forms": [
        [str(c) for c in row_times(form, change)]
        for form in forms]})
    ops = change_variables(ops, change)

    variant = data.draw(st.sampled_from(["basis", "duplicate", "times-form",
                                         "combined"]))
    i = data.draw(st.integers(0, len(ops) - 1))
    j = data.draw(st.integers(0, len(ops) - 2))
    j += j >= i  # a second index, different from i
    if variant == "duplicate":
        ops[j] = ops[i]
    elif variant == "times-form":
        ops[i] = arr.forms[0].to_poly() * ops[i]
    elif variant == "combined":
        ops[i] = ops[i] + ops[j]

    result = saito_check(ops, arr)
    assert result.to_json() == symbolic_saito(ops, arr).to_json()
    if variant == "basis":
        assert point_constant(ops, arr) is not None
        assert result.verdict is SaitoVerdict.BASIS
    elif variant == "duplicate":
        assert result.verdict is SaitoVerdict.NOT_PROPORTIONAL
        assert result.determinant.is_zero() and result.det_over_qt.is_zero()
    elif variant == "times-form":
        assert result.verdict is SaitoVerdict.NOT_PROPORTIONAL

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Everything is exact; the only tolerances are wall-clock budgets.
"""

from __future__ import annotations

import random
import time

from arrdiff.arrangement import (Arrangement, arrangement_from_json,
                                 make_named, make_shi, product)
from arrdiff.construct import basis_rank_two, product_basis
from arrdiff.graded import (FREE, NOT_FREE, decide_free, graded_dimension,
                            operator_vector)
from arrdiff.linalg import RowBasis
from arrdiff.membership import is_member, shi2_order2_members
from arrdiff.qpoly import LinearForm, Poly, exact_divide, variables
from arrdiff.saito import det_poly, saito_check, saito_counts
from arrdiff.weyl import DiffOp, coefficient_matrix, euler_operator
from tests.test_graded import sweep_steps
from tests.test_membership import (_random_member_pool,
                                   _random_operator_pool,
                                   is_member_bruteforce, random_poly)
from tests.weyl_reference import commutator_with_form


def arr_of(dim, *texts):
    return arrangement_from_json({"dim": dim, "forms": list(texts)})


RANK2 = arr_of(2, "x", "y", "x+y")


class budget:
    """Context manager asserting a wall-clock budget and reporting PASS."""

    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded its "
                f"{self.seconds:.0f}s budget ({elapsed:.1f}s)")
            print(f"ACCEPTANCE PASS {self.criterion} ({elapsed:.2f}s)")
        else:
            print(f"ACCEPTANCE FAIL {self.criterion} ({elapsed:.2f}s)")
        return False


def rank2_explicit_triple():
    x, y = variables(2)
    return [euler_operator(2, 2),
            DiffOp.single(2, (2, 0), x * (x + y)),
            DiffOp.single(2, (0, 2), y * (x + y))]


def test_criterion_1_golden_determinant_rank2():
    with budget("1: golden determinant xy(x+y)", 1.0):
        det = det_poly(coefficient_matrix(rank2_explicit_triple()))
        q2 = RANK2.defining_polynomial() ** 2
        assert det in (2 * q2, -2 * q2)


def test_criterion_2_golden_determinant_shi2():
    with budget("2: golden determinant Shi-2", 10.0):
        shi = make_shi(2)
        det = det_poly(coefficient_matrix(shi2_order2_members()))
        _, y, z = variables(3)
        expected = 4 * (y - z) * shi.defining_polynomial() ** 3
        assert det in (expected, -expected)


def test_criterion_3_graded_dimensions_shi2():
    with budget("3: graded dimensions of Shi-2 at order 2", 10.0):
        shi = make_shi(2)
        dims = [graded_dimension(shi, 2, d).dimension for d in range(4)]
        assert dims == [0, 0, 1, 3]
        piece = graded_dimension(shi, 2, 2)
        vec = operator_vector(euler_operator(3, 2), 2)
        span = RowBasis(len(vec))
        for op in piece.operators:
            span.add(operator_vector(op, 2))
        assert span.contains(vec)


def test_criterion_4_shi2_order2_not_free():
    with budget("4: Shi-2 is not free at order 2", 1200.0):
        shi = make_shi(2)
        report = decide_free(shi, 2)
        assert report.verdict == NOT_FREE
        assert report.degree_bound == 21  # t * |A| with t=3, |A|=7
        cert = report.certificate
        assert cert["kind"] in ("generator_overflow", "saito_failure")
        # the early exit fires by degree 4
        assert max(step[0] for step in report.degrees_examined) <= 4
        # the certificate is checkable from scratch
        if cert["kind"] == "generator_overflow":
            steps = sweep_steps(shi, 2, cert["degree"])
            assert sum(s.new_count for s in steps) \
                == cert["cumulative_generators"] > cert["rank"]
            assert cert["rank"] == saito_counts(3, 2)[0]


def test_criterion_5_shi2_order1_free():
    with budget("5: Shi-2 is free at order 1", 60.0):
        report = decide_free(make_shi(2), 1)
        assert report.verdict == FREE
        # exponents are reported as computed; their sum is forced to t*|A|
        assert sum(report.exponents) == 7
        assert saito_check(list(report.basis), make_shi(2))


def test_criterion_6_generic_formula():
    with budget("6: generic formula for x,y,z,x+y+z", 120.0):
        generic = arr_of(3, "x", "y", "z", "x+y+z")
        assert decide_free(generic, 1).verdict == NOT_FREE
        report = decide_free(generic, 2)
        assert report.verdict == FREE
        assert decide_free(generic, 1, fast_filters=False).verdict == NOT_FREE
        assert decide_free(generic, 2, fast_filters=False).verdict == FREE


def test_criterion_7_product_exponents():
    with budget("7: product exponents with an empty line", 10.0):
        bases_first = [[DiffOp.identity(2)], basis_rank_two(RANK2, 1),
                       basis_rank_two(RANK2, 2)]
        bases_second = [[DiffOp.identity(1)],
                        [DiffOp.single(1, (1,), Poly.one(1))],
                        [DiffOp.single(1, (2,), Poly.one(1))]]
        ops = product_basis([bases_first, bases_second])
        combined = product(RANK2, Arrangement(1, ()))
        assert saito_check(ops, combined)
        assert sorted(op.homogeneous_degree() for op in ops) \
            == [0, 1, 2, 2, 2, 2]


def test_criterion_8_rank2_family():
    with budget("8: rank-2 closed-form family", 120.0):
        for n in range(2, 6):
            forms = [["1", "0"]] + [[str(a), "1"] for a in range(n - 1)]
            arr = arrangement_from_json({"dim": 2, "forms": forms})
            for order in range(1, 6):
                ops = basis_rank_two(arr, order)
                assert saito_check(ops, arr), (n, order)
                assert sum(op.homogeneous_degree() for op in ops) \
                    == order * n, (n, order)


def test_criterion_9_localization_pipeline():
    with budget("9: irreducible counterexample via localization", 300.0):
        arr = make_named("holm-q1-counterexample")
        for order in (1, 2):
            report = decide_free(arr, order)
            assert report.verdict == NOT_FREE
            assert report.certificate["kind"] == "fast_filter"
            assert report.certificate["reason"] == "localization-not-free"
            # the refuting flat is x = y = z = 0, which also contains x+y+z
            assert report.certificate["flat"] == [0, 1, 2, 4]
        swept = decide_free(arr, 1, fast_filters=False)
        assert swept.verdict == NOT_FREE


def test_criterion_10a_membership_oracle_equivalence():
    with budget("10a: membership oracle equivalence (>=200 cases)", 240.0):
        rng = random.Random(20260810)
        arrangements = [RANK2, arr_of(2, "x", "y"), arr_of(2, "x", "x+2y"),
                        arr_of(3, "x", "y-z"), arr_of(3, "x+y", "z")]
        checked = 0
        for arr in arrangements:
            for order in (1, 2):
                pool = _random_operator_pool(rng, arr, order, 14)
                pool += _random_member_pool(rng, arr, order, 7)
                for op in pool:
                    assert bool(is_member(op, arr)) \
                        == is_member_bruteforce(op, arr, order + 2)
                    checked += 1
        assert checked >= 200
        print(f"    oracle equivalence on {checked} cases", end=" ")


def test_criterion_10b_commutator_closure():
    with budget("10b: commutator closure (>=200 cases)", 120.0):
        rng = random.Random(20260811)
        arrangements = [RANK2, arr_of(2, "x", "x+3y"), make_shi(2)]
        checked = 0
        for arr in arrangements:
            for order in (1, 2):
                members = _random_member_pool(rng, arr, order, 12)
                for op in members:
                    assert is_member(op, arr)
                    for _ in range(3):
                        coeffs = [rng.randint(-2, 2) for _ in range(arr.dim)]
                        if not any(coeffs):
                            coeffs[0] = 1
                        bracket = commutator_with_form(op, LinearForm(coeffs))
                        assert is_member(bracket, arr)
                        checked += 1
        assert checked >= 200
        print(f"    commutator closure on {checked} cases", end=" ")


def test_criterion_10c_determinant_divisibility():
    with budget("10c: determinant divisibility (>=50 tuples)", 120.0):
        rng = random.Random(20260812)
        checked = 0
        for arr in (RANK2, arr_of(2, "x", "y"), arr_of(2, "x", "x-y", "y")):
            q = arr.defining_polynomial()
            for order in (1, 2):
                rank, exponent = saito_counts(2, order)
                for _ in range(9):
                    ops = _random_member_pool(rng, arr, order, rank)
                    det = det_poly(coefficient_matrix(ops))
                    assert exact_divide(det, q ** exponent) is not None
                    checked += 1
        assert checked >= 50
        print(f"    divisibility on {checked} member tuples", end=" ")


def test_criterion_10d_weyl_relations():
    with budget("10d: operator relations (>=500 polynomials)", 60.0):
        rng = random.Random(20260813)
        checked = 0
        while checked < 520:
            dim = rng.randint(1, 3)
            degree = rng.randint(0, 3)
            f = random_poly(rng, dim, degree, terms=3)
            i = rng.randrange(dim)
            xi = Poly.variable(dim, i)
            ei = tuple(1 if j == i else 0 for j in range(dim))
            assert (xi * f).partial_derivative(ei) \
                == xi * f.partial_derivative(ei) + f
            a = tuple(rng.randint(0, 2) for _ in range(dim))
            b = tuple(rng.randint(0, 2) for _ in range(dim))
            ab = tuple(x + y for x, y in zip(a, b))
            assert f.partial_derivative(a).partial_derivative(b) \
                == f.partial_derivative(ab)
            checked += 1
        print(f"    relations on {checked} polynomials", end=" ")


def test_criterion_11_shi2_order3_free():
    with budget("11: Shi-2 is free at order 3", 600.0):
        start = time.perf_counter()
        report = decide_free(make_shi(2), 3)
        elapsed = time.perf_counter() - start
        assert report.verdict == FREE
        assert sum(report.exponents) == saito_counts(3, 3)[1] * 7
        print(f"    order-3 exponents {report.exponents} "
              f"in {elapsed:.1f}s", end=" ")

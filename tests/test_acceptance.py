"""Acceptance suite: every `arrdiff paper-suite` row, then criteria
10a-d and 11, each under a wall-clock budget and printing a PASS line.

The paper's golden facts live in one place, the rows of
`arrdiff.cli._suite_checks`; each row runs here once, as
`test_paper_suite_row[<row>]`, under its budget from `SUITE_BUDGETS`.
Run with `pytest -s tests/test_acceptance.py` to see the per-row and
per-criterion lines.  Everything is exact; the only tolerances are
wall-clock budgets.
"""

from __future__ import annotations

import random
import time

import pytest

from arrdiff.arrangement import make_shi
from arrdiff.cli import _suite_checks
from arrdiff.graded import FREE, decide_free
from arrdiff.membership import is_member
from arrdiff.qpoly import LinearForm, Poly, exact_divide
from arrdiff.saito import det_poly, saito_counts
from arrdiff.weyl import coefficient_matrix
from tests.reference import (RANK2, arr_of, commutator_with_form,
                             is_member_bruteforce, random_member_pool,
                             random_operator_pool, random_poly)


class budget:
    """Context manager asserting a wall-clock budget and reporting PASS."""

    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its "
                f"{self.seconds:.0f}s budget ({elapsed:.1f}s)")
            print(f"ACCEPTANCE PASS {self.name} ({elapsed:.2f}s)")
        else:
            print(f"ACCEPTANCE FAIL {self.name} ({elapsed:.2f}s)")
        return False


# every paper-suite row with its wall-clock budget in seconds
SUITE_BUDGETS = {
    "golden-det-rank2": 1.0,
    "golden-det-shi2": 10.0,
    "shi2-members": 10.0,
    "shi2-graded-dims": 10.0,
    "shi2-decide-m2": 1200.0,
    "shi2-decide-m1": 60.0,
    "generic-formula": 120.0,
    "product-exponents": 10.0,
    "rank2-family": 120.0,
    "localization-pipeline": 300.0,
    "euler-membership": 10.0,
    "displayed-divisibility": 10.0,
}

SUITE_ROWS = dict(_suite_checks())


def test_every_paper_suite_row_has_a_budget():
    assert sorted(SUITE_BUDGETS) == sorted(name for name, _ in _suite_checks())


@pytest.mark.parametrize("name", list(SUITE_ROWS))
def test_paper_suite_row(name):
    with budget(name, SUITE_BUDGETS[name]):
        ok, detail = SUITE_ROWS[name]()
        assert ok, detail


def test_criterion_10a_membership_oracle_equivalence():
    with budget("10a: membership oracle equivalence (>=200 cases)", 240.0):
        rng = random.Random(20260810)
        arrangements = [RANK2, arr_of(2, "x", "y"), arr_of(2, "x", "x+2y"),
                        arr_of(3, "x", "y-z"), arr_of(3, "x+y", "z")]
        checked = 0
        for arr in arrangements:
            for order in (1, 2):
                pool = random_operator_pool(rng, arr, order, 14)
                pool += random_member_pool(rng, arr, order, 7)
                for op in pool:
                    assert bool(is_member(op, arr)) \
                        == is_member_bruteforce(op, arr, order + 2)
                    checked += 1
        assert checked >= 200
        print(f"    oracle equivalence on {checked} cases", end=" ")


# forms every member is also bracketed with: the random coefficients lie in
# -2..2, so these reach beyond them
FIXED_FORMS = {3: [LinearForm([1, -2, 3])]}


def test_criterion_10b_commutator_closure():
    with budget("10b: commutator closure (>=200 cases)", 120.0):
        rng = random.Random(20260811)
        arrangements = [RANK2, arr_of(2, "x", "x+3y"), make_shi(2)]
        checked = 0
        for arr in arrangements:
            for order in (1, 2):
                members = random_member_pool(rng, arr, order, 12)
                for op in members:
                    assert is_member(op, arr)
                    for _ in range(3):
                        coeffs = [rng.randint(-2, 2) for _ in range(arr.dim)]
                        if not any(coeffs):
                            coeffs[0] = 1
                        bracket = commutator_with_form(op, LinearForm(coeffs))
                        assert is_member(bracket, arr)
                        checked += 1
                    for form in FIXED_FORMS.get(arr.dim, []):
                        assert is_member(commutator_with_form(op, form), arr)
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
                    ops = random_member_pool(rng, arr, order, rank)
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

"""Exact linear algebra helpers.

The differential tests compare the sparse :class:`RowBasis` routines with
the dense Gauss-Jordan reference of :mod:`tests.reference`, and
determinants with its Fraction elimination and Laplace expansion.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrdiff.linalg import RowBasis, determinant, invert, nullspace_basis
from arrdiff.qpoly import Poly
from tests.reference import (cofactor_det, fraction_det, rank_of,
                             reference_nullspace, reference_rref)


def frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def mat_vec(rows, vector):
    return [sum((Fraction(a) * Fraction(x) for a, x in zip(row, vector)),
                Fraction(0)) for row in rows]


def dense(basis, ncols):
    """Sparse nullspace vectors as dense tuples, checked to hold no zero."""
    assert all(x for vec in basis for x in vec.values())
    return [tuple(vec.get(j, Fraction(0)) for j in range(ncols))
            for vec in basis]


def canonical(basis, ncols):
    """Nullspace vectors, checked to be integral and positive in their last
    nonzero column, divided by that entry: the reference's scaling."""
    assert all(type(x) is int for vec in basis for x in vec.values())
    out = []
    for vec in dense(basis, ncols):
        free = vec[max(j for j, x in enumerate(vec) if x)]
        assert free > 0
        out.append(tuple(Fraction(x, free) for x in vec))
    return out


def reference_invert(rows):
    n = len(rows)
    augmented = [list(row) + [1 if i == j else 0 for j in range(n)]
                 for i, row in enumerate(rows)]
    reduced, pivots = reference_rref(augmented, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in reduced[:n]]


# ---------------------------------------------------------------------------
# sparse rational matrices with zero, duplicate and scaled rows

NONZERO = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(
    bool)
ENTRIES = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), NONZERO)
# large numerators and denominators, so that clearing denominators (lcm)
# and making rows primitive (gcd) have real work to do
LARGE = st.one_of(
    st.just(Fraction(10 ** 20, 7)), st.just(Fraction(-7, 10 ** 20 + 3)),
    st.fractions(min_value=-10 ** 20, max_value=10 ** 20,
                 max_denominator=10 ** 20).filter(bool))
WIDE_ENTRIES = st.one_of(ENTRIES, LARGE)


@st.composite
def sparse_rows(draw, ncols, min_rows=0, max_rows=6, entries=ENTRIES):
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=min_rows, max_size=max_rows))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "duplicate", "scaled"]))
        if kind == "zero" or not rows:
            extra = [Fraction(0)] * ncols
        else:
            scale = Fraction(1) if kind == "duplicate" else draw(NONZERO)
            extra = [scale * x for x in draw(st.sampled_from(rows))]
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows


@st.composite
def sparse_matrices(draw, max_cols=7, entries=ENTRIES):
    ncols = draw(st.integers(1, max_cols))
    return ncols, draw(sparse_rows(ncols, entries=entries))


def as_dict(row):
    return {j: x for j, x in enumerate(row) if x}


def reference_residual(rows, ncols, vector):
    """The vector less, for each pivot, its entry there times that row."""
    reduced, pivots = reference_rref(rows, ncols)
    out = [Fraction(x) for x in vector]
    for row, pc in zip(reduced, pivots):
        factor = out[pc]
        out = [x - factor * y for x, y in zip(out, row)]
    return out


@st.composite
def square_matrices(draw, max_n=5):
    n = draw(st.integers(0, max_n))
    rows = draw(sparse_rows(n, min_rows=n, max_rows=n))[:n]
    if draw(st.booleans()):  # a nonzero diagonal makes most of these regular
        for i in range(n):
            rows[i][i] += draw(NONZERO)
    return rows


@given(sparse_matrices())
@settings(max_examples=100, deadline=None)
def test_nullspace_matches_dense_reference(case):
    ncols, rows = case
    basis = nullspace_basis(rows, ncols)
    assert canonical(basis, ncols) == reference_nullspace(rows, ncols)
    # each vector's free column is its last nonzero entry, in increasing order
    assert [max(vec) for vec in basis] == sorted({max(vec) for vec in basis})


@given(sparse_matrices(max_cols=6, entries=WIDE_ENTRIES))
@settings(max_examples=40, deadline=None)
def test_nullspace_does_not_depend_on_row_order_or_form(case):
    # the rows are eliminated in an order of their own, but the stored rows
    # are a canonical echelon form, so every order gives the same vectors
    ncols, rows = case
    rows = rows[:5]
    expected = nullspace_basis(rows, ncols)
    for perm in permutations(rows):
        assert nullspace_basis(list(perm), ncols) == expected
        assert nullspace_basis([as_dict(row) for row in perm], ncols) \
            == expected


@given(sparse_matrices(entries=WIDE_ENTRIES))
@settings(max_examples=100, deadline=None)
def test_nullspace_of_int_dicts_matches_fraction_rows(case):
    # rows of nonzero ints are checked once for the whole system, and any
    # other rows one by one as they go in; both give the same vectors
    ncols, rows = case
    int_dicts = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        if any(row):  # a zero row constrains nothing
            int_dicts.append({j: int(x * scale) for j, x in enumerate(row)
                              if x})
    assert nullspace_basis(int_dicts, ncols) == nullspace_basis(rows, ncols)


@given(square_matrices())
@settings(max_examples=100, deadline=None)
def test_invert_matches_dense_reference(rows):
    assert invert(rows) == reference_invert(rows)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_row_basis_invariants_match_dense_reference(data):
    ncols, rows = data.draw(sparse_matrices(entries=WIDE_ENTRIES))
    basis, sparse = RowBasis(ncols), RowBasis(ncols)
    for row in rows:
        before = basis.rank
        added = basis.add(row)
        assert added == (basis.rank == before + 1)
        assert sparse.add(as_dict(row)) == added
    assert basis.rank == sparse.rank == rank_of(rows, ncols)
    for row in rows:
        assert basis.contains(row) and sparse.contains(as_dict(row))
    if rows:
        coeffs = data.draw(st.lists(ENTRIES, min_size=len(rows),
                                    max_size=len(rows)))
        assert basis.contains(mat_vec(list(zip(*rows)), coeffs))
    probe = data.draw(st.lists(WIDE_ENTRIES, min_size=ncols,
                               max_size=ncols))
    # the probe less its reduction lies in the row space, and the probe
    # does exactly when that reduction is zero
    residual = reference_residual(rows, ncols, probe)
    assert basis.contains([x - y for x, y in zip(probe, residual)])
    assert basis.contains(probe) == sparse.contains(as_dict(probe)) \
        == (not any(residual))
    assert canonical(nullspace_basis(rows, ncols), ncols) \
        == canonical(nullspace_basis([as_dict(row) for row in rows], ncols),
                     ncols) \
        == reference_nullspace(rows, ncols)


# ---------------------------------------------------------------------------
# unit rows and pivot-1 rows, the kernel's short cuts

SMALL = st.sampled_from([0, 0, 1, 1, -1, 2, -3, Fraction(1, 2),
                         Fraction(-2, 3)])


@st.composite
def unit_heavy_rows(draw, ncols, nrows):
    """Rows of which some are unit vectors and some have a leading 1, so
    that stored rows of length one and with pivot 1 are common."""
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["unit", "lead1", "any"]))
        if kind == "unit":
            row = [0] * ncols
            row[draw(st.integers(0, ncols - 1))] = 1
        else:
            row = draw(st.lists(SMALL, min_size=ncols, max_size=ncols))
            if kind == "lead1":
                lead = draw(st.integers(0, ncols - 1))
                row[:lead + 1] = [0] * lead + [1]
        rows.append(row)
    return rows


@st.composite
def with_zeros(draw, row):
    """A row as a dict that keeps some of its zero entries, as int or
    Fraction zeros."""
    return {j: x for j, x in enumerate(row)
            if x or draw(st.booleans())} | {
        j: Fraction(0) for j, x in enumerate(row)
        if not x and draw(st.booleans())}


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_short_cuts_match_fraction_reference(data):
    ncols = data.draw(st.integers(1, 6))
    rows = data.draw(unit_heavy_rows(ncols, data.draw(st.integers(0, 7))))
    basis = RowBasis(ncols)
    for row in rows:
        basis.add(data.draw(with_zeros(row)))
    assert basis.rank == rank_of(rows, ncols)
    for probe in data.draw(unit_heavy_rows(ncols, 3)) + rows:
        assert basis.contains(data.draw(with_zeros(probe))) \
            == (not any(reference_residual(rows, ncols, probe)))
    assert canonical(nullspace_basis([data.draw(with_zeros(row))
                                      for row in rows], ncols), ncols) \
        == reference_nullspace(rows, ncols)
    square = data.draw(unit_heavy_rows(ncols, ncols))
    assert determinant(square) == fraction_det(square)


# ---------------------------------------------------------------------------
# fixed cases

def test_rank_and_rref():
    rows = frac_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    basis = RowBasis(3)
    assert [basis.add(row) for row in rows] == [True, False, True]
    assert basis.rank == 2
    # the reduced rows are (1, 0, 1) and (0, 1, 1)
    assert basis.contains(frac_rows([[5, 7, 12]])[0])
    assert not basis.contains(frac_rows([[5, 7, 0]])[0])
    assert dense(nullspace_basis(rows, 3), 3) \
        == [tuple(frac_rows([[-1, -1, 1]])[0])]
    with pytest.raises(ValueError):
        basis.add({3: 1})
    with pytest.raises(ValueError):
        basis.add([1, 2])


def test_nullspace_annihilates_and_counts():
    rng = random.Random(7)
    for _ in range(25):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 5)
        rows = frac_rows([[rng.randint(-3, 3) for _ in range(ncols)]
                          for _ in range(nrows)])
        basis = dense(nullspace_basis(rows, ncols), ncols)
        assert len(basis) == ncols - rank_of(rows, ncols)
        for vec in basis:
            assert not any(mat_vec(rows, vec))


def test_nullspace_rejects_columns_out_of_range():
    for rows in ([{0: 1}, {3: 1}], [{0: 1}, {-1: 2}], [{0: 1}, [0, 0, 0, 1]],
                 [{0: Fraction(1, 2)}, {3: 1}]):
        with pytest.raises(ValueError):
            nullspace_basis(rows, 3)


def test_nullspace_of_no_constraints():
    basis = nullspace_basis([], 3)
    assert len(basis) == 3
    assert basis[0][0] == 1


def reference_determinant(rows):
    """Laplace expansion, on the entries as constant polynomials."""
    if not rows:
        return Fraction(1)
    return cofactor_det([[Poly.constant(1, x) for x in row]
                         for row in rows]).constant_value()


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_determinant_matches_laplace_reference(data):
    rows = data.draw(square_matrices(max_n=6))
    if data.draw(st.booleans()):  # triangular, so zero pivots force swaps
        for i, row in enumerate(rows):
            row[:i] = [Fraction(0)] * i
    rows = data.draw(st.permutations(rows))
    assert determinant(rows) == reference_determinant(rows)


def test_determinant_golden():
    assert determinant([]) == 1
    assert determinant([[Fraction(-3, 2)]]) == Fraction(-3, 2)
    assert determinant([[0, 1], [1, 0]]) == -1
    # the row order (2, 0, 1) is a 3-cycle, an even permutation
    assert determinant([[0, 0, 5], [2, 0, 0], [0, Fraction(1, 3), 0]]) \
        == Fraction(10, 3)
    assert determinant([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 0
    assert determinant([[0, 0], [0, 1]]) == 0
    with pytest.raises(ValueError):
        determinant([[1, 2]])


def test_invert_roundtrip_and_singular():
    m = frac_rows([[1, 2], [3, 5]])
    inv = invert(m)
    assert mat_vec(inv, mat_vec(m, [Fraction(7), Fraction(-2)])) \
        == [Fraction(7), Fraction(-2)]
    assert invert(frac_rows([[1, 2], [2, 4]])) is None


def test_row_basis_tracks_rank_and_membership():
    rng = random.Random(11)
    for _ in range(20):
        ncols = rng.randint(1, 5)
        vectors = [[Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
                   for _ in range(rng.randint(1, 6))]
        basis = RowBasis(ncols)
        for vec in vectors:
            before = basis.rank
            grew = basis.add(vec)
            assert basis.rank == before + (1 if grew else 0)
        assert basis.rank == rank_of(vectors, ncols)
        for vec in vectors:
            assert basis.contains(vec)

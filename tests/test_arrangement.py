"""Arrangement model, flats, products, and decomposition.

The decomposition tests use an independent brute-force oracle: among all
set partitions of the hyperplanes, the components are the finest partition
whose part ranks add up to the total rank.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrdiff.arrangement import (Arrangement, arrangement_from_json,
                                 decompose, flat_closure, is_generic,
                                 localize, make_named, make_shi, product)
from arrdiff.linalg import invert
from arrdiff.qpoly import LinearForm, Poly, variables
from tests.test_linalg import rank_of


def arr_of(dim, *texts):
    return arrangement_from_json({"dim": dim, "forms": list(texts)})


def form_value(form, point):
    """The value of a linear form at a point, on Fractions."""
    return sum(c * Fraction(v) for c, v in zip(form.coefficients, point))


# ---------------------------------------------------------------------------
# brute-force component oracle

def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[head] + partition[i]] + partition[i + 1:]
        yield [[head]] + partition


def oracle_components(arr):
    vectors = [list(f.coefficients) for f in arr.forms]
    total = rank_of(vectors, arr.dim)

    @cache
    def part_rank(part):
        return rank_of([vectors[i] for i in part], arr.dim)

    best = None
    for partition in set_partitions(range(len(arr))):
        if sum(part_rank(tuple(part)) for part in partition) != total:
            continue
        if best is None or len(partition) > len(best):
            best = partition
    return {frozenset(part) for part in best}


# ---------------------------------------------------------------------------
# model and defining polynomial

def test_defining_polynomial_golden():
    x, y = variables(2)
    assert arr_of(2, "x", "y", "x+y").defining_polynomial() == x * y * (x + y)
    assert Arrangement(3, ()).defining_polynomial() == Poly.one(3)


def test_shi_defining_polynomial_matches_display():
    arr = make_shi(2)
    x, y, z = variables(3)
    expected = (z * x * y * (x - z) * (y - z) * (x - y) * (x - y - z))
    assert arr.defining_polynomial() == expected
    assert len(arr) == 7
    assert len(make_shi(3)) == 13
    for ell in range(2, 6):
        assert len(make_shi(ell)) == 1 + 2 * ell + ell * (ell - 1)
    with pytest.raises(ValueError):
        make_shi(1)


def test_duplicate_and_proportional_forms_rejected():
    with pytest.raises(ValueError):
        Arrangement(2, [LinearForm([1, 0]), LinearForm([2, 0])])


def test_json_roundtrip():
    arr = make_named("holm-q1-counterexample")
    assert arrangement_from_json(arr.to_json()) == arr
    assert arr.dim == 4 and len(arr) == 6


def test_named_generators():
    assert len(make_named("empty", 2)) == 0
    assert make_named("boolean", 3).defining_polynomial() \
        == arr_of(3, "x", "y", "z").defining_polynomial()
    assert len(make_named("braid", 3)) == 3
    with pytest.raises(ValueError):
        make_named("mystery")


# ---------------------------------------------------------------------------
# flats and localization

def test_flat_closure_shi3_block():
    arr = make_shi(3)
    # indices of x1, x2 and the coning hyperplane
    names = [str(f) for f in arr.forms]
    seed = [names.index("x4"), names.index("x1"), names.index("x2")]
    flat = flat_closure(arr, seed)
    assert flat.rank == 3
    assert len(flat.generators) == 7
    sub = localize(arr, flat)
    x1, x2, _, z = variables(4)
    assert sub.defining_polynomial() == \
        z * x1 * x2 * (x1 - z) * (x2 - z) * (x1 - x2) * (x1 - x2 - z)


def test_flat_closure_trivial_cases():
    arr = arr_of(3, "x", "y", "z", "x+2y+4z")
    empty = flat_closure(arr, [])
    assert empty.rank == 0 and empty.generators == frozenset()
    single = flat_closure(arr, [0])
    assert single.generators == frozenset({0})


def test_flat_closure_idempotent_and_monotone():
    arr = make_shi(2)
    for seed in ([0], [1, 3], [0, 1], [1, 3, 5]):
        flat = flat_closure(arr, seed)
        again = flat_closure(arr, flat.generators)
        assert again == flat
        assert set(seed) <= flat.generators
    small = flat_closure(arr, [1])
    for extra in range(len(arr)):
        bigger = flat_closure(arr, [1, extra])
        assert small.generators <= bigger.generators


@st.composite
def seeded_arrangements(draw):
    """An arrangement from :func:`split_candidates` and a seed drawn from its
    indices: empty, independent or rank-deficient (more forms than the
    rank they span)."""
    arr = draw(split_candidates())
    seed = draw(st.sets(st.integers(0, max(len(arr) - 1, 0)),
                        max_size=len(arr)))
    return arr, sorted(seed)


@given(seeded_arrangements())
@example((arr_of(3, "x", "y", "x+y", "z"), []))
@example((arr_of(3, "x", "y", "x+y", "z"), [0, 1, 2]))
@example((arr_of(4, "x1", "x2", "x1+x2", "2x1-x2+x3"), [0, 1, 2]))
@settings(max_examples=150, deadline=None)
def test_flat_closure_matches_fraction_rank_reference(case):
    # a form lies on the flat exactly when adding it to the seed's rows
    # leaves their rank as it is, on Fractions
    arr, seed = case
    rows = [list(arr.forms[i].coefficients) for i in seed]
    rank = rank_of(rows, arr.dim)
    flat = flat_closure(arr, seed)
    assert flat.rank == rank
    assert flat.generators == {
        i for i, form in enumerate(arr.forms)
        if rank_of(rows + [list(form.coefficients)], arr.dim) == rank}


def test_localize_requires_closed_flat():
    from arrdiff.arrangement import FlatRef
    arr = arr_of(2, "x", "y", "x+y")
    with pytest.raises(ValueError):
        localize(arr, FlatRef(frozenset({0}), 2))


def test_localize_holm_q1_flat():
    arr = make_named("holm-q1-counterexample")
    flat = flat_closure(arr, [0, 1, 2])  # x, y, z
    assert sorted(flat.generators) == [0, 1, 2, 4]
    sub = localize(arr, flat)
    x, y, z, _ = variables(4)
    assert sub.defining_polynomial() == x * y * z * (x + y + z)
    assert all(form_value(form, [0, 0, 0, 1]) == 0 for form in sub.forms)


def test_localize_at_origin_is_identity():
    arr = make_shi(2)
    flat = flat_closure(arr, range(len(arr)))
    assert localize(arr, flat) == arr


# ---------------------------------------------------------------------------
# products

def test_product_multiplies_defining_polynomials():
    first = arr_of(2, "x", "y", "x+y")
    second = arr_of(1, "x1")
    combined = product(first, second)
    assert combined.dim == 3 and len(combined) == 4
    x, y, z = variables(3)
    assert combined.defining_polynomial() == x * y * (x + y) * z


def test_product_with_empty_preserves_forms():
    first = arr_of(2, "x", "y")
    combined = product(first, Arrangement(2, ()))
    assert combined.dim == 4 and len(combined) == 2
    assert product(Arrangement(1, ()), Arrangement(1, ())).dim == 2


# ---------------------------------------------------------------------------
# genericity and decomposition

def test_is_generic():
    assert is_generic(arr_of(3, "x", "y", "z", "x+y+z"))
    assert not is_generic(arr_of(2, "x", "y", "x+y"))  # dimension too small
    assert not is_generic(make_shi(2))  # {x1, x2, x1-x2} is dependent
    assert not is_generic(arr_of(3, "x", "y", "z"))  # too few hyperplanes


def test_decompose_splits_off_line():
    arr = arr_of(3, "x", "y", "z", "x+y")
    dec = decompose(arr)
    assert {frozenset(c) for c in dec.components} == oracle_components(arr)
    sizes = sorted((len(f), f.dim) for f in dec.factors)
    assert sizes == [(1, 1), (3, 2)]
    assert len(dec.factors) == 2 and dec.rank == 3


def test_decompose_shi2_irreducible():
    arr = make_shi(2)
    dec = decompose(arr)
    assert len(dec.factors) == 1 and dec.rank == arr.dim
    assert {frozenset(c) for c in dec.components} == oracle_components(arr)


def test_decompose_rank_deficient_generic():
    arr = arr_of(4, "x1", "x2", "x3", "x1+x2+x3")
    dec = decompose(arr)
    assert dec.rank == 3 and len(dec.factors) == 2
    essential = dec.factors[0]
    assert essential.dim == 3 and len(essential) == 4
    assert is_generic(essential)
    empty = dec.factors[1]
    assert empty.dim == 1 and len(empty) == 0


def test_decompose_oracle_on_small_arrangements():
    cases = [
        arr_of(2, "x", "y"),
        arr_of(2, "x", "y", "x+y"),
        arr_of(3, "x", "y", "z", "x-y"),
        arr_of(3, "x", "x+y", "z"),
        arr_of(4, "x1", "x2", "x3", "x4", "x1+x2", "x3+x4"),
        make_named("holm-q1-counterexample"),
    ]
    for arr in cases:
        dec = decompose(arr)
        assert {frozenset(c) for c in dec.components} \
            == oracle_components(arr)


def row_times(vector, rows):
    """The product vector * rows of a row vector and a matrix."""
    return [sum((Fraction(x) * row[j] for x, row in zip(vector, rows)),
                Fraction(0)) for j in range(len(rows[0]))]


def factor_blocks(dec):
    """Each factor with its block of the new coordinates: the blocks follow
    one another in factor order."""
    start = 0
    for factor in dec.factors:
        yield factor, tuple(range(start, start + factor.dim))
        start += factor.dim


def reassembled_forms(arr, dec):
    """The forms mapped through invert(basis_change), and the factor forms
    padded back to the full coordinates; the two sets must agree."""
    inverse = invert([list(r) for r in dec.basis_change])
    transformed = {LinearForm(row_times(list(f.coefficients), inverse))
                   for f in arr.forms}
    reassembled = set()
    for factor, coordinates in factor_blocks(dec):
        for form in factor.forms:
            padded = [Fraction(0)] * arr.dim
            for coord, value in zip(coordinates, form.coefficients):
                padded[coord] = value
            reassembled.add(LinearForm(padded))
    return transformed, reassembled


def test_decompose_factors_reassemble_via_basis_change():
    arr = arr_of(4, "x1", "x2", "x3", "x4", "x1+x2", "x3+x4")
    transformed, reassembled = reassembled_forms(arr, decompose(arr))
    assert transformed == reassembled


HALVES = st.sampled_from([Fraction(k, 2) for k in range(-4, 5)])


@st.composite
def small_arrangements(draw):
    dim = draw(st.integers(1, 6))
    vectors = draw(st.lists(st.lists(HALVES, min_size=dim, max_size=dim)
                            .filter(any), max_size=9))
    return Arrangement(dim, dict.fromkeys(LinearForm(v) for v in vectors))


@given(small_arrangements())
@example(make_named("holm-q1-counterexample"))
@example(product(make_shi(2), arr_of(1, "x1")))
@example(Arrangement(2, ()))
@settings(max_examples=150, deadline=None)
def test_decompose_properties(arr):
    dec = decompose(arr)
    assert {frozenset(c) for c in dec.components} == oracle_components(arr)
    transformed, reassembled = reassembled_forms(arr, dec)
    assert transformed == reassembled
    # the first rank rows are normals, one block per component in order
    normals = [f.coefficients for f in arr.forms]
    rows = iter(dec.basis_change[:dec.rank])
    for component, factor in zip(dec.components, dec.factors):
        block = [next(rows) for _ in range(factor.dim)]
        assert all(row in [normals[i] for i in component] for row in block)
    assert next(rows, None) is None
    assert sum(f.dim for f in dec.factors) == arr.dim


def pinned(dec):
    return {
        "factors": [([[str(c) for c in f.coefficients]
                      for f in factor.forms], factor.dim, coordinates)
                    for factor, coordinates in factor_blocks(dec)],
        "basis_change": [[str(c) for c in row] for row in dec.basis_change],
        "rank": dec.rank,
        "components": dec.components,
    }


DECOMPOSITION_PINS = [
    (make_named("holm-q1-counterexample"), {
        "factors": [([["1", "0", "0", "0"], ["0", "1", "0", "0"],
                      ["0", "0", "1", "0"], ["0", "0", "0", "1"],
                      ["1", "1", "1", "0"], ["1", "1", "1", "1"]],
                     4, (0, 1, 2, 3))],
        "basis_change": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                         ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        "rank": 4,
        "components": ((0, 1, 2, 3, 4, 5),),
    }),
    (product(make_shi(2), arr_of(1, "x1")), {
        "factors": [([["1", "0", "0"], ["0", "1", "0"], ["1", "-1", "0"],
                      ["0", "0", "1"], ["1", "0", "-1"], ["0", "1", "-1"],
                      ["1", "-1", "1"]], 3, (0, 1, 2)),
                    ([["1"]], 1, (3,))],
        "basis_change": [["0", "0", "1", "0"], ["1", "0", "0", "0"],
                         ["0", "1", "0", "0"], ["0", "0", "0", "1"]],
        "rank": 4,
        "components": ((0, 1, 2, 3, 4, 5, 6), (7,)),
    }),
    (arr_of(4, "x1", "x1+x2", "x2+x3", "x3+x4"), {
        "factors": [([["1"]], 1, (0,)), ([["1"]], 1, (1,)),
                    ([["1"]], 1, (2,)), ([["1"]], 1, (3,))],
        "basis_change": [["1", "0", "0", "0"], ["1", "1", "0", "0"],
                         ["0", "1", "1", "0"], ["0", "0", "1", "1"]],
        "rank": 4,
        "components": ((0,), (1,), (2,), (3,)),
    }),
    (arr_of(5, "x2", "x3", "x4", "x2+x3+x4", "x2-x3+2x4"), {
        "factors": [([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"],
                      ["1", "1", "1"], ["1", "-1", "2"]], 3, (0, 1, 2)),
                    ([], 2, (3, 4))],
        "basis_change": [["0", "1", "0", "0", "0"], ["0", "0", "1", "0", "0"],
                         ["0", "0", "0", "1", "0"], ["1", "0", "0", "0", "0"],
                         ["0", "0", "0", "0", "1"]],
        "rank": 3,
        "components": ((0, 1, 2, 3, 4),),
    }),
    (arr_of(4, ["1", "1/2", "0", "0"], ["0", "1", "0", "0"],
            ["1", "0", "0", "0"], ["0", "0", "1", "-2/3"],
            ["0", "0", "0", "1"], ["0", "0", "1", "3"]), {
        "factors": [([["1", "0"], ["0", "1"], ["1", "-1/2"]], 2, (0, 1)),
                    ([["1", "0"], ["0", "1"], ["1", "11/3"]], 2, (2, 3))],
        "basis_change": [["1", "1/2", "0", "0"], ["0", "1", "0", "0"],
                         ["0", "0", "1", "-2/3"], ["0", "0", "0", "1"]],
        "rank": 4,
        "components": ((0, 1, 2), (3, 4, 5)),
    }),
]


@pytest.mark.parametrize("arr, expected", DECOMPOSITION_PINS)
def test_decompose_golden(arr, expected):
    assert pinned(decompose(arr)) == expected


def test_empty_arrangement_decomposition():
    dec = decompose(Arrangement(3, ()))
    assert len(dec.factors) == 1 and dec.rank == 0
    line = decompose(Arrangement(1, ()))
    assert len(line.factors) == 1 and line.rank == 0
    assert line.factors[0].dim == 1


@st.composite
def split_candidates(draw):
    """Up to 7 distinct forms in dim 1-4 with entries in -3..3, so that a
    form such as 2x + y is stored as x + y/2; the coordinates outside a
    drawn support are zero in every form, which makes the arrangement
    rank-deficient whenever the support is proper."""
    dim = draw(st.integers(1, 4))
    support = draw(st.sets(st.integers(0, dim - 1), min_size=1))
    entry = st.integers(-3, 3)
    vectors = draw(st.lists(
        st.tuples(*[entry if j in support else st.just(0)
                    for j in range(dim)]).filter(any), max_size=7))
    return Arrangement(dim, dict.fromkeys(LinearForm(v) for v in vectors))


@given(split_candidates())
@example(arr_of(2, "2x+y", "x", "y"))
@example(arr_of(4, "2x1+x2", "x2", "3x3-x4", "x4"))
@example(arr_of(3, "2x+3y", "x-2y"))
@example(Arrangement(1, ()))
@settings(max_examples=150, deadline=None)
def test_factor_count_matches_decompose(arr):
    # the cheap integer pass counts the factors that are built on first
    # read, one per component (checked against the brute-force oracle) and
    # one empty factor when the rank is below the dimension
    dec = decompose(arr)
    rank = rank_of([list(f.coefficients) for f in arr.forms], arr.dim)
    assert dec.rank == rank
    assert {frozenset(c) for c in dec.components} == oracle_components(arr)
    assert dec.factor_count == len(dec.factors) \
        == len(dec.components) + (rank < arr.dim)
    transformed, reassembled = reassembled_forms(arr, dec)
    assert transformed == reassembled

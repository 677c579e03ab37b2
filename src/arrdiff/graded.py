"""Graded pieces of the operator module and the freeness decision.

Fixing an order m and a coefficient degree d, membership of an operator
is a rational linear condition on the coefficients of its polynomial
entries: for each hyperplane and each degree-(m-1) exponent b, the
coefficient at d^b of the commutator with the hyperplane's form (the
criterion of :mod:`arrdiff.membership`; the rows use b! times it, the
image of form * x^b) must vanish after reduction modulo the form.  The
rows come from one table per form and degree: the reductions of the
degree-d monomials by the form's reduction kernel
(:meth:`arrdiff.qpoly.LinearForm.table`), scaled to integers.  A
coordinate hyperplane x_p builds no table and no rows: each of its rows
has one entry and forces one coefficient to zero, so the other forms'
rows are built on the coefficients left free, which changes no vector
(see :func:`graded_dimension`).  Solving that system exactly gives the
graded piece as a vector space, kept as sparse integer coefficient
vectors.  Stacking graded pieces degree by degree gives minimal generator
counts: the multiples x^mu * gen of the generators found so far are their
vectors with each column (a, nu) shifted to (a, nu + mu), and operators
are built only for a candidate basis.  A degree-bounded sweep of those
counts decides freeness outright:

* the count reaches s = rank by degree |A|: for m >= 1 the s operators
  Q * d^a with |a| = m are independent members of that degree, and at
  m = 0 the constant is a member of degree 0;
* if the arrangement is free, every basis degree is bounded by t * |A|
  (degrees are nonnegative and sum to t * |A|), so all s minimal
  generators appear by that bound and the determinant criterion certifies
  them as a basis;
* conversely an overflow past s generators, exactly s generators whose
  degrees do not sum to t * |A| (a basis's degrees do), or a failed
  determinant check at exactly s each refute freeness.

Three fast filters (see :func:`decide_free`) may answer before the sweep.
The product filter reads the factor count of
:func:`arrdiff.arrangement.decompose`, and its factors only when there
are two or more.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import lcm
from typing import Iterator

from .arrangement import (Arrangement, Decomposition, decompose,
                          flat_closure, is_generic, localize)
from .linalg import RowBasis, nullspace_basis
from .qpoly import (MultiIndex, Poly, mi_add, mi_factorial, mi_unit,
                    monomial_exponents)
from .saito import saito_check, saito_counts
from .weyl import DiffOp, change_variables

FREE = "FREE"
NOT_FREE = "NOT_FREE"
UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class GradedBasis:
    """A vector-space basis of one graded piece of the operator module.

    The basis is kept as the integral nullspace vectors: sparse dicts from
    coordinate (see :func:`operator_vector`) to nonzero ``int``.  The
    operators are built from them on first read.
    """

    dim: int
    order: int
    degree: int
    vectors: tuple[dict[int, int], ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    @cached_property
    def operators(self) -> tuple[DiffOp, ...]:
        return tuple(_vector_to_operator(vec, self.dim, self.order,
                                         self.degree)
                     for vec in self.vectors)


def operator_vector(op: DiffOp, degree: int) -> list[Fraction]:
    """Flatten a degree-homogeneous operator to its coefficient vector.

    Coordinates run over (derivative exponent, coefficient monomial) pairs
    in canonical order; this is the coordinatization shared by all graded
    linear algebra at a fixed order and degree.
    """
    omega = monomial_exponents(op.dim, op.order)
    mons = monomial_exponents(op.dim, degree)
    index = {mu: i for i, mu in enumerate(mons)}
    vec = [Fraction(0)] * (len(omega) * len(mons))
    for ai, a in enumerate(omega):
        for mu, c in op.coefficient(a).terms():
            if mu not in index:
                raise ValueError(
                    f"operator is not homogeneous of degree {degree}")
            vec[ai * len(mons) + index[mu]] = c
    return vec


def _vector_to_operator(vec: dict[int, int], dim: int, order: int,
                        degree: int) -> DiffOp:
    """The operator of a nullspace vector, scaled to a 1 in its last column.

    Each coefficient is built from its integer entries and divided by the
    free entry once."""
    omega = monomial_exponents(dim, order)
    mons = monomial_exponents(dim, degree)
    free = vec[max(vec)]
    coeffs: dict[MultiIndex, dict[MultiIndex, int]] = {}
    for col, c in vec.items():
        ai, mi = divmod(col, len(mons))
        coeffs.setdefault(omega[ai], {})[mons[mi]] = c
    polys = {a: Poly(dim, terms) for a, terms in coeffs.items()}
    if free != 1:
        scale = Fraction(1, free)
        polys = {a: p * scale for a, p in polys.items()}
    return DiffOp(dim, order, polys)


def graded_dimension(arr: Arrangement, order: int, degree: int) -> GradedBasis:
    """Compute one graded piece by exact nullspace extraction.

    Unknowns are the coefficients of each polynomial entry (one degree-d
    monomial each); every (hyperplane, degree-(m-1) exponent) pair
    contributes the linear equations that make the image polynomial vanish
    modulo the hyperplane's form, one equation per monomial nu of the
    reduced image.  Each equation is a sparse integer row: the form's
    integral coefficients D * c and its reduction table (D^d times the
    reductions) make it D^(d+1) times the rational equation, and the
    elimination keeps rows only up to a positive scalar.  The table is
    regrouped by nu once per form, so each row is read off in one pass
    over its nonzero entries; :func:`arrdiff.linalg.nullspace_basis` takes
    the rows as native integer rows, in an order of its own.

    A coordinate hyperplane x_p builds no table and no rows.  Its rows
    say that x_p divides c_a whenever a_p >= 1, and each holds one entry:
    they force to zero the columns (a, mu) with a_p >= 1 and mu_p = 0.  The
    other forms' rows are built on the surviving columns only, renumbered
    in increasing order, and a row left empty is dropped.  The vectors do
    not change: the full system's reduced echelon form is those unit rows
    plus the smaller system's form on the surviving columns, and an
    order-keeping renumbering keeps the free columns, their order and the
    pivots that scale each vector.
    """
    if order < 0 or degree < 0:
        raise ValueError("order and degree must be nonnegative")
    dim = arr.dim
    mons = monomial_exponents(dim, degree)
    nmons = len(mons)
    omega = monomial_exponents(dim, order)
    raised = _raised_exponents(dim, order)
    coordinates: set[int] = set()  # the p of each coordinate form x_p
    forms = []  # the other forms
    for form in arr.forms:
        if form.integral_coefficients.count(0) == dim - 1:
            coordinates.add(form.pivot)
        else:
            forms.append(form)
    kept, column = _surviving_columns(omega, mons, coordinates)

    rows: list[dict[int, int]] = []
    for form in forms:
        # the terms of D^d * x^mu modulo the form, for each degree-d mu,
        # regrouped by output monomial nu: nu -> [(index of mu, term)]
        by_nu: dict[MultiIndex, list[tuple[int, int]]] = {}
        for mi, terms in enumerate(form.table(degree)):
            for nu, rc in terms:
                by_nu.setdefault(nu, []).append((mi, rc))
        coefficients = form.integral_coefficients
        for shifts in raised:
            # image of form * x^b: only the entries at exponents b + e_j
            # act, each through the scalar coefficient * (b + e_j)!;
            # acting holds (first column of the block of a, scalar)
            acting = [(ai * nmons, c * weight)
                      for (ai, weight), c in zip(shifts, coefficients) if c]
            # one row per nu; its entries are nonzero (c, (b + e_j)! and
            # the table terms are) and its columns distinct (one block per
            # j, one mu per term of x^mu's reduction at nu), so nothing
            # accumulates
            for cells in by_nu.values():
                row = {new: scale * rc for base, scale in acting
                       for mi, rc in cells
                       if (new := column[base + mi]) is not None}
                if row:
                    rows.append(row)

    return GradedBasis(dim, order, degree,
                       tuple({kept[new]: x for new, x in vec.items()}
                             for vec in nullspace_basis(rows, len(kept))))


def _surviving_columns(omega: tuple[MultiIndex, ...],
                       mons: tuple[MultiIndex, ...], coordinates: set[int]
                       ) -> tuple[list[int], list[int | None]]:
    """The columns (a, mu) that the coordinate hyperplanes x_p (p in
    ``coordinates``) do not force to zero, those with mu_p >= 1 wherever
    a_p >= 1, in increasing order; and each column's index among them,
    None for a column forced to zero."""
    nmons = len(mons)
    kept: list[int] = []
    column: list[int | None] = [None] * (len(omega) * nmons)
    for ai, a in enumerate(omega):
        hit = [p for p in coordinates if a[p]]
        for mi, mu in enumerate(mons):
            for p in hit:
                if not mu[p]:
                    break
            else:
                column[ai * nmons + mi] = len(kept)
                kept.append(ai * nmons + mi)
    return kept, column


@lru_cache(maxsize=None)
def _raised_exponents(dim: int, order: int
                      ) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each degree-(m-1) exponent b, in canonical order, and each
    variable j: (index of a = b + e_j among the order-m exponents, a!)."""
    omega_index = {a: i for i, a in enumerate(monomial_exponents(dim, order))}
    return tuple(tuple((omega_index[a], mi_factorial(a))
                       for a in (mi_add(b, mi_unit(dim, j))
                                 for j in range(dim)))
                 for b in monomial_exponents(dim, order - 1))


# ---------------------------------------------------------------------------
# minimal generators

def _generator_sweep(arr: Arrangement, order: int, bound: int
                     ) -> Iterator[tuple[int, int, list[dict[int, int]]]]:
    """Yield (degree, piece dimension, new generator vectors) per degree.

    At each degree the span of all multiples of previously found
    generators is subtracted from the graded piece; the piece's basis
    vectors outside it are the new generators.  The counts depend only on
    dimensions, so they are independent of representative choices.

    Generators are kept as integral coefficient vectors.  The multiple
    x^mu * gen of a degree-g generator moves the entry at (a, nu) of the
    degree-g layout to (a, nu + mu) of the degree-d layout, so the span is
    built by shifting columns, and no generator becomes an operator here.

    The span is built in the piece's k free-column coordinates, not in all
    columns.  Piece vector i has a positive entry L_i at its free column
    f_i (its last) and zeros at the other free columns, so a vector w of
    the piece is sum_i (w[f_i] / L_i) * v_i, and reading off the entries
    w[f_i] is injective on the piece.  A multiple goes in as those entries,
    and piece vector i is tested as the unit vector e_i, which picks the
    same generators as testing v_i in all columns.  That map shows nothing
    about a vector outside the piece, so each multiple is first checked to
    equal its combination, on integers times the lcm of the L_i involved.
    """
    dim = arr.dim
    found: dict[int, list[dict[int, int]]] = {}  # by degree
    for degree in range(bound + 1):
        piece = graded_dimension(arr, order, degree)
        vectors = piece.vectors
        free = {max(vec): i for i, vec in enumerate(vectors)}
        lead = [vec[max(vec)] for vec in vectors]
        mons = monomial_exponents(dim, degree)
        nmons = len(mons)
        index = {nu: i for i, nu in enumerate(mons)}
        ncols = len(monomial_exponents(dim, order)) * nmons
        span = RowBasis(len(vectors))
        for gen_degree, gens in found.items():
            gen_mons = monomial_exponents(dim, gen_degree)
            for mu in monomial_exponents(dim, degree - gen_degree):
                # the column of (a, nu) -> that of (a, nu + mu)
                shifted = [index[mi_add(nu, mu)] for nu in gen_mons]
                moved = [base + mi for base in range(0, ncols, nmons)
                         for mi in shifted]
                for gen in gens:
                    multiple = {moved[col]: c for col, c in gen.items()}
                    coords = {free[col]: c for col, c in multiple.items()
                              if col in free}
                    if not _is_combination(multiple, coords, vectors, lead):
                        raise RuntimeError(f"a generator multiple in degree "
                                           f"{degree} is not in the graded "
                                           f"piece")
                    span.add(coords)
        new = [vec for i, vec in enumerate(vectors) if span.add({i: 1})]
        if new:
            found[degree] = new
        yield degree, piece.dimension, new


def _is_combination(vector: dict[int, int], coords: dict[int, int],
                    vectors: tuple[dict[int, int], ...], lead: list[int]
                    ) -> bool:
    """Whether vector = sum_i (coords[i] / lead[i]) * vectors[i]; both sides
    are taken times the lcm of the lead[i] involved, so all stays integral."""
    scale = lcm(*(lead[i] for i in coords))
    total: dict[int, int] = {}
    for i, x in coords.items():
        x *= scale // lead[i]
        for col, y in vectors[i].items():
            total[col] = total.get(col, 0) + x * y
    return ({col: x for col, x in total.items() if x}
            == {col: scale * x for col, x in vector.items()})


# ---------------------------------------------------------------------------
# the freeness decision

@dataclass(frozen=True)
class FreenessReport:
    """Decision outcome with certificate and audit trail.

    A FREE verdict always carries a basis that re-verifies under the
    determinant criterion; NOT_FREE carries one of the machine-checkable
    refutation certificates; UNDECIDED only occurs when a user-supplied
    degree bound is too small to be conclusive.
    """

    verdict: str
    order: int
    rank: int
    det_exponent: int
    degree_bound: int
    exponents: tuple[int, ...] | None
    basis: tuple[DiffOp, ...] | None
    certificate: dict
    degrees_examined: tuple[tuple[int, int, int], ...]
    audit: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.verdict == FREE

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "order": self.order,
            "rank": self.rank,
            "det_exponent": self.det_exponent,
            "degree_bound": self.degree_bound,
            "exponents": list(self.exponents) if self.exponents is not None else None,
            "basis": ([op.to_json() for op in self.basis]
                      if self.basis is not None else None),
            "certificate": self.certificate,
            "degrees_examined": [list(t) for t in self.degrees_examined],
            "audit": list(self.audit),
        }


def decide_free(arr: Arrangement, order: int, *, max_degree: int | None = None,
                fast_filters: bool = True) -> FreenessReport:
    """Decide whether the order-m operator module is free.

    Optional fast filters apply three rules before the sweep:

    * generic formula: a generic arrangement is free exactly from order
      |A| - dim + 1 on, so a lower order is refuted;
    * product recursion: a product is free at order m exactly when every
      factor is free at every order 1..m, decided recursively; a non-free
      factor refutes, and all-free factors give a verified product basis;
    * generic rank-3 localization: every localization of a free
      arrangement is free, so a proper localization that is a generic
      rank-3 arrangement times an empty one (not free at order 1) refutes.

    The generator sweep up to t * |A| is complete on its own.
    ``max_degree`` overrides the sweep bound; any verdict the sweep
    reaches is sound for any bound, and a sweep that ends below the rank
    count, which only a bound below |A| allows, reports UNDECIDED.
    """
    return _decide(arr, order, max_degree,
                   _FilterFacts(arr) if fast_filters else None)


def _decide(arr: Arrangement, order: int, max_degree: int | None,
            facts: _FilterFacts | None) -> FreenessReport:
    """decide_free, with the fast filters reading ``facts`` (None: no
    filters)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    rank, det_exponent = saito_counts(arr.dim, order)
    complete_bound = det_exponent * len(arr)
    bound = complete_bound if max_degree is None else max_degree
    if bound < 0:
        raise ValueError("degree bound must be nonnegative")
    audit: list[str] = []

    def report(verdict, certificate, exponents=None, basis=None, records=()):
        return FreenessReport(verdict, order, rank, det_exponent, bound,
                              exponents, basis, certificate,
                              tuple(records), tuple(audit))

    if facts is not None and order >= 1:
        filtered = _fast_filters(facts, order, audit, report)
        if filtered is not None:
            return filtered

    records: list[tuple[int, int, int]] = []
    generators: list[tuple[int, dict[int, int]]] = []  # (degree, vector)
    degrees: list[int] = []
    for degree, dimension, new in _generator_sweep(arr, order, bound):
        records.append((degree, dimension, len(new)))
        generators.extend((degree, vec) for vec in new)
        degrees.extend([degree] * len(new))
        if len(generators) > rank:
            audit.append(f"sweep: generator count exceeded the rank at degree {degree}")
            return report(NOT_FREE, {
                "kind": "generator_overflow",
                "degree": degree,
                "cumulative_generators": len(generators),
                "rank": rank,
                "generator_degrees": degrees,
            }, records=records)
        if len(generators) == rank:
            if sum(degrees) != complete_bound:
                # a free module's minimal generators are a basis, whose
                # degrees sum to t * |A|; the sweep has found all up to here
                audit.append(f"sweep: {rank} generators by degree "
                             f"{degree} with degree sum {sum(degrees)}, "
                             f"not t * |A| = {complete_bound}")
                return report(NOT_FREE, {
                    "kind": "degree_sum_mismatch",
                    "degree": degree,
                    "rank": rank,
                    "generator_degrees": degrees,
                    "degree_sum": sum(degrees),
                    "expected_degree_sum": complete_bound,
                }, records=records)
            # a candidate basis: only now do the generators become operators
            ops = tuple(_vector_to_operator(vec, arr.dim, order, d)
                        for d, vec in generators)
            result = saito_check(ops, arr)
            if result:
                audit.append(f"sweep: {rank} generators by degree {degree}; "
                             "determinant criterion confirms a basis")
                return report(FREE, {
                    "kind": "saito_basis",
                    "constant": str(result.constant),
                }, exponents=tuple(sorted(degrees)), basis=ops,
                    records=records)
            audit.append("sweep: full generator count found but the "
                         "determinant criterion fails")
            return report(NOT_FREE, {
                "kind": "saito_failure",
                "generator_degrees": degrees,
                "generators": [op.to_json() for op in ops],
                "saito": result.to_json(),
            }, records=records)
    if bound >= complete_bound:
        # unreachable: the members Q * d^a give rank generators by degree |A|
        raise RuntimeError(f"sweep found {len(generators)} generators up to "
                           f"degree {bound}, fewer than the rank {rank}")
    audit.append(f"sweep: degree bound {bound} is below the complete bound "
                 f"{complete_bound}; result inconclusive")
    return report(UNDECIDED, {
        "kind": "degree_bound_too_small",
        "degree_bound": bound,
        "complete_bound": complete_bound,
        "cumulative_generators": len(generators),
    }, records=records)


def decide_orders(arr: Arrangement, top: int) -> list[FreenessReport]:
    """Decide orders 1..top in turn, up to the first that is not FREE.

    The product theorem needs exactly this: a product is free at order m
    when every factor is free at every order 1..m, and not free when some
    factor is not.  The reports run up to and including the first one
    that is not FREE; with no degree bound each is FREE or NOT_FREE.  A
    top below 1 gives no report.  The fast filters' order-independent
    work (genericity, the decomposition, the localization search) is done
    once for all the orders.
    """
    facts = _FilterFacts(arr)
    reports: list[FreenessReport] = []
    for order in range(1, top + 1):
        reports.append(_decide(arr, order, None, facts))
        if not reports[-1]:
            break
    return reports


# ---------------------------------------------------------------------------
# fast filters

class _FilterFacts:
    """What the fast filters know of one arrangement at every order, each
    computed on first use.

    Whether the arrangement is a product is read off its decomposition's
    factor count, an integer nullspace and a union-find; the factors are
    built only for an arrangement with two or more of them.
    """

    def __init__(self, arr: Arrangement):
        self.arr = arr

    @cached_property
    def generic(self) -> bool:
        return is_generic(self.arr)

    @cached_property
    def decomposition(self) -> Decomposition:
        return decompose(self.arr)

    @cached_property
    def localization_certificate(self) -> dict | None:
        return _localization_filter(self.arr)


def _fast_filters(facts, order, audit, report):
    arr = facts.arr
    # closed-form formula for generic arrangements
    if facts.generic:
        threshold = len(arr) - arr.dim + 1
        if order < threshold:
            audit.append(f"filter: generic arrangement is free only from "
                         f"order {threshold}")
            return report(NOT_FREE, {
                "kind": "fast_filter",
                "reason": "generic-below-threshold",
                "size": len(arr),
                "dim": arr.dim,
                "free_from_order": threshold,
            })
        audit.append(f"filter: generic arrangement, free from order "
                     f"{threshold}; sweeping for a basis")

    # product decomposition: recurse into the factors
    dec = facts.decomposition
    if dec.factor_count >= 2:
        from .construct import product_basis  # local import to avoid a cycle
        audit.append(f"filter: decomposes into {dec.factor_count} factors")
        factor_bases: list[list[list[DiffOp]]] = []
        # equal factors are decided once; the key keeps the forms' order,
        # which fixes the indices a factor's certificate names
        decided: dict[tuple, list[FreenessReport]] = {}
        for fi, factor in enumerate(dec.factors):
            key = (factor.dim, factor.forms)
            if key not in decided:
                decided[key] = decide_orders(factor, order)
            reports = decided[key]
            sub = reports[-1]  # order >= 1, so there is one
            if not sub:
                audit.append(f"filter: factor {fi} is not free at order "
                             f"{sub.order}")
                return report(NOT_FREE, {
                    "kind": "fast_filter",
                    "reason": "product-factor-not-free",
                    "factor_index": fi,
                    "factor_dim": factor.dim,
                    "factor_size": len(factor),
                    "failing_order": sub.order,
                    "factor_certificate": sub.certificate,
                })
            factor_bases.append([[DiffOp.identity(factor.dim)]]
                                + [list(r.basis) for r in reports])
        basis = tuple(change_variables(product_basis(factor_bases),
                                       dec.basis_change))
        result = saito_check(basis, arr)
        if not result:
            # the product theorem makes this a basis; a failure is a bug
            raise RuntimeError("product basis failed the determinant criterion")
        audit.append("filter: product basis synthesized from factor bases and "
                     "verified")
        return report(FREE, {
            "kind": "saito_basis",
            "constant": str(result.constant),
            "via": "product-decomposition",
        }, exponents=tuple(sorted(op.homogeneous_degree() for op in basis)),
            basis=basis)

    # a generic rank-3 localization refutes
    certificate = facts.localization_certificate
    if certificate is not None:
        audit.append("filter: a localization is not free, so the "
                     "arrangement is not free")
        return report(NOT_FREE, certificate)
    return None


def _localization_filter(arr: Arrangement) -> dict | None:
    """Look for a proper localization that is provably not free.

    Every localization of a free arrangement is free, and a product is
    free exactly when each factor is free at every order up to m.  A
    localization of rank at most 2 is free, and one of rank 3 is a
    generic arrangement times an empty one, which is not free at order 1,
    exactly when it has at least four hyperplanes and no three of them
    share a rank-2 flat.  Flats are tried in the order of their first
    non-collinear hyperplane triple.
    """
    if arr.dim <= 3:  # then no proper flat has rank 3
        return None
    n = len(arr)
    # pair -> hyperplane count of the rank-2 flat it spans; a triple
    # inside a closed flat spans that flat or a line, so none is closed twice
    line_size: dict[tuple[int, ...], int] = {}
    covered: set[tuple[int, ...]] = set()
    for pair in combinations(range(n), 2):
        if pair not in line_size:
            line = sorted(flat_closure(arr, pair).generators)
            line_size.update(dict.fromkeys(combinations(line, 2), len(line)))
            covered.update(combinations(line, 3))
    for triple in combinations(range(n), 3):
        if triple in covered:
            continue
        flat = flat_closure(arr, triple)
        members = sorted(flat.generators)
        covered.update(combinations(members, 3))
        if len(members) < 4 or len(members) == n or any(
                line_size[pair] > 2 for pair in combinations(members, 2)):
            continue
        sub = localize(arr, flat)
        factor = decompose(sub).factors[0]
        return {
            "kind": "fast_filter",
            "reason": "localization-not-free",
            "flat": members,
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

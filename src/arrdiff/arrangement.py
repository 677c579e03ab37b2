"""Central hyperplane arrangements: model, lattice flats, products, factors.

An arrangement is an ordered, duplicate-free collection of linear forms in
a fixed ambient dimension.  Flats of the intersection lattice are stored
by their hyperplane-index closure, which keeps everything exact and
finite; geometric questions (containment, rank) reduce to rational rank
computations on the coefficient vectors.  The finest product
decomposition counts its factors from one integer nullspace and builds
them only when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable

from .linalg import RowBasis, nullspace_basis
from .qpoly import (LinearForm, Poly, as_fraction, json_array,
                    parse_linear_form)


class Arrangement:
    """A finite set of hyperplanes through the origin.

    The input order of the forms is preserved (it fixes serialization and
    all reported witnesses); set semantics rely on the canonical scaling
    of :class:`LinearForm`, so duplicates are plain equality.
    """

    def __init__(self, dim: int, forms: Iterable[LinearForm]):
        if dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        forms = tuple(forms)
        for form in forms:
            if form.dim != dim:
                raise ValueError(f"form {form} does not live in dimension {dim}")
        if len(set(forms)) != len(forms):
            raise ValueError("arrangement forms must be pairwise distinct")
        self.dim = dim
        self.forms = forms

    def __len__(self) -> int:
        return len(self.forms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Arrangement):
            return NotImplemented
        return self.dim == other.dim and set(self.forms) == set(other.forms)

    def __hash__(self) -> int:
        return hash((self.dim, frozenset(self.forms)))

    def __repr__(self) -> str:
        body = ", ".join(str(f) for f in self.forms) or "empty"
        return f"Arrangement(dim={self.dim}: {body})"

    def defining_polynomial(self) -> Poly:
        """Product of all forms; the empty product is 1."""
        q = Poly.one(self.dim)
        for form in self.forms:
            q = q * form.to_poly()
        return q

    def to_json(self) -> dict:
        return {"dim": self.dim, "forms": [f.to_json() for f in self.forms]}


def arrangement_from_json(data: dict) -> Arrangement:
    """Parse {"dim": n, "forms": [...]}; each form is a coefficient list
    of "p/q" strings or a textual linear form like "x1-x2"."""
    dim = data["dim"]
    if type(dim) is not int:
        raise ValueError(f"dim must be a JSON integer, got {dim!r}")
    forms = []
    for entry in json_array(data["forms"], "forms"):
        if isinstance(entry, str):
            forms.append(parse_linear_form(entry, dim))
        else:
            forms.append(LinearForm([as_fraction(c) for c
                                     in json_array(entry, "a form")]))
    return Arrangement(dim, forms)


@dataclass(frozen=True)
class FlatRef:
    """A lattice flat, stored as the set of all hyperplanes containing it.

    Instances should come from :func:`flat_closure`, which guarantees the
    closure property (the generator set is maximal for the flat).
    """

    generators: frozenset[int]
    rank: int


def flat_closure(arr: Arrangement, seed: Iterable[int]) -> FlatRef:
    """Close a set of hyperplane indices to the full flat they cut out.

    A hyperplane contains the intersection of the seed exactly when its
    form lies in the span of the seed forms, which is an exact rank test.
    """
    seed = sorted(set(seed))
    for i in seed:
        if not 0 <= i < len(arr):
            raise IndexError(f"hyperplane index {i} out of range")
    span = RowBasis(arr.dim)
    for i in seed:
        span.add(arr.forms[i].integral_coefficients)
    rank = span.rank
    members = frozenset(i for i, form in enumerate(arr.forms)
                        if span.contains(form.integral_coefficients))
    return FlatRef(generators=members, rank=rank)


def localize(arr: Arrangement, flat: FlatRef) -> Arrangement:
    """Subarrangement of the hyperplanes containing a flat.

    The ambient dimension is unchanged.  The flat must be closed in this
    arrangement (i.e. produced by :func:`flat_closure` on it).
    """
    if flat_closure(arr, flat.generators) != flat:
        raise ValueError("flat is not closed in this arrangement")
    return Arrangement(arr.dim, [arr.forms[i] for i in sorted(flat.generators)])


def product(first: Arrangement, second: Arrangement) -> Arrangement:
    """Product arrangement in the direct sum of the two ambient spaces."""
    dim = first.dim + second.dim
    pad_left = (Fraction(0),) * first.dim
    pad_right = (Fraction(0),) * second.dim
    forms = [LinearForm(f.coefficients + pad_right) for f in first.forms]
    forms += [LinearForm(pad_left + f.coefficients) for f in second.forms]
    return Arrangement(dim, forms)


def is_generic(arr: Arrangement) -> bool:
    """More hyperplanes than the dimension (>= 3) and every ell-subset of
    forms has full rank, i.e. any ell hyperplanes meet only at the origin."""
    n, ell = len(arr), arr.dim
    if not (n > ell >= 3):
        return False
    for subset in combinations(range(n), ell):
        basis = RowBasis(ell)
        for i in subset:
            basis.add(arr.forms[i].integral_coefficients)
        if basis.rank != ell:
            return False
    return True


# ---------------------------------------------------------------------------
# product decomposition

@dataclass(frozen=True)
class Decomposition:
    """Finest product decomposition of an arrangement.

    ``coordinates`` maps each normal i outside the greedy basis B to its
    coordinates over B, up to one nonzero factor: v_i is proportional to
    the sum of coordinates[i][p] * v_p.  The components partition the
    hyperplanes and are ordered by their smallest index.

    ``factors`` and ``basis_change`` are built together on first read.
    The essential factors come first, one per component in order, each in
    its own block of adapted coordinates; a rank-deficient arrangement
    gets one trailing empty factor.  ``basis_change`` holds the new
    coordinate covectors as rows in the old coordinates; a form with old
    coefficient row a has new coefficients a * basis_change^-1.
    """

    arrangement: Arrangement
    rank: int
    coordinates: dict[int, dict[int, int]]
    components: tuple[tuple[int, ...], ...]

    @property
    def factor_count(self) -> int:
        """One factor per component, and an empty one when the rank is
        below the dimension."""
        return len(self.components) + (self.rank < self.arrangement.dim)

    @property
    def factors(self) -> tuple[Arrangement, ...]:
        return self._built[0]

    @property
    def basis_change(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._built[1]

    @cached_property
    def _built(self) -> tuple[tuple[Arrangement, ...],
                              tuple[tuple[Fraction, ...], ...]]:
        """The normals of B in a component span its coordinate block, in
        which a normal of B is a unit vector and any other normal has its
        circuit coordinates, up to the factor that its linear form drops;
        unit vectors complete the coordinates, and any rank deficiency
        becomes an empty factor on them."""
        arr, coordinates = self.arrangement, self.coordinates
        dim = arr.dim
        # adapted coordinates: per-component blocks of B, then unit vectors
        change: list[list[Fraction]] = []
        row_of: dict[int, int] = {}
        blocks: list[tuple[int, int]] = []
        for component in self.components:
            start = len(change)
            for i in component:
                if i not in coordinates:
                    row_of[i] = len(change)
                    change.append(list(arr.forms[i].coefficients))
            blocks.append((start, len(change) - start))

        extension = RowBasis(dim)
        for row in change:
            extension.add(row)
        for k in range(dim):
            unit = [Fraction(1 if j == k else 0) for j in range(dim)]
            if extension.add(unit):
                change.append(unit)

        factors = []
        for component, (start, size) in zip(self.components, blocks):
            local_forms = []
            for i in component:
                coords = [Fraction(0)] * size
                for p, c in coordinates.get(i, {i: Fraction(1)}).items():
                    coords[row_of[p] - start] = c
                local_forms.append(LinearForm(coords))
            factors.append(Arrangement(size, local_forms))
        if self.rank < dim:
            factors.append(Arrangement(dim - self.rank, ()))
        return tuple(factors), tuple(tuple(r) for r in change)


def decompose(arr: Arrangement) -> Decomposition:
    """Finest decomposition of an arrangement into product factors.

    The components are read off the fundamental circuits of the normals,
    one nullspace on integers: that of the matrix whose columns are the
    forms' integral coefficients w_i = D_i * v_i (D_i the pivot entry, see
    :class:`LinearForm`).  Its canonical basis has one vector per normal i
    outside the greedy basis B (the pivot columns, which no column scaling
    moves), with a positive entry e at i, its last nonzero entry, and
    -e * c'_p at each p in B, where w_i = sum c'_p w_p: the fundamental
    circuit of i with respect to B (Oxley, Matroid Theory, ch. 4).  Then
    v_i = sum (c'_p * D_p / D_i) * v_p, so the coordinates of v_i are the
    c'_p rescaled by D_p.  Hyperplanes that share a circuit share a
    component, found by union-find.  The factors are built only when read.
    """
    n = len(arr)
    normals = [form.integral_coefficients for form in arr.forms]
    coordinates: dict[int, dict[int, int]] = {}
    for circuit in nullspace_basis([[w[j] for w in normals]
                                    for j in range(arr.dim)], n):
        support = sorted(circuit)  # the keys are not in column order
        coordinates[support[-1]] = {
            p: -circuit[p] * normals[p][arr.forms[p].pivot]
            for p in support[:-1]}

    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, coeffs in coordinates.items():
        for p in coeffs:
            ri, rp = find(i), find(p)
            parent[max(ri, rp)] = min(ri, rp)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return Decomposition(arr, n - len(coordinates), coordinates,
                         tuple(tuple(groups[root]) for root in sorted(groups)))


# ---------------------------------------------------------------------------
# named arrangements

def make_shi(ell: int) -> Arrangement:
    """The (ell+1)-dimensional coned Shi arrangement of type A.

    Coordinates are x1..x_ell plus the coning variable as the last one;
    the hyperplane count is 1 + 2*ell + ell*(ell-1).
    """
    if ell < 2:
        raise ValueError("the coned Shi arrangement needs ell >= 2")
    dim = ell + 1
    z = dim - 1

    def cov(entries: dict[int, int]) -> LinearForm:
        return LinearForm([Fraction(entries.get(i, 0)) for i in range(dim)])

    forms = [cov({z: 1})]
    for i in range(ell):
        forms.append(cov({i: 1}))
        forms.append(cov({i: 1, z: -1}))
    for i in range(ell):
        for j in range(i + 1, ell):
            forms.append(cov({i: 1, j: -1}))
            forms.append(cov({i: 1, j: -1, z: -1}))
    return Arrangement(dim, forms)


def make_named(name: str, dim: int | None = None) -> Arrangement:
    """Build a named arrangement: empty, boolean, braid, shi, or the
    irreducible 4-dimensional example x*y*z*w*(x+y+z)*(x+y+z+w)."""
    key = name.lower()
    if key == "empty":
        if dim is None or dim < 1:
            raise ValueError("empty arrangement needs a dimension >= 1")
        return Arrangement(dim, ())
    if key == "boolean":
        if dim is None or dim < 1:
            raise ValueError("boolean arrangement needs a dimension >= 1")
        return Arrangement(dim, [LinearForm([Fraction(1 if j == i else 0)
                                             for j in range(dim)])
                                 for i in range(dim)])
    if key == "braid":
        if dim is None or dim < 2:
            raise ValueError("braid arrangement needs a dimension >= 2")
        forms = []
        for i in range(dim):
            for j in range(i + 1, dim):
                forms.append(LinearForm([Fraction(1 if k == i else -1 if k == j else 0)
                                         for k in range(dim)]))
        return Arrangement(dim, forms)
    if key == "shi":
        if dim is None:
            raise ValueError("shi arrangement needs the parameter ell")
        return make_shi(dim)
    if key in ("holm-q1-counterexample", "holm-q1"):
        if dim is not None:
            raise ValueError(f"{name} is fixed in dimension 4 and takes no "
                             f"parameter")
        return arrangement_from_json({
            "dim": 4,
            "forms": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                      ["0", "0", "1", "0"], ["0", "0", "0", "1"],
                      ["1", "1", "1", "0"], ["1", "1", "1", "1"]],
        })
    raise ValueError(f"unknown arrangement name {name!r}")
